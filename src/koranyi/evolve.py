"""Radial method-of-lines simulator for the evolution equation.

For radial u the spatial operator collapses to the 1D expression

    u'' + (2N+1) u'/rho - (lambda/rho^2) u + rho^a |u|^p

on a truncated interval (rho_min, 1): the origin is singular, so the grid
stops at rho_min with a Neumann condition there (a modeling choice stated
in output metadata), and u is pinned to a constant boundary value at rho = 1.

`radial_rhs` is the definition of the discrete operator.  Its linear part is
one tridiagonal matrix L per grid and lambda, built from the same stencil
weights, plus an affine term carrying the inner slope.  `newmark.advance`
steps runs of one time order in lockstep, RODAS3 for k = 1 and Newmark for
k = 2, and owns the step and end policy (see its docstring): `phase_sweep`
sends all its cells in one call, `integrate` one run.  It and LAPACK are
imported at the first run, so importing this module loads no scipy.

Before a run, the spectrum of L on the free nodes is checked.  Where it has
an eigenvalue with positive real part (the uniform grid for every lambda < 0,
whose inner cells cannot resolve lambda/rho^2), the discretization itself
would manufacture growth, so `integrate` refuses the grid.

Everything here is illustrative: the underlying problem is an inequality
with no prescribed dynamics, and the simulated equality case near the
existence frontier must not be over-read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .hgroup import GroupContext
from .spectrum import ProblemParams, classify

MIN_CELLS = 32  # fewest cells a RadialGrid accepts
# most cells a RadialGrid accepts: `linear_part` solves a dense n x n
# eigenproblem, which takes about 2 s and 100 MB at 2048 cells and grows as
# n^3 in time and n^2 in memory
MAX_CELLS = 2048


@dataclass(frozen=True)
class RadialGrid:
    """Nodes on [rho_min, 1], boundary node exactly at 1."""

    rho_min: float = 1e-3
    n_cells: int = 128
    spacing: str = "uniform"

    def __post_init__(self) -> None:
        if not 0.0 < self.rho_min < 1.0:
            raise ValueError(f"rho_min must lie in (0, 1), got {self.rho_min}")
        if self.n_cells < MIN_CELLS:
            raise ValueError(f"need at least {MIN_CELLS} cells, got {self.n_cells}")
        if self.n_cells > MAX_CELLS:
            raise ValueError(f"need at most {MAX_CELLS} cells, got {self.n_cells}")
        if self.spacing not in ("uniform", "log"):
            raise ValueError(f"spacing must be 'uniform' or 'log', got {self.spacing!r}")

    def nodes(self) -> np.ndarray:
        if self.spacing == "uniform":
            return np.linspace(self.rho_min, 1.0, self.n_cells + 1)
        return np.exp(np.linspace(math.log(self.rho_min), 0.0, self.n_cells + 1))

    def describe(self) -> str:
        return f"{self.spacing}[{self.rho_min:g},1]x{self.n_cells}"


@dataclass(frozen=True)
class SimResult:
    status: str  # completed | blown_up | solver_stall
    t_final: float
    sup_norm_history: tuple[tuple[float, float], ...]
    blow_up_time: Optional[float]
    final_layers: np.ndarray  # (k, n_nodes) at t_final: u, du/dt, ...
    dt_policy: str
    note: str = ""
    end_reason: str = "completed"  # see the `newmark` module docstring
    steps: int = 0  # accepted steps
    rejected: int = 0  # step attempts that were not accepted


@lru_cache(maxsize=64)
def _grid_data(grid: RadialGrid) -> tuple:
    """Nodes, stencil weights, and the first spacing, computed once per grid."""
    rho = grid.nodes()
    hm = rho[1:-1] - rho[:-2]
    hp = rho[2:] - rho[1:-1]
    denom = hm * hp * (hm + hp)
    weights = (
        -(hp**2) / denom,          # d1 at i-1
        (hp**2 - hm**2) / denom,   # d1 at i
        hm**2 / denom,             # d1 at i+1
        2.0 * hp / denom,          # d2 at i-1
        -2.0 * (hm + hp) / denom,  # d2 at i
        2.0 * hm / denom,          # d2 at i+1
    )
    return rho, weights, rho[1] - rho[0]


def radial_rhs(
    u: np.ndarray,
    grid: RadialGrid,
    params: ProblemParams,
    nonlinear: bool = True,
    neumann_slope: float = 0.0,
) -> np.ndarray:
    """Spatial operator on one field layer.

    Interior nodes use 3-point stencils; the inner node applies a mirror
    ghost carrying the prescribed slope; the boundary node u[-1] is pinned
    to its constant Dirichlet value, so its time derivative is 0.
    """
    rho, (d1_lo, d1_mid, d1_hi, d2_lo, d2_mid, d2_hi), h = _grid_data(grid)
    out = np.zeros_like(u)

    ui, um, up = u[1:-1], u[:-2], u[2:]
    du = d1_lo * um + d1_mid * ui + d1_hi * up
    ddu = d2_lo * um + d2_mid * ui + d2_hi * up
    ri = rho[1:-1]
    out[1:-1] = ddu + (2 * params.ctx.N + 1) * du / ri - params.lam * ui / ri**2

    # inner Neumann node: ghost at rho_min - h with u_ghost = u[1] - 2 h g
    ghost = u[1] - 2.0 * h * neumann_slope
    ddu0 = (u[1] - 2.0 * u[0] + ghost) / h**2
    out[0] = ddu0 + (2 * params.ctx.N + 1) * neumann_slope / rho[0] - params.lam * u[0] / rho[0] ** 2

    if nonlinear:
        out[:-1] += rho[:-1] ** params.a * np.abs(u[:-1]) ** params.p

    out[-1] = 0.0
    return out


@dataclass(frozen=True)
class LinearPart:
    """The linear part of `radial_rhs`: L u + slope_coef * g e_0.

    `bands` holds L in `scipy.linalg.solve_banded` storage for (1, 1):
    bands[0, j] = L[j-1, j], bands[1, j] = L[j, j], bands[2, j] = L[j+1, j].
    The pinned boundary row is zero.  `max_real_eig` is the largest real part
    of the spectrum of L restricted to the free nodes.
    """

    bands: np.ndarray
    slope_coef: float
    max_real_eig: float


@lru_cache(maxsize=64)
def linear_part(grid: RadialGrid, N: int, lam: float) -> LinearPart:
    """L for one grid, N and lambda, from the stencil weights of `_grid_data`."""
    c = 2 * N + 1
    with np.errstate(all="ignore"):  # judged below, by the finiteness of the bands
        rho, (d1_lo, d1_mid, d1_hi, d2_lo, d2_mid, d2_hi), h = _grid_data(grid)
        ri = rho[1:-1]
        ab = np.zeros((3, rho.size))
        ab[0, 2:] = d2_hi + c * d1_hi / ri
        ab[1, 1:-1] = d2_mid + c * d1_mid / ri - lam / ri**2
        ab[2, :-2] = d2_lo + c * d1_lo / ri
        ab[0, 1] = 2.0 / h**2  # mirror ghost at the inner node
        ab[1, 0] = -2.0 / h**2 - lam / rho[0] ** 2
        slope_coef = c / rho[0] - 2.0 / h
    if not (np.all(np.isfinite(ab)) and np.isfinite(slope_coef)):
        raise ValueError(f"the linear part on {grid.describe()} is not finite; raise rho_min")
    ab.flags.writeable = False  # shared by every caller through the cache
    free = np.diag(ab[1, :-1]) + np.diag(ab[0, 1:-1], 1) + np.diag(ab[2, :-2], -1)
    max_real = float(np.max(np.linalg.eigvals(free).real))
    return LinearPart(ab, slope_coef, max_real)


def integrate(
    params: ProblemParams,
    ic: np.ndarray,
    grid: RadialGrid,
    t_end: float,
    boundary_value: float = 0.0,
    nonlinear: bool = True,
    source: Optional[Callable[[float, np.ndarray], np.ndarray]] = None,
    neumann_slope: Optional[Callable[[float], float]] = None,
) -> SimResult:
    """Advance the k-layer system to t_end or to blow-up.

    ic is (k, n_nodes), or (n_nodes,) for u alone with every higher layer
    starting at 0.  source(t, rho) adds to the top layer's rate
    (manufactured-solution forcing); neumann_slope(t) sets the inner slope
    (default homogeneous).  The sup-norm history holds sup|u| at t = 0 and
    at the `newmark.MAX_HISTORY` equally spaced times after it that the run
    reaches, then the end of a blow-up or stall.  Raises ValueError for bad
    input and for a grid whose linear part has spectrum in the right
    half-plane.
    """
    layers, op = _prepare(params, ic, grid, t_end, boundary_value)
    rho = grid.nodes()
    extra = _extra(rho, op, source, neumann_slope)
    from .newmark import advance

    (res,) = advance([(params, layers, op)], rho, t_end, nonlinear, extra)
    if isinstance(res, Exception):
        raise res
    return res


def _prepare(params, ic, grid, t_end, boundary_value):
    """Validate one run; return its initial layers, boundary node pinned, and
    the linear part of its grid."""
    if params.k not in (1, 2):
        raise ValueError(f"time order must be 1 or 2, got {params.k}")
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ValueError(f"t_end must be finite and positive, got {t_end}")
    if not math.isfinite(boundary_value):
        raise ValueError(f"boundary_value must be finite, got {boundary_value}")
    n = grid.n_cells + 1
    ic = np.asarray(ic, dtype=float)
    if ic.shape not in ((n,), (params.k, n)):
        raise ValueError(f"initial data must be ({n},) or ({params.k}, {n}), got {ic.shape}")
    layers = np.zeros((params.k, n))
    layers[: 1 if ic.ndim == 1 else None] = ic  # u alone: higher layers start at 0
    if not np.all(np.isfinite(layers)):
        raise ValueError("initial data contains non-finite values")
    op = linear_part(grid, params.ctx.N, params.lam)
    if op.max_real_eig > 0.0:
        raise ValueError(
            f"the linear part on {grid.describe()} has an eigenvalue with real part "
            f"{op.max_real_eig:.3g} > 0 at lambda = {params.lam:g}, so the grid would "
            'manufacture growth; use a log-spaced grid (spacing "log")'
        )
    layers[0, -1] = boundary_value
    if params.k == 2:
        layers[1, -1] = 0.0
    return layers, op


def _extra(rho, op, source, slope):
    """extra(t, g) adds the source and the inner slope term to the forcing g
    of one run in place; None when the run has neither."""
    if source is None and slope is None:
        return None

    def extra(t, g):
        if source is not None:
            g[:-1] += source(t, rho[:-1])
        if slope is not None:
            g[0] += op.slope_coef * slope(t)

    return extra


# ---------------------------------------------------------------------------
# phase sweep
# ---------------------------------------------------------------------------

def canonical_bump(rho: np.ndarray) -> np.ndarray:
    """The standard initial profile 0.1 (1-rho)^2 rho^2 used by sweeps."""
    return 0.1 * (1.0 - rho) ** 2 * rho**2


def phase_sweep(
    lambda_list: Sequence[float],
    a_list: Sequence[float],
    p_list: Sequence[float],
    ctx: GroupContext,
    k: int = 1,
    *,
    grid: RadialGrid,
    t_end: float,
    boundary_value: float = 0.1,
    threads: Optional[int] = None,  # ignored; the benchmark passes it (ROADMAP item 6)
) -> list[dict]:
    """Run the canonical setup over the parameter box; one row per tuple.

    Rows carry the simulator outcome next to the classifier verdict; cells
    whose parameters are inadmissible are reported as errors rather than
    aborting the sweep.  The admissible cells advance in lockstep, all in
    one `newmark.advance` call, and every cell's row is the one a lone
    `integrate` call gives, whatever the order of the lists.
    """
    rho = grid.nodes()
    ic = canonical_bump(rho)

    rows, jobs, cells = [], [], []
    for lam in lambda_list:
        for a in a_list:
            for p in p_list:
                row = {
                    "lambda": lam, "a": a, "p": p, "k": k,
                    "status": "", "blow_up_time": "", "classifier_verdict": "",
                    "grid": grid.describe(), "dt_policy": "",
                    "end_reason": "", "steps": "", "rejected": "",
                }
                rows.append(row)
                try:
                    params = ProblemParams(ctx, lam, a, p, k)
                except ValueError as exc:
                    row["status"] = f"error: {exc}"
                    continue
                row["classifier_verdict"] = classify(params).verdict.value
                try:
                    cells.append((params, *_prepare(params, ic, grid, t_end, boundary_value)))
                except ValueError as exc:
                    row["status"] = f"error: {exc}"
                    continue
                jobs.append(row)
    from .newmark import advance

    for row, res in zip(jobs, advance(cells, rho, t_end, True, history=False)):
        if isinstance(res, Exception):
            row["status"] = f"error: {res}"
            continue
        row["status"] = res.status
        row["blow_up_time"] = "" if res.blow_up_time is None else f"{res.blow_up_time:.6g}"
        row["dt_policy"] = res.dt_policy
        row.update(end_reason=res.end_reason, steps=res.steps, rejected=res.rejected)
    return rows

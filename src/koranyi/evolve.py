"""Radial method-of-lines simulator for the evolution equation.

For radial u the spatial operator collapses to the 1D expression

    u'' + (2N+1) u'/rho - (lambda/rho^2) u + rho^a |u|^p

on a truncated interval (rho_min, 1): the origin is singular, so the grid
stops at rho_min with a Neumann condition there (a modeling choice recorded
in output metadata), and u is pinned to a constant boundary value at rho = 1.

`radial_rhs` is the definition of the discrete operator.  Its linear part is
one tridiagonal matrix L per grid and lambda, built from the same stencil
weights, plus an affine term carrying the inner slope.  Each time order gets
the solver that fits it:

- k = 1 (parabolic and stiff near rho_min): RODAS3 (Sandu et al. 1997;
  Hairer & Wanner, Solving ODEs II, IV.7), an L-stable, stiffly accurate
  Rosenbrock method of order 3.  Each attempt factorizes I/(h/2) - J once,
  J = L + diag(p rho^a |u|^{p-1} sign u), for four banded solves and three
  forcing evaluations; a source or an inner slope enters through `_extra`,
  and its time derivative as a forward difference over a probe inside the
  step.  dt follows the RMS of the embedded error at RODAS_RTOL and
  RODAS_ATOL by 0.9 err^{-1/3}, clipped to [0.2, 5] and not above 1 right
  after a rejection, and is capped at RODAS_RATE_CAP / max diag J, short
  of the pole of the step's rational function at h = 2/J, past which a
  step can jump over a local blow-up.
- k = 2 (hyperbolic): the Newmark average-acceleration step (beta = 1/4,
  gamma = 1/2).  It is unconditionally stable and does not damp the linear
  part, which goes through a banded solve; the nonlinearity is explicit,
  evaluated once per step at the Taylor predictor.  dt follows the
  Zienkiewicz-Xie local error estimate dt^2/12 |a_{n+1} - a_n|, relative to
  the sup norm, and is capped at NEWMARK_RATE_CAP / sqrt(max p rho^a
  |u|^{p-1}), so it shrinks as a blow-up develops.

Both orders record sup|u| at MAX_HISTORY + 1 equally spaced times, from the
cubic Hermite interpolant of u and du/dt within each step.

`newmark.advance` steps runs of one time order in lockstep, with dt, the
counters and the end of each run its own: `phase_sweep` sends all its cells
in one call, `integrate` one run.  It and LAPACK are imported at the first
run, so importing this module loads no scipy.

A run of either order ends in one of four ways, `SimResult.end_reason`:

- completed: t_end was reached;
- sup_threshold: sup|u| crossed BLOWUP_SUP at the end of an accepted step,
  which is T* (blown_up);
- dt_floor: dt fell below ULP_FLOOR ulps of t, or of the first dt while t
  is smaller, once sup|u| grew STALL_GROWTH-fold, which is T* (blown_up);
- solver_stall: a run at that floor without that growth, for example one
  whose forcing turned non-finite, since a non-finite attempt is rejected
  like any other; the cause is in the note.

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

BLOWUP_SUP = 1e8
MIN_CELLS = 32  # fewest cells a RadialGrid accepts
# most cells a RadialGrid accepts: `linear_part` solves a dense n x n
# eigenproblem, which takes about 2 s and 100 MB at 2048 cells and grows as
# n^3 in time and n^2 in memory
MAX_CELLS = 2048
STALL_GROWTH = 100.0  # sup growth that makes a stopped run a blow-up
ULP_FLOOR = 16  # a run stops once dt < ULP_FLOOR ulps of max(t, first dt)
RODAS_RTOL = 1e-6  # RMS error, node by node relative to max(|u_n|, |u_n+1|)
RODAS_ATOL = 1e-10
RODAS_DT0 = 1e-5  # first k = 1 dt, as a fraction of t_end
RODAS_RATE_CAP = 0.3  # dt <= cap / largest diagonal entry of J, where positive
NEWMARK_RTOL = 1e-4  # local error relative to the sup norm
NEWMARK_ATOL = 1e-12
NEWMARK_RATE_CAP = 0.25  # dt <= cap / sqrt(nonlinear rate)
NEWMARK_DT0 = 2.5e-3  # first dt, as a fraction of t_end
MAX_HISTORY = 400  # sup-norm samples per run past t = 0, at equal spacing in t


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
    end_reason: str = "completed"  # see the module docstring
    steps: int = 0  # accepted steps
    rejected: int = 0  # step attempts that were not accepted
    lu: int = 0  # block factorizations the run took part in, one per attempt


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


def _diagonals(ab: np.ndarray) -> tuple:
    """The upper, main and lower diagonals of the flat block matrix of the
    contiguous bands ab (3, ..., n) in `LinearPart` storage, as views."""
    return ab[0].ravel()[1:], ab[1].ravel(), ab[2].ravel()[:-1]


def _band_product(diagonals: tuple, u: np.ndarray) -> np.ndarray:
    """L u for the `_diagonals` of the bands of L and states u (..., n),
    taken on the flat block matrix of all states at once, whose couplings
    between blocks are zero.  Those couplings reach only the boundary nodes
    and the first nodes; the boundary entry is set to 0, the boundary row of
    L, so that a NaN in the first node of one state does not reach the state
    before it as 0 * NaN."""
    upper, diag, lower = diagonals
    flat = u.ravel()
    out = diag * flat
    out[:-1] += upper * flat[1:]
    out[1:] += lower * flat[:-1]
    out = out.reshape(u.shape)
    out[..., -1] = 0.0
    return out


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

    ic is (k, n_nodes), or (n_nodes,) for k = 1.  source(t, rho) adds to the
    top layer's rate (manufactured-solution forcing); neumann_slope(t) sets
    the inner slope (default homogeneous).  The sup-norm history holds
    sup|u| at t = 0 and at the MAX_HISTORY equally spaced times after it
    that the run reaches, then the end of a blow-up or stall.  Raises
    ValueError for bad input and for a grid whose linear part has spectrum
    in the right half-plane.
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
    layers = np.array(ic, dtype=float, copy=True)
    if layers.ndim == 1:
        layers = layers[None, :]
    if layers.shape != (params.k, n):
        raise ValueError(f"initial data must be ({params.k}, {n}), got {layers.shape}")
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
    whose parameters are inadmissible are recorded as errors rather than
    aborting the sweep.  The admissible cells advance in lockstep, all in
    one `newmark.advance` call, and every cell's row is the one a lone
    `integrate` call gives, whatever the order of the lists.
    """
    rho = grid.nodes()
    ic0 = canonical_bump(rho)
    ic = ic0 if k == 1 else np.stack([ic0, np.zeros_like(ic0)])

    rows, jobs, cells = [], [], []
    for lam in lambda_list:
        for a in a_list:
            for p in p_list:
                row = {
                    "lambda": lam, "a": a, "p": p, "k": k,
                    "status": "", "blow_up_time": "", "classifier_verdict": "",
                    "grid": grid.describe(), "dt_policy": "",
                    "end_reason": "", "steps": "", "rejected": "", "lu": "",
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
        row.update(end_reason=res.end_reason, steps=res.steps, rejected=res.rejected, lu=res.lu)
    return rows

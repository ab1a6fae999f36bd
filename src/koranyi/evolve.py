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

- k = 1 (parabolic and stiff near rho_min): scipy's LSODA (Adams or
  backward differentiation, switched by stiffness), stepped directly, with
  the analytic Jacobian L + diag(p rho^a |u|^{p-1} sign u) in the (1, 1)
  band storage that `linear_part` holds.  Its right-hand side is L u by the
  bands plus `_forcing`, the helper both solvers share for everything but
  L u.  After each accepted step sup|u| is tested against BLOWUP_SUP, and
  T* is the end of the first step that crosses it.  There is no root
  search inside that step: near blow-up LSODA's interpolant does not
  reproduce the state at the step's start, and the step is a negligible
  part of T*.
- k = 2 (hyperbolic): the Newmark average-acceleration step (beta = 1/4,
  gamma = 1/2).  It is unconditionally stable and does not damp the linear
  part, which goes through a banded solve; the nonlinearity is explicit,
  evaluated once per step at the Taylor predictor.  dt follows the
  Zienkiewicz-Xie local error estimate dt^2/12 |a_{n+1} - a_n|, relative to
  the sup norm, and is capped at NEWMARK_RATE_CAP / sqrt(max p rho^a
  |u|^{p-1}), so it shrinks as a blow-up develops.

Each scipy routine (`LSODA`, LAPACK's `dgtsv`) is imported at its call
site, so importing this module loads no scipy.

A run ends in one of five ways, `SimResult.end_reason`:

- completed: t_end was reached;
- sup_threshold: sup|u| crossed BLOWUP_SUP, or the k = 2 state turned
  non-finite (blown_up);
- step_collapse: LSODA failed, its state turned non-finite or it took
  K1_MAX_STEPS steps, after sup|u| grew at least STALL_GROWTH-fold; read as
  blow-up at the last finite state (blown_up);
- solver_stall: the same stop without that growth; status solver_stall,
  with the cause in the note;
- dt_floor: the Newmark step fell below DT_FLOOR (blown_up).

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
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .hgroup import GroupContext
from .spectrum import ProblemParams, classify

BLOWUP_SUP = 1e8
DT_FLOOR = 1e-12
MIN_CELLS = 32  # fewest cells a RadialGrid accepts
STALL_GROWTH = 100.0  # sup growth that makes a stopped k = 1 run a blow-up
K1_RTOL = 1e-7
K1_ATOL = 1e-10
K1_MAX_STEPS = 50_000  # LSODA steps on below the spacing of t; a stall ends here
NEWMARK_RTOL = 1e-4  # local error relative to the sup norm
NEWMARK_ATOL = 1e-12
NEWMARK_RATE_CAP = 0.25  # dt <= cap / sqrt(nonlinear rate)
NEWMARK_DT0 = 2.5e-3  # first dt, as a fraction of t_end
MAX_HISTORY = 400  # sup-norm samples recorded per run, at equal spacing in t


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
    lu: int = 0  # LSODA Jacobians, each factorized once, or Newmark banded solves


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
    boundary_value: float,
    nonlinear: bool = True,
    neumann_slope: float = 0.0,
) -> np.ndarray:
    """Spatial operator on one field layer; assumes u[-1] == boundary_value.

    Interior nodes use 3-point stencils; the inner node applies a mirror
    ghost carrying the prescribed slope; the boundary node is pinned (its
    time derivative is 0, matching the constant Dirichlet value).
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

    def apply(self, u: np.ndarray) -> np.ndarray:
        """L u by the three bands."""
        ab = self.bands
        out = ab[1] * u
        out[:-1] += ab[0, 1:] * u[1:]
        out[1:] += ab[2, :-1] * u[:-1]
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
    the inner slope (default homogeneous).  The sup-norm history holds about
    MAX_HISTORY samples.  Raises ValueError for bad input and for a grid
    whose linear part has spectrum in the right half-plane.
    """
    if params.k not in (1, 2):
        raise ValueError(f"time order must be 1 or 2, got {params.k}")
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ValueError(f"t_end must be finite and positive, got {t_end}")
    if not math.isfinite(boundary_value):
        raise ValueError(f"boundary_value must be finite, got {boundary_value}")
    rho = grid.nodes()
    layers = np.array(ic, dtype=float, copy=True)
    if layers.ndim == 1:
        layers = layers[None, :]
    if layers.shape != (params.k, rho.size):
        raise ValueError(f"initial data must be ({params.k}, {rho.size}), got {layers.shape}")
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
    slope = neumann_slope if neumann_slope is not None else (lambda t: 0.0)
    forcing = _forcing(params, rho, op, nonlinear, source, slope)
    run = _lsoda if params.k == 1 else _newmark
    return run(params, layers, rho, op, t_end, nonlinear, forcing)


def _forcing(params, rho, op, nonlinear, source, slope):
    """forcing(t, u): everything but L u in the rate at the state u (the
    nonlinearity rho^a |u|^p, the source and the inner slope), and the
    nonlinear rate max p rho^a |u|^(p-1)."""
    weight = rho[:-1] ** params.a
    p = params.p

    def forcing(t, u):
        g = np.zeros(u.shape)
        rate = 0.0
        if nonlinear:
            mag = np.abs(u[:-1])
            w = weight * mag ** (p - 1.0)
            g[:-1] = w * mag
            rate = p * w.max()
        if source is not None:
            g[:-1] += source(t, rho[:-1])
        g[0] += op.slope_coef * slope(t)
        return g, rate

    return forcing


def _lsoda(params, layers, rho, op, t_end, nonlinear, forcing) -> SimResult:
    """k = 1 by stepping scipy's LSODA directly, with the Jacobian in the (1, 1)
    band storage of `op.bands`; T* is the end of the first step whose sup|u|
    exceeds BLOWUP_SUP."""
    from scipy.integrate import LSODA

    calls = set()  # distinct times of right-hand-side calls

    def fun(t, u):
        calls.add(t)
        return op.apply(u) + forcing(t, u)[0]

    weight = rho[:-1] ** params.a

    def jac(t, u):
        jb = op.bands.copy()
        if nonlinear:
            jb[1, :-1] += params.p * weight * np.abs(u[:-1]) ** (params.p - 1.0) * np.sign(u[:-1])
        return jb

    solver = LSODA(fun, 0.0, layers[0], t_end, jac=jac, lband=1, uband=1,
                   rtol=K1_RTOL, atol=K1_ATOL)
    record = np.linspace(0.0, t_end, MAX_HISTORY + 1)
    history = []
    t, u = 0.0, layers[0]
    sup0 = sup = float(np.abs(u).max())
    accepted = {0.0}
    steps = recorded = 0
    while solver.status == "running":
        if steps == K1_MAX_STEPS:
            message = f"{steps} steps without reaching t_end"
            break
        message = solver.step()
        if solver.status == "failed":
            break
        sup_new = float(np.abs(solver.y).max())
        if not math.isfinite(sup_new):
            message = f"non-finite right-hand side at t = {solver.t:.6g}"
            break
        steps += 1
        t, u, sup = float(solver.t), solver.y, sup_new
        accepted.add(t)
        new = int(np.searchsorted(record, t, side="right"))
        if new > recorded:
            at = record[recorded:new]
            history += zip(at.tolist(), np.abs(solver.dense_output()(at)).max(axis=0).tolist())
            recorded = new
        if sup > BLOWUP_SUP:
            break
    counters = {"steps": steps, "rejected": len(calls - accepted), "lu": int(solver.njev)}
    policy = (f"lsoda rtol={K1_RTOL:g} atol={K1_ATOL:g} banded jacobian; "
              f"blow-up at sup>{BLOWUP_SUP:g} or collapse after {STALL_GROWTH:g}x growth")
    note = ""
    if sup > BLOWUP_SUP:
        status, reason, blow_time = "blown_up", "sup_threshold", t
        note = f"sup norm {sup:.3e} at t = {t:.6g}"
    elif message is None and solver.status == "finished":
        status, reason, blow_time = "completed", "completed", None
    else:
        if sup > 0.0 and sup >= STALL_GROWTH * sup0:
            status, reason, blow_time = "blown_up", "step_collapse", t
        else:
            status, reason, blow_time = "solver_stall", "solver_stall", None
        note = (f"{message}; last finite state at t = {t:.6g}, sup {sup:.3e} "
                f"({sup / sup0 if sup0 > 0 else math.inf:.3g}x the initial sup)")
    if status != "completed":
        history.append((t, sup))
    return SimResult(status, t, tuple(history), blow_time, np.array(u, dtype=float)[None, :],
                     policy, note, reason, **counters)


def _newmark(params, layers, rho, op, t_end, nonlinear, forcing) -> SimResult:
    """k = 2 by average acceleration; linear part implicit, nonlinearity explicit."""
    # LAPACK's tridiagonal solver, which scipy.linalg.solve_banded dispatches to
    # for one band on each side.  Called directly, it skips solve_banded's
    # per-call argument checks, which cost several times a 65-node solve.
    from scipy.linalg.lapack import dgtsv

    u, v = layers[0].copy(), layers[1].copy()
    g, rate = forcing(0.0, u)
    a = op.apply(u) + g
    t = 0.0
    sup = float(np.abs(u).max())
    history = [(0.0, sup)]
    record_dt = t_end / MAX_HISTORY
    next_record = record_dt
    status, reason, blow_time, note = "running", "completed", None, ""
    steps = rejected = 0
    dt = NEWMARK_DT0 * t_end
    grow_cap = 2.0
    while t < t_end:
        # the rate of the last predictor, a second-order guess of the current state
        if rate > 0.0:
            dt = min(dt, NEWMARK_RATE_CAP / math.sqrt(rate))
        if dt < DT_FLOOR:
            status, reason, blow_time = "blown_up", "dt_floor", t
            note = f"dt underflow ({dt:.3e}) at t = {t:.6g}"
            history.append((t, sup))
            break
        dt = min(dt, t_end - t)
        q = 0.25 * dt * dt
        u_star = u + dt * v + q * a
        g, rate_new = forcing(t + dt, u_star + q * a)  # Taylor predictor u + dt v + dt^2/2 a
        system = -q * op.bands
        system[1] += 1.0
        *_, u_new, info = dgtsv(system[2, :-1], system[1], system[0, 1:], u_star + q * g)
        if info != 0:
            raise RuntimeError(f"singular Newmark system at t = {t:.6g}, dt = {dt:.3e}")
        a_new = op.apply(u_new) + g
        sup_new = float(np.abs(u_new).max())
        err = (dt * dt / 12.0) * float(np.abs(a_new - a).max()) / (
            NEWMARK_RTOL * sup_new + NEWMARK_ATOL)
        if err > 1.0:
            rejected += 1
            dt *= max(0.2, 0.9 * err ** (-1.0 / 3.0))
            grow_cap = 1.0
            continue
        v = v + 0.5 * dt * (a + a_new)
        u, a, sup, rate = u_new, a_new, sup_new, rate_new
        t += dt
        steps += 1
        if not sup <= BLOWUP_SUP:  # also catches a non-finite state
            status, reason, blow_time = "blown_up", "sup_threshold", t
            note = f"sup norm {sup:.3e} at t = {t:.6g}"
            history.append((t, sup))
            break
        if t >= next_record or t >= t_end:
            history.append((t, sup))
            next_record += record_dt
        dt *= min(grow_cap, 0.9 * err ** (-1.0 / 3.0)) if err > 0.0 else grow_cap
        grow_cap = 2.0

    if status == "running":
        status = "completed"
    policy = (f"newmark beta=1/4 gamma=1/2 banded; dt by local error rtol={NEWMARK_RTOL:g} "
              f"of sup and cap {NEWMARK_RATE_CAP:g}/sqrt(p rho^a |u|^(p-1))")
    return SimResult(status, t, tuple(history), blow_time, np.stack([u, v]), policy, note,
                     reason, steps=steps, rejected=rejected, lu=steps + rejected)


# ---------------------------------------------------------------------------
# manufactured solution helpers
# ---------------------------------------------------------------------------

def mms_reference(t: float, rho: np.ndarray) -> np.ndarray:
    """The manufactured profile e^{-t} cos(pi rho/2); vanishes at rho = 1."""
    return np.exp(-t) * np.cos(0.5 * math.pi * rho)


def mms_source(params: ProblemParams) -> Callable[[float, np.ndarray], np.ndarray]:
    """Forcing that makes mms_reference an exact solution of the k-th order
    equation (nonlinearity included; the profile is nonnegative on [0,1])."""
    half_pi = 0.5 * math.pi
    sign = -1.0 if params.k == 1 else 1.0  # d^k/dt^k e^{-t} = (-1)^k e^{-t}

    def src(t: float, rho: np.ndarray) -> np.ndarray:
        e = math.exp(-t)
        c = np.cos(half_pi * rho)
        s = np.sin(half_pi * rho)
        spatial = (
            -half_pi**2 * e * c
            - (2 * params.ctx.N + 1) * half_pi * e * s / rho
            - params.lam * e * c / rho**2
            + rho**params.a * (e * c) ** params.p
        )
        return sign * e * c - spatial

    return src


def mms_neumann(rho_min: float) -> Callable[[float], float]:
    """Exact inner slope of the manufactured profile."""
    half_pi = 0.5 * math.pi
    return lambda t: -math.exp(-t) * half_pi * math.sin(half_pi * rho_min)


def mms_initial_layers(params: ProblemParams, grid: RadialGrid) -> np.ndarray:
    rho = grid.nodes()
    u0 = mms_reference(0.0, rho)
    if params.k == 1:
        return u0[None, :]
    return np.stack([u0, -u0])  # du*/dt = -u* at t = 0


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
    threads: Optional[int] = None,
) -> list[dict]:
    """Run the canonical setup over the parameter box; one row per tuple.

    Rows carry the simulator outcome next to the classifier verdict; cells
    whose parameters are inadmissible are recorded as errors rather than
    aborting the sweep.  Deterministic: fixed data, ordered assembly.
    """
    rho = grid.nodes()
    ic0 = canonical_bump(rho)

    cells = [
        (lam, a, p) for lam in lambda_list for a in a_list for p in p_list
    ]

    def run(cell: tuple[float, float, float]) -> dict:
        lam, a, p = cell
        row = {
            "lambda": lam, "a": a, "p": p, "k": k,
            "status": "", "blow_up_time": "", "classifier_verdict": "",
            "grid": grid.describe(), "dt_policy": "",
            "end_reason": "", "steps": "", "rejected": "", "lu": "",
        }
        try:
            params = ProblemParams(ctx, lam, a, p, k)
        except ValueError as exc:
            row["status"] = f"error: {exc}"
            return row
        row["classifier_verdict"] = classify(params).verdict.value
        ic = ic0 if k == 1 else np.stack([ic0, np.zeros_like(ic0)])
        try:
            res = integrate(
                params, ic, grid, t_end, boundary_value=boundary_value
            )
        except (ValueError, RuntimeError) as exc:
            row["status"] = f"error: {exc}"
            return row
        row["status"] = res.status
        row["blow_up_time"] = "" if res.blow_up_time is None else f"{res.blow_up_time:.6g}"
        row["dt_policy"] = res.dt_policy
        row.update(end_reason=res.end_reason, steps=res.steps, rejected=res.rejected, lu=res.lu)
        return row

    if threads is None:
        threads = int(os.environ.get("KORANYI_THREADS", "0")) or (os.cpu_count() or 1)
    if threads > 1 and len(cells) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(run, cells))
    else:
        rows = [run(c) for c in cells]
    return rows

"""The k = 2 stepper: Newmark average acceleration over runs in lockstep.

`advance` steps any number of k = 2 runs on one grid together.  Each
attempt is one tridiagonal solve of their block-diagonal system, while dt,
the counters and the end of each run stay its own, so a run's result does
not depend on the runs beside it.  `evolve.phase_sweep` sends all its k = 2
cells through one call, and `evolve.integrate` sends one run; the scheme,
its step control and its tolerances are described in `evolve`.

`evolve` imports this module at its first k = 2 run, so commands that step
no k = 2 run never load it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .evolve import (
    BLOWUP_SUP,
    DT_FLOOR,
    MAX_HISTORY,
    NEWMARK_ATOL,
    NEWMARK_DT0,
    NEWMARK_RATE_CAP,
    NEWMARK_RTOL,
    SimResult,
    _band_product,
)


@dataclass(eq=False)
class _Run:
    """The step controller's state of one Newmark run, on Python floats."""

    index: int  # position in the caller's list of runs
    p: float
    dt: float
    next_record: float
    t: float = 0.0
    sup: float = 0.0
    rate: float = 0.0
    history: list = field(default_factory=list)
    grow_cap: float = 2.0
    steps: int = 0
    rejected: int = 0
    # once the run ends: (status, end_reason, blow-up time, note), or the error
    end: Optional[object] = None


def advance(cells, rho, t_end, nonlinear, extra=None) -> list:
    """k = 2 by average acceleration; linear part implicit, nonlinearity explicit.

    cells holds (params, layers, op) for B runs on the grid of rho, which
    advance in lockstep: u, v and a are (B, n) arrays, and each attempt
    solves every running system in one `dgtsv` call on the block-diagonal
    matrix of order B n.  The blocks decouple exactly, since the boundary
    row of L is zero: the couplings between blocks are zero and partial
    pivoting never crosses them.  dt and the counters are kept per run on
    Python floats, so every run steps as it would alone; a rejected run keeps
    its state, and a run leaves the arrays when it ends.  extra (B = 1 only)
    adds a source and an inner slope to the forcing.  Returns, in the order
    of cells, a SimResult or, for a run whose system was singular, a
    RuntimeError; no cells give no results.
    """
    if not cells:
        return []
    # LAPACK's tridiagonal solver, which scipy.linalg.solve_banded dispatches to
    # for one band on each side.  Called directly, it skips solve_banded's
    # per-call argument checks, which cost several times a 65-node solve.
    from scipy.linalg.lapack import dgtsv

    n = rho.size
    record_dt = t_end / MAX_HISTORY
    # runs of equal p sit next to each other, so |u|^(p-1) is raised with one
    # scalar exponent per slice (an array of exponents rounds differently)
    order = sorted(range(len(cells)), key=lambda i: cells[i][0].p)
    live = [_Run(i, cells[i][0].p, NEWMARK_DT0 * t_end, record_dt) for i in order]
    u = np.stack([cells[i][1][0] for i in order])
    v = np.stack([cells[i][1][1] for i in order])
    bands = np.stack([cells[i][2].bands for i in order], axis=1)
    weight = np.stack([rho[:-1] ** cells[i][0].a for i in order])
    slices, p_col = _p_slices(live)
    results = [None] * len(cells)
    policy = (f"newmark beta=1/4 gamma=1/2 banded; dt by local error rtol={NEWMARK_RTOL:g} "
              f"of sup and cap {NEWMARK_RATE_CAP:g}/sqrt(p rho^a |u|^(p-1))")

    def forcing(t, x):
        """Everything but L u in the rates at the states x, and each run's
        nonlinear rate max p rho^a |x|^(p-1)."""
        g = np.zeros(x.shape)
        if not nonlinear:
            rate = [0.0] * len(live)
        else:
            mag = np.abs(x[:, :-1])
            w = np.empty(mag.shape)
            for p, rows in slices:
                w[rows] = weight[rows] * mag[rows] ** (p - 1.0)
            g[:, :-1] = w * mag
            rate = (p_col * w.max(axis=1)).tolist()
        if extra is not None:
            extra(t, g[0])
        return g, rate

    g, rate = forcing(0.0, u)
    a = _band_product(bands, u) + g
    for run, sup, r0 in zip(live, np.abs(u).max(axis=1).tolist(), rate):
        run.sup, run.rate, run.history = sup, r0, [(0.0, sup)]

    while live:
        for run in live:
            # the rate of the last predictor, a second-order guess of the current state
            if run.rate > 0.0:
                run.dt = min(run.dt, NEWMARK_RATE_CAP / math.sqrt(run.rate))
            if run.dt < DT_FLOOR:
                run.end = ("blown_up", "dt_floor", run.t,
                           f"dt underflow ({run.dt:.3e}) at t = {run.t:.6g}")
                run.history.append((run.t, run.sup))
            else:
                run.dt = min(run.dt, t_end - run.t)

        if all(run.end is None for run in live):
            dt = np.array([[run.dt] for run in live])
            q = 0.25 * dt * dt
            u_star = u + dt * v + q * a
            # Taylor predictor u + dt v + dt^2/2 a; extra sees only run 0's time
            g, rate_new = forcing(live[0].t + live[0].dt, u_star + q * a)
            system = -q * bands
            system[1] += 1.0
            rhs = u_star + q * g
            *_, x, info = dgtsv(system[2].ravel()[:-1], system[1].ravel(),
                                system[0].ravel()[1:], rhs.ravel())
            if info != 0:
                run = live[(info - 1) // n]  # the other runs retry the same step
                run.end = RuntimeError(
                    f"singular Newmark system at t = {run.t:.6g}, dt = {run.dt:.3e}")
            else:
                u_new = x.reshape(u.shape)
                sup_new = np.abs(u_new).max(axis=1)
                if len(live) > 1 and not np.isfinite(sup_new).all():
                    # 0 * inf at a block edge spreads NaN to the neighbours:
                    # solve each non-finite block again on its own
                    for r in np.flatnonzero(~np.isfinite(sup_new)).tolist():
                        *_, u_new[r], _ = dgtsv(system[2, r, :-1], system[1, r],
                                                system[0, r, 1:], rhs[r])
                    sup_new = np.abs(u_new).max(axis=1)
                a_new = _band_product(bands, u_new) + g
                v_new = v + 0.5 * dt * (a + a_new)
                change = np.abs(a_new - a).max(axis=1).tolist()
                accepted = [
                    _control(run, d, sup, r_new, t_end, record_dt)
                    for run, d, sup, r_new in zip(live, change, sup_new.tolist(), rate_new)
                ]
                if all(accepted):
                    u, v, a = u_new, v_new, a_new
                else:
                    took = np.array(accepted)[:, None]
                    u, v, a = (np.where(took, new, old)
                               for new, old in ((u_new, u), (v_new, v), (a_new, a)))

        if any(run.end is not None for run in live):
            keep = []
            for r, run in enumerate(live):
                if run.end is None:
                    keep.append(r)
                elif isinstance(run.end, Exception):
                    results[run.index] = run.end
                else:
                    status, reason, blow_time, note = run.end
                    results[run.index] = SimResult(
                        status, run.t, tuple(run.history), blow_time, np.stack([u[r], v[r]]),
                        policy, note, reason, steps=run.steps, rejected=run.rejected,
                        lu=run.steps + run.rejected)
            live = [live[r] for r in keep]
            u, v, a, weight, bands = u[keep], v[keep], a[keep], weight[keep], bands[:, keep]
            slices, p_col = _p_slices(live)
    return results


def _p_slices(runs):
    """(p, rows) for each stretch of runs that share p, and the column of p."""
    slices, start = [], 0
    for p, same in itertools.groupby(run.p for run in runs):
        stop = start + len(list(same))
        slices.append((p, slice(start, stop)))
        start = stop
    return slices, np.array([run.p for run in runs])


def _control(run, change, sup, rate, t_end, record_dt) -> bool:
    """Judge one run's attempt by its local error estimate and set its next
    dt; on acceptance advance its clock, counters and history and mark its
    end.  Returns whether the attempt was accepted."""
    err = (run.dt * run.dt / 12.0) * change / (NEWMARK_RTOL * sup + NEWMARK_ATOL)
    if err > 1.0:
        run.rejected += 1
        run.dt *= max(0.2, 0.9 * err ** (-1.0 / 3.0))
        run.grow_cap = 1.0
        return False
    run.t += run.dt
    run.sup, run.rate = sup, rate
    run.steps += 1
    if not sup <= BLOWUP_SUP:  # also catches a non-finite state
        run.end = ("blown_up", "sup_threshold", run.t, f"sup norm {sup:.3e} at t = {run.t:.6g}")
        run.history.append((run.t, sup))
        return True
    if run.t >= run.next_record or run.t >= t_end:
        run.history.append((run.t, sup))
        run.next_record += record_dt
    run.dt *= min(run.grow_cap, 0.9 * err ** (-1.0 / 3.0)) if err > 0.0 else run.grow_cap
    run.grow_cap = 2.0
    if run.t >= t_end:
        run.end = ("completed", "completed", None, "")
    return True

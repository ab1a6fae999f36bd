"""Lockstep time stepping: Newmark for k = 2 and RODAS3 for k = 1.

`advance` steps any number of runs of one time order on one grid together,
with dt, the counters and the end of each run its own; `evolve` imports this
module at its first run, so LAPACK, loaded here, stays off the import path
of every other command.  Its tridiagonal routines come from scipy's compiled
extension `scipy.linalg._flapack`, loaded alone: the `scipy.linalg` package's
array-API layer loads numpy.f2py, numpy.testing and about 300 more modules,
+27 MB of resident memory and 0.15-0.22 s, where the extension costs +2.6 MB
and 3-4 ms (CPython 3.11.7, scipy 1.17.1, one OpenBLAS thread).  Each time
order gets the solver that fits it:

- k = 1 (parabolic and stiff near rho_min): RODAS3 (Sandu et al. 1997;
  Hairer & Wanner, Solving ODEs II, IV.7), an L-stable, stiffly accurate
  Rosenbrock method of order 3.  Each attempt factorizes I/(h/2) - J once,
  J = L + diag(p rho^a |u|^{p-1} sign u), for four banded solves and three
  forcing evaluations; a source or an inner slope enters through `extra`,
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

Both orders sample sup|u| at MAX_HISTORY + 1 equally spaced times once a run
ends, from the cubic Hermite interpolant of u and du/dt over the accepted
step that covers each time.

A run of either order ends in one of four ways, `SimResult.end_reason`:

- completed: t_end was reached;
- sup_threshold: sup|u| crossed BLOWUP_SUP at the end of an accepted step,
  which is T* (blown_up);
- dt_floor: dt fell below ULP_FLOOR ulps of t, or of the first dt while t
  is smaller, once sup|u| grew STALL_GROWTH-fold, which is T* (blown_up);
- solver_stall: a run at that floor without that growth, for example one
  whose forcing turned non-finite, since a non-finite attempt is rejected
  like any other; the cause is in the note.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
from dataclasses import dataclass
from importlib import machinery, util
from typing import Optional

import numpy as np
import scipy

from .evolve import SimResult


def _tridiagonal_lapack():
    """dgtsv, dgttrf and dgttrs, the very objects `scipy.linalg.lapack` exports.

    CPython registers the extension under its dotted name, whichever of the
    two loads it.  `importlib.util.find_spec` on that name would import the
    package, so a FileFinder looks in its directory instead.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        directory = os.path.join(os.path.dirname(scipy.__file__), "linalg")
        spec = machinery.FileFinder(directory, (
            machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES)).find_spec(name)
        if spec is None:
            raise ImportError(f"no {name} extension in {directory}", name=name)
        module = util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module.dgtsv, module.dgttrf, module.dgttrs


# LAPACK's tridiagonal routines, which scipy.linalg.solve_banded dispatches to
# for one band on each side.  Called directly, they skip solve_banded's
# per-call argument checks, which cost several times a 65-node solve.
dgtsv, dgttrf, dgttrs = _tridiagonal_lapack()

BLOWUP_SUP = 1e8
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

_END_RULE = (f"blow-up at sup>{BLOWUP_SUP:g} or at dt<{ULP_FLOOR} ulp(t) after "
             f"{STALL_GROWTH:g}x growth")
NEWMARK_POLICY = (f"newmark beta=1/4 gamma=1/2 banded; dt by local error rtol={NEWMARK_RTOL:g} "
                  f"of sup and cap {NEWMARK_RATE_CAP:g}/sqrt(p rho^a |u|^(p-1)); {_END_RULE}")
RODAS_POLICY = (f"rodas3 rtol={RODAS_RTOL:g} atol={RODAS_ATOL:g} banded; dt cap "
                f"{RODAS_RATE_CAP:g}/max diag J; {_END_RULE}")
GAMMA = 0.5  # the diagonal of RODAS3's Rosenbrock matrix


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


@dataclass(eq=False)
class _Run:
    """The step controller's state of one run, on Python floats."""

    index: int  # position in the caller's list of runs
    dt: float
    grow_cap: float  # largest factor of the next dt; 1 after a rejection
    t: float = 0.0
    sup: float = 0.0
    rate: float = 0.0  # caps dt: k = 2's nonlinear rate, k = 1's largest diagonal of J
    sup0: float = 0.0  # sup|u| at t = 0
    # (t, u, du/dt) at t = 0, before and after each step that first reaches a
    # record time, and at the last accepted step; None without a history
    trail: Optional[list] = None
    due: int = 0  # index of the first record time past the trail's next-to-last state
    steps: int = 0
    rejected: int = 0
    nonfinite: bool = False  # the last rejected attempt was not finite
    # once the run ends: (status, end_reason, blow-up time, note), or the error
    end: Optional[object] = None


@np.errstate(all="ignore")  # a non-finite attempt is rejected by `_attempt`
def advance(cells, rho, t_end, nonlinear, extra=None, history=True) -> list:
    """Step the runs cells = [(params, layers, op), ...] of equal k on the grid
    of rho in lockstep, each to t_end or to its end.

    Each attempt factorizes the block-diagonal system of all running runs in
    one LAPACK call.  The blocks decouple exactly, since the boundary row of L
    is zero.  dt and the counters are kept per run on Python floats, so every
    run steps as it would alone.  extra (B = 1 only) adds a source and an
    inner slope to the forcing.  sup|u| is kept at MAX_HISTORY + 1
    equally spaced times and where a run blows up or stalls, or with
    history=False at 0 and at its end.  Returns a SimResult per cell, or a
    RuntimeError for a run whose system was singular.
    """
    if not cells:
        return []
    k = cells[0][0].k
    # dt <= cap(rate): the rate of the last predictor for k = 2, a second-order
    # guess of the current state, and a growing diagonal entry of J for k = 1
    name, attempt, grow, dt0, cap, policy = (
        ("Newmark", _newmark, 2.0, NEWMARK_DT0,
         lambda rate: NEWMARK_RATE_CAP / math.sqrt(rate), NEWMARK_POLICY) if k == 2
        else ("RODAS3", _rodas3, 5.0, RODAS_DT0, lambda rate: RODAS_RATE_CAP / rate,
              RODAS_POLICY))
    # runs of equal p sit next to each other, so |u|^(p-1) is raised with one
    # scalar exponent per slice (an array of exponents rounds differently)
    order = sorted(range(len(cells)), key=lambda i: cells[i][0].p)
    live = [_Run(i, dt0 * t_end, grow) for i in order]
    state = [np.stack([cells[i][1][j] for i in order]) for j in range(k)]
    # a linear run is a run of weight 0 and p = 1: its forcing 0 |u| is 0, and
    # no rho^a or |u|^(p-1) can overflow into 0 * inf
    batch = _Batch(np.stack([cells[i][2].bands for i in order], axis=1),
                   np.stack([rho ** cells[i][0].a if nonlinear else 0.0 * rho for i in order]),
                   np.array([cells[i][0].p if nonlinear else 1.0 for i in order]), extra)
    results = [None] * len(cells)

    if k == 2:  # the acceleration at t = 0
        a, w = batch.rates(0.0, state[0])
        state.append(a)
        rates = batch.rate(w)
    else:  # the rates and the diagonal of J at t = 0
        state += _ends(0.0, state[0], batch)
        rates = state[2].max(axis=1).tolist()
    for r, (run, sup, rate) in enumerate(zip(live, np.abs(state[0]).max(axis=1).tolist(), rates)):
        run.sup, run.rate, run.sup0 = sup, rate, sup
        if history:
            run.trail = [(0.0, state[0][r], state[1][r])]
    times = np.linspace(0.0, t_end, MAX_HISTORY + 1)

    while live:
        for run in live:
            _limit(run, cap, t_end, dt0 * t_end)

        if all(run.end is None for run in live):
            out = _attempt(attempt, live, state, batch)
            if isinstance(out, int):
                run = live[out]  # the other runs retry the same step
                run.end = RuntimeError(
                    f"singular {name} system at t = {run.t:.6g}, dt = {run.dt:.3e}")
            else:
                new, errs, sups, rates = out
                accepted = [_control(run, err, sup, rate, t_end, grow)
                            for run, err, sup, rate in zip(live, errs, sups, rates)]
                if history:  # both orders keep du/dt as their second state
                    # `_samples` reads only both ends of the steps that first reach
                    # a record time, so a state replaces a last one that reached none
                    for run, ok, u, du in zip(live, accepted, new[0], new[1]):
                        if ok and run.t < times[run.due]:
                            run.trail[-1] = (run.t, u, du)
                        elif ok:
                            run.due = int(np.searchsorted(times, run.trail[-1][0], "right"))
                            run.trail.append((run.t, u, du))
                if all(accepted):
                    state = new
                else:
                    took = np.array(accepted)[:, None]
                    state = [np.where(took, x, old) for x, old in zip(new, state)]

        if any(run.end is not None for run in live):
            keep = []
            for r, run in enumerate(live):
                if run.end is None:
                    keep.append(r)
                elif isinstance(run.end, Exception):
                    results[run.index] = run.end
                else:
                    status, reason, blow_time, note = run.end
                    record = [(0.0, run.sup0)]
                    if history:
                        record += _samples(run, times)
                    if not history or status != "completed":  # the end of the run
                        record.append((run.t, run.sup))
                    results[run.index] = SimResult(
                        status, run.t, tuple(record), blow_time,
                        np.stack([x[r] for x in state[:k]]), policy, note, reason,
                        steps=run.steps, rejected=run.rejected)
            live = [live[r] for r in keep]
            state = [x[keep] for x in state]
            batch = batch.take(keep)
    return results


def _attempt(step, live, state, batch):
    """One attempt of every run by step, `_newmark` or `_rodas3`: the new
    states, each run's error estimate, sup|u| and rate; or the row of a
    singular system.  A zero coupling between blocks carries 0 * NaN from one
    run into its neighbours in the block solve, so when some error or sup|u|
    is not finite the batch takes the attempt once more, with the
    right-hand-side rows of the non-finite runs cleared before each solve.
    A cleared run, or one still not finite, gets error inf, so its attempt is
    rejected: a cleared stage is no evidence of a good step."""
    out = step(live, state, batch, None)
    if isinstance(out, int) or math.isfinite(sum(out[1]) + sum(out[2])):
        return out
    new, errs, sups, rates = out
    lost = set()
    if len(live) > 1:  # the same systems as above, so none is singular
        new, errs, sups, rates = step(live, state, batch, lost)
    errs = [err if r not in lost and math.isfinite(err + sup) else math.inf
            for r, (err, sup) in enumerate(zip(errs, sups))]
    return new, errs, sups, rates


def _clear(rhs, lost):
    """rhs, or with lost a set: rhs with the rows of the runs that have a
    non-finite entry set to 0, those rows added to lost.  Cleared, such a
    run's block solves to 0 and the other runs' rows stay bitwise as alone."""
    if lost is None:
        return rhs
    bad = ~np.isfinite(rhs).all(axis=1)
    lost.update(np.flatnonzero(bad).tolist())
    return np.where(bad[:, None], 0.0, rhs)


@dataclass(eq=False)
class _Batch:
    """The arrays of the running runs, one row per run in the order of `live`."""

    bands: np.ndarray  # (3, B, n), L of each run in `LinearPart` storage
    weight: np.ndarray  # (B, n), rho^a, or 0 for a linear run
    p: np.ndarray  # (B,)
    extra: object

    def __post_init__(self):
        # the diagonals of the flat block matrix, p as a column, and (p, rows)
        # for each stretch of runs that share p
        self.diagonals, self.p_col = _diagonals(self.bands), self.p[:, None]
        self.slices, start = [], 0
        for p, same in itertools.groupby(self.p.tolist()):
            stop = start + len(list(same))
            self.slices.append((p, slice(start, stop)))
            start = stop

    def take(self, rows):
        """The batch of the runs at the positions rows."""
        # `take` keeps the bands C-contiguous, so their diagonals stay views
        return _Batch(self.bands.take(rows, axis=1), self.weight[rows], self.p[rows], self.extra)

    def power(self, x):
        """w = rho^a |x|^(p-1) and |x| on the free nodes of the states x, and
        0 at the boundary nodes, whatever their value."""
        mag = np.abs(x)
        mag[:, -1] = 0.0
        if len(self.slices) == 1:
            return self.weight * mag ** (self.slices[0][0] - 1.0), mag
        raised = np.empty(mag.shape)
        for p, rows in self.slices:
            raised[rows] = mag[rows] ** (p - 1.0)
        return self.weight * raised, mag

    def forcing(self, t, x):
        """Everything but L u in the rates at the states x, and w."""
        w, mag = self.power(x)
        g = w * mag
        if self.extra is not None:
            self.extra(t, g[0])  # extra sees only run 0's time
        return g, w

    def rates(self, t, x):
        """The whole rates L x + forcing at the states x, and w."""
        g, w = self.forcing(t, x)
        return _band_product(self.diagonals, x) + g, w

    def rate(self, w) -> list:
        """Each run's nonlinear rate max p rho^a |u|^(p-1)."""
        return (self.p * w.max(axis=1)).tolist()


def _limit(run, cap, t_end, dt0) -> None:
    """Cap a run's next dt at cap(rate) where its rate is positive, or end
    the run if dt has fallen below its floor, ULP_FLOOR ulps of t, or of the
    first dt dt0 while t is smaller, so that a run that fails from t = 0 on
    ends too.  At the floor the run has blown up once sup|u| grew
    STALL_GROWTH-fold, and has stalled otherwise."""
    if run.rate > 0.0:
        run.dt = min(run.dt, cap(run.rate))
    if run.dt >= ULP_FLOOR * math.ulp(max(run.t, dt0)):
        run.dt = min(run.dt, t_end - run.t)
        return
    note = f"dt underflow ({run.dt:.3e}) at t = {run.t:.6g}"
    if run.sup > 0.0 and run.sup >= STALL_GROWTH * run.sup0:
        run.end = ("blown_up", "dt_floor", run.t, note)
    else:
        cause = "non-finite right-hand side; " if run.nonfinite else ""
        run.end = ("solver_stall", "solver_stall", None,
                   f"{cause}{note}; last finite state sup {run.sup:.3e} "
                   f"({run.sup / run.sup0 if run.sup0 > 0 else math.inf:.3g}x the initial sup)")


def _newmark(live, state, batch, lost):
    """One Newmark attempt of every run: the new (u, v, a), each run's error
    estimate, sup|u| and nonlinear rate; or the row of a singular system.
    lost is None, or the set `_clear` puts the cleared rows in."""
    u, v, a = state
    dt = np.array([run.dt for run in live])[:, None]
    q = 0.25 * dt * dt
    qa = q * a
    u_star = u + dt * v + qa
    # Taylor predictor u + dt v + dt^2/2 a
    g, w = batch.forcing(live[0].t + live[0].dt, u_star + qa)
    upper, diag, lower = _diagonals(-q * batch.bands)
    diag += 1.0
    *_, x, info = dgtsv(lower, diag, upper, _clear(u_star + q * g, lost).ravel(),
                        overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1)
    if info != 0:
        return (info - 1) // u.shape[1]
    u_new = x.reshape(u.shape)
    a_new = _band_product(batch.diagonals, u_new) + g
    v_new = v + 0.5 * dt * (a + a_new)
    change = np.abs(a_new - a).max(axis=1).tolist()
    sups = np.abs(u_new).max(axis=1).tolist()
    errs = [(run.dt * run.dt / 12.0) * d / (NEWMARK_RTOL * sup + NEWMARK_ATOL)
            for run, d, sup in zip(live, change, sups)]
    return [u_new, v_new, a_new], errs, sups, batch.rate(w)


def _rodas3(live, state, batch, lost):
    """One RODAS3 attempt of every run (Sandu et al. 1997, with the
    coefficients of KPP's Rodas3) from the states (u, rates, diagonal of J):
    the new states, the RMS of each run's embedded error K4, sup|u| and
    largest diagonal entry of J; or the row of a singular system.  Stage i
    solves (I/(GAMMA h) - J) K_i = f(t_i, Y_i) + sum_j C_ij K_j / h +
    gamma_i h df/dt, J = L + diag(p rho^a |u|^(p-1) sign u); df/dt is a
    forward difference of extra in t, as in KPP's ros_FunTimeDerivative,
    over a probe no longer than the step.  lost is None, or the set
    `_clear` puts the cleared rows in.
    """
    u, f0, jd = state
    h = np.array([run.dt for run in live])[:, None]
    t, t1 = live[0].t, live[0].t + live[0].dt
    d = 1.0 / (GAMMA * h) - jd
    # a non-finite pivot comes with a non-finite forcing, so its attempt is
    # rejected anyway; a finite one keeps LAPACK's row swaps inside each block
    d[~np.isfinite(d)] = 1.0
    upper, _, lower = batch.diagonals
    dl, d, du, du2, ipiv, info = dgttrf(-lower, d.ravel(), -upper,
                                        overwrite_dl=1, overwrite_d=1, overwrite_du=1)
    if info > 0:
        return (info - 1) // u.shape[1]

    def solve(rhs):  # rhs is a temporary: LAPACK writes the solution into it
        return dgttrs(dl, d, du, du2, ipiv, _clear(rhs, lost).ravel(),
                      overwrite_b=1)[0].reshape(u.shape)

    inv_h = 1.0 / h
    r1, r2 = f0.copy(), f0  # each solve overwrites its right-hand side
    if batch.extra is not None:
        delta = min(math.sqrt(np.finfo(float).eps) * max(1e-6, abs(t)), t1 - t)
        dfdt = (batch.forcing(t + delta, u)[0] - batch.forcing(t, u)[0]) / delta
        r1, r2 = f0 + (GAMMA * h) * dfdt, f0 + (1.5 * h) * dfdt
    k1 = solve(r1)
    k2 = solve(r2 + (4.0 * inv_h) * k1)
    y = u + 2.0 * k1
    back = (k1 - k2) * inv_h
    k3 = solve(batch.rates(t1, y)[0] + back)
    y += k3
    k4 = solve(batch.rates(t1, y)[0] + back - (8.0 / 3.0) * inv_h * k3)
    u_new = y + k4
    # each K_i is 0 at the boundary node, or NaN in a non-finite attempt, so
    # there |u_new| is |u|, or NaN along with the error
    mag = np.abs(u_new)
    e = k4 / (RODAS_ATOL + RODAS_RTOL * np.maximum(np.abs(u), mag))
    err = np.sqrt((e * e).sum(axis=1) / u.shape[1])
    u_new[:, -1] = u[:, -1]
    ends = _ends(t1, u_new, batch)
    return [u_new, *ends], err.tolist(), mag.max(axis=1).tolist(), ends[1].max(axis=1).tolist()


def _ends(t, u, batch):
    """The rates f(t, u) and the diagonal of J at the states u, whose pinned
    boundary nodes are finite, so that w sign u is 0 there."""
    f, w = batch.rates(t, u)
    return [f, batch.bands[1] + batch.p_col * w * np.sign(u)]


def _control(run, err, sup, rate, t_end, grow) -> bool:
    """Judge one run's attempt by its error estimate and set its next dt; on
    acceptance advance its clock, counters and rate and mark its end.
    Returns whether the attempt was accepted.  The controller stays on Python
    floats, run by run: numpy's vectorized power is not libm's pow, and with
    numpy 2.4 on an AVX-512 host x ** (-1/3) differs for 9 673 of 200 000
    uniform x in (0, 1), which would move dt sequences."""
    if err > 1.0:
        run.rejected += 1
        run.nonfinite = err == math.inf
        run.dt *= max(0.2, 0.9 * err ** (-1.0 / 3.0))
        run.grow_cap = 1.0
        return False
    run.t += run.dt
    run.sup, run.rate = sup, rate
    run.steps += 1
    if sup > BLOWUP_SUP:  # sup is finite: `_attempt` rejects a non-finite state
        run.end = ("blown_up", "sup_threshold", run.t, f"sup norm {sup:.3e} at t = {run.t:.6g}")
        return True
    run.dt *= min(run.grow_cap, 0.9 * err ** (-1.0 / 3.0)) if err > 0.0 else run.grow_cap
    run.grow_cap = grow
    if run.t >= t_end:
        run.end = ("completed", "completed", None, "")
    return True


def _samples(run, times) -> list:
    """(tau, sup|u|) at the record times tau past 0 that an ended run reached,
    every one if it completed, from the cubic Hermite interpolant of u and
    du/dt over the step of its trail that covers tau, summed in blocks of
    about 4096 values, whose temporaries stay in cache: that halves the time."""
    t, u, f = zip(*run.trail)
    t, u, f = np.array(t), np.array(u), np.array(f)
    reached = len(times) if run.end[0] == "completed" else np.searchsorted(times, run.t, "right")
    at = times[1:reached]
    end = np.clip(np.searchsorted(t, at), 1, len(t) - 1)  # t[end - 1] < tau <= t[end]
    t0, h = t[end - 1], (t[end] - t[end - 1])[:, None]
    s = np.minimum((at - t0)[:, None] / h, 1.0)
    sups, rows = [], max(1, 4096 // u.shape[1])
    for b in range(0, len(at), rows):
        i, sb, hb = end[b:b + rows], s[b:b + rows], h[b:b + rows]
        u0, f0, u1, f1 = u[i - 1], f[i - 1], u[i], f[i]
        x = u0 + sb * (hb * f0 + sb * (3.0 * (u1 - u0) - hb * (2.0 * f0 + f1)
                                       + sb * (2.0 * (u0 - u1) + hb * (f0 + f1))))
        sups += np.abs(x).max(axis=1).tolist()
    return list(zip(at.tolist(), sups))

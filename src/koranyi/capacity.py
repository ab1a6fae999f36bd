"""Scaled cutoff test functions and the capacity functionals they generate.

Nonexistence arguments pair the evolution inequality against test functions

    phi(t, xi) = beta_T(t) * D_R(xi),

where beta_T(t) = bump^iota(t/T) is a smooth bump in time and D_R is K
multiplied by a spatial cutoff that removes the origin, one row of `CUTOFFS`:

    gamma_R = K * zeta^iota(R rho)            (annulus transition (1/(2R), 1/R))
    mu_R    = K * ell^iota(1 + ln rho/ln R)    (transition (1/R, R^{-1/2})),

with rho the gauge norm and zeta, ell the ramps `ramp_zeta`, `ramp_ell`.
Pairing and Young's inequality leave two functionals whose decay in T and R
drives the contradiction:

    J1 = int phi^{-1/(p-1)} |d^k phi/dt^k|^{p/(p-1)} V^{-1/(p-1)} psi
    J2 = int phi^{-1/(p-1)} |-L phi + (lambda/rho^2) psi phi|^{p/(p-1)}
             V^{-1/(p-1)} psi^{-1/(p-1)}

Both factor into (1D time integral) x (radial space integral); K-harmonicity
confines the J2 space factor to the transition annulus.  The exponent laws
are measured empirically by least-squares fits over scale grids.

The power iota is large enough that every differentiated cutoff retains a
positive leftover power, so integrands extend by 0 where the cutoff
vanishes; masks enforce this instead of trusting rounding.  Every cutoff and
integrand takes a float, a float array or an array `Jet`.  The plural
functions run one `gk21` round for all blocks and scales, bitwise as one at
a time, with T, R or ln R taken by `math` and broadcast as a column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .hcalc import Jet, exp, log, value_of
from .hquad import Annulus, QuadResult, gk21, radial_integrals
from .spectrum import ProblemParams, k_profile

_CUT_FLOOR = 1e-12  # below this the leftover cutoff power forces the integrand to 0

DEFAULT_SCALES: tuple[float, ...] = tuple(10.0 ** (1.0 + 0.5 * i) for i in range(7))


def _select(mask, u, fill):
    """u where mask holds and the constant fill elsewhere, with zero
    derivatives there, lane by lane; a float for a scalar that is not a Jet."""
    if isinstance(u, Jet):
        return Jet(np.where(mask, u.c[0], fill), *[np.where(mask, x, 0.0) for x in u.c[1:]])
    return value_of(np.where(mask, u, fill))


def _on_unit_interval(f, x, above: float):
    """f(x) where x lies in (0, 1), 0 below and the constant `above` above.

    Points outside are moved to 1/2 before f sees them, so a whole batch goes
    through f at once without a floating-point fault.
    """
    v = value_of(x)
    inside = (v > 0.0) & (v < 1.0)
    safe = np.where(inside, v, 0.5)
    if isinstance(x, Jet):
        safe = Jet(safe, *x.c[1:])
    return _select(inside, f(safe), np.where(v >= 1.0, above, 0.0))


def bump(s):
    """C-infinity bump on (0,1), peak value 1 at s = 1/2; 0 outside."""
    return _on_unit_interval(lambda u: exp(4.0 - 1.0 / (u * (1.0 - u))), s, 0.0)


def _step(t):
    lo = exp(-1.0 / t)
    hi = exp(-1.0 / (1.0 - t))
    return lo / (lo + hi)


def smooth_step(t):
    """C-infinity nondecreasing step: 0 for t <= 0, 1 for t >= 1."""
    return _on_unit_interval(_step, t, 1.0)


def ramp_zeta(s):
    """0 on (-inf, 1/2], 1 on [1, inf): the annulus-type spatial transition."""
    return smooth_step(2.0 * s - 1.0)


def ramp_ell(s):
    """0 on (-inf, 0], 1 on [1/2, inf): the log-type spatial transition."""
    return smooth_step(2.0 * s)


def min_iota(k: int, p: float) -> int:
    """Smallest cutoff power keeping every differentiated-cutoff exponent
    positive: ceil(max(k,2) p/(p-1)) + 2."""
    return math.ceil(max(k, 2) * p / (p - 1.0)) + 2


class Cutoff(NamedTuple):
    """A spatial cutoff ramp^iota(arg(rho, c_R)): 0 for rho <= lo(R), 1 for rho >= hi(R)."""

    ramp: Callable  # the 0 -> 1 transition
    scale: Callable  # R -> the constant c_R of arg, taken once per scale
    arg: Callable  # (rho, c_R) -> the ramp argument; c_R may be a column of constants
    zone: Callable  # R -> (lo, hi), the transition annulus


CUTOFFS: dict[str, Cutoff] = {
    "gamma": Cutoff(ramp_zeta, float, lambda s, R: R * s, lambda R: (0.5 / R, 1.0 / R)),
    "mu": Cutoff(ramp_ell, math.log, lambda s, lnR: 1.0 + log(s) / lnR,
                 lambda R: (1.0 / R, R ** -0.5)),
}


def default_family(params: ProblemParams) -> int:
    """The common cutoff power iota of beta_T and D_R: `min_iota`."""
    return min_iota(params.k, params.p)


@dataclass(frozen=True)
class ScalingFit:
    slope: float
    r_squared: float


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

def beta_t(t, T, iota: int):
    """Time bump bump^iota(t/T), supported in (0, T); accepts a Jet t and a column T."""
    if not np.all(np.greater(T, 0.0)):
        raise ValueError(f"time scale must be positive, got {T}")
    return bump(t / T) ** iota


def spatial_profiles(cutoff: str, Rs: Sequence[float], params: ProblemParams,
                     iota: int) -> Callable:
    """Radial profiles D_R = K(s) * ramp^iota(arg(s, c_R)) of a `CUTOFFS` name:
    profile(s, which) at Rs[which], which an index (array) that broadcasts
    against s.  Jet-ready; exactly 0 where the ramp is below _CUT_FLOOR."""
    if cutoff not in CUTOFFS:
        raise ValueError(f"cutoff must be {' or '.join(map(repr, CUTOFFS))}, got {cutoff!r}")
    _check_scales(Rs)
    cut, K = CUTOFFS[cutoff], k_profile(params)
    consts = np.array([cut.scale(R) for R in Rs])

    def profile(s, which):
        ramp = cut.ramp(cut.arg(s, consts[which]))
        return _select(value_of(ramp) >= _CUT_FLOOR, K(s) * ramp ** iota, 0.0)

    return profile


def _check_scales(Rs: Sequence[float]) -> None:
    for R in Rs:
        if not R > 1.0:
            raise ValueError(f"spatial scale must exceed 1, got {R}")


# ---------------------------------------------------------------------------
# J1: the time-derivative functional
# ---------------------------------------------------------------------------

def beta_time_integral(T: float, iota: int) -> QuadResult:
    """int_0^T beta_T dt; always <= T since 0 <= beta_T <= 1."""
    return _time_quads(lambda t, T: beta_t(t, T, iota), [T])[0]


def j1_time_factor(T: float, params: ProblemParams, iota: int) -> QuadResult:
    """`j1_time_factors` at the one scale T."""
    return j1_time_factors([T], params, iota)[0]


def j1_time_factors(Ts: Sequence[float], params: ProblemParams, iota: int) -> list[QuadResult]:
    """int_0^T |d^k beta_T/dt^k|^{p/(p-1)} beta_T^{-1/(p-1)} dt at each T of Ts.

    The k-th derivative is k! c_k of beta_T at an order-k `Jet`, exact up to
    rounding for every time order k.  The integrand is formed as
    (|d^k beta_T/dt^k| beta_T^{-1/p})^{p/(p-1)}, the same number, and counts
    as 0 only where beta_T is 0: no floor cuts it off while it still carries
    weight, which would leave a jump in it.
    """
    k, pexp = params.k, params.p / (params.p - 1.0)
    scale = math.factorial(k)

    def integrand(t, T):
        b = beta_t(Jet.variable(t, k), T, iota).c
        return np.where(b[0] > 0.0, (abs(scale * b[k]) * b[0] ** (-1.0 / params.p)) ** pexp, 0.0)

    return _time_quads(integrand, Ts)


def _time_quads(f: Callable, Ts: Sequence[float]) -> list[QuadResult]:
    """int_0^T f(t, T) dt at each T of Ts, T a column, by `gk21` on [0, T/2]
    and [T/2, T], split at the bump's peak, all in the same rounds."""
    cols = np.array(Ts, dtype=float)
    halves = gk21(lambda t, which: f(t, cols[which // 2]),
                  [ab for T in Ts for ab in ((0.0, 0.5 * T), (0.5 * T, T))])
    return [QuadResult(v1 + v2, e1 + e2, n1 + n2)
            for (v1, e1, n1), (v2, e2, n2) in zip(halves[::2], halves[1::2])]


def j1_space_factor(cutoff: str, R: float, params: ProblemParams, iota: int) -> QuadResult:
    """`j1_space_factors` at the one scale R."""
    return j1_space_factors(cutoff, [R], params, iota)[0]


def j1_space_factors(cutoff: str, Rs: Sequence[float], params: ProblemParams,
                     iota: int) -> list[QuadResult]:
    """radial_integral of V^{-1/(p-1)} * D_R over the support of D_R at each R of Rs."""
    profile = spatial_profiles(cutoff, Rs, params, iota)
    mexp = params.a / (params.p - 1.0)

    def F(s, which):
        return s ** -mexp * value_of(profile(s, which))

    return radial_integrals(F, [Annulus(CUTOFFS[cutoff].zone(R)[0], 1.0) for R in Rs], params.ctx)


# ---------------------------------------------------------------------------
# J2: the elliptic functional
# ---------------------------------------------------------------------------

def j2_space_factors(cutoff: str, Rs: Sequence[float], params: ProblemParams,
                     iota: int) -> list[QuadResult]:
    """radial_integral of D^{-1/(p-1)} |E|^{p/(p-1)} V^{-1/(p-1)} over the
    transition annulus at each R of Rs, where E = -D'' - (Q-1)D'/s + lambda D/s^2.

    Outside the annulus D coincides with 0 or with K, and E vanishes either
    way, so the restriction loses nothing.  The integrand is formed as
    (|E| D^{-1/p})^{p/(p-1)} V^{-1/(p-1)}, the same number, so it leaves double
    range only where its value does, and that raises RuntimeError.  It counts
    as 0 where D is 0: masked, or so far down the cutoff that D underflows and
    the leftover power has taken the integrand with it.
    """
    profile = spatial_profiles(cutoff, Rs, params, iota)
    p = params.p
    pexp = p / (p - 1.0)
    qm1 = params.Q - 1.0

    def F(s, which):
        d = profile(Jet.variable(s, 2), which).c
        elliptic = -2.0 * d[2] - qm1 * d[1] / s + params.lam * d[0] / (s * s)
        out = (abs(elliptic) * d[0] ** (-1.0 / p)) ** pexp * s ** (-params.a / (p - 1.0))
        out = np.where(d[0] > 0.0, out, 0.0)
        bad = ~np.isfinite(out)
        if bad.any():
            raise RuntimeError(f"nonfinite capacity integrand at rho = {np.asarray(s)[bad][0]}")
        return out

    return radial_integrals(F, [Annulus(*CUTOFFS[cutoff].zone(R)) for R in Rs], params.ctx)


def j2(cutoff: str, T: float, R: float, params: ProblemParams, iota: int) -> QuadResult:
    """The full elliptic functional: int beta_T dt x space factor."""
    return _product(beta_time_integral(T, iota), j2_space_factors(cutoff, [R], params, iota)[0])


def _product(a: QuadResult, b: QuadResult) -> QuadResult:
    err = abs(a.value) * b.error_estimate + abs(b.value) * a.error_estimate
    return QuadResult(a.value * b.value, err, a.evaluations + b.evaluations)


# ---------------------------------------------------------------------------
# eta and the scaling fits
# ---------------------------------------------------------------------------

def eta(R: float, params: ProblemParams) -> float:
    """`etas` at the one scale R."""
    return etas([R], params)[0]


def etas(Rs: Sequence[float], params: ProblemParams) -> list[float]:
    """int_{1/(2R) < rho <= 1} V^{-1/(p-1)} K psi dxi with V = rho^a at each R
    of Rs, the domination envelope of the J1 space factors.  Nondecreasing in R."""
    _check_scales(Rs)
    mexp = 1.0 / (params.p - 1.0)
    K = k_profile(params)

    def F(s, _):
        return (s ** params.a) ** -mexp * value_of(K(s))

    return [q.value for q in radial_integrals(F, [Annulus(0.5 / R, 1.0) for R in Rs], params.ctx)]


FIT_MIN_POINTS = 4  # fewest points scaling_fit accepts


def scaling_fit(values: Sequence[tuple[float, float]]) -> ScalingFit:
    """Least-squares line through (ln scale, ln value).

    Needs at least FIT_MIN_POINTS points whose scales span a factor of 10,
    and strictly positive values; r_squared is 1.0 for degenerate (constant)
    data.
    """
    if len(values) < FIT_MIN_POINTS:
        raise ValueError(
            f"need at least {FIT_MIN_POINTS} points for a scaling fit, got {len(values)}")
    scales = np.array([s for s, _ in values], dtype=float)
    vals = np.array([v for _, v in values], dtype=float)
    if (scales <= 0.0).any():
        raise ValueError("scales must be positive")
    if (vals <= 0.0).any():
        raise ValueError("cannot fit a power law through nonpositive values")
    if scales.max() / scales.min() < 10.0:
        raise ValueError("scales must span at least one decade")

    x = np.log(scales)
    y = np.log(vals)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float((resid**2).sum()) / ss_tot
    return ScalingFit(float(slope), r2)

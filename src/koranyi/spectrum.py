"""Spectral objects of the Hardy operator and the existence classifier.

For the operator -(1/psi) L - lambda/rho^2 on the unit Koranyi ball the radial
indicial roots are

    alpha(+,-) = -(Q-2)/2 +- sqrt(lambda + ((Q-2)/2)^2),

real exactly when lambda is at least the critical value -((Q-2)/2)^2 (the
sharp Hardy constant).  The barrier

    sigma_lambda(s) = s^alpha- - s^alpha+        (lambda above critical)
                    = -s^alpha- * ln s           (lambda critical)

vanishes at s = 1, is positive on (0, 1), and its radial lift K = sigma(|xi|)
is annihilated by the operator.  K's boundary flux density is

    A grad K . n = sigma'(1) * psi / |grad rho|   on the unit sphere,

with sigma'(1) = alpha- - alpha+ above critical and -1 at critical.

The classifier is a three-way verdict in the parameters (Q, lambda, a, p),
decided by the sign of the margin

    margin = (a + 2) - (Q - 2 + alpha-) * (p - 1):

positive margin means an explicit stationary solution exists (witness
module); negative margin (or zero above critical) means no weak solution
exists for any admissible boundary datum; zero margin at critical lambda is
genuinely open.  All threshold bookkeeping (critical exponents of first,
second, and third kind) is rearrangement of the same margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .hcalc import egrad, hlap, log, radial_lift, value_of
from .hgroup import (
    GroupContext,
    HPoint,
    a_apply,
    psi,
    random_directions,
    sphere_chart,
)
from .hquad import Annulus, radial_integrals, surface_nodes

CRITICAL_TOL = 1e-12
# sample points of the identity checks keep psi >= PSI_MIN (the identities
# degenerate to 0 = 0 at the poles psi = 0); the harmonic check draws rho
# log-uniformly from HARMONIC_RHO
PSI_MIN = 0.05
HARMONIC_RHO = (1e-3, 1.0)


@dataclass(frozen=True)
class ProblemParams:
    """Full parameter state: group context, potential strength lambda,
    weight exponent a (V = |xi|^a), nonlinearity p, time order k."""

    ctx: GroupContext
    lam: float
    a: float
    p: float
    k: int = 1

    def __post_init__(self) -> None:
        for label, value in (("lambda", self.lam), ("a", self.a), ("p", self.p)):
            if not math.isfinite(value):
                raise ValueError(f"{label} must be finite, got {value}")
        if not self.p > 1.0:
            raise ValueError(f"nonlinearity exponent must satisfy p > 1, got {self.p}")
        if not (isinstance(self.k, int) and self.k >= 1):
            raise ValueError(f"time order must be a positive integer, got {self.k}")
        if self.lam < self.critical_lam - CRITICAL_TOL:
            raise ValueError(
                f"lambda = {self.lam} lies below the Hardy threshold {self.critical_lam}"
            )

    @property
    def Q(self) -> int:
        return self.ctx.Q

    @property
    def critical_lam(self) -> float:
        return critical_lambda(self.ctx)

    @property
    def is_critical(self) -> bool:
        return abs(self.lam - self.critical_lam) <= CRITICAL_TOL


@dataclass(frozen=True)
class AlphaPair:
    alpha_minus: float
    alpha_plus: float


class Verdict(str, Enum):
    NONEXISTENCE_ALL_F = "NonexistenceAllF"
    EXISTENCE_WITNESS = "ExistenceWitness"
    OPEN_CRITICAL = "OpenCritical"


@dataclass(frozen=True)
class Classification:
    verdict: Verdict
    rule: str
    threshold: Optional[float]
    threshold_kind: Optional[str]


@dataclass(frozen=True)
class ThresholdInfo:
    """A critical exponent, if the parameters admit one.

    kind 'second': nonexistence for p above the threshold (lambda in
    [critical, 0), a > -2); kind 'first': nonexistence for p below it
    (lambda > 0, a < -2); kind 'third': the threshold lives in the weight
    exponent a instead of p (lambda = 0, a* = -2).
    """

    kind: Optional[str]
    value: Optional[float]


def critical_lambda(ctx: GroupContext) -> float:
    """The sharp Hardy constant -((Q-2)/2)^2, the least admissible lambda."""
    return -(((ctx.Q - 2) / 2.0) ** 2)


def alphas(params: ProblemParams) -> AlphaPair:
    half = (params.Q - 2) / 2.0
    if params.is_critical:
        return AlphaPair(-half, -half)
    root = math.sqrt(params.lam + half * half)
    return AlphaPair(-half - root, -half + root)


def existence_margin(params: ProblemParams) -> float:
    """(a+2) - (Q-2+alpha-)(p-1); positive iff a stationary witness exists.

    The same expression decides the nonempty decay window of the subcritical
    witness, so classifier and witness construction can never disagree.
    """
    al = alphas(params)
    return (params.a + 2.0) - (params.Q - 2.0 + al.alpha_minus) * (params.p - 1.0)


def sigma_lambda(s, params: ProblemParams):
    """The radial barrier profile; accepts a float, an array or a `Jet` s > 0."""
    if not np.all(value_of(s) > 0.0):
        raise ValueError("sigma_lambda needs s > 0")
    al = alphas(params)
    if params.is_critical:
        return -(s ** al.alpha_minus) * log(s)
    return s ** al.alpha_minus - s ** al.alpha_plus


def sigma_prime_one(params: ProblemParams) -> float:
    """sigma'(1): the boundary flux coefficient c_lambda."""
    if params.is_critical:
        return -1.0
    al = alphas(params)
    return al.alpha_minus - al.alpha_plus


def k_profile(params: ProblemParams) -> Callable:
    """K as a 1D profile, for radial lifts and quadrature."""
    return lambda s: sigma_lambda(s, params)


# ---------------------------------------------------------------------------
# pointwise identity checks
# ---------------------------------------------------------------------------

def check_k_harmonic(params: ProblemParams, n_points: int, seed: int) -> float:
    """The worst residual of -(1/psi) L K + (lambda/rho^2) K = 0 at random
    interior points; NaN counts as worst.

    The sub-Laplacian is evaluated by Taylor-jet AD on the radial lift (the
    full 2N+1-coordinate pipeline, not the 1D shortcut), over all points in
    one batch.  The residual is scaled by 1 + |K|/rho^2 so that one tolerance
    is meaningful where the terms blow up.  Points keep psi >= PSI_MIN and
    rho in HARMONIC_RHO.
    """
    rng = np.random.default_rng(seed)
    field = radial_lift(k_profile(params))

    r = np.sqrt(rng.uniform(PSI_MIN * 1.2, 0.999, n_points))
    u, sign = random_directions(rng, n_points, params.ctx.N)
    rho = np.exp(rng.uniform(math.log(HARMONIC_RHO[0]), math.log(HARMONIC_RHO[1]), n_points))
    pts = sphere_chart(r, u, sign, rho)

    kval = sigma_lambda(rho, params)
    resid = np.abs(-hlap(field, pts) / psi(pts) + params.lam * kval / rho**2)
    return float(np.max(resid / (1.0 + np.abs(kval) / rho**2)))


def flux_pair(params: ProblemParams, xi: HPoint):
    """(measured, predicted) boundary flux density of K at unit-sphere points.

    measured:  A(z) grad K . n with grad K and n = grad rho/|grad rho| from AD;
    predicted: sigma'(1) * psi / |grad rho|;
    both are arrays over the batch.
    """
    field = radial_lift(k_profile(params))
    grad_k = egrad(field, xi)
    grad_rho = egrad(radial_lift(lambda s: s), xi)
    nrm = np.linalg.norm(grad_rho, axis=-1)
    measured = (a_apply(xi, grad_k) * grad_rho).sum(axis=-1) / nrm
    return measured, sigma_prime_one(params) * psi(xi) / nrm


def check_k_boundary(params: ProblemParams, nodes: int) -> float:
    """The worst relative error of the boundary flux identity on a
    deterministic grid of at least `nodes` unit-sphere nodes; NaN counts as
    worst.

    Nodes keep psi = r^2 >= PSI_MIN; the identity degenerates to 0 = 0 at the
    poles, which carry no information.  All nodes go through `flux_pair` as
    one batch.
    """
    n_r = max(8, int(math.sqrt(nodes / 2)))
    n_ang = max(4, nodes // (2 * n_r) + 1)
    r_grid = np.linspace(math.sqrt(PSI_MIN) + 0.01, 0.999, n_r)

    u, _ = random_directions(np.random.default_rng(7), n_r * n_ang, params.ctx.N)
    # nodes ordered by radius, then direction, then sign (+1 before -1)
    pts = sphere_chart(np.repeat(r_grid, 2 * n_ang), np.repeat(u, 2, axis=0),
                       np.tile([1.0, -1.0], n_r * n_ang))

    measured, predicted = flux_pair(params, pts)
    rel = np.abs(measured - predicted) / np.maximum(np.abs(predicted), 1e-300)
    return float(np.max(rel))


# ---------------------------------------------------------------------------
# classifier
# ---------------------------------------------------------------------------

def classify(params: ProblemParams) -> Classification:
    """Three-way existence verdict from the sign of the margin
    (a+2) - (Q-2+alpha-)(p-1), with the open equality case at critical lambda.

    Whether `NonexistenceAllF` means no global solution or no local one, the
    repository does not know: PAPER.md carries only the abstract, which states
    nonexistence without a time horizon.  What the repository computes points
    to global nonexistence.  The test-function argument (Mitidieri & Pohozaev
    2001) sends the time scale T to infinity: the time factor checked by the
    `time` scaling law decays like T^(1 - kp/(p-1)), and the bound needs that
    decay.  That argument rules out solutions on all of (0, infinity), not on
    a short interval.
    """
    margin = existence_margin(params)
    thr = critical_exponent(params.ctx, params.lam, params.a)
    scale = abs(params.a) + 2.0 + abs(params.Q - 2.0 + alphas(params).alpha_minus) * params.p
    if params.is_critical and abs(margin) <= CRITICAL_TOL * max(1.0, scale):
        return Classification(
            Verdict.OPEN_CRITICAL,
            "critical lambda with (Q-2+alpha-)*p exactly equal to Q+a+alpha-: "
            "neither the capacity argument nor the witness construction applies",
            thr.value,
            thr.kind,
        )
    if margin > 0.0:
        return Classification(
            Verdict.EXISTENCE_WITNESS,
            "(Q-2+alpha-)*p < Q+a+alpha-: an explicit radial stationary "
            "solution exists for suitable boundary data",
            thr.value,
            thr.kind,
        )
    qualifier = "strictly exceeds" if params.is_critical else "reaches or exceeds"
    return Classification(
        Verdict.NONEXISTENCE_ALL_F,
        f"(Q-2+alpha-)*p {qualifier} Q+a+alpha-: no weak solution exists for "
        "any boundary datum with positive weighted surface integral",
        thr.value,
        thr.kind,
    )


def critical_exponent(ctx: GroupContext, lam: float, a: float) -> ThresholdInfo:
    """The threshold where the classifier verdict flips, when one exists."""
    probe = ProblemParams(ctx, lam, a, p=2.0)
    al = alphas(probe)
    L = ctx.Q - 2.0 + al.alpha_minus
    if lam == 0.0:
        return ThresholdInfo("third", -2.0)
    if L > 0.0 and a > -2.0:
        return ThresholdInfo("second", 1.0 + (a + 2.0) / L)
    if L < 0.0 and a < -2.0:
        return ThresholdInfo("first", 1.0 + (a + 2.0) / L)
    return ThresholdInfo(None, None)


# ---------------------------------------------------------------------------
# boundary data and the nonexistence probe
# ---------------------------------------------------------------------------

def l1plus_test(f_boundary, nodes: int, ctx: GroupContext) -> tuple[float, bool]:
    """Weighted boundary functional int f * psi/|grad rho| dH and its sign.

    The weight is closed-form in the chart of `surface_nodes`: on the unit
    sphere psi = |z|^2 = cos chi and |grad rho|^2 = |z|^6 + phi^2/4 =
    cos^3 chi + sin^2 chi / 4, so against dH = (1/2) cos^{N-1} chi
    sqrt(sin^2 chi + 4 cos^3 chi) dchi dsigma the measure psi/|grad rho| dH
    is cos^N chi dchi dsigma(omega), and only f is evaluated at the nodes.
    Membership in the positive class requires a strictly positive value; the
    decision threshold is 1e-10 times the absolute mass of the integrand on
    the same surface rule, so odd integrands land on the 'not a member' side.
    The rule is built and f evaluated once; no error estimate is formed.
    """
    pts, _, w = surface_nodes(nodes, ctx)
    vals = np.asarray(f_boundary(*pts.coords()), dtype=float)
    if not np.isfinite(vals).all():
        raise RuntimeError("surface integrand returned non-finite values")
    value = float(np.dot(w, vals))
    scale = float(np.dot(w, np.abs(vals)))
    return value, value > 1e-10 * max(scale, 1e-300)


def liminf_probe(
    V_radial: Callable,
    params: ProblemParams,
    R_list,
) -> list[tuple[float, float]]:
    """R^{2p/(p-1)} * int_{1/(2R) < |xi| < 1/R} V^{-1/(p-1)} K psi dxi.

    The nonexistence criterion demands liminf = 0 along R -> infinity; for
    power weights the sequence follows R^{(a+2p)/(p-1) - Q - alpha-} up to
    slowly-varying factors.  V_radial maps an array of radii to weights.
    """
    m = 1.0 / (params.p - 1.0)
    profile = k_profile(params)

    def F(rho, _):
        return V_radial(rho) ** (-m) * value_of(profile(rho))

    R_list = list(R_list)
    for R in R_list:
        if not R > 1.0:
            raise ValueError(f"probe scale must exceed 1, got {R}")
    qs = radial_integrals(F, [Annulus(0.5 / R, 1.0 / R) for R in R_list], params.ctx)
    return [(float(R), float(R ** (2.0 * params.p / (params.p - 1.0)) * q.value))
            for R, q in zip(R_list, qs)]

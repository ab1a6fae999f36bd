"""Explicit stationary supersolutions certifying the existence regime.

Two closed-form families solve

    -(1/psi) L u + (lambda/rho^2) u >= rho^a u^p,     u = eps on the boundary,

on the punctured unit ball.  Above the critical lambda the power witness

    u = eps * rho^{-tau},    tau1 < tau < min{(a+2)/(p-1), tau2},

where tau1 <= tau2 are the roots of P(tau) = -tau^2 + (Q-2) tau + lambda,
turns the operator into eps P(tau) rho^{-tau-2} exactly; the inequality then
caps the amplitude at eps < P(tau)^{1/(p-1)}.  The decay window is nonempty
precisely when the classifier says a witness exists, so the two modules can
never disagree.

At critical lambda the power degenerates and a log correction

    u = eps * rho^{(2-Q)/2} (1 - ln rho)^beta,    0 < beta < 1,

gives eps beta(1-beta) rho^{-Q/2-1}(1-ln rho)^{beta-2}; the amplitude cap
becomes eps^{p-1} < beta(1-beta) h_min where h_min minimizes

    h_beta(s) = s^{(p-1)(Q-2)/2-(a+2)} (1 - ln s)^{-beta(p-1)-2}

over (0, 1] in closed form (see `s0_minimize`).  Verification always goes
through the full 2N+1-coordinate AD pipeline, never the 1D shortcut that
produced the formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .hcalc import hlap, log, radial_lift, value_of
from .hgroup import HPoint, knorm, psi, random_directions, sphere_chart
from .spectrum import ProblemParams, alphas, existence_margin

RHO_MIN = 1e-4  # smallest radius `verify_witness` samples


@dataclass(frozen=True)
class Witness:
    """A constructed stationary supersolution; builders enforce the windows,
    the dataclass itself stays permissive so sharpness tests can perturb it."""

    kind: str  # "subcritical" | "critical"
    eps: float
    params: ProblemParams
    tau: Optional[float] = None
    beta: Optional[float] = None

    @property
    def boundary_value(self) -> float:
        return self.eps

    def profile(self) -> Callable:
        """The radial factor u(rho), accepting a float, an array or a `Jet`."""
        if self.kind == "subcritical":
            tau = self.tau
            return lambda s: self.eps * s ** (-tau)
        beta = self.beta
        ex = (2.0 - self.params.Q) / 2.0
        return lambda s: self.eps * s**ex * (1.0 - log(s)) ** beta

    def __call__(self, xi: HPoint) -> float:
        return float(value_of(self.profile()(knorm(xi))))


@dataclass(frozen=True)
class WitnessReport:
    passed: bool
    max_identity_rel_err: float
    min_slack: float
    n_points: int
    worst_identity_rho: float
    min_slack_rho: float
    note: str = ""


# ---------------------------------------------------------------------------
# the decay polynomial and its windows
# ---------------------------------------------------------------------------

def p_poly(tau: float, params: ProblemParams) -> float:
    """P(tau) = -tau^2 + (Q-2) tau + lambda; positive between its roots."""
    return -tau * tau + (params.Q - 2.0) * tau + params.lam


def tau_roots(params: ProblemParams) -> tuple[float, float]:
    """The roots Q-2+alpha- <= Q-2+alpha+ of the decay polynomial."""
    al = alphas(params)
    return params.Q - 2.0 + al.alpha_minus, params.Q - 2.0 + al.alpha_plus


def tau_window(params: ProblemParams) -> Optional[tuple[float, float]]:
    """Admissible decay exponents (tau1, min{(a+2)/(p-1), tau2}) or None.

    Nonempty exactly when the existence margin is positive, i.e. when the
    classifier returns the witness verdict.
    """
    if params.is_critical:
        raise ValueError(
            "the decay window degenerates at critical lambda; use the log-corrected construction"
        )
    t1, t2 = tau_roots(params)
    hi = min((params.a + 2.0) / (params.p - 1.0), t2)
    return (t1, hi) if hi > t1 else None


def eps_bound_subcritical(tau: float, params: ProblemParams) -> float:
    """Largest admissible amplitude P(tau)^{1/(p-1)} for the power witness."""
    val = p_poly(tau, params)
    if val <= 0.0:
        raise ValueError(f"decay exponent {tau} lies outside the positivity range of P")
    return val ** (1.0 / (params.p - 1.0))


def build_subcritical(
    params: ProblemParams,
    tau: Optional[float] = None,
    eps: Optional[float] = None,
) -> Witness:
    """Power witness with tau defaulting to the window midpoint and eps to
    half its admissible bound."""
    window = tau_window(params)
    if window is None:
        raise ValueError(
            f"no admissible decay exponent: margin {existence_margin(params)} <= 0"
        )
    if tau is None:
        tau = 0.5 * (window[0] + window[1])
    elif not window[0] < tau < window[1]:
        raise ValueError(f"tau = {tau} outside the admissible window {window}")
    bound = eps_bound_subcritical(tau, params)
    if eps is None:
        eps = 0.5 * bound
    elif not 0.0 < eps < bound:
        raise ValueError(f"eps = {eps} outside (0, {bound})")
    return Witness("subcritical", eps, params, tau=tau)


# ---------------------------------------------------------------------------
# the critical construction
# ---------------------------------------------------------------------------

def _h_exponents(beta: float, params: ProblemParams) -> tuple[float, float]:
    A = (params.p - 1.0) * (params.Q - 2.0) / 2.0 - (params.a + 2.0)
    B = -beta * (params.p - 1.0) - 2.0
    return A, B


def h_beta(s: float, beta: float, params: ProblemParams) -> float:
    """s^{(p-1)(Q-2)/2-(a+2)} (1-ln s)^{-beta(p-1)-2} on (0, 1]."""
    if not 0.0 < s <= 1.0:
        raise ValueError(f"h_beta needs s in (0, 1], got {s}")
    if not 0.0 < beta < 1.0:
        raise ValueError(f"log power must lie in (0, 1), got {beta}")
    A, B = _h_exponents(beta, params)
    return s**A * (1.0 - math.log(s)) ** B


def s0_minimize(beta: float, params: ProblemParams) -> tuple[float, float]:
    """The minimum point and value (s0, h_min) of h_beta over (0, 1].

    With u = -ln s, ln h = -A u + B ln(1 + u) is convex (B < 0), so it is
    least where 1 + u = B/A, or at s = 1 when B/A <= 1.  Only meaningful
    when the leading exponent A is negative (h blows up at 0+ and a positive
    minimum exists); otherwise raises.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"log power must lie in (0, 1), got {beta}")
    A, B = _h_exponents(beta, params)
    if A >= 0.0:
        raise ValueError(
            f"h has nonnegative leading exponent {A}: the infimum sits at s = 0, not a minimum"
        )
    u = max(B / A - 1.0, 0.0)
    return math.exp(-u), math.exp(-A * u + B * math.log1p(u))


def eps_bound_critical(beta: float, params: ProblemParams) -> float:
    """Largest admissible amplitude [beta(1-beta) h_min]^{1/(p-1)}."""
    _, h_min = s0_minimize(beta, params)
    return (beta * (1.0 - beta) * h_min) ** (1.0 / (params.p - 1.0))


def build_critical(
    params: ProblemParams,
    beta: Optional[float] = None,
    eps: Optional[float] = None,
) -> Witness:
    """Log-corrected witness at critical lambda; beta defaults to 1/2 and
    eps to half its admissible bound."""
    if not params.is_critical:
        raise ValueError(
            f"lambda = {params.lam} is not critical; use the power construction"
        )
    if existence_margin(params) <= 0.0:
        raise ValueError(
            f"no witness exists: margin {existence_margin(params)} <= 0"
        )
    if beta is None:
        beta = 0.5
    elif not 0.0 < beta < 1.0:
        raise ValueError(f"log power must lie in (0, 1), got {beta}")
    bound = eps_bound_critical(beta, params)
    if eps is None:
        eps = 0.5 * bound
    elif not 0.0 < eps < bound:
        raise ValueError(f"eps = {eps} outside (0, {bound})")
    return Witness("critical", eps, params, beta=beta)


# ---------------------------------------------------------------------------
# verification through the full AD pipeline
# ---------------------------------------------------------------------------

def identity_rhs(w: Witness, rho):
    """The closed form the operator must reproduce on the witness; rho may
    be an array."""
    if w.kind == "subcritical":
        return w.eps * p_poly(w.tau, w.params) * rho ** (-w.tau - 2.0)
    b = w.beta
    return (
        w.eps * b * (1.0 - b)
        * rho ** (-w.params.Q / 2.0 - 1.0)
        * (1.0 - np.log(rho)) ** (b - 2.0)
    )


def verify_witness(
    w: Witness,
    grid: Union[int, np.ndarray] = 200,
    tol: float = 1e-10,
    seed: int = 11,
) -> WitnessReport:
    """Check the operator identity and the supersolution inequality.

    At each radius the witness is lifted to a full point (placed on a random
    direction with psi = 0.64 so the sub-Laplacian is nondegenerate) and the
    operator is evaluated by Taylor-jet AD; the result must match the closed
    form to rel err <= tol and dominate rho^a u^p with nonnegative slack.
    An integer grid spaces that many radii logarithmically over [RHO_MIN, 1];
    radii below RHO_MIN are excluded to stay inside floating-point range, and
    the inequality only strengthens as rho -> 0 inside the admissible window.
    Raises ValueError for an explicit radius outside [RHO_MIN, 1].
    """
    if isinstance(grid, (int, np.integer)):
        radii = np.exp(np.linspace(math.log(RHO_MIN), 0.0, int(grid)))
    else:
        radii = np.asarray(grid, dtype=float)
        if radii.min() < RHO_MIN or radii.max() > 1.0:
            raise ValueError(f"radii must lie within [{RHO_MIN:g}, 1]")

    u_dir, sign = random_directions(np.random.default_rng(seed), len(radii), w.params.ctx.N)
    r_chart = 0.8  # psi = r^2 = 0.64 at every sample point
    pts = sphere_chart(r_chart, u_dir, sign, radii)

    uval = value_of(w.profile()(radii))
    lhs = -hlap(radial_lift(w.profile()), pts) / psi(pts) + w.params.lam * uval / radii**2
    rhs = identity_rhs(w, radii)
    rel = np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)
    slack = lhs - radii**w.params.a * uval**w.params.p

    # NaN counts as the worst value in both
    worst = int(np.argmax(rel))
    max_rel, worst_rho = float(rel[worst]), float(radii[worst])
    lowest = int(np.argmin(slack))
    min_slack, slack_rho = float(slack[lowest]), float(radii[lowest])

    passed = bool(max_rel <= tol and min_slack >= 0.0)
    note = ""
    if not passed:
        note = (
            f"identity worst rel err {max_rel:.3e} at rho = {worst_rho:.6g}; "
            f"minimum slack {min_slack:.3e} at rho = {slack_rho:.6g}"
        )
    return WitnessReport(
        passed, max_rel, min_slack, len(radii), worst_rho, slack_rho, note
    )


def witness_json(w: Witness, report: Optional[WitnessReport] = None) -> dict:
    """JSON-ready description: construction, windows, and verification."""
    p = w.params
    out: dict = {
        "kind": w.kind,
        "eps": w.eps,
        "boundary_value": w.boundary_value,
        "params": {"N": p.ctx.N, "Q": p.Q, "lambda": p.lam, "a": p.a, "p": p.p, "k": p.k},
    }
    if w.kind == "subcritical":
        out["tau"] = w.tau
        out["bounds"] = {
            "tau_window": list(tau_window(p)),
            "eps_bound": eps_bound_subcritical(w.tau, p),
        }
    else:
        s0, h_min = s0_minimize(w.beta, p)
        out["beta"] = w.beta
        out["bounds"] = {
            "beta_window": [0.0, 1.0],
            "s0": s0,
            "h_min": h_min,
            "eps_bound": eps_bound_critical(w.beta, p),
        }
    if report is not None:
        out["verification"] = {
            "passed": report.passed,
            "max_identity_error": report.max_identity_rel_err,
            "min_slack": report.min_slack,
            "n_points": report.n_points,
        }
    return out

import dataclasses
import json
import math

import numpy as np
from pytest import approx, mark, raises

from koranyi.hgroup import GroupContext, HPoint, knorm
from koranyi.spectrum import ProblemParams
from koranyi.witness import (
    Witness,
    build_critical,
    build_subcritical,
    eps_bound_critical,
    eps_bound_subcritical,
    identity_rhs,
    p_poly,
    s0_minimize,
    tau_roots,
    tau_window,
    verify_witness,
    witness_json,
)


def params(lam, a=0.0, p=2.0, k=1):
    return ProblemParams(GroupContext(1), lam, a, p, k)


class TestDecayPolynomial:
    def test_roots_hand_values(self):
        assert tau_roots(params(0.0)) == approx((0.0, 2.0))
        assert tau_roots(params(3.0)) == approx((-1.0, 3.0))

    def test_positive_between_roots(self):
        pr = params(3.0)
        assert p_poly(1.0, pr) == approx(4.0)
        assert p_poly(-1.0, pr) == approx(0.0, abs=1e-12)
        assert p_poly(4.0, pr) < 0.0

    @mark.parametrize(
        "lam, a, p, expected",
        [
            (0.0, 0.0, 2.0, (0.0, 2.0)),
            (3.0, 0.0, 2.0, (-1.0, 2.0)),
            (-0.9, 0.8, 3.0, (2.0 - math.sqrt(0.1) - 1.0, 1.0 + math.sqrt(0.1))),
        ],
    )
    def test_window_hand_values(self, lam, a, p, expected):
        assert tau_window(params(lam, a, p)) == approx(expected)

    def test_window_empty_when_margin_vanishes(self):
        assert tau_window(params(0.0, a=-2.0, p=2.0)) is None

    def test_window_rejects_critical(self):
        with raises(ValueError, match="log-corrected"):
            tau_window(params(-1.0))


class TestSubcriticalBuild:
    def test_defaults(self):
        w = build_subcritical(params(0.0))
        assert w.kind == "subcritical"
        assert w.tau == approx(1.0)  # midpoint of (0, 2)
        assert w.eps == approx(0.5 * eps_bound_subcritical(1.0, params(0.0)))

    def test_amplitude_bound_hand_value(self):
        # P(1) = -1 + 2 + 0 = 1 and p = 2, so the cap is 1
        assert eps_bound_subcritical(1.0, params(0.0)) == approx(1.0)

    def test_bound_rejects_tau_outside_positivity(self):
        with raises(ValueError, match="positivity"):
            eps_bound_subcritical(3.0, params(0.0))

    def test_rejects_tau_outside_window(self):
        with raises(ValueError, match="outside the admissible window"):
            build_subcritical(params(0.0), tau=2.5)

    def test_rejects_eps_above_bound(self):
        with raises(ValueError, match="outside"):
            build_subcritical(params(0.0), tau=1.0, eps=1.5)

    def test_rejects_empty_window(self):
        with raises(ValueError, match="no admissible decay exponent"):
            build_subcritical(params(0.0, a=-2.0))

    def test_boundary_value_is_eps(self):
        w = build_subcritical(params(3.0), tau=1.0, eps=0.25)
        assert witness_json(w)["boundary_value"] == 0.25
        edge = HPoint(np.array([[1.0]]), np.array([[0.0]]), np.array([0.0]))
        assert w.profile()(knorm(edge)) == approx(0.25)


def h_beta(s: float, beta: float, params: ProblemParams) -> float:
    """s^{(p-1)(Q-2)/2-(a+2)} (1-ln s)^{-beta(p-1)-2} on (0, 1], the function
    `s0_minimize` minimises in closed form."""
    A = (params.p - 1.0) * (params.Q - 2.0) / 2.0 - (params.a + 2.0)
    B = -beta * (params.p - 1.0) - 2.0
    return s**A * (1.0 - math.log(s)) ** B


class TestCriticalPieces:
    def test_h_hand_value(self):
        pr = params(-1.0, a=2.0, p=2.0)
        assert h_beta(1.0 / math.e, 0.5, pr) == approx(3.5506548405396954, rel=1e-12)

    def test_minimum_at_boundary(self):
        # a = 2, p = 2: ln h is strictly decreasing on (0, 1], minimum at 1
        s0, h_min = s0_minimize(0.5, params(-1.0, a=2.0, p=2.0))
        assert s0 == approx(1.0, abs=1e-6)
        assert h_min == approx(1.0, rel=1e-9)

    def test_interior_minimum(self):
        # stationarity: 1 - ln s = B/A = 2.5/2.2, i.e. s = e^{-3/22}
        pr = params(-1.0, a=1.2, p=2.0)
        s0, h_min = s0_minimize(0.5, pr)
        s_star = math.exp(-3.0 / 22.0)
        assert s0 == approx(s_star, abs=1e-6)
        assert h_min == approx(h_beta(s_star, 0.5, pr), rel=1e-10)

    @mark.parametrize("a, p, beta", [
        (1.2, 2.0, 0.5), (2.0, 2.0, 0.5), (0.0, 1.5, 0.3),
        (3.0, 3.0, 0.8), (0.5, 2.0, 0.1), (-0.8, 2.0, 0.5),
    ])
    def test_closed_form_matches_a_dense_scan(self, a, p, beta):
        # h_beta on 20001 points uniform in ln s over [1e-12, 1]: the closed-form
        # minimum lies at most one grid step from the scan's and below it
        pr = params(-1.0, a=a, p=p)
        s0, h_min = s0_minimize(beta, pr)
        ln_s = np.linspace(math.log(1e-12), 0.0, 20001)
        vals = np.array([h_beta(math.exp(x), beta, pr) for x in ln_s])
        i = int(vals.argmin())
        assert abs(math.log(s0) - ln_s[i]) <= ln_s[1] - ln_s[0]
        assert h_min <= vals[i] * (1.0 + 1e-12)
        assert h_min == approx(vals[i], rel=1e-5)
        assert h_min == approx(h_beta(s0, beta, pr), rel=1e-12)

    def test_rejects_nonnegative_leading_exponent(self):
        with raises(ValueError, match="nonnegative leading exponent"):
            s0_minimize(0.5, params(-1.0, a=-1.5, p=2.0))

    def test_eps_bound_hand_value(self):
        # h_min = 1, beta(1-beta) = 1/4, p - 1 = 1
        assert eps_bound_critical(0.5, params(-1.0, a=2.0, p=2.0)) == approx(0.25, abs=1e-9)

    def test_build_defaults(self):
        w = build_critical(params(-1.0, a=2.0, p=2.0))
        assert w.kind == "critical"
        assert w.beta == 0.5
        assert w.eps == approx(0.125, abs=1e-9)

    def test_build_rejects_noncritical(self):
        with raises(ValueError, match="not critical"):
            build_critical(params(0.0, a=2.0))

    def test_build_rejects_nonpositive_margin(self):
        with raises(ValueError, match="no witness exists"):
            build_critical(params(-1.0, a=-1.5, p=2.0))

    def test_build_rejects_bad_beta(self):
        with raises(ValueError, match="log power"):
            build_critical(params(-1.0, a=2.0), beta=1.2)


class TestVerification:
    def test_hand_witness_slack(self):
        # u = 0.5 rho^-1: operator gives 0.5 rho^-3, forcing is 0.25 rho^-2,
        # slack 0.5 rho^-3 - 0.25 rho^-2 is smallest at the boundary
        w = Witness("subcritical", 0.5, params(0.0), tau=1.0)
        rep = verify_witness(w, grid=np.array([0.01, 0.1, 0.5, 1.0]))
        assert rep.passed
        assert rep.min_slack == approx(0.25, rel=1e-10)
        # the least slack sits at rho = 1
        at_one = verify_witness(w, grid=np.array([1.0]))
        assert at_one.min_slack == approx(rep.min_slack, rel=1e-12)

    @mark.parametrize("lam", [0.0, 3.0, -0.9])
    def test_default_power_witnesses_verify(self, lam):
        w = build_subcritical(params(lam))
        rep = verify_witness(w, grid=80)
        assert rep.passed, (rep.max_identity_rel_err, rep.min_slack)
        assert rep.max_identity_rel_err <= 1e-10
        assert rep.min_slack >= 0.0

    def test_critical_witness_verifies(self):
        w = build_critical(params(-1.0, a=2.0, p=2.0))
        rep = verify_witness(w, grid=80)
        assert rep.passed, (rep.max_identity_rel_err, rep.min_slack)
        # slack is pinched at the boundary: eps beta(1-beta) - eps^p
        assert rep.min_slack == approx(w.eps * 0.25 - w.eps**2, rel=1e-9)

    def test_overdriven_amplitude_fails(self):
        w = build_subcritical(params(3.0))
        loud = dataclasses.replace(w, eps=4.0 * w.eps)
        rep = verify_witness(loud, grid=40)
        assert not rep.passed
        assert rep.min_slack < 0.0
        assert rep.max_identity_rel_err <= 1e-10  # the identity is amplitude-linear

    def test_identity_rhs_matches_operator_scaling(self):
        w = Witness("subcritical", 0.5, params(3.0), tau=1.0)
        assert identity_rhs(w, 0.1) == approx(0.5 * p_poly(1.0, params(3.0)) * 10.0**3)

    def test_rejects_radii_outside_bounds(self):
        w = build_subcritical(params(0.0))
        with raises(ValueError, match="within"):
            verify_witness(w, grid=np.array([1e-6, 0.5]))

    @mark.parametrize("grid", [
        np.array([0.5, np.nan, 0.9]), np.array([0.5, np.inf]), np.array([]), [],
        0, -3, np.int64(0), 0.5, [[0.5, 0.9]],
    ], ids=["nan", "inf", "empty-array", "empty-list", "zero", "negative", "numpy-zero",
            "scalar", "2-d"])
    def test_rejects_a_degenerate_grid(self, grid):
        # the module's own refusal, not a NaN report or an error from inside numpy
        w = build_subcritical(params(0.0))
        with raises(ValueError, match="grid"):
            verify_witness(w, grid=grid)


class TestJsonView:
    def test_subcritical_roundtrip(self):
        w = build_subcritical(params(3.0))
        rep = verify_witness(w, grid=20)
        out = json.loads(json.dumps(witness_json(w, rep)))
        assert out["kind"] == "subcritical"
        assert out["tau"] == approx(w.tau)
        assert out["bounds"]["tau_window"] == approx([-1.0, 2.0])
        assert out["verification"]["passed"] is True

    def test_critical_includes_minimizer(self):
        w = build_critical(params(-1.0, a=2.0, p=2.0))
        out = witness_json(w)
        assert out["beta"] == 0.5
        assert out["bounds"]["s0"] == approx(1.0, abs=1e-6)
        assert out["bounds"]["eps_bound"] == approx(0.25, abs=1e-9)
        assert "verification" not in out

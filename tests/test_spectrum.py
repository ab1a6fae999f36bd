import math
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx, mark, raises

from koranyi import spectrum
from koranyi.hgroup import GroupContext, HPoint, psi, sphere_chart
from koranyi.hcalc import Jet, egrad, radial_lift, value_of
from koranyi.hquad import c_n, surface_nodes
from koranyi.spectrum import (
    Classification,
    ProblemParams,
    Verdict,
    alphas,
    check_k_boundary,
    check_k_harmonic,
    classify,
    critical_exponent,
    critical_lambda,
    existence_margin,
    flux_pair,
    l1plus_test,
    liminf_probe,
    sigma_lambda,
    sigma_prime_one,
)


def params(lam, a=0.0, p=2.0, k=1, N=1):
    return ProblemParams(GroupContext(N), lam, a, p, k)


def pair(pr):
    al = alphas(pr)
    return al.alpha_minus, al.alpha_plus


class TestProblemParams:
    def test_rejects_p_at_most_one(self):
        with raises(ValueError, match="p > 1"):
            params(0.0, p=1.0)

    def test_rejects_bad_time_order(self):
        with raises(ValueError, match="time order"):
            params(0.0, k=0)
        with raises(ValueError, match="time order"):
            ProblemParams(GroupContext(1), 0.0, 0.0, 2.0, k=1.5)

    @given(st.sampled_from(["lam", "a", "p"]),
           st.sampled_from([math.nan, math.inf, -math.inf]))
    @settings(max_examples=30, deadline=None)
    def test_rejects_non_finite_parameters(self, name, bad):
        values = {"lam": 0.0, "a": 0.0, "p": 2.0, name: bad}
        with raises(ValueError):
            ProblemParams(GroupContext(1), values["lam"], values["a"], values["p"])

    def test_rejects_lambda_below_hardy(self):
        with raises(ValueError, match="Hardy threshold"):
            params(-1.001)

    def test_critical_lambda_values(self):
        assert params(0.0).critical_lam == approx(-1.0)
        assert params(0.0, N=2).critical_lam == approx(-4.0)
        for n in (1, 2, 4):  # Q - 2 = 2N, so the sharp Hardy constant is -N^2 exactly
            assert critical_lambda(GroupContext(n)) == -float(n) ** 2
        assert params(-1.0).is_critical
        assert not params(-0.999).is_critical


class TestAlphas:
    def test_hand_values(self):
        assert pair(params(0.0)) == approx((-2.0, 0.0))
        assert pair(params(3.0)) == approx((-3.0, 1.0))
        assert pair(params(-1.0)) == approx((-1.0, -1.0))

    def test_larger_group(self):
        # Q = 6, half = 2, lambda = 5 -> sqrt(9) = 3
        assert pair(params(5.0, N=2)) == approx((-5.0, 1.0))

    @given(lam=st.floats(min_value=-0.999, max_value=50.0))
    @settings(max_examples=200, deadline=None)
    def test_roots_solve_indicial_equation(self, lam):
        # alpha(alpha + Q - 2) = lambda for both roots
        pr = params(lam)
        for al in pair(pr):
            assert al * (al + pr.Q - 2.0) == approx(lam, abs=1e-9)


class TestSigma:
    def test_hand_values(self):
        assert value_of(sigma_lambda(0.5, params(0.0))) == approx(3.0)
        assert value_of(sigma_lambda(0.5, params(3.0))) == approx(7.5)
        assert value_of(sigma_lambda(1.0 / math.e, params(-1.0))) == approx(math.e)

    def test_vanishes_on_sphere(self):
        for lam in (0.0, 3.0, -1.0, -0.5):
            assert value_of(sigma_lambda(1.0, params(lam))) == approx(0.0, abs=1e-15)

    def test_positive_inside(self):
        s = np.linspace(0.05, 0.95, 40)
        for lam in (0.0, 3.0, -1.0):
            assert (sigma_lambda(s, params(lam)) > 0.0).all()

    def test_array_matches_scalar(self):
        s = np.array([0.25, 0.5, 0.75])
        vec = sigma_lambda(s, params(3.0))
        assert vec == approx([sigma_lambda(float(v), params(3.0)) for v in s])

    def test_rejects_nonpositive(self):
        with raises(ValueError, match="s > 0"):
            sigma_lambda(0.0, params(0.0))
        with raises(ValueError, match="s > 0"):
            sigma_lambda(np.array([0.5, -0.1]), params(-1.0))

    def test_jet_input(self):
        out = sigma_lambda(Jet.variable(0.5, 2), params(0.0))
        # sigma = s^-2 - 1, sigma' = -2 s^-3 = -16, sigma'' = 6 s^-4 = 96
        assert out.c[0] == approx(3.0)
        assert out.c[1] == approx(-16.0)
        assert 2.0 * out.c[2] == approx(96.0)

    def test_slope_at_boundary(self):
        assert sigma_prime_one(params(0.0)) == approx(-2.0)
        assert sigma_prime_one(params(3.0)) == approx(-4.0)
        assert sigma_prime_one(params(-1.0)) == approx(-1.0)


class TestHarmonicAndFlux:
    @mark.parametrize("lam", [0.0, 3.0, -0.9, -1.0])
    def test_k_annihilated(self, lam):
        worst = check_k_harmonic(params(lam), n_points=300, seed=3)
        assert worst <= 1e-8, f"residual {worst}"

    def test_equator_flux_hand_value(self):
        equator = HPoint(np.array([[1.0]]), np.array([[0.0]]), np.array([0.0]))
        measured, predicted = flux_pair(params(0.0), equator)
        # psi = 1 and |grad rho| = 1 there, so both sides are sigma'(1)
        assert predicted == approx(-2.0)
        assert measured == approx(-2.0)

    def test_flux_pair_on_a_batch_matches_per_point(self):
        rng = np.random.default_rng(2)
        omega = rng.normal(size=(12, 4))
        omega /= np.linalg.norm(omega, axis=-1, keepdims=True)
        pts = sphere_chart(rng.uniform(0.3, 0.99, size=12), omega, rng.choice([-1.0, 1.0], size=12))
        measured, predicted = flux_pair(params(0.5, N=2), pts)
        assert measured.shape == predicted.shape == (12,)
        for i in range(12):
            one = slice(i, i + 1)
            m, p = flux_pair(params(0.5, N=2), HPoint(pts.x[one], pts.y[one], pts.phi[one]))
            assert (m, p) == (approx(measured[one], rel=1e-14), approx(predicted[one], rel=1e-14))

    @mark.parametrize("lam", [0.0, -1.0])
    def test_boundary_identity_on_grid(self, lam):
        worst = check_k_boundary(params(lam), nodes=240)
        assert worst <= 1e-6, f"worst relative error {worst}"


class TestClassifier:
    @mark.parametrize(
        "lam, a, p, verdict",
        [
            (0.0, -2.0, 2.0, Verdict.NONEXISTENCE_ALL_F),
            (0.0, 2.0, 2.0, Verdict.EXISTENCE_WITNESS),
            (3.0, 0.0, 2.0, Verdict.EXISTENCE_WITNESS),
            (3.0, -3.0, 1.5, Verdict.NONEXISTENCE_ALL_F),
            (-0.75, 0.0, 6.0, Verdict.NONEXISTENCE_ALL_F),
            (-1.0, 0.0, 3.0, Verdict.OPEN_CRITICAL),
            (-1.0, 0.0, 2.9, Verdict.EXISTENCE_WITNESS),
            (-1.0, 0.0, 3.1, Verdict.NONEXISTENCE_ALL_F),
        ],
    )
    def test_fixture_verdicts(self, lam, a, p, verdict):
        assert classify(params(lam, a, p)).verdict == verdict

    def test_margin_hand_value(self):
        # Q = 4, alpha- = -3: (a+2) - (Q-2+alpha-)(p-1) = 1 + 1 = 2
        assert existence_margin(params(3.0, a=-1.0, p=2.0)) == approx(2.0)

    def test_zero_margin_above_critical_is_nonexistence(self):
        # margin 0 away from critical lambda is not an open case
        cls = classify(params(0.0, a=-2.0, p=5.0))
        assert cls.verdict == Verdict.NONEXISTENCE_ALL_F

    def test_rule_mentions_the_comparison(self):
        cls = classify(params(0.0, a=2.0, p=2.0))
        assert isinstance(cls, Classification)
        assert "Q+a+alpha-" in cls.rule

    @given(
        lam=st.floats(min_value=-0.999, max_value=10.0),
        a=st.floats(min_value=-5.0, max_value=5.0),
        p=st.floats(min_value=1.05, max_value=8.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_verdict_follows_margin_sign(self, lam, a, p):
        pr = params(lam, a, p)
        margin = existence_margin(pr)
        got = classify(pr).verdict
        if margin > 0.0:
            assert got == Verdict.EXISTENCE_WITNESS
        else:
            assert got == Verdict.NONEXISTENCE_ALL_F


class TestCriticalExponent:
    def test_weight_threshold_at_zero_lambda(self):
        thr = critical_exponent(GroupContext(1), 0.0, 5.0)
        assert (thr.kind, thr.value) == ("third", approx(-2.0))

    def test_second_kind(self):
        thr = critical_exponent(GroupContext(1), -0.75, 0.0)
        assert thr.kind == "second"
        assert thr.value == approx(5.0)

    def test_first_kind(self):
        thr = critical_exponent(GroupContext(1), 3.0, -3.0)
        assert thr.kind == "first"
        assert thr.value == approx(2.0)

    def test_no_threshold(self):
        thr = critical_exponent(GroupContext(1), 3.0, 0.0)
        assert (thr.kind, thr.value) == (None, None)

    def test_verdict_flips_across_second_kind(self):
        thr = critical_exponent(GroupContext(1), -0.75, 0.0)
        below = classify(params(-0.75, 0.0, thr.value - 0.2)).verdict
        above = classify(params(-0.75, 0.0, thr.value + 0.2)).verdict
        assert below == Verdict.EXISTENCE_WITNESS
        assert above == Verdict.NONEXISTENCE_ALL_F

    def test_verdict_flips_across_first_kind(self):
        thr = critical_exponent(GroupContext(1), 3.0, -3.0)
        below = classify(params(3.0, -3.0, thr.value - 0.3)).verdict
        above = classify(params(3.0, -3.0, thr.value + 0.3)).verdict
        assert below == Verdict.NONEXISTENCE_ALL_F
        assert above == Verdict.EXISTENCE_WITNESS


class TestBoundaryFunctional:
    def test_constant_datum_gives_polar_constant(self):
        value, member = l1plus_test(lambda x, y, phi: np.ones(len(phi)), 200, GroupContext(1))
        assert value == approx(4.0 * math.pi, rel=1e-10)
        assert member

    def test_odd_datum_is_rejected(self):
        value, member = l1plus_test(lambda x, y, phi: phi, 200, GroupContext(1))
        assert value == approx(0.0, abs=1e-12)
        assert not member

    def test_n2_builds_one_rule_per_call(self, monkeypatch):
        # 24 nodes at N = 2 is the benchmark's resolution; the functional
        # needs one surface rule per call, the scale reusing its values
        calls = []

        def counted(nodes, ctx):
            calls.append(nodes)
            return surface_nodes(nodes, ctx)

        monkeypatch.setattr(spectrum, "surface_nodes", counted)
        ctx = GroupContext(2)
        value, member = l1plus_test(lambda x, y, phi: np.ones(len(phi)), 24, ctx)
        assert value == approx(c_n(ctx), rel=1e-12)
        assert member
        value, member = l1plus_test(lambda x, y, phi: phi, 24, ctx)
        assert abs(value) <= 1e-12
        assert not member
        with raises(RuntimeError, match="non-finite"):
            l1plus_test(lambda x, y, phi: np.full(len(phi), np.inf), 24, ctx)
        assert calls == [24, 24, 24]

    @mark.parametrize("nodes,N", [(200, 1), (24, 2)])
    def test_closed_form_weight_matches_ad(self, nodes, N):
        # psi/|grad rho| from the AD gradient of the gauge at 500 nodes of the
        # rule: the functional's weight over the dH weight, node by node
        pts, w, w_flux = surface_nodes(nodes, GroupContext(N))
        rows = np.random.default_rng(N).choice(w.size, 500, replace=False)
        sub = HPoint(pts.x[rows], pts.y[rows], pts.phi[rows])
        grad = egrad(radial_lift(lambda r: r), sub)
        ratio = psi(sub) / np.linalg.norm(grad, axis=-1)
        assert np.abs(ratio / (w_flux[rows] / w[rows]) - 1.0).max() <= 1e-12

    @mark.parametrize("nodes,N", [(200, 1), (24, 2)])
    @mark.parametrize("c", [2.5, -0.75])
    def test_constant_datum_is_c_times_polar_constant(self, nodes, N, c):
        ctx = GroupContext(N)
        value, member = l1plus_test(lambda x, y, phi: np.full(len(phi), c), nodes, ctx)
        assert value == approx(c * c_n(ctx), rel=1e-12)
        assert member == (c > 0.0)

    def test_n2_functional_memory(self):
        # the weight is formed per chi node, so only the rule's points and f's
        # values are held at once
        ctx = GroupContext(2)
        tracemalloc.start()
        try:
            l1plus_test(lambda x, y, phi: phi, 24, ctx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20_000_000


class TestLiminfProbe:
    def test_decreasing_when_nonexistence(self):
        pr = params(0.0, a=-3.0, p=2.0)
        pts = liminf_probe(lambda r: r**-3.0, pr, [2.0, 4.0, 8.0, 16.0])
        vals = [v for _, v in pts]
        assert vals == sorted(vals, reverse=True)

    def test_increasing_when_witness_exists(self):
        pr = params(0.0, a=2.0, p=2.0)
        pts = liminf_probe(lambda r: r**2.0, pr, [2.0, 4.0, 8.0])
        vals = [v for _, v in pts]
        assert vals == sorted(vals)

    def test_rejects_small_scale(self):
        with raises(ValueError, match="exceed 1"):
            liminf_probe(lambda r: 1.0, params(0.0), [0.5])

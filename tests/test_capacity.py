import math

import numpy as np
from pytest import approx, mark, raises
from scipy.integrate import quad

from koranyi.hcalc import Jet, exp, log, sin, value_of
from koranyi.hgroup import GroupContext
from koranyi.hquad import c_n
from koranyi.capacity import (
    CUTOFFS,
    DEFAULT_SCALES,
    beta_t,
    beta_time_integral,
    bump,
    default_family,
    eta,
    j1,
    j1_space_factor,
    j1_time_factor,
    j2,
    j2_space_factor,
    min_iota,
    ramp_ell,
    ramp_zeta,
    scaling_fit,
    smooth_step,
    spatial_profile,
)
from koranyi.spectrum import ProblemParams, existence_margin, k_profile


def params(lam, a=0.0, p=2.0, k=1):
    return ProblemParams(GroupContext(1), lam, a, p, k)


class TestCutoffShapes:
    def test_bump_support_and_peak(self):
        assert bump(0.0) == 0.0
        assert bump(1.0) == 0.0
        assert bump(-0.2) == 0.0
        assert value_of(bump(0.5)) == approx(1.0)
        assert 0.0 < value_of(bump(0.1)) < 1.0

    def test_smooth_step_endpoints(self):
        assert smooth_step(-1.0) == 0.0
        assert smooth_step(0.0) == 0.0
        assert smooth_step(1.0) == 1.0
        assert smooth_step(2.0) == 1.0
        assert value_of(smooth_step(0.5)) == approx(0.5)

    def test_smooth_step_monotone(self):
        grid = np.linspace(-0.2, 1.2, 60)
        vals = [value_of(smooth_step(float(t))) for t in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_ramp_supports(self):
        assert ramp_zeta(0.5) == 0.0
        assert ramp_zeta(1.0) == 1.0
        assert 0.0 < value_of(ramp_zeta(0.75)) < 1.0
        assert ramp_ell(0.0) == 0.0
        assert ramp_ell(0.5) == 1.0
        assert 0.0 < value_of(ramp_ell(0.25)) < 1.0

    def test_bump_derivative_matches_finite_difference(self):
        h = 1e-6
        out = bump(Jet.variable(0.3, 1))
        fd = (value_of(bump(0.3 + h)) - value_of(bump(0.3 - h))) / (2.0 * h)
        assert out.c[1] == approx(fd, rel=1e-5)


class TestFamily:
    def test_min_iota_hand_values(self):
        assert min_iota(1, 2.0) == 6
        assert min_iota(2, 3.0) == 5
        assert min_iota(1, 1.5) == 8

    def test_default_family_uses_floor(self):
        assert default_family(params(0.0)) == 6
        assert default_family(params(0.0, p=3.0)) == 5


class TestTimeBump:
    def test_support(self):
        iota = default_family(params(0.0))
        assert beta_t(0.0, 10.0, iota) == 0.0
        assert beta_t(10.0, 10.0, iota) == 0.0
        assert beta_t(5.0, 10.0, iota) == approx(1.0)

    def test_rejects_bad_scale(self):
        with raises(ValueError, match="positive"):
            beta_t(1.0, 0.0, default_family(params(0.0)))

    def test_mass_value(self):
        iota = default_family(params(0.0))
        q = beta_time_integral(100.0, iota)
        assert q.value == approx(17.564249856758003, rel=1e-9)
        assert q.value <= 100.0

    def test_counts_quad_evaluations(self):
        iota = default_family(params(0.0))
        assert beta_time_integral(100.0, iota).evaluations > 0
        tf = j1_time_factor(100.0, params(0.0), iota)
        sf = j1_space_factor("gamma", 10.0, params(0.0), iota)
        assert tf.evaluations > 0
        assert j1("gamma", 100.0, 10.0, params(0.0), iota).evaluations == (
            tf.evaluations + sf.evaluations
        )

    def test_mass_scales_linearly(self):
        iota = default_family(params(0.0))
        assert beta_time_integral(200.0, iota).value == approx(
            2.0 * beta_time_integral(100.0, iota).value, rel=1e-9
        )


class TestTimeFactor:
    @mark.parametrize("k, expected", [(1, -1.0), (2, -3.0), (3, -5.0)])
    def test_decay_law(self, k, expected):
        # |d^k beta/dt^k|^{p/(p-1)} beta^{-1/(p-1)} integrates to T^{1-kp/(p-1)}
        pr = params(0.0, k=k)
        iota = default_family(pr)
        pts = [(T, j1_time_factor(T, pr, iota).value) for T in (10.0, 100.0, 1000.0, 10000.0)]
        fit = scaling_fit(pts)
        assert fit.slope == approx(expected, abs=0.05)
        assert fit.r_squared > 0.999

    # lane j of g(t + e) is g^(j)(t) / j!, against closed forms up to order 8,
    # the deepest time order the acceptance suite fits
    @mark.parametrize("g, coefficient", [
        (lambda t: t**5, lambda j, t: math.comb(5, j) * t ** (5 - j)),
        (lambda t: t**2.5, lambda j, t: math.prod(2.5 - i for i in range(j))
         / math.factorial(j) * t ** (2.5 - j)),
        (lambda t: exp(2.0 * t), lambda j, t: 2.0**j * np.exp(2.0 * t) / math.factorial(j)),
        (lambda t: 1.0 / t, lambda j, t: (-1.0) ** j * t ** (-j - 1.0)),
        (log, lambda j, t: np.log(t) if j == 0 else (-1.0) ** (j + 1) / (j * t**j)),
        (lambda t: sin(3.0 * t), lambda j, t: 3.0**j * np.sin(3.0 * t + j * math.pi / 2.0)
         / math.factorial(j)),
    ], ids=["power5", "power2.5", "exp2t", "reciprocal", "log", "sin3t"])
    def test_jet_matches_closed_forms_to_order_8(self, g, coefficient):
        t = np.array([0.3, 0.7, 1.9])
        got = g(Jet.variable(t, 8)).c
        assert len(got) == 9
        for j, lane in enumerate(got):
            assert lane == approx(coefficient(j, t), rel=1e-12, abs=0.0), j


class TestSpatialCutoffs:
    @mark.parametrize("cutoff", sorted(CUTOFFS))
    def test_support(self, cutoff):
        # 0 below lo(R), K above hi(R), strictly between inside the annulus; the
        # inner points span its middle half in log scale, since near lo(R) the
        # cutoff power drops below the evaluation floor and reads 0
        pr = params(3.0)
        R = 100.0
        prof = spatial_profile(cutoff, R, pr, default_family(pr))
        K = k_profile(pr)
        lo, hi = CUTOFFS[cutoff].zone(R)
        assert 0.0 < lo < hi < 1.0
        for s in np.geomspace(1e-3 * lo, 0.999 * lo, 7):
            assert prof(float(s)) == 0.0
        for s in np.geomspace(1.001 * hi, 1.0, 7):
            assert value_of(prof(float(s))) == value_of(K(float(s)))
        for s in np.geomspace(lo**0.75 * hi**0.25, lo**0.25 * hi**0.75, 7):
            assert 0.0 < value_of(prof(float(s))) < value_of(K(float(s)))

    def test_rejects_small_scale(self):
        pr = params(0.0)
        with raises(ValueError, match="must exceed 1"):
            spatial_profile("gamma", 1.0, pr, default_family(pr))

    def test_rejects_unknown_cutoff_name(self):
        pr = params(0.0)
        with raises(ValueError, match="'gamma' or 'mu'"):
            j1_space_factor("nu", 10.0, pr, default_family(pr))


class TestEta:
    def test_converges_to_ball_mass(self):
        # lambda = 0, a = 0, p = 2: the envelope climbs to int psi = pi
        pr = params(0.0)
        vals = [eta(R, pr) for R in (2.0, 8.0, 32.0, 128.0)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == approx(math.pi, abs=2e-3)

    def test_bounded_envelope_with_potential(self):
        # lambda = 3: K ~ rho^-3 makes the integrand bounded, limit 16 pi/5
        pr = params(3.0)
        limit = 16.0 * math.pi / 5.0
        gap = limit - eta(100.0, pr)
        assert 0.0 < gap < 0.09

    def test_growing_envelope_power(self):
        # a/(p-1) = 5 pushes the origin exponent to -4: eta ~ R^3
        pr = params(0.0, a=5.0)
        pts = [(R, eta(R, pr)) for R in (10.0, 31.6, 100.0, 316.0)]
        fit = scaling_fit(pts)
        assert fit.slope == approx(3.0, abs=0.1)

    def test_dominates_space_factors(self):
        pr = params(0.0)
        iota = default_family(pr)
        for R in (5.0, 25.0, 125.0):
            env = eta(R, pr)
            assert j1_space_factor("gamma", R, pr, iota).value <= env + 1e-9
            assert j1_space_factor("mu", R, pr, iota).value <= env + 1e-9

    @mark.parametrize("N", [1, 2])
    @mark.parametrize("R", [237.0, 10**2.5])
    def test_gamma_space_factor_sees_its_transition(self, N, R):
        # The gamma transition (1/(2R), 1/R) is under 0.2% of [1/(2R), 1]
        # here; a rule that misses it returns eta(R) with a tiny error claim.
        # The reference splits the rho-integral at the transition's ends.
        pr = ProblemParams(GroupContext(N), 0.0, 0.0, 2.0, 1)
        iota = default_family(pr)
        profile = spatial_profile("gamma", R, pr, iota)
        lo, hi = CUTOFFS["gamma"].zone(R)

        def f(s):
            return s ** (2 * N + 1) * float(value_of(profile(s)))

        ref = c_n(pr.ctx) * sum(
            quad(f, x0, x1, epsabs=0.0, epsrel=1e-13, limit=200)[0]
            for x0, x1 in ((lo, hi), (hi, 1.0))
        )
        got = j1_space_factor("gamma", R, pr, iota)
        assert got.value == approx(ref, rel=1e-9, abs=0.0)
        assert abs(got.value - ref) <= 10.0 * got.error_estimate + 1e-12 * abs(ref)


class TestAnnulusLaw:
    @mark.parametrize(
        "lam, expected",
        [(0.0, 2.0), (3.0, 3.0), (-0.75, 1.5)],
    )
    def test_elliptic_space_factor_power(self, lam, expected):
        # gamma transition: J2 space factor grows like R^{(a+2p)/(p-1) - Q - alpha-}
        pr = params(lam)
        iota = default_family(pr)
        pts = [(R, j2_space_factor("gamma", R, pr, iota).value) for R in DEFAULT_SCALES]
        fit = scaling_fit(pts)
        assert fit.slope == approx(expected, abs=0.1)
        assert fit.r_squared > 0.99


class TestLogDecayLaw:
    def test_critical_equality_decays_in_log_scale(self):
        # critical lambda with zero margin: mu factor falls like (ln R)^{-2/(p-1)}
        pr = params(-1.0, a=0.0, p=3.0)
        assert existence_margin(pr) == approx(0.0, abs=1e-12)
        iota = default_family(pr)
        pts = [
            (math.log(10.0**e), j2_space_factor("mu", 10.0**e, pr, iota).value)
            for e in (2, 4, 8, 12, 16, 20)
        ]
        fit = scaling_fit(pts)
        assert fit.slope == approx(-1.0, abs=0.1)
        assert fit.r_squared >= 0.95


# The scale grids of the benchmark's certify pass, rounded to six digits as
# its command lines are: quarter decades 10..1e4 (annulus law), 1.5-decade
# steps 1e2..1e20 (critical log-decay law) and the first nine quarter
# decades (domination law).
QUARTER_DECADES = tuple(float(f"{10.0 ** (1.0 + 0.25 * i):.6g}") for i in range(13))
LOG_DECAY_SCALES = tuple(float(f"{10.0 ** (2.0 + 1.5 * i):.6g}") for i in range(13))
DOMINATION_SCALES = QUARTER_DECADES[:9]


def quad_radial(f, lo, hi, ctx):
    """(C_N int_lo^hi rho^{2N+1} f(rho) drho, error estimate) by scipy's quad
    in t = -ln(rho), f taking one float."""
    expo = 2 * ctx.N + 1
    value, err = quad(lambda t: math.exp(-(expo + 1) * t) * f(math.exp(-t)),
                      -math.log(hi), -math.log(lo), epsabs=1e-10, epsrel=1e-10, limit=200)
    return c_n(ctx) * value, c_n(ctx) * err


def j2_reference(cutoff, R, pr, iota):
    """The J2 space factor by quad, its integrand D^{-1/(p-1)} |E|^{p/(p-1)}
    V^{-1/(p-1)} summed in logarithms at one float rho (0 where D or E is)."""
    profile = spatial_profile(cutoff, R, pr, iota)
    p = pr.p

    def f(s):
        d = profile(Jet.variable(s, 2)).c
        e = -2.0 * d[2] - (pr.Q - 1.0) * d[1] / s + pr.lam * d[0] / (s * s)
        if d[0] == 0.0 or e == 0.0:
            return 0.0
        return math.exp((p * math.log(abs(e)) - math.log(d[0]) - pr.a * math.log(s)) / (p - 1.0))

    return quad_radial(f, *CUTOFFS[cutoff].zone(R), pr.ctx)


def assert_agrees(got, ref):
    value, err = ref
    assert abs(got.value - value) <= got.error_estimate + err, (got, ref)


def critical(N):
    """Critical coupling with zero margin at a = 0: p = 1 + 2/N."""
    return ProblemParams(GroupContext(N), -float(N * N), 0.0, 1.0 + 2.0 / N, 1)


class TestAgainstQuad:
    """Every capacity integral of the certify grids against scipy's quad."""

    @mark.parametrize("N", [1, 2])
    @mark.parametrize("lam", [0.0, 3.0])
    def test_annulus_law_grid(self, N, lam):
        pr = ProblemParams(GroupContext(N), lam, 0.0, 2.0, 1)
        iota = default_family(pr)
        for R in QUARTER_DECADES:
            assert_agrees(j2_space_factor("gamma", R, pr, iota), j2_reference("gamma", R, pr, iota))

    @mark.parametrize("N", [1, 2])
    def test_logdecay_law_grid(self, N):
        pr = critical(N)
        assert existence_margin(pr) == approx(0.0, abs=1e-12)
        iota = default_family(pr)
        for R in LOG_DECAY_SCALES:
            assert_agrees(j2_space_factor("mu", R, pr, iota), j2_reference("mu", R, pr, iota))

    @mark.parametrize("N", [1, 2])
    def test_domination_law_grid(self, N):
        pr = ProblemParams(GroupContext(N), 0.0, 0.0, 2.0, 1)
        iota = default_family(pr)
        K = k_profile(pr)
        for R in DOMINATION_SCALES:
            profile = spatial_profile("gamma", R, pr, iota)
            lo, _ = CUTOFFS["gamma"].zone(R)
            assert_agrees(j1_space_factor("gamma", R, pr, iota),
                          quad_radial(lambda s: value_of(profile(s)), lo, 1.0, pr.ctx))
            got = eta(R, pr)
            value, err = quad_radial(lambda s: value_of(K(s)), 0.5 / R, 1.0, pr.ctx)
            assert abs(got - value) <= 1e-10 * abs(value) + err

    @mark.parametrize("cutoff", sorted(CUTOFFS))
    @mark.parametrize("lam", [0.0, 3.0])
    @mark.parametrize("p", [1.5, 3.0])
    def test_hard_cases(self, cutoff, lam, p):
        # p = 3: |E|^{3/2} has a kink where E changes sign; p = 1.5: D^{-2}
        # grows toward the edge of the support, where the cutoff is masked
        pr = ProblemParams(GroupContext(1), lam, 0.0, p, 1)
        iota = default_family(pr)
        for R in (10.0, 10.0**1.5, 1e3):
            assert_agrees(j2_space_factor(cutoff, R, pr, iota), j2_reference(cutoff, R, pr, iota))


    @mark.parametrize("cutoff", sorted(CUTOFFS))
    def test_exponent_near_one(self, cutoff):
        # p = 1.05: D^{-20} alone overflows over much of the transition and D
        # underflows near its inner end, while the integrand peaks near 1e133
        pr = ProblemParams(GroupContext(1), 0.0, 0.0, 1.05, 1)
        iota = default_family(pr)
        assert_agrees(j2_space_factor(cutoff, 10.0, pr, iota), j2_reference(cutoff, 10.0, pr, iota))


class TestOutOfDoubleRange:
    @mark.parametrize("R", [10.0, 100.0])
    def test_annulus_integrand_past_double_range_raises(self, R):
        # at p = 1.01 the integrand reaches about 1e790 inside the transition
        pr = ProblemParams(GroupContext(1), 0.0, 0.0, 1.01)
        with raises(RuntimeError, match="nonfinite capacity integrand"):
            j2_space_factor("gamma", R, pr, min_iota(1, 1.01))


class TestFullFunctionals:
    def test_j1_and_j2_factorize(self):
        pr = params(0.0)
        iota = default_family(pr)
        T, R = 50.0, 20.0
        full = j1("gamma", T, R, pr, iota)
        assert full.value == approx(
            j1_time_factor(T, pr, iota).value * j1_space_factor("gamma", R, pr, iota).value
        )
        full2 = j2("mu", T, R, pr, iota)
        assert full2.value == approx(
            beta_time_integral(T, iota).value * j2_space_factor("mu", R, pr, iota).value
        )
        assert full.method == "product"


class TestScalingFit:
    def test_recovers_exact_power_law(self):
        pts = [(s, 3.0 * s**2.5) for s in (1.0, 5.0, 10.0, 50.0)]
        fit = scaling_fit(pts)
        assert fit.slope == approx(2.5)
        assert math.exp(fit.intercept) == approx(3.0)
        assert fit.r_squared == approx(1.0)

    def test_constant_data_degenerates_cleanly(self):
        fit = scaling_fit([(s, 7.0) for s in (1.0, 10.0, 20.0, 100.0)])
        assert fit.slope == approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0

    def test_rejects_few_points(self):
        with raises(ValueError, match="at least 4"):
            scaling_fit([(1.0, 1.0), (10.0, 2.0), (100.0, 3.0)])

    def test_rejects_nonpositive_values(self):
        with raises(ValueError, match="nonpositive"):
            scaling_fit([(1.0, 1.0), (5.0, -2.0), (10.0, 3.0), (100.0, 4.0)])

    def test_rejects_narrow_span(self):
        with raises(ValueError, match="decade"):
            scaling_fit([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)])

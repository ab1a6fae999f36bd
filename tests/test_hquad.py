import math
import tracemalloc

import numpy as np
from pytest import approx, mark, raises
from scipy.integrate import quad

from koranyi import hquad
from koranyi.hgroup import GroupContext, knorm, knorm_of, psi_of, sphere_chart
from koranyi.hquad import (
    GK_LIMIT,
    Annulus,
    c_n,
    gk21,
    mc_annulus,
    radial_integral,
    radial_integrals,
    SURFACE_NODE_BUDGET,
    sphere_rule,
    surface_integral,
    surface_nodes,
)


def closed_form(ctx, s, ann):
    """Antiderivative of C_N rho^{Q-1+s} over the annulus."""
    expo = ctx.Q + s
    if expo == 0.0:
        return c_n(ctx) * math.log(ann.r_outer / ann.r_inner)
    return c_n(ctx) * (ann.r_outer**expo - ann.r_inner**expo) / expo


# ---------------------------------------------------------------------------
# the angular constant and the polar formula
# ---------------------------------------------------------------------------

def test_angular_constants(ctx1, ctx2):
    assert c_n(ctx1) == approx(4.0 * math.pi, rel=1e-12)
    assert c_n(ctx2) == approx(math.pi**3, rel=1e-12)


@mark.parametrize("n", [1, 2, 3, 4, 8])
def test_angular_constant_matches_quadrature(n):
    # the closed form against an independent adaptive quadrature of sin^N
    ctx = GroupContext(n)
    theta_int, _ = quad(lambda t: math.sin(t) ** n, 0.0, math.pi, epsabs=1e-14, epsrel=1e-12)
    omega = 2.0 * math.pi**n / math.factorial(n - 1)
    assert c_n(ctx) == approx(omega * theta_int, rel=1e-14)


def test_ball_weight_integral_is_pi(ctx1):
    res = radial_integral(lambda r: 1.0, Annulus(0.0, 1.0), ctx1)
    assert res.value == approx(math.pi, rel=1e-10)


@mark.parametrize("s", [0.0, 2.0, -1.0, -3.5])
@mark.parametrize("inner", [0.0, 0.25])
def test_monomials_match_antiderivative(ctx1, s, inner):
    ann = Annulus(inner, 1.0)
    got = radial_integral(lambda r: r**s, ann, ctx1).value
    assert got == approx(closed_form(ctx1, s, ann), rel=1e-9)


def test_monomials_in_higher_layers(ctx2):
    ann = Annulus(0.0, 1.0)
    got = radial_integral(lambda r: r**2, ann, ctx2).value
    assert got == approx(closed_form(ctx2, 2.0, ann), rel=1e-9)


def test_wide_annulus_uses_log_substitution(ctx1):
    # inner/outer span many decades; the substituted path must still nail
    # the antiderivative
    ann = Annulus(1e-8, 1e-2)
    got = radial_integral(lambda r: r**-2.0, ann, ctx1).value
    assert got == approx(closed_form(ctx1, -2.0, ann), rel=1e-8)


def test_annulus_over_several_blocks_skips_the_origin_checks(ctx1):
    # 161 t-units, two full blocks of equal mass: on a ball that pattern
    # means divergence, on an annulus it is just the log of the radius ratio;
    # r^-Q stays inside double range here, so the edge check must not fire
    ann = Annulus(1e-70, 1.0)
    got = radial_integral(lambda r: r ** float(-ctx1.Q), ann, ctx1).value
    assert got == approx(closed_form(ctx1, float(-ctx1.Q), ann), rel=1e-15)


@mark.parametrize("r_inner", [1e-100, 1e-300])
def test_annulus_past_the_edge_of_double_range_is_refused(ctx1, r_inner):
    # r^-Q overflows below r ~ 1e-77, where every decade still carries the
    # same mass; the overflowed part must not silently count as 0
    with raises(RuntimeError, match="inner edge"):
        radial_integral(lambda r: r ** float(-ctx1.Q), Annulus(r_inner, 1.0), ctx1)


def test_interior_overflow_next_to_weight_is_refused(ctx1):
    # the profile overflows on a band inside the annulus while the nodes on
    # either side of the band still carry weight; the band must not count as 0
    def F(r):
        return np.exp(800.0 - 1e3 * (np.log(r) - math.log(0.07)) ** 2)

    with raises(RuntimeError, match="stretch near rho"):
        radial_integral(F, Annulus(0.05, 0.1), ctx1)


def test_overflow_beside_negligible_weight_is_accepted(ctx1):
    # r^-3 overflows below r ~ 1e-103, where the volume weight has already
    # underflowed to 0: the nodes beside the overflow carry no weight
    ann = Annulus(1e-300, 1.0)
    got = radial_integral(lambda r: r**-3.0, ann, ctx1).value
    assert got == approx(closed_form(ctx1, -3.0, ann), rel=1e-10)


def test_borderline_power_diverges(ctx1):
    with raises(RuntimeError):
        radial_integral(lambda r: r ** float(-ctx1.Q), Annulus(0.0, 1.0), ctx1)


@mark.parametrize("inner, outer", [(-0.1, 1.0), (1.0, 1.0), (2.0, 1.0)])
def test_annulus_validation(inner, outer):
    with raises(ValueError):
        Annulus(inner, outer)


# ---------------------------------------------------------------------------
# many intervals in one adaptive pass
# ---------------------------------------------------------------------------

def _rounds(f, bounds):
    """gk21 over bounds, and the intervals each round sent through f."""
    rounds = []

    def counted(nodes, which):
        rounds.append(sorted(set(which[:, 0].tolist())))
        return f(nodes, which)

    return gk21(counted, bounds), rounds


def _alone(f, bounds):
    return [gk21(lambda x, w, i=i: f(x, np.full_like(w, i)), [ab])[0]
            for i, ab in enumerate(bounds)]


KINKS = np.array([0.3, 1.7, -0.4])


@mark.parametrize("f, bounds, least", [
    (lambda x, w: np.exp(-x * x) * (1.0 + w), [(0.0, 1.0), (-2.0, 3.0), (0.5, 4.0)], 1),
    (lambda x, w: np.abs(x - KINKS[w]) ** 1.5, [(0.0, 1.0), (-2.0, 3.0), (-1.0, 0.0)], 11),
    (lambda x, w: np.where(w == 1, np.abs(x - 0.3) ** 1.5, np.cos(x)),
     [(0.0, 1.0), (0.0, 1.0), (-3.0, 2.0)], 11),
], ids=["smooth", "kink", "mixed"])
def test_gk21_intervals_together_equal_each_alone(f, bounds, least):
    together, rounds = _rounds(f, bounds)
    assert together == _alone(f, bounds)  # bit for bit
    assert len(rounds) >= least  # a kink of |t - c|^1.5 bisects for many rounds


def test_gk21_intervals_finish_in_their_own_rounds():
    f = lambda x, w: np.where(w == 1, np.abs(x - 0.3) ** 1.5, np.cos(x))
    _, rounds = _rounds(f, [(0.0, 1.0), (0.0, 1.0), (-3.0, 2.0)])
    assert rounds[0] == [0, 1, 2]
    assert all(r == [1] for r in rounds[1:])


def test_gk21_non_finite_value_raises():
    with raises(RuntimeError, match="non-finite integrand on \\[2.0, 3.0\\]"):
        gk21(lambda x, w: np.where(w == 1, np.log(x - 2.5), x), [(0.0, 1.0), (2.0, 3.0)])


def test_gk21_panel_limit_is_per_interval():
    # an oscillation no panel resolves bisects every panel of its interval
    # each round, past GK_LIMIT; the smooth interval beside it is not at fault
    with raises(RuntimeError, match=f"did not converge on \\[0.0, 1.0\\] within {GK_LIMIT}"):
        gk21(lambda x, w: np.where(w == 0, np.sin(1e8 * x), x), [(0.0, 1.0), (0.0, 2.0)])


def test_radial_integrals_equal_each_alone(ctx1):
    # a ball marched beside an annulus whose inner edge overflows harmlessly,
    # a narrow annulus and a second ball that needs more blocks
    powers = (2.0, -3.0, -1.0, -3.9)
    annuli = [Annulus(0.0, 1.0), Annulus(1e-300, 1.0), Annulus(0.25, 0.5), Annulus(0.0, 2.0)]
    together = radial_integrals(
        lambda r, w: np.select([w == i for i in range(4)], [r ** s for s in powers]),
        annuli, ctx1)
    alone = [radial_integral(lambda r, s=s: r ** s, ann, ctx1)
             for s, ann in zip(powers, annuli)]
    assert together == alone


def test_radial_integrals_refuse_the_annulus_at_fault(ctx1):
    annuli = [Annulus(0.25, 1.0), Annulus(1e-300, 1.0)]
    with raises(RuntimeError, match="1e-300"):
        radial_integrals(lambda r, w: r ** np.where(w == 1, float(-ctx1.Q), 0.0), annuli, ctx1)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def test_mc_matches_quadrature_within_band(ctx1):
    ann = Annulus(0.0, 1.0)
    qr = radial_integral(lambda r: r**2, ann, ctx1)
    mc = mc_annulus(
        lambda x, y, phi: psi_of(x, y, phi) * knorm_of(x, y, phi) ** 2,
        ann, samples=200_000, seed=42, ctx=ctx1,
    )
    assert abs(mc.value - qr.value) <= 3.0 * (mc.error_estimate + qr.error_estimate)


def test_mc_is_reproducible(ctx1):
    ann = Annulus(0.25, 1.0)
    f = lambda x, y, phi: psi_of(x, y, phi)
    a = mc_annulus(f, ann, samples=50_000, seed=7, ctx=ctx1)
    b = mc_annulus(f, ann, samples=50_000, seed=7, ctx=ctx1)
    c = mc_annulus(f, ann, samples=50_000, seed=8, ctx=ctx1)
    assert a.value == b.value and a.error_estimate == b.error_estimate
    assert a.value != c.value


def test_mc_rejects_tiny_sample_counts(ctx1):
    with raises(ValueError):
        mc_annulus(lambda x, y, phi: 1.0, Annulus(0.0, 1.0), samples=10, seed=0, ctx=ctx1)


@mark.parametrize("samples, seed", [
    (2e5, 0), (math.nan, 0), (True, 0), ("20000", 0), (20_000, 1.5), (20_000, True), (20_000, None),
])
def test_mc_rejects_ill_typed_samples_and_seed(ctx1, samples, seed):
    with raises(ValueError, match="must be an integer"):
        mc_annulus(lambda x, y, phi: 1.0, Annulus(0.0, 1.0), samples=samples, seed=seed, ctx=ctx1)


def test_mc_takes_numpy_integers(ctx1):
    f = lambda x, y, phi: psi_of(x, y, phi)
    a = mc_annulus(f, Annulus(0.25, 1.0), samples=np.int64(20_000), seed=np.uint32(3), ctx=ctx1)
    b = mc_annulus(f, Annulus(0.25, 1.0), samples=20_000, seed=3, ctx=ctx1)
    assert a == b


def test_mc_draws_are_the_uniform_box_stream(ctx2):
    # Annulus (1, 2) at 20 000 samples is one shell of 10 000 rows, more than
    # one block: the integrand sees exactly the accepted rows of
    # uniform(-1, 1) * hi, phi scaled by hi^2, from the shell's substream
    seen = []

    def f(x, y, phi):
        seen.append(np.column_stack([x, y, phi]))
        return np.ones(len(phi))

    mc_annulus(f, Annulus(1.0, 2.0), samples=20_000, seed=5, ctx=ctx2)
    rng = np.random.Generator(np.random.Philox(key=5).jumped(0))
    u = rng.uniform(-1.0, 1.0, size=(10_000, 5)) * 2.0
    u[:, 4] *= 2.0
    nrm4 = ((u[:, :4] ** 2).sum(axis=1)) ** 2 + u[:, 4] ** 2
    assert np.array_equal(np.concatenate(seen), u[(nrm4 > 1.0) & (nrm4 <= 16.0)])


@mark.parametrize("ann", [Annulus(0.25, 1.0), Annulus(0.0, 1.0)])
def test_mc_block_size_sets_only_the_summation_order(ctx2, monkeypatch, ann):
    # the per-shell Philox stream is the same whatever the block size, so a
    # smaller block moves the result only by rounding
    f = lambda x, y, phi: psi_of(x, y, phi) * knorm_of(x, y, phi) ** 2
    ref = mc_annulus(f, ann, samples=50_000, seed=11, ctx=ctx2)
    monkeypatch.setattr(hquad, "MC_CHUNK", 1000)
    small = mc_annulus(f, ann, samples=50_000, seed=11, ctx=ctx2)
    assert small.evaluations == ref.evaluations
    assert small.value == approx(ref.value, rel=1e-13)
    assert small.error_estimate == approx(ref.error_estimate, rel=1e-13)


def test_mc_peak_memory_stays_small():
    # draws stream through one cache-sized buffer of MC_CHUNK rows; holding
    # a shell's 100 000 rows of draws and their copies would take about 20 MiB
    ctx4 = GroupContext(4)
    f = lambda x, y, phi: psi_of(x, y, phi) * knorm_of(x, y, phi) ** 2
    mc_annulus(f, Annulus(0.25, 1.0), samples=1000, seed=0, ctx=ctx4)
    tracemalloc.start()
    try:
        mc_annulus(f, Annulus(0.25, 1.0), samples=200_000, seed=301, ctx=ctx4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_mc_matches_quadrature_at_n4():
    # the verify-identities family member, at the largest N it runs
    ctx4 = GroupContext(4)
    ann = Annulus(0.25, 1.0)
    qr = radial_integral(lambda r: r**2, ann, ctx4)
    mc = mc_annulus(
        lambda x, y, phi: psi_of(x, y, phi) * knorm_of(x, y, phi) ** 2,
        ann, samples=200_000, seed=301, ctx=ctx4,
    )
    assert abs(mc.value - qr.value) <= 3.0 * (mc.error_estimate + qr.error_estimate)


def test_mc_refuses_a_non_finite_integrand_at_n4():
    f = lambda x, y, phi: np.where(knorm_of(x, y, phi) > 0.5, np.inf, 1.0)
    with raises(RuntimeError, match="non-finite"):
        mc_annulus(f, Annulus(0.25, 1.0), samples=20_000, seed=0, ctx=GroupContext(4))


# ---------------------------------------------------------------------------
# surface quadrature
# ---------------------------------------------------------------------------

@mark.parametrize("d, area", [(2, 2.0 * math.pi), (4, 2.0 * math.pi**2)])
def test_sphere_rule_total_weight(d, area):
    _, w = sphere_rule(d, 24)
    assert w.sum() == approx(area, rel=1e-12)


def test_sphere_rule_rejects_low_dimension():
    with raises(ValueError):
        sphere_rule(1, 8)


def coarea_weight(x, y, phi):
    # psi / |grad knorm| on the unit sphere; integrating it recovers the
    # angular constant, the surface counterpart of the polar formula
    ps = psi_of(x, y, phi)
    return ps / np.sqrt(ps**3 + (1.0 - ps**2) / 4.0)


def test_surface_coarea_identity(ctx1):
    res = surface_integral(coarea_weight, nodes=200, ctx=ctx1)
    assert res.value == approx(c_n(ctx1), rel=1e-12)


def test_surface_coarea_identity_higher_layers(ctx2):
    # node counts multiply fast in the omega sphere at N = 2; stay coarse
    res = surface_integral(coarea_weight, nodes=24, ctx=ctx2)
    assert res.value == approx(c_n(ctx2), rel=1e-12)


def test_surface_odd_function_cancels(ctx1):
    res = surface_integral(lambda x, y, phi: phi, nodes=100, ctx=ctx1)
    assert res.value == approx(0.0, abs=1e-12)


@mark.parametrize("nodes,N", [(200, 1), (24, 2), (100, 1), (8, 3)])
def test_surface_rule_size_is_the_closed_form(nodes, N):
    pts, w, w_flux = surface_nodes(nodes, GroupContext(N))
    n_chi = max(8, nodes)
    assert w.size == 4 * n_chi * max(8, n_chi // 2) ** (2 * N - 1) <= SURFACE_NODE_BUDGET
    assert pts.x.shape == pts.y.shape == (w.size, N) and pts.phi.shape == w.shape
    assert w_flux.shape == w.shape


@mark.parametrize("nodes,N", [(200, 1), (24, 2)])
def test_surface_rule_is_the_sphere_chart(nodes, N):
    # every point sits on the unit gauge sphere and is the one `sphere_chart`
    # places at the rule's parameters: r = sqrt(cos chi) at the Gauss-Legendre
    # chi nodes on [0, pi/2], omega from `sphere_rule`, the + sign first
    pts, *_ = surface_nodes(nodes, GroupContext(N))
    assert np.abs(knorm(pts) - 1.0).max() <= 1e-14
    t, _ = np.polynomial.legendre.leggauss(nodes)
    chi = 0.25 * math.pi * (t + 1.0)
    omega, _ = sphere_rule(2 * N, nodes // 2)
    sign = np.repeat([1.0, -1.0], chi.size * len(omega))
    chart = sphere_chart(np.tile(np.repeat(np.sqrt(np.cos(chi)), len(omega)), 2),
                         np.tile(omega, (2 * chi.size, 1)), sign)
    assert np.array_equal(pts.flat(), chart.flat())


def test_oversized_surface_rule_is_refused_before_allocating(ctx2):
    # 400 nodes at N = 2 would be 1.28e10 points, one 48 GB coordinate array
    tracemalloc.start()
    try:
        with raises(ValueError, match="budget"):
            surface_nodes(400, ctx2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000

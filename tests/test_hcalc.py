import math
import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pytest import approx, mark, raises

from koranyi import hcalc, spectrum, witness
from koranyi.hgroup import GroupContext, HPoint, knorm, psi
from koranyi.hgroup import random_points as batch_points
from koranyi.hcalc import (
    Jet,
    egrad,
    exp,
    hlap,
    hlap_divform,
    log,
    radial_lap,
    radial_lift,
    value_of,
)
from koranyi.spectrum import (ProblemParams, check_k_boundary, check_k_harmonic,
                              critical_lambda)
from koranyi.witness import build_critical, build_subcritical, verify_witness

from conftest import block_rows, egrad_oracle, hgrad, hlap_oracle, random_points

small = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
jet_st = st.builds(Jet, small, small, small, small)  # order 3


def _close(u: Jet, v: Jet, tol=1e-9):
    assert len(u.c) == len(v.c)
    for a, b in zip(u.c, v.c):
        assert a == approx(b, rel=tol, abs=tol)


# ---------------------------------------------------------------------------
# jet arithmetic
# ---------------------------------------------------------------------------

@given(jet_st, jet_st, jet_st)
@settings(max_examples=200, deadline=None)
def test_distributive_law(a, b, c):
    _close(a * (b + c), a * b + a * c)


@given(jet_st, jet_st)
@settings(max_examples=200, deadline=None)
def test_subtraction_inverts_addition(a, b):
    _close((a + b) - b, a)


@given(jet_st)
@settings(max_examples=200, deadline=None)
def test_reciprocal(a):
    if abs(a.c[0]) < 0.1:
        return
    _close(a * a.reciprocal(), Jet(1.0, 0.0, 0.0, 0.0), tol=1e-8)


def test_derivative_seeding_cubic():
    # f(t) = t^3 seeded along t: lane j is f^(j)(2) / j!
    t = Jet.variable(2.0, 3)
    f = t * t * t
    assert f.c[0] == approx(8.0)
    assert f.c[1] == approx(12.0)  # f'
    assert 2.0 * f.c[2] == approx(12.0)  # f''
    assert 6.0 * f.c[3] == approx(6.0)  # f'''


def test_mixed_partial():
    # f(x, y) = x^2 y at (3, 5): gradient (2xy, x^2), and the cross derivative
    # 2x by polarization, D^2 f[u, v] = (D^2 f[u + v] - D^2 f[u - v]) / 4
    def seeded(du, dv):
        x, y = Jet(3.0, du, 0.0), Jet(5.0, dv, 0.0)
        f = x * x * y
        return f.c[1], 2.0 * f.c[2]  # D f[w], D^2 f[w] along w = (du, dv)

    assert seeded(1.0, 0.0)[0] == approx(30.0)  # df/dx = 2xy
    assert seeded(0.0, 1.0)[0] == approx(9.0)  # df/dy = x^2
    assert (seeded(1.0, 1.0)[1] - seeded(1.0, -1.0)[1]) / 4.0 == approx(6.0)


def sqrt(u):
    return u ** 0.5


@mark.parametrize(
    "fn, inv",
    [(exp, log), (lambda u: u * u, sqrt)],
)
def test_transcendental_inverses(fn, inv):
    u = Jet(1.7, 0.3, -0.2, 0.5)
    _close(inv(fn(u)), u, tol=1e-10)


def test_power_rule_fractional():
    t = Jet.variable(4.0, 2)
    f = t**1.5
    assert f.c[0] == approx(8.0)
    assert f.c[1] == approx(3.0)
    assert 2.0 * f.c[2] == approx(0.375)


def test_power_at_zero_base():
    # squares of a vanishing quantity keep the second-order lane, higher powers drop it
    z = Jet(0.0, 2.0, 0.0)
    sq = z**2
    assert (sq.c[0], sq.c[1]) == (0.0, 0.0)
    assert 2.0 * sq.c[2] == approx(8.0)  # 2 * c1^2
    cub = z**3
    assert cub.c == [0.0, 0.0, 0.0]
    with raises(ValueError):
        z**1.5


def test_zero_base_raises_only_where_a_coefficient_is_singular():
    # lane j of u^c at u = 0 is binom(c, j) 0^(c-j) c1^j: finite while j <= c
    assert (Jet(0.0, 2.0) ** 1.5).c == [0.0, 0.0]
    assert (Jet(0.0, 2.0, 0.0) ** 2.5).c == [0.0, 0.0, 0.0]
    assert (Jet(0.0, 1.0, 0.0, 0.0, 0.0) ** 2).c == [0.0, 0.0, 1.0, 0.0, 0.0]
    with raises(ValueError, match="zero base"):
        Jet(0.0, 2.0, 0.0, 0.0) ** 2.5
    with raises(ValueError, match="zero base"):
        Jet(0.0, 2.0) ** -1


def test_negative_base_fractional_power_rejected():
    with raises(ValueError):
        Jet(-2.0, 1.0, 0.0) ** 0.5


def test_value_of_passthrough():
    assert value_of(3.25) == 3.25
    assert value_of(Jet(1.5, 9.0, 9.0)) == 1.5


def test_unary_functions_accept_plain_floats():
    assert exp(0.0) == approx(1.0)
    assert log(np.array([1.0, math.e])) == approx(np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# horizontal fields and the operator
# ---------------------------------------------------------------------------

def test_horizontal_fields_on_coordinates(ctx1):
    # with X = d/dx + 2y d/dphi and Y = d/dy - 2x d/dphi: X^2 x^2 = 2,
    # X^2 phi = X(2y) = 0, X^2 phi^2 = X(4y phi) = 8y^2, Y^2 phi^2 = 8x^2 and
    # X^2 (x phi) = X(phi + 2xy) = 4y, Y^2 (x phi) = Y(-2x^2) = 0
    x0, y0 = 0.4, -1.1
    pt = HPoint(np.array([[x0]]), np.array([[y0]]), np.array([0.3]))
    assert hlap(lambda x, y, phi: x[..., 0] * x[..., 0], pt) == approx(2.0)
    assert hlap(lambda x, y, phi: phi, pt) == approx(0.0, abs=1e-15)
    assert hlap(lambda x, y, phi: phi * phi, pt) == approx(8.0 * (x0 * x0 + y0 * y0))
    assert hlap(lambda x, y, phi: x[..., 0] * phi, pt) == approx(4.0 * y0)


def test_gradient_length_is_weight(ctx1):
    pts = batch_points(ctx1, np.random.default_rng(3), 100)
    g = hgrad(radial_lift(lambda r: r), pts)
    assert g.shape == (100, 2)
    assert (g * g).sum(axis=-1) == approx(psi(pts), rel=1e-10, abs=1e-12)


def test_radial_operator_hand_values(ctx1):
    # F'' + (2N+1)/r F' at N=1: quadratic gives the constant 8
    assert radial_lap(lambda r: r**2, 0.37, ctx1) == approx(8.0, rel=1e-13)
    # quartic gives 24 r^2
    assert radial_lap(lambda r: r**4, 0.5, ctx1) == approx(6.0, rel=1e-12)


def test_operator_reduces_to_radial_form(ctx1):
    pts = batch_points(ctx1, np.random.default_rng(7), 40)
    r = knorm(pts)
    for F in (lambda r: r**2, lambda r: 1.0 / (1.0 + r * r)):
        assert hlap(radial_lift(F), pts) == approx(
            psi(pts) * radial_lap(F, r, ctx1), rel=1e-10, abs=1e-12
        )


def test_divergence_form_cross_check(ctx1):
    field = radial_lift(lambda r: r**2)
    pts = batch_points(ctx1, np.random.default_rng(13), 10)
    assert hlap_divform(field, pts) == approx(hlap(field, pts), abs=1e-5)


def test_operator_in_higher_layers(ctx2):
    # same radial reduction at N = 2 (the constant becomes 2 + 2(2N+1) = 12)
    assert radial_lap(lambda r: r**2, 0.8, ctx2) == approx(12.0, rel=1e-13)
    pts = batch_points(ctx2, np.random.default_rng(17), 15)
    assert hlap(radial_lift(lambda r: r**2), pts) == approx(psi(pts) * 12.0, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# batched evaluation against the per-point path
# ---------------------------------------------------------------------------

BATCH_FIELDS = {
    "barrier": radial_lift(lambda r: r**-1.5 - r**0.5),
    "mixed": lambda x, y, phi: exp(0.3 * (x * y).sum(axis=-1)) * log(3.0 + phi + x[..., 0])
    + (y * y * y).sum(axis=-1) / (2.0 + phi * phi),
}


@mark.parametrize("n", [1, 2, 4])
@mark.parametrize("name", sorted(BATCH_FIELDS))
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_batched_operators_match_per_point(n, name, seed):
    f = BATCH_FIELDS[name]
    pts = batch_points(GroupContext(n), np.random.default_rng(seed), 6)
    singles = random_points(GroupContext(n), 6, seed)

    lap = hlap(f, pts)
    assert lap.shape == (6,)
    per_point = np.concatenate([hlap(f, q) for q in singles])
    assert np.all(np.abs(lap - per_point) <= 1e-14 * np.abs(per_point))

    batched = egrad(f, pts)
    assert batched.shape == (6, 2 * n + 1)
    per_point = np.concatenate([egrad(f, q) for q in singles])
    scale = np.abs(per_point).max(axis=-1, keepdims=True)
    assert np.all(np.abs(batched - per_point) <= 1e-14 * scale)


def test_batched_fields_and_divform_shapes(ctx2):
    pts = batch_points(ctx2, np.random.default_rng(4), 5)
    singles = random_points(ctx2, 5, 4)
    f = radial_lift(lambda r: r**2)
    div = hlap_divform(f, pts)
    assert div.shape == (5,)
    assert div == approx(np.concatenate([hlap_divform(f, q) for q in singles]), rel=1e-12)


numpy_scalars = st.sampled_from([np.float64, np.float32, np.int64, np.array])


@given(numpy_scalars, st.lists(st.integers(min_value=-5, max_value=5), min_size=4, max_size=4))
@settings(max_examples=50, deadline=None)
def test_scalar_parts_are_python_floats(make, lanes):
    u = Jet(*(make(p) for p in lanes))
    for v in (u, u * make(2), u + make(1), exp(u), u * u):
        assert all(type(p) is float for p in v.c)


positive = st.floats(min_value=0.2, max_value=3.0)
jet_pos = st.builds(Jet, positive, small, small, small)
# +, -, *, / and the numpy transcendentals give bitwise equal lanes; powers
# differ by an ulp between Python's float ** and numpy's array power, so they
# are compared relative to the size of the lanes
OPS = {
    "add": (lambda u, v: u + v, 0.0),
    "sub": (lambda u, v: u - v, 0.0),
    "mul": (lambda u, v: u * v, 0.0),
    "div": (lambda u, v: u / v, 0.0),
    "rsub": (lambda u, v: 1.5 - u, 0.0),
    "rdiv": (lambda u, v: 2.0 / v, 0.0),
    "exp_log": (lambda u, v: exp(u) * log(v), 0.0),
    "pow": (lambda u, v: v**2.5, 1e-14),
    "int_pow": (lambda u, v: u**3, 1e-14),
    "sqrt": (lambda u, v: v**0.5, 1e-14),
}


@mark.parametrize("op", sorted(OPS))
@given(st.lists(st.tuples(jet_st, jet_pos), min_size=1, max_size=5))
# at this base Python's float (-1/a) ** 2 and numpy's array square differ by
# an ulp, which split the log lanes while they were formed with **
@example([(Jet(0.0, 0.0, 0.0, 0.0), Jet(0.29552422471475287, 1.0, 0.0, 0.0))])
@settings(max_examples=40, deadline=None)
def test_array_ring_matches_scalar_ring(op, pairs):
    fn, rel = OPS[op]

    def stack(jets):
        return Jet(*(np.array([u.c[j] for u in jets]) for j in range(4)))

    batched = fn(stack([u for u, _ in pairs]), stack([v for _, v in pairs]))
    for i, (u, v) in enumerate(pairs):
        expect = np.array(fn(u, v).c)
        got = np.array([lane[i] for lane in batched.c])
        assert np.all(np.abs(got - expect) <= rel * (1.0 + np.abs(expect).max())), (got, expect)


def test_array_power_branches_are_elementwise():
    u = Jet(np.array([0.0, 2.0]), np.array([2.0, 1.0]), np.zeros(2))
    sq = u**2
    assert 2.0 * sq.c[2] == approx(np.array([8.0, 2.0]))
    assert (u**3).c[0] == approx(np.array([0.0, 8.0]))
    with raises(ValueError):
        u**1.5
    with raises(ValueError):
        Jet(np.array([1.0, -2.0]), np.ones(2), np.zeros(2)) ** 0.5


def test_abs_is_elementwise_on_arrays():
    u = Jet(np.array([-2.0, 0.0, 3.0]), np.array([1.0, 1.0, 1.0]),
            np.array([2.0, 2.0, 2.0]), np.array([5.0, 5.0, 5.0]))
    got = abs(u)
    assert np.array_equal(got.c[0], [2.0, 0.0, 3.0])
    assert np.array_equal(got.c[1], [-1.0, 1.0, 1.0])
    assert np.array_equal(got.c[2], [-2.0, 2.0, 2.0])
    assert np.array_equal(got.c[3], [-5.0, 5.0, 5.0])


@mark.parametrize("n", [1, 2])
def test_abs_field_runs_on_a_batch(n):
    # one field body for one-point batches and longer ones, with phi of both signs
    f = lambda x, y, phi: abs(phi) ** 3 + (x * x).sum(axis=-1)
    pts = batch_points(GroupContext(n), np.random.default_rng(5), 40)
    assert (pts.phi > 0.0).any() and (pts.phi < 0.0).any()
    batched = hlap(f, pts)
    per_point = np.concatenate([hlap(f, q) for q in random_points(GroupContext(n), 40, 5)])
    assert np.all(np.abs(batched - per_point) <= 1e-14 * np.abs(per_point))


# ---------------------------------------------------------------------------
# vector mode against the per-direction oracle, and its work and memory
# ---------------------------------------------------------------------------

ORACLE_FIELDS = {
    "mixed": BATCH_FIELDS["mixed"],
    "barrier": BATCH_FIELDS["barrier"],
    "constant": lambda x, y, phi: 2.5,  # float lanes
}


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@mark.parametrize("n", [1, 2, 4])
def test_vector_mode_matches_the_per_direction_oracle_to_the_bit(n):
    rows = block_rows(n)
    for size in sorted({1, rows - 1, rows, rows + 1} - {0}):
        pts = batch_points(GroupContext(n), np.random.default_rng(size), size)
        for f in ORACLE_FIELDS.values():
            _same_bits(hlap(f, pts), hlap_oracle(f, pts))
            grad = egrad(f, pts)
            assert grad.flags.c_contiguous
            _same_bits(grad, egrad_oracle(f, pts))


@mark.parametrize("n", [1, 2, 4])
def test_divergence_form_matches_the_oracle_to_the_bit(n, monkeypatch):
    # its shifted points form a 2-D batch of (2(2N+1), P) points
    pts = batch_points(GroupContext(n), np.random.default_rng(n), 7)
    f = BATCH_FIELDS["mixed"]
    got = hlap_divform(f, pts)
    monkeypatch.setattr(hcalc, "egrad", egrad_oracle)
    _same_bits(got, hlap_divform(f, pts))


@mark.parametrize("n", [1, 2, 4])
def test_barrier_and_witness_checks_match_the_oracle_to_the_bit(n, monkeypatch):
    ctx = GroupContext(n)
    # weight exponent a = 2N keeps both existence margins positive
    params = ProblemParams(ctx, 0.5, 2.0 * n, 2.0)
    crit = ProblemParams(ctx, critical_lambda(ctx), 2.0 * n, 2.0)
    points = 3 * block_rows(n) + 1  # crosses block boundaries

    def run():
        return (check_k_harmonic(params, points, 5), check_k_harmonic(crit, points, 6),
                check_k_boundary(params, points), verify_witness(build_subcritical(params), 250),
                verify_witness(build_critical(crit), 250))

    got = run()
    for module in (spectrum, witness):
        monkeypatch.setattr(module, "hlap", hlap_oracle)
    monkeypatch.setattr(spectrum, "egrad", egrad_oracle)
    assert got == run()


@mark.parametrize("n", [1, 2, 4])
def test_one_field_evaluation_per_block(n):
    # every seed direction rides in one evaluation, so each point's value
    # lane is formed once per operator call, not once per direction
    rows, calls = block_rows(n), []

    def counted(x, y, phi):
        calls.append(1)
        return BATCH_FIELDS["mixed"](x, y, phi)

    for size in (1, rows, rows + 1, 3 * rows + 2):
        pts = batch_points(GroupContext(n), np.random.default_rng(size), size)
        for op in (hlap, egrad):
            calls.clear()
            op(counted, pts)
            assert len(calls) == math.ceil(size / rows)


# tracemalloc peaks at N = 4 (x86-64, numpy 2.4): egrad on 2000 points read
# 0.38 MB and hlap on 800 points 0.49 MB in blocks of 2^14 seed values,
# against 0.85 and 1.62 MB in blocks of 2^16, 1.51 and 1.62 MB with every
# point in one block, and 0.50 and 0.27 MB one direction at a time
OPERATOR_PEAK_BOUND = 0.8e6  # bytes


@mark.parametrize("op, field, size", [
    (egrad, radial_lift(lambda r: r), 2000),
    (hlap, BATCH_FIELDS["barrier"], 800),
])
def test_operator_memory_stays_blocked(op, field, size):
    pts = batch_points(GroupContext(4), np.random.default_rng(3), size)
    op(field, pts)
    tracemalloc.start()
    try:
        op(field, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < OPERATOR_PEAK_BOUND

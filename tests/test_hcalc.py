import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx, mark, raises

from koranyi.hgroup import GroupContext, HPoint, psi
from koranyi.hgroup import random_points as batch_points
from koranyi.hcalc import (
    Jet,
    cos,
    egrad,
    exp,
    hgrad,
    hlap,
    hlap_divform,
    log,
    radial_lap,
    radial_lift,
    sin,
    sqrt,
    value_of,
    x_field,
    y_field,
)

from conftest import random_points

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


@mark.parametrize(
    "fn, inv",
    [(exp, log), (lambda u: u * u, sqrt)],
)
def test_transcendental_inverses(fn, inv):
    u = Jet(1.7, 0.3, -0.2, 0.5)
    _close(inv(fn(u)), u, tol=1e-10)


def test_trig_derivatives():
    t = Jet.variable(0.6, 2)
    s, c = sin(t), cos(t)
    assert s.c[1] == approx(math.cos(0.6))
    assert 2.0 * s.c[2] == approx(-math.sin(0.6))
    assert c.c[1] == approx(-math.sin(0.6))
    _close(s * s + c * c, Jet(1.0, 0.0, 0.0), tol=1e-12)


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
    pt = HPoint(np.array([0.4]), np.array([-1.1]), 0.3)
    fx = lambda x, y, phi: x[0]
    fy = lambda x, y, phi: y[0]
    fphi = lambda x, y, phi: phi
    assert x_field(1, fx, pt) == approx(1.0)
    assert x_field(1, fy, pt) == approx(0.0)
    assert x_field(1, fphi, pt) == approx(2.0 * pt.y[0])
    assert y_field(1, fphi, pt) == approx(-2.0 * pt.x[0])


def test_field_index_out_of_range(ctx1):
    pt = HPoint(np.array([0.4]), np.array([-1.1]), 0.3)
    with raises(IndexError):
        x_field(2, lambda x, y, phi: x[0], pt)


def test_gradient_length_is_weight(ctx1):
    gauge = radial_lift(lambda r: r)
    for pt in random_points(ctx1, 100, seed=3):
        g = hgrad(gauge, pt)
        assert g.shape == (2,)
        assert float(g @ g) == approx(psi(pt), rel=1e-10, abs=1e-12)


def test_radial_operator_hand_values(ctx1):
    # F'' + (2N+1)/r F' at N=1: quadratic gives the constant 8
    assert radial_lap(lambda r: r**2, 0.37, ctx1) == approx(8.0, rel=1e-13)
    # quartic gives 24 r^2
    assert radial_lap(lambda r: r**4, 0.5, ctx1) == approx(6.0, rel=1e-12)


def test_operator_reduces_to_radial_form(ctx1):
    for F in (lambda r: r**2, lambda r: 1.0 / (1.0 + r * r)):
        field = radial_lift(F)
        for pt in random_points(ctx1, 40, seed=7):
            r = (float(pt.x @ pt.x + pt.y @ pt.y) ** 2 + pt.phi**2) ** 0.25
            assert hlap(field, pt) == approx(
                psi(pt) * radial_lap(F, r, ctx1), rel=1e-10, abs=1e-12
            )


def test_divergence_form_cross_check(ctx1):
    field = radial_lift(lambda r: r**2)
    for pt in random_points(ctx1, 10, seed=13):
        assert hlap_divform(field, pt) == approx(hlap(field, pt), abs=1e-5)


def test_operator_in_higher_layers(ctx2):
    # same radial reduction at N = 2 (the constant becomes 2 + 2(2N+1) = 12)
    assert radial_lap(lambda r: r**2, 0.8, ctx2) == approx(12.0, rel=1e-13)
    field = radial_lift(lambda r: r**2)
    for pt in random_points(ctx2, 15, seed=17):
        r = (float(pt.x @ pt.x + pt.y @ pt.y) ** 2 + pt.phi**2) ** 0.25
        assert hlap(field, pt) == approx(psi(pt) * 12.0, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# batched evaluation against the per-point path
# ---------------------------------------------------------------------------

BATCH_FIELDS = {
    "barrier": radial_lift(lambda r: r**-1.5 - r**0.5),
    "mixed": lambda x, y, phi: exp(0.3 * (x * y).sum(axis=-1)) * sin(phi + x[..., 0])
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
    per_point = np.array([hlap(f, q) for q in singles])
    assert np.all(np.abs(lap - per_point) <= 1e-14 * np.abs(per_point))

    for op, width in ((egrad, 2 * n + 1), (hgrad, 2 * n)):
        batched = op(f, pts)
        assert batched.shape == (6, width)
        per_point = np.array([op(f, q) for q in singles])
        scale = np.abs(per_point).max(axis=-1, keepdims=True)
        assert np.all(np.abs(batched - per_point) <= 1e-14 * scale)


def test_batched_fields_and_divform_shapes(ctx2):
    pts = batch_points(ctx2, np.random.default_rng(4), 5)
    singles = random_points(ctx2, 5, 4)
    f = radial_lift(lambda r: r**2)
    for i in (1, 2):
        assert x_field(i, f, pts).shape == (5,)
        assert y_field(i, f, pts).shape == (5,)
    div = hlap_divform(f, pts)
    assert div.shape == (5,)
    assert div == approx(np.array([hlap_divform(f, q) for q in singles]), rel=1e-12)
    assert isinstance(hlap(f, singles[0]), float)


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
    "trig": (lambda u, v: sin(u) + cos(u), 0.0),
    "pow": (lambda u, v: v**2.5, 1e-14),
    "int_pow": (lambda u, v: u**3, 1e-14),
    "sqrt": (lambda u, v: sqrt(v), 1e-14),
}


@mark.parametrize("op", sorted(OPS))
@given(st.lists(st.tuples(jet_st, jet_pos), min_size=1, max_size=5))
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
    # one field body for single points and batches, with phi of both signs
    f = lambda x, y, phi: abs(phi) ** 3 + (x * x).sum(axis=-1)
    pts = batch_points(GroupContext(n), np.random.default_rng(5), 40)
    assert (pts.phi > 0.0).any() and (pts.phi < 0.0).any()
    batched = hlap(f, pts)
    per_point = np.array([hlap(f, q) for q in random_points(GroupContext(n), 40, 5)])
    assert np.all(np.abs(batched - per_point) <= 1e-14 * np.abs(per_point))

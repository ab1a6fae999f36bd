import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx, mark, raises

from koranyi import hgroup
from koranyi.hgroup import (
    GroupContext,
    HPoint,
    a_apply,
    compose,
    inverse,
    knorm,
    psi,
    random_directions,
    sphere_chart,
)
from koranyi.hgroup import random_points as batch_points

from conftest import random_points

coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def kdist(xi, eta):
    """Left-invariant gauge distance d(xi, eta) = |eta^{-1} o xi|."""
    return knorm(compose(inverse(eta), xi))


def dilate(r, xi):
    """Anisotropic dilation (x, y, phi) -> (r x, r y, r^2 phi)."""
    return HPoint(r * xi.x, r * xi.y, r * r * xi.phi)


def a_matrix(xi):
    """The coefficient matrix A(z) of the sub-Laplacian, entry by entry, of
    shape (*batch, 2N+1, 2N+1): the oracle for `a_apply`."""
    n = xi.N
    a = np.zeros(xi.shape + (2 * n + 1, 2 * n + 1))
    diag = np.arange(2 * n)
    a[..., diag, diag] = 1.0
    a[..., :n, -1] = a[..., -1, :n] = 2.0 * xi.y
    a[..., n : 2 * n, -1] = a[..., -1, n : 2 * n] = -2.0 * xi.x
    a[..., -1, -1] = 4.0 * ((xi.x * xi.x).sum(axis=-1) + (xi.y * xi.y).sum(axis=-1))
    return a


def point(x, y, phi):
    """The one-point batch (x, y, phi) of H^1."""
    return HPoint(np.array([[x]]), np.array([[y]]), np.array([phi]))


point_st = st.builds(point, coord, coord, coord)


# ---------------------------------------------------------------------------
# context and constructors
# ---------------------------------------------------------------------------

@mark.parametrize("n, q", [(1, 4), (2, 6), (5, 12)])
def test_homogeneous_dimension(n, q):
    ctx = GroupContext(n)
    assert ctx.Q == q
    assert ctx.dim == 2 * n + 1


@mark.parametrize("bad", [0, -1])
def test_context_rejects_nonpositive_layers(bad):
    with raises(ValueError):
        GroupContext(bad)


@given(st.one_of(st.floats(), st.booleans(), st.text(max_size=3), st.none()))
@settings(max_examples=100, deadline=None)
def test_context_rejects_non_integer_layers(bad):
    with raises(ValueError, match="integer"):
        GroupContext(bad)


def test_context_accepts_numpy_integers():
    ctx = GroupContext(np.int64(3))
    assert ctx.N == 3 and type(ctx.N) is int


# ---------------------------------------------------------------------------
# group structure
# ---------------------------------------------------------------------------

@given(point_st, point_st, point_st)
@settings(max_examples=200, deadline=None)
def test_associativity(g1, g2, g3):
    left = compose(compose(g1, g2), g3)
    right = compose(g1, compose(g2, g3))
    assert np.allclose(left.x, right.x, atol=1e-11)
    assert np.allclose(left.y, right.y, atol=1e-11)
    assert left.phi == approx(right.phi, abs=1e-11)


@given(point_st)
@settings(max_examples=200, deadline=None)
def test_inverse_cancels(g):
    e = compose(g, inverse(g))
    assert np.allclose(e.x, 0.0, atol=1e-12)
    assert np.allclose(e.y, 0.0, atol=1e-12)
    assert e.phi == approx(0.0, abs=1e-12)


def test_origin_is_neutral(ctx1):
    g = point(0.3, -0.7, 0.2)
    e = point(0.0, 0.0, 0.0)
    for h in (compose(g, e), compose(e, g)):
        assert np.allclose(h.x, g.x)
        assert np.allclose(h.y, g.y)
        assert h.phi == approx(g.phi)


def test_noncommutative_twist():
    # the phi component picks up the symplectic area of the two z parts
    g = point(1.0, 0.0, 0.0)
    h = point(0.0, 1.0, 0.0)
    assert compose(g, h).phi == approx(-2.0)
    assert compose(h, g).phi == approx(2.0)


def test_left_invariance_of_distance(ctx1):
    pts = random_points(ctx1, 30, seed=5)
    g, a, b = pts[0], pts[1], pts[2]
    assert kdist(compose(g, a), compose(g, b)) == approx(kdist(a, b), rel=1e-12)


# ---------------------------------------------------------------------------
# gauge, weight, dilations
# ---------------------------------------------------------------------------

@mark.parametrize(
    "x, y, phi, expected",
    [
        (1.0, 0.0, 0.0, 1.0),
        (0.0, 0.0, 4.0, 2.0),
        (1.0, 1.0, 1.0, 5.0**0.25),
        (0.0, 0.0, 0.0, 0.0),
    ],
)
def test_gauge_hand_values(x, y, phi, expected):
    assert knorm(point(x, y, phi)) == approx(expected, abs=1e-15)


def test_weight_range_and_hand_values(ctx1):
    assert psi(point(1.0, 0.0, 0.0)) == approx(1.0)
    assert psi(point(0.0, 0.0, 1.0)) == approx(0.0)
    weight = psi(batch_points(ctx1, np.random.default_rng(2), 200))
    assert np.all((0.0 <= weight) & (weight <= 1.0 + 1e-15))


@given(point_st, st.floats(min_value=0.01, max_value=10.0))
@settings(max_examples=200, deadline=None)
def test_gauge_homogeneity(g, r):
    assert knorm(dilate(r, g)) == approx(r * knorm(g), rel=1e-12, abs=1e-12)


@given(point_st, st.floats(min_value=0.01, max_value=10.0))
@settings(max_examples=100, deadline=None)
def test_weight_is_dilation_invariant(g, r):
    if knorm(g) < 1e-6:
        return
    assert psi(dilate(r, g)) == approx(psi(g), rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# the horizontal coefficient matrix
# ---------------------------------------------------------------------------

def test_a_matrix_structure(ctx1):
    pts = batch_points(ctx1, np.random.default_rng(9), 50)
    A = a_matrix(pts)
    assert A.shape == (50, 3, 3)
    assert np.allclose(A, A.swapaxes(-1, -2))
    assert np.linalg.eigvalsh(A).min() >= -1e-12
    z2 = (pts.x * pts.x + pts.y * pts.y).sum(axis=-1)
    assert A[:, -1, -1] == approx(4.0 * z2)


@mark.parametrize("n", [1, 2, 4])
def test_a_apply_matches_the_matrix_product(n):
    ctx = GroupContext(n)
    rng = np.random.default_rng(5)
    pts = batch_points(ctx, rng, 500)
    v = rng.normal(size=(500, 2 * n + 1))
    A = a_matrix(pts)
    # relative to the size of the terms summed in each entry of A v
    scale = (np.abs(A) @ np.abs(v)[..., None])[..., 0]
    got = a_apply(pts, v)
    assert got.shape == v.shape
    assert np.all(np.abs(got - (A @ v[..., None])[..., 0]) <= 1e-14 * scale)


def test_a_matrix_null_direction(ctx1):
    # the vertical-looking direction (-2y, 2x, 1) is horizontal-orthogonal
    pts = batch_points(ctx1, np.random.default_rng(11), 20)
    v = np.concatenate([-2.0 * pts.y, 2.0 * pts.x, np.ones((20, 1))], axis=-1)
    assert np.allclose(a_apply(pts, v), 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------

@mark.parametrize("n", [1, 2, 4])
def test_random_points_keep_the_row_stream(n, monkeypatch):
    # a floor this high rejects a good share of the box, so the stream is
    # tested across several blocks of draws
    monkeypatch.setattr(hgroup, "RHO_FLOOR", 0.6)
    ctx = GroupContext(n)
    pts = batch_points(ctx, np.random.default_rng(8), 300)
    assert pts.shape == (300,) and pts.N == n
    assert np.all(knorm(pts) >= 0.6)
    # the same rows, drawn one at a time and filtered in order
    rng = np.random.default_rng(8)
    rows = []
    while len(rows) < 300:
        row = rng.uniform(-1.0, 1.0, size=2 * n + 1)
        if knorm(HPoint.from_flat(row[None]))[0] >= 0.6:
            rows.append(row)
    assert np.array_equal(pts.flat(), np.array(rows))


@mark.parametrize("n", [1, 2, 4])
def test_random_directions_are_unit_vectors_and_signs(n):
    u, sign = random_directions(np.random.default_rng(3), 500, n)
    assert u.shape == (500, 2 * n) and sign.shape == (500,)
    assert np.linalg.norm(u, axis=1) == approx(np.ones(500), rel=1e-15)
    assert set(sign.tolist()) == {-1.0, 1.0}
    # the same stream again: m normal rows, then m uniforms for the signs
    rng = np.random.default_rng(3)
    raw = rng.normal(size=(500, 2 * n))
    assert np.array_equal(u, raw / np.linalg.norm(raw, axis=1, keepdims=True))
    assert np.array_equal(sign, np.where(rng.uniform(size=500) < 0.5, 1.0, -1.0))


@mark.parametrize("n", [1, 2, 4])
def test_batched_group_operations_match_per_point(n):
    ctx = GroupContext(n)
    a = batch_points(ctx, np.random.default_rng(1), 50)
    b = batch_points(ctx, np.random.default_rng(2), 50)
    pairs = list(zip(random_points(ctx, 50, 1), random_points(ctx, 50, 2)))
    ab = compose(a, b)
    assert ab.shape == (50,)
    assert np.array_equal(ab.flat(), np.concatenate([compose(p, q).flat() for p, q in pairs]))
    # numpy's vector loops may round a fractional power of a long array and
    # of a one-point batch an ulp apart
    assert knorm(a) == approx(np.concatenate([knorm(p) for p, _ in pairs]), rel=1e-15)
    assert psi(a) == approx(np.concatenate([psi(p) for p, _ in pairs]), rel=1e-15)
    assert kdist(a, b) == approx(np.concatenate([kdist(p, q) for p, q in pairs]), rel=1e-15)


def test_psi_rejects_a_batch_holding_the_identity(ctx1):
    pts = HPoint(np.array([[0.5], [0.0]]), np.array([[0.1], [0.0]]), np.array([0.2, 0.0]))
    with raises(ValueError):
        psi(pts)


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_sphere_chart_places_points_at_gauge_rho(n, seed):
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.0, 1.0, size=20)
    omega = rng.normal(size=(20, 2 * n))
    omega /= np.linalg.norm(omega, axis=-1, keepdims=True)
    sign = rng.choice([-1.0, 1.0], size=20)
    rho = np.exp(rng.uniform(-5.0, 0.0, size=20))
    pts = sphere_chart(r, omega, sign, rho)
    assert pts.shape == (20,) and pts.N == n
    assert knorm(pts) == approx(rho, rel=1e-13)
    assert psi(pts) == approx(r * r, rel=1e-12, abs=1e-15)
    assert np.all(np.sign(pts.phi) == sign)
    for i in range(3):
        one = slice(i, i + 1)
        unit = sphere_chart(r[one], omega[one], sign[one])
        single = sphere_chart(r[one], omega[one], sign[one], rho[one])
        assert np.array_equal(single.flat(), pts.flat()[one])
        assert np.allclose(unit.flat() * np.concatenate([np.full(2 * n, rho[i]), [rho[i] ** 2]]),
                           single.flat(), rtol=1e-15, atol=0.0)

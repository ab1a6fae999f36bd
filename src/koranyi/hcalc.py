"""Sub-Riemannian calculus via hyper-dual automatic differentiation.

A hyper-dual number a + b*e1 + c*e2 + d*e1*e2 (with e1^2 = e2^2 = 0,
e1*e2 != 0) pushed through a smooth f comes out as

    f(a) + f'(a) b e1 + f'(a) c e2 + (f'(a) d + f''(a) b c) e1 e2,

so seeding b = c = v against a coordinate direction v reads off the exact
first and pure second directional derivatives in one evaluation, with no
truncation error and no step-size tuning.

On the Heisenberg group the horizontal fields are

    X_i = d/dx_i + 2 y_i d/dphi,      Y_i = d/dy_i - 2 x_i d/dphi,

and the sub-Laplacian is L = sum_i (X_i^2 + Y_i^2).  Because the coefficient
of X_i is constant along X_i itself -- X_i(2 y_i) = (d/dx_i + 2 y_i d/dphi)(2 y_i) = 0,
and likewise Y_i(-2 x_i) = 0 -- each X_i^2 f is the pure second directional
derivative D^2 f[v_i, v_i] with v_i = e_{x_i} + 2 y_i e_phi frozen at the
base point, so L reduces to a sum of 2N hyper-dual evaluations.

Scalar fields are callables f(x, y, phi) written against the N-axis-last
convention of `hgroup`.  A `HyperDual` part is either a Python float or an
ndarray, so the same field body runs on float batches, on scalar jets and on
hyper-dual arrays (the capacity integrands, one round of quadrature nodes at
a time).

Every operator below goes through one seeded evaluator, `_eval_seeded`, and
accepts a single `HPoint` or a batch: x and y of shape (*batch, N), phi of
shape batch.  A single point gives a float (or a (2N+1,) vector for
`egrad`); a batch gives an array over the batch, evaluated once per seed
direction rather than once per point.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .hgroup import GroupContext, HPoint, a_apply, knorm_of

DIVFORM_STEP = 1e-4  # central-difference step of `hlap_divform`

ScalarField = Callable[..., object]


def _part(v):
    """A hyper-dual part: ndarrays of positive rank stay, everything else
    (numpy scalars, 0-d arrays, ints) becomes a Python float."""
    if type(v) is np.ndarray and v.ndim:
        return v
    return float(v)


def _any(mask) -> bool:
    """Truth of a scalar comparison, or whether any element of an array one holds."""
    return mask if type(mask) is bool else bool(mask.any())


class HyperDual:
    """Second-order dual number with parts (value, d1, d2, d12).

    The parts are Python floats, or ndarrays of one shape holding a batch of
    independent hyper-dual numbers; ring operations act elementwise.
    """

    __slots__ = ("value", "d1", "d2", "d12")

    # make `ndarray <op> HyperDual` defer to the reflected HyperDual method
    __array_ufunc__ = None

    def __init__(self, value, d1=0.0, d2=0.0, d12=0.0):
        self.value = value if type(value) is float else _part(value)
        self.d1 = d1 if type(d1) is float else _part(d1)
        self.d2 = d2 if type(d2) is float else _part(d2)
        self.d12 = d12 if type(d12) is float else _part(d12)

    def __repr__(self) -> str:
        return f"HyperDual({self.value}, {self.d1}, {self.d2}, {self.d12})"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, HyperDual):
            return HyperDual(self.value + other.value, self.d1 + other.d1,
                             self.d2 + other.d2, self.d12 + other.d12)
        return HyperDual(self.value + other, self.d1, self.d2, self.d12)

    __radd__ = __add__

    def __neg__(self):
        return HyperDual(-self.value, -self.d1, -self.d2, -self.d12)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, HyperDual):
            return HyperDual(
                self.value * other.value,
                self.value * other.d1 + self.d1 * other.value,
                self.value * other.d2 + self.d2 * other.value,
                self.value * other.d12 + self.d1 * other.d2
                + self.d2 * other.d1 + self.d12 * other.value,
            )
        return HyperDual(self.value * other, self.d1 * other, self.d2 * other,
                         self.d12 * other)

    __rmul__ = __mul__

    def _chain(self, f0, f1, f2) -> "HyperDual":
        """Compose with a scalar map given f(a), f'(a), f''(a)."""
        return HyperDual(f0, f1 * self.d1, f1 * self.d2,
                         f1 * self.d12 + f2 * self.d1 * self.d2)

    def reciprocal(self) -> "HyperDual":
        a = self.value
        return self._chain(1.0 / a, -1.0 / (a * a), 2.0 / (a * a * a))

    def __truediv__(self, other):
        if isinstance(other, HyperDual):
            return self * other.reciprocal()
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, c):
        if isinstance(c, HyperDual):
            # a^u = exp(u ln a); rarely needed, supported for completeness
            return hd_exp(c * hd_log(self))
        c = float(c)
        a = self.value
        if c == 0.0:
            return HyperDual(1.0)
        if c == 1.0:
            return HyperDual(a, self.d1, self.d2, self.d12)
        if c != round(c) and _any(a < 0.0):
            raise ValueError(f"fractional power {c} of negative base {np.min(a)}")
        # at a zero base the chain rule below gives (0, 0, 0, 0) for c > 2 and
        # (0, 0, 0, 2 d1 d2) for c = 2; below 2 the derivatives are singular
        if c < 2.0 and _any(a == 0.0):
            raise ValueError(f"power {c} at zero base has singular derivatives")
        return self._chain(a ** c, c * a ** (c - 1.0), c * (c - 1.0) * a ** (c - 2.0))

    def __abs__(self):
        return self * np.where(self.value >= 0.0, 1.0, -1.0)

    # -- array structure (what N-axis-last field bodies need) ---------------

    def sum(self, axis=None) -> "HyperDual":
        """Sum over an axis of array parts."""
        add = np.add.reduce
        return HyperDual(add(self.value, axis), add(self.d1, axis),
                         add(self.d2, axis), add(self.d12, axis))

    def __getitem__(self, key) -> "HyperDual":
        """Index array parts, e.g. x[..., 0] or w[..., None]."""
        return HyperDual(self.value[key], self.d1[key], self.d2[key], self.d12[key])

    # -- value-order comparisons (branching in cutoff definitions) ----------

    @staticmethod
    def _val(other):
        return other.value if isinstance(other, HyperDual) else other

    def __lt__(self, other):
        return self.value < self._val(other)

    def __le__(self, other):
        return self.value <= self._val(other)

    def __gt__(self, other):
        return self.value > self._val(other)

    def __ge__(self, other):
        return self.value >= self._val(other)


def _unary(u, f, f1, f2):
    if isinstance(u, HyperDual):
        a = u.value
        return u._chain(f(a), f1(a), f2(a))
    return f(u)


def hd_exp(u):
    return _unary(u, np.exp, np.exp, np.exp)


def hd_log(u):
    return _unary(u, np.log, lambda a: 1.0 / a, lambda a: -1.0 / (a * a))


def hd_sqrt(u):
    return u ** 0.5 if isinstance(u, HyperDual) else np.sqrt(u)


def hd_sin(u):
    return _unary(u, np.sin, np.cos, lambda a: -np.sin(a))


def hd_cos(u):
    return _unary(u, np.cos, lambda a: -np.sin(a), lambda a: -np.cos(a))


def value_of(u):
    """Plain value of a float, float array or HyperDual (a float for scalars)."""
    if isinstance(u, HyperDual):
        return u.value
    return u if type(u) is np.ndarray and u.ndim else float(u)


def _parts(u) -> tuple:
    if isinstance(u, HyperDual):
        return u.value, u.d1, u.d2, u.d12
    return u, 0.0, 0.0, 0.0


# ---------------------------------------------------------------------------
# seeded field evaluation
# ---------------------------------------------------------------------------

def _eval_seeded(f: ScalarField, xi: HPoint, dir1, dir2) -> tuple:
    """Parts of f at the points xi with coordinates seeded along dir1 (e1)
    and dir2 (e2).

    Directions have shape (*batch, 2N+1), ordered (x_1..x_N, y_1..y_N, phi).
    Each returned part is a float for a single point and an array of the
    batch shape otherwise.
    """
    n = xi.N
    zero = np.zeros(xi.x.shape)
    x = HyperDual(xi.x, dir1[..., :n], dir2[..., :n], zero)
    y = HyperDual(xi.y, dir1[..., n : 2 * n], dir2[..., n : 2 * n], zero)
    phi = HyperDual(xi.phi, dir1[..., 2 * n], dir2[..., 2 * n], zero[..., 0])
    parts = _parts(f(x, y, phi))
    if not xi.shape:
        return tuple(float(p) for p in parts)
    return tuple(p if np.shape(p) == xi.shape else np.full(xi.shape, p) for p in parts)


def _horizontal_direction(xi: HPoint, i: int, which: str) -> np.ndarray:
    n = xi.N
    if not 1 <= i <= n:
        raise IndexError(f"field index must be in 1..{n}, got {i}")
    v = np.zeros(xi.shape + (2 * n + 1,))
    if which == "x":
        v[..., i - 1] = 1.0
        v[..., 2 * n] = 2.0 * xi.y[..., i - 1]
    else:
        v[..., n + i - 1] = 1.0
        v[..., 2 * n] = -2.0 * xi.x[..., i - 1]
    return v


def x_field(i: int, f: ScalarField, xi: HPoint):
    """(X_i f)(xi) = (d/dx_i + 2 y_i d/dphi) f, exact via a dual seed."""
    v = _horizontal_direction(xi, i, "x")
    return _eval_seeded(f, xi, v, np.zeros_like(v))[1]


def y_field(i: int, f: ScalarField, xi: HPoint):
    """(Y_i f)(xi) = (d/dy_i - 2 x_i d/dphi) f, exact via a dual seed."""
    v = _horizontal_direction(xi, i, "y")
    return _eval_seeded(f, xi, v, np.zeros_like(v))[1]


def hgrad(f: ScalarField, xi: HPoint) -> np.ndarray:
    """Horizontal gradient (X_1 f, .., X_N f, Y_1 f, .., Y_N f)(xi), last axis 2N."""
    n = xi.N
    xs = [x_field(i, f, xi) for i in range(1, n + 1)]
    ys = [y_field(i, f, xi) for i in range(1, n + 1)]
    return np.stack(xs + ys, axis=-1)


def hlap(f: ScalarField, xi: HPoint):
    """Sub-Laplacian (sum_i X_i^2 + Y_i^2) f at xi.

    Each square collapses to a pure second directional derivative because the
    field's coefficients are constant along its own direction:
        X_i(2 y_i) = d(2 y_i)/dx_i + 2 y_i d(2 y_i)/dphi = 0, so
        X_i^2 f = D^2 f[v_i, v_i] with v_i = e_{x_i} + 2 y_i e_phi.
    """
    total = 0.0
    for i in range(1, xi.N + 1):
        for which in ("x", "y"):
            v = _horizontal_direction(xi, i, which)
            total = total + _eval_seeded(f, xi, v, v)[3]
    return total


def egrad(f: ScalarField, xi: HPoint) -> np.ndarray:
    """Full Euclidean gradient of f on R^{2N+1}, one dual seed per axis;
    last axis 2N+1."""
    m = 2 * xi.N + 1
    zero = np.zeros(xi.shape + (m,))
    out = np.empty(xi.shape + (m,))
    for j, e in enumerate(np.eye(m)):
        out[..., j] = _eval_seeded(f, xi, np.broadcast_to(e, zero.shape), zero)[1]
    return out


def hlap_divform(f: ScalarField, xi: HPoint):
    """Divergence-form evaluation div(A(z) grad f) by central differences.

    Independent cross-check of `hlap`: the flux A grad f is assembled from
    dual-seeded Euclidean gradients at the 2(2N+1) points shifted by +-h
    along each axis (one `egrad` batch), then differenced with step
    h = DIVFORM_STEP.  Expect agreement to O(h^2) only.
    """
    h = DIVFORM_STEP
    m = 2 * xi.N + 1
    steps = h * np.eye(m)
    shifts = np.concatenate([steps, -steps]).reshape((2 * m,) + (1,) * len(xi.shape) + (m,))
    shifted = HPoint.from_flat(xi.flat() + shifts)
    flux = a_apply(shifted, egrad(f, shifted))
    div = sum((flux[j, ..., j] - flux[m + j, ..., j]) / (2.0 * h) for j in range(m))
    return div if xi.shape else float(div)


# ---------------------------------------------------------------------------
# radial shortcuts
# ---------------------------------------------------------------------------

def radial_lift(F: Callable) -> ScalarField:
    """Lift a profile F(rho) to the field F(|xi|)."""

    def field(x, y, phi):
        return F(knorm_of(x, y, phi))

    return field


def radial_lap(F: Callable, rho, ctx: GroupContext):
    """The radial bracket F''(rho) + (2N+1) F'(rho)/rho, elementwise over an
    array rho.

    For the lift f = F(|xi|) the sub-Laplacian is psi(xi) times this bracket,
    so it equals (1/psi) L f wherever psi != 0.
    """
    if not np.all(rho > 0.0):
        raise ValueError(f"rho must be positive, got {np.min(rho)}")
    u = F(HyperDual(rho, 1.0, 1.0, 0.0))
    _, d1, _, d12 = _parts(u)
    return d12 + (2 * ctx.N + 1) * d1 / rho

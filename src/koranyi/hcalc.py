"""Sub-Riemannian calculus via Taylor-mode automatic differentiation.

A `Jet` is a truncated Taylor series c_0 + c_1 e + .. + c_K e^K with
e^{K+1} = 0.  Seeding the coordinates z + v e and pushing the jet through a
smooth f gives

    f(z + v e) = sum_{j <= K} (D^j f[v, .., v] / j!) e^j,

so lane c_j of the result is the j-th directional derivative along v over
j!, exact up to rounding and with no step size to tune (Taylor-mode AD;
Griewank & Walther, Evaluating Derivatives, 2nd ed., ch. 13).  Gradients
seed order 1 and read c_1, second derivatives seed order 2 and read 2 c_2,
and the capacity time bump seeds order k and reads k! c_k.

On the Heisenberg group the horizontal fields are

    X_i = d/dx_i + 2 y_i d/dphi,      Y_i = d/dy_i - 2 x_i d/dphi,

and the sub-Laplacian L = sum_i (X_i^2 + Y_i^2) is a sum of 2N pure second
directional derivatives, all carried by one order-2 jet evaluation (`hlap`).

Scalar fields are callables f(x, y, phi) written against the N-axis-last
convention of `hgroup`.  A jet lane is a Python float or an ndarray, and
`exp` and `log` take floats, arrays and jets, as do `**` and `abs`, so the
same field body runs on float batches, on scalar jets and on array jets
(the capacity integrands, one round of quadrature nodes at a time).

Every operator below goes through one seeded evaluator, `_eval_seeded`, and
takes an `HPoint` batch: x and y of shape (*batch, N), phi of shape batch.
It gives an array over the batch (with a last axis 2N+1 for `egrad`),
evaluated once per block of points with every seed direction at once.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .hgroup import GroupContext, HPoint, a_apply, knorm_of

DIVFORM_STEP = 1e-4  # central-difference step of `hlap_divform`
JET_BLOCK = 2**14  # seed values (D directions x rows x 2N+1) per block of `_eval_seeded`

ScalarField = Callable[..., object]


def _any(mask) -> bool:
    """Truth of a scalar comparison, or whether any element of an array one holds."""
    return mask if type(mask) is bool else bool(mask.any())


class Jet:
    """Truncated Taylor series c[0] + c[1] e + .. + c[K] e^K, with e^{K+1} = 0.

    The lanes c are Python floats (numpy scalars, 0-d arrays and ints are
    converted), or ndarrays holding a batch of independent jets; ring
    operations act elementwise, with broadcasting.  The value lane c[0] has
    the batch shape; higher lanes may carry a leading axis of seed directions
    (see `_eval_seeded`), so field bodies index and sum from the right, as in
    x[..., 0] and sum(axis=-1).  Jets that meet in one expression carry the
    same order K.
    """

    __slots__ = ("c",)

    # make `ndarray <op> Jet` defer to the reflected Jet method
    __array_ufunc__ = None

    def __init__(self, *c):
        self.c = [v if type(v) is float or type(v) is np.ndarray and v.ndim else float(v)
                  for v in c]

    @classmethod
    def variable(cls, a, order: int) -> "Jet":
        """The independent variable a + e, carried to the given order."""
        return cls(a, 1.0, *[0.0] * (order - 1))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(*[x + y for x, y in zip(self.c, other.c)])
        return Jet(self.c[0] + other, *self.c[1:])

    __radd__ = __add__

    def __neg__(self):
        return Jet(*[-x for x in self.c])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return Jet(other - self.c[0], *[-x for x in self.c[1:]])

    def __mul__(self, other):
        a = self.c
        if not isinstance(other, Jet):
            return Jet(*[x * other for x in a])
        b, out = other.c, []
        for n in range(len(a)):  # truncated Cauchy product
            total = a[0] * b[n]
            for i in range(1, n + 1):
                total = total + a[i] * b[n - i]
            out.append(total)
        return Jet(*out)

    __rmul__ = __mul__

    def _compose(self, f) -> "Jet":
        """The jet of g(self), from the Taylor coefficients f[j] = g^(j)(c[0]) / j!
        of a scalar map g: sum_j f[j] (self - c[0])^j, truncated at the order of
        self.  f has at least two entries at a positive order; missing ones are 0."""
        h = self.c
        if len(h) == 3 and len(f) > 2:  # order 2, every Laplacian's, unrolled
            return Jet(f[0], f[1] * h[1], f[1] * h[2] + f[2] * (h[1] * h[1]))
        top = len(h) - 1
        out = [f[0]] + [f[1] * x for x in h[1:]]
        power = h  # lanes j..top of (self - c[0])^j
        for j in range(2, min(top, len(f) - 1) + 1):
            prev, power = power, [0.0] * (top + 1)
            for n in range(j, top + 1):
                total = h[1] * prev[n - 1]
                for m in range(2, n - j + 2):
                    total = total + h[m] * prev[n - m]
                power[n] = total
                out[n] = out[n] + f[j] * total
        return Jet(*out)

    def reciprocal(self) -> "Jet":
        r = 1.0 / self.c[0]
        f = [r]
        for _ in self.c[1:]:
            f.append(-f[-1] * r)
        return self._compose(f)

    def __truediv__(self, other):
        return self * (other.reciprocal() if isinstance(other, Jet) else 1.0 / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, c):
        c, a, order = float(c), self.c[0], len(self.c) - 1
        if c == 0.0:
            return Jet(1.0, *[0.0] * order)
        integral = c == round(c)
        if not integral and _any(a < 0.0):
            raise ValueError(f"fractional power {c} of negative base {np.min(a)}")
        # a power of degree c >= 0 has no Taylor coefficient past c; at a zero
        # base coefficient j is binom(c, j) 0^(c-j), singular once j > c
        top = min(order, int(c)) if integral and c > 0.0 else order
        if c < top and _any(a == 0.0):
            raise ValueError(f"power {c} at zero base has singular derivatives")
        f, binom = [a ** c], 1.0
        for j in range(1, top + 1):
            binom *= (c - j + 1.0) / j
            f.append(binom * a ** (c - j))
        return self._compose(f)

    def __abs__(self):
        return self * np.where(self.c[0] >= 0.0, 1.0, -1.0)

    # -- array structure (what N-axis-last field bodies need) ---------------

    def sum(self, axis=None) -> "Jet":
        """Sum over an axis of array lanes, given from the right (axis=-1)."""
        return Jet(*[np.add.reduce(x, axis) for x in self.c])

    def __getitem__(self, key) -> "Jet":
        """Index array lanes, e.g. x[..., 0] or w[..., None]."""
        return Jet(*[x[key] for x in self.c])


def exp(u):
    if not isinstance(u, Jet):
        return np.exp(u)
    f = [np.exp(u.c[0])] * 2  # coefficient j is e^a / j!
    for j in range(2, len(u.c)):
        f.append(f[-1] / j)
    return u._compose(f)


def log(u):
    if not isinstance(u, Jet):
        return np.log(u)
    a = u.c[0]
    q = -1.0 / a  # coefficient j >= 1 is -q^j / j
    # q^j as a running product: float ** and numpy's array power can differ
    # by an ulp, so a power would split scalar and array jets
    f, power = [np.log(a)], 1.0
    for j in range(1, len(u.c)):
        power = power * q
        f.append(power / -j)
    return u._compose(f)


def value_of(u):
    """Plain value of a float, float array or Jet (a float for scalars)."""
    if isinstance(u, Jet):
        return u.c[0]
    return u if type(u) is np.ndarray and u.ndim else float(u)


def _lanes(u, order: int) -> list:
    """Lanes c[0..order] of a Jet, or of a constant with zero derivatives."""
    return u.c if isinstance(u, Jet) else [u] + [0.0] * order


# ---------------------------------------------------------------------------
# seeded field evaluation
# ---------------------------------------------------------------------------

def _eval_seeded(f: ScalarField, xi: HPoint, seeds: Callable, order: int) -> np.ndarray:
    """Lane `order` of f at the points xi seeded along each of D directions v,
    D^order f[v, .., v] / order!, of shape (D, *batch).

    seeds(x, y) gives the directions at a block of points, shape (D, rows,
    2N+1) ordered (x_1..x_N, y_1..y_N, phi).  f runs once per block of at most
    JET_BLOCK seed values, on jets whose value lanes have the block's shape and
    whose higher lanes lead with D (vector mode; Griewank, Utke & Walther, Math.
    Comp. 69, 2000), so each value and power, exp or log coefficient is formed once.
    """
    n = xi.N
    x, y, phi = xi.x.reshape(-1, n), xi.y.reshape(-1, n), xi.phi.reshape(-1)
    rows = max(1, JET_BLOCK // (2 * n + 1) ** 2)  # D <= 2N+1
    lanes = []
    for lo in range(0, max(len(phi), 1), rows):  # an empty batch runs one empty block
        b = slice(lo, lo + rows)
        v = seeds(x[b], y[b])
        rest = [np.zeros(v.shape[:-1] + (n,))] * (order - 1)
        lane = _lanes(f(Jet(x[b], v[..., :n], *rest), Jet(y[b], v[..., n : 2 * n], *rest),
                        Jet(phi[b], v[..., 2 * n], *[r[..., 0] for r in rest])), order)[order]
        lanes.append(np.broadcast_to(lane, v.shape[:2]))
    out = np.concatenate(lanes, axis=1)
    return out.reshape(out.shape[:1] + xi.shape)


def _horizontal_seeds(x, y) -> np.ndarray:
    """The directions v of X_1, Y_1, .., X_N, Y_N at the points (x, y):
    e_{x_i} + 2 y_i e_phi and e_{y_i} - 2 x_i e_phi."""
    rows, n = x.shape
    i = np.arange(n)
    v = np.zeros((2 * n, rows, 2 * n + 1))
    v[2 * i, :, i] = 1.0
    v[2 * i + 1, :, n + i] = 1.0
    v[0::2, :, 2 * n] = 2.0 * y.T
    v[1::2, :, 2 * n] = -2.0 * x.T
    return v


def hlap(f: ScalarField, xi: HPoint):
    """Sub-Laplacian (sum_i X_i^2 + Y_i^2) f at xi.

    Each square collapses to a pure second directional derivative because the
    field's coefficients are constant along its own direction:
        X_i(2 y_i) = d(2 y_i)/dx_i + 2 y_i d(2 y_i)/dphi = 0, so
        X_i^2 f = D^2 f[v_i, v_i] with v_i = e_{x_i} + 2 y_i e_phi.
    """
    return 2.0 * sum(_eval_seeded(f, xi, _horizontal_seeds, 2), 0.0)  # X_1, Y_1, .. in turn


def egrad(f: ScalarField, xi: HPoint) -> np.ndarray:
    """Full Euclidean gradient of f on R^{2N+1}, one order-1 seed per axis;
    a C-contiguous array with last axis 2N+1."""
    m = 2 * xi.N + 1

    def axes(x, y):  # the same 2N+1 axes at every point, as a broadcast view
        return np.broadcast_to(np.eye(m)[:, None, :], (m, len(x), m))

    return np.ascontiguousarray(np.moveaxis(_eval_seeded(f, xi, axes, 1), 0, -1))


def hlap_divform(f: ScalarField, xi: HPoint):
    """Divergence-form evaluation div(A(z) grad f) by central differences.

    Independent cross-check of `hlap`: the flux A grad f is assembled from
    order-1 seeded Euclidean gradients at the 2(2N+1) points shifted by +-h
    along each axis (one `egrad` batch), then differenced with step
    h = DIVFORM_STEP.  Expect agreement to O(h^2) only.
    """
    h = DIVFORM_STEP
    m = 2 * xi.N + 1
    steps = h * np.eye(m)
    shifts = np.concatenate([steps, -steps]).reshape((2 * m,) + (1,) * len(xi.shape) + (m,))
    shifted = HPoint.from_flat(xi.flat() + shifts)
    flux = a_apply(shifted, egrad(f, shifted))
    return sum((flux[j, ..., j] - flux[m + j, ..., j]) / (2.0 * h) for j in range(m))


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
    _, d1, c2 = _lanes(F(Jet.variable(rho, 2)), 2)
    return 2.0 * c2 + (2 * ctx.N + 1) * d1 / rho

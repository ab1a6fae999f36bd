"""Heisenberg group core: points, group law, Koranyi gauge, dilations.

The Heisenberg group H^N is R^{2N+1} with coordinates xi = (x, y, phi),
x, y in R^N, phi in R, under the (non-commutative) group law

    xi o xi' = (x + x', y + y', phi + phi' + 2 sum_i (x_i' y_i - x_i y_i')).

The Koranyi gauge |xi| = ((|x|^2 + |y|^2)^2 + phi^2)^{1/4} is homogeneous of
degree 1 under the anisotropic dilation (x, y, phi) -> (r x, r y, r^2 phi),
which scales volume by r^Q with homogeneous dimension Q = 2N + 2.  The induced
distance d(xi, xi') = |xi'^{-1} o xi| is left-invariant.

Two objects recur in every radial computation downstream:

* the angular weight psi = (|x|^2 + |y|^2) / |xi|^2 in [0, 1], which is the
  squared length of the horizontal gradient of the gauge; and
* the coefficient matrix A(z), z = (x, y), whose quadratic form turns Euclidean
  gradients into horizontal ones (A = M M^T for the field-coefficient matrix M).

Coordinate-level helpers (`knorm_of`, `psi_of`, `knorm_grad_of`) operate on
raw arrays with the N-axis last, so the same expressions run vectorized over
sample batches and over Taylor jets with float or array lanes.

An `HPoint` is one point or a batch of points, again with the N-axis last.
`compose`, `inverse`, `knorm`, `psi`, `dilate` and `a_matrix` accept either
and return a float (or a single point) for a point and an array (or a batch)
for a batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.typing import NDArray


@dataclass(frozen=True)
class GroupContext:
    """Fixes N; everything else (Q, dimensions) derives from it."""

    N: int

    def __post_init__(self) -> None:
        if isinstance(self.N, bool) or not isinstance(self.N, (int, np.integer)):
            raise ValueError(f"N must be a positive integer, got {self.N!r}")
        if self.N < 1:
            raise ValueError(f"N must be a positive integer, got {self.N}")
        object.__setattr__(self, "N", int(self.N))

    @property
    def Q(self) -> int:
        """Homogeneous dimension 2N + 2."""
        return 2 * self.N + 2

    @property
    def dim(self) -> int:
        """Topological dimension 2N + 1."""
        return 2 * self.N + 1


@dataclass(frozen=True)
class HPoint:
    """A point xi = (x, y, phi) of H^N, or a batch of points.

    A single point has x and y of shape (N,) and a float phi.  A batch has x
    and y of shape (*batch, N) and phi of shape batch, so N = x.shape[-1]
    either way.
    """

    x: NDArray[np.float64]
    y: NDArray[np.float64]
    phi: Union[float, NDArray[np.float64]]

    @staticmethod
    def of(x, y, phi) -> "HPoint":
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError(f"x and y must be equal-length vectors, got {x.shape} and {y.shape}")
        pt = HPoint(x, y, float(phi))
        if not pt.finite():
            raise ValueError("HPoint components must be finite")
        return pt

    @staticmethod
    def from_flat(rows: NDArray[np.float64]) -> "HPoint":
        """Points from coordinate rows (x_1..x_N, y_1..y_N, phi), last axis 2N+1."""
        n = (rows.shape[-1] - 1) // 2
        return HPoint(rows[..., :n], rows[..., n : 2 * n], rows[..., 2 * n])

    @property
    def N(self) -> int:
        return self.x.shape[-1]

    @property
    def shape(self) -> tuple:
        """Batch shape; () for a single point."""
        return getattr(self.phi, "shape", ())

    def flat(self) -> NDArray[np.float64]:
        """Coordinate rows (x_1..x_N, y_1..y_N, phi), last axis 2N+1."""
        return np.concatenate([self.x, self.y, np.asarray(self.phi)[..., None]], axis=-1)

    def finite(self) -> bool:
        return bool(np.isfinite(self.x).all() and np.isfinite(self.y).all()
                    and np.isfinite(self.phi).all())

    def coords(self) -> tuple[NDArray[np.float64], NDArray[np.float64], float]:
        return self.x, self.y, self.phi


def origin(ctx: GroupContext) -> HPoint:
    return HPoint.of(np.zeros(ctx.N), np.zeros(ctx.N), 0.0)


def _check_same_n(xi: HPoint, eta: HPoint) -> None:
    if xi.N != eta.N:
        raise ValueError(f"dimension mismatch: N={xi.N} vs N={eta.N}")


def compose(xi: HPoint, eta: HPoint) -> HPoint:
    """Group law xi o eta, pointwise over batches."""
    _check_same_n(xi, eta)
    twist = 2.0 * (np.add.reduce(eta.x * xi.y, -1) - np.add.reduce(xi.x * eta.y, -1))
    return HPoint(xi.x + eta.x, xi.y + eta.y, xi.phi + eta.phi + twist)


def inverse(xi: HPoint) -> HPoint:
    """Group inverse, which is just -xi."""
    return HPoint(-xi.x, -xi.y, -xi.phi)


# ---------------------------------------------------------------------------
# gauge, weight, and their coordinate expressions
# ---------------------------------------------------------------------------

def knorm_of(x, y, phi):
    """Koranyi gauge from raw coordinates; N-axis last.

    Works on float arrays of shape (..., N) with phi of shape (...), and on
    object arrays holding dual numbers (the reductions go through `+`/`*`).
    """
    zsq = (x * x).sum(axis=-1) + (y * y).sum(axis=-1)
    return (zsq * zsq + phi * phi) ** 0.25


def psi_of(x, y, phi):
    """Angular weight psi = |z|^2 / |xi|^2 from raw coordinates."""
    zsq = (x * x).sum(axis=-1) + (y * y).sum(axis=-1)
    return zsq / (zsq * zsq + phi * phi) ** 0.5


def knorm_grad_of(x, y, phi):
    """Euclidean gradient of the gauge, as (grad_x, grad_y, grad_phi).

    grad rho = (|z|^2 x, |z|^2 y, phi/2) / rho^3; hence
    |grad rho|^2 = (|z|^6 + phi^2/4) / rho^6.  Vectorized over leading axes.
    """
    zsq = (x * x).sum(axis=-1) + (y * y).sum(axis=-1)
    rho3 = (zsq * zsq + phi * phi) ** 0.75
    gx = x * (zsq / rho3)[..., None]
    gy = y * (zsq / rho3)[..., None]
    gphi = 0.5 * phi / rho3
    return gx, gy, gphi


def _scalar_or_batch(values):
    return values if type(values) is np.ndarray and values.ndim else float(values)


def knorm(xi: HPoint):
    """Koranyi gauge |xi| = ((|x|^2+|y|^2)^2 + phi^2)^{1/4}."""
    return _scalar_or_batch(knorm_of(xi.x, xi.y, xi.phi))


def kdist(xi: HPoint, eta: HPoint):
    """Left-invariant gauge distance d(xi, eta) = |eta^{-1} o xi|."""
    _check_same_n(xi, eta)
    return knorm(compose(inverse(eta), xi))


def psi(xi: HPoint):
    """psi(xi) = (|x|^2 + |y|^2)/|xi|^2, in [0, 1]. Undefined at the origin."""
    rho = knorm(xi)
    if (rho == 0.0) if type(rho) is float else (rho == 0.0).any():
        raise ValueError("psi is undefined at the group identity")
    return _scalar_or_batch(psi_of(xi.x, xi.y, xi.phi))


def dilate(r: float, xi: HPoint) -> HPoint:
    """Anisotropic dilation (x, y, phi) -> (r x, r y, r^2 phi), r > 0."""
    if not r > 0.0:
        raise ValueError(f"dilation factor must be positive, got {r}")
    return HPoint(r * xi.x, r * xi.y, r * r * xi.phi)


def a_matrix(xi: HPoint) -> NDArray[np.float64]:
    """The (2N+1) x (2N+1) coefficient matrix A(z) of the sub-Laplacian,
    of shape (*batch, 2N+1, 2N+1) for a batch.

    A(z) = [[ I_N,  0,    2y ],
            [ 0,    I_N, -2x ],
            [ 2y^T, -2x^T, 4|z|^2 ]]

    It is the Gram matrix of the horizontal field coefficients, so it is
    symmetric positive semidefinite with null vector (-2y, 2x, 1).
    """
    n = xi.N
    a = np.zeros(xi.shape + (2 * n + 1, 2 * n + 1))
    diag = np.arange(2 * n)
    a[..., diag, diag] = 1.0
    a[..., :n, -1] = 2.0 * xi.y
    a[..., n : 2 * n, -1] = -2.0 * xi.x
    a[..., -1, :n] = 2.0 * xi.y
    a[..., -1, n : 2 * n] = -2.0 * xi.x
    a[..., -1, -1] = 4.0 * ((xi.x * xi.x).sum(axis=-1) + (xi.y * xi.y).sum(axis=-1))
    return a


def a_apply(xi: HPoint, v: NDArray[np.float64]) -> NDArray[np.float64]:
    """A(z) v at each point; v has shape (*batch, 2N+1).

    The product in closed form, without building `a_matrix`:

        A v = (v_x + 2y v_phi, v_y - 2x v_phi, 2y.v_x - 2x.v_y + 4|z|^2 v_phi).
    """
    n = xi.N
    vx, vy, vphi = v[..., :n], v[..., n : 2 * n], v[..., 2 * n :]
    z2 = (xi.x * xi.x).sum(axis=-1) + (xi.y * xi.y).sum(axis=-1)
    last = 2.0 * ((xi.y * vx).sum(axis=-1) - (xi.x * vy).sum(axis=-1)) + 4.0 * z2 * vphi[..., 0]
    return np.concatenate(
        [vx + 2.0 * xi.y * vphi, vy - 2.0 * xi.x * vphi, np.asarray(last)[..., None]], axis=-1
    )


# ---------------------------------------------------------------------------
# random sample points
# ---------------------------------------------------------------------------

def random_points(
    ctx: GroupContext, rng: np.random.Generator, n: int, rho_floor: float = 1e-2
) -> HPoint:
    """A batch of n box-uniform points with the gauge bounded away from the origin.

    Draws blocks of n rows from rng.uniform(-1, 1) and keeps, in draw order,
    the rows whose gauge is at least rho_floor, until n are kept.
    """
    kept = [np.empty((0, ctx.dim))]
    have = 0
    while have < n:
        draw = rng.uniform(-1.0, 1.0, size=(n, ctx.dim))
        far = knorm_of(*HPoint.from_flat(draw).coords()) >= rho_floor
        kept.append(draw[far][: n - have])
        have += len(kept[-1])
    return HPoint.from_flat(np.concatenate(kept))


def random_directions(
    rng: np.random.Generator, m: int, N: int
) -> tuple[np.ndarray, np.ndarray]:
    """m unit vectors of R^{2N} (normalised Gaussian rows), then m random signs +-1."""
    u = rng.normal(size=(m, 2 * N))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return u, np.where(rng.uniform(size=m) < 0.5, 1.0, -1.0)


# ---------------------------------------------------------------------------
# unit-sphere chart
# ---------------------------------------------------------------------------

def sphere_chart(r, omega, sign, rho=1.0) -> HPoint:
    """Points at gauge distance rho with unit-sphere chart parameters.

    On the unit sphere z = r*omega and phi = sign*sqrt(1 - r^4); the point is
    then dilated by rho.  r, sign and rho broadcast over the batch shape and
    omega has shape (*batch, 2N); scalar r, sign, rho with omega of shape
    (2N,) give a single point.  No validation.
    """
    omega = np.asarray(omega, dtype=float)
    r = np.asarray(r, dtype=float)
    rho = np.asarray(rho, dtype=float)
    n = omega.shape[-1] // 2
    z = rho[..., None] * (r[..., None] * omega)
    phi = rho * rho * (sign * np.sqrt(np.maximum(1.0 - r**4, 0.0)))
    return HPoint(z[..., :n], z[..., n:], phi if phi.ndim else float(phi))

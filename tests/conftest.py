import math
from typing import Callable

import numpy as np
import pytest

from koranyi import hgroup
from koranyi.evolve import RadialGrid
from koranyi.hcalc import JET_BLOCK, Jet, egrad
from koranyi.hgroup import GroupContext, HPoint
from koranyi.spectrum import ProblemParams


@pytest.fixture(scope="session")
def ctx1():
    return GroupContext(1)


@pytest.fixture(scope="session")
def ctx2():
    return GroupContext(2)


def random_points(ctx, n, seed):
    """Box-uniform points with the gauge bounded away from the origin, as a
    list of one-point batches drawn by `hgroup.random_points` from `seed`."""
    batch = hgroup.random_points(ctx, np.random.default_rng(seed), n)
    return [HPoint(batch.x[i : i + 1], batch.y[i : i + 1], batch.phi[i : i + 1])
            for i in range(n)]


def hgrad(f, xi) -> np.ndarray:
    """Horizontal gradient (X_1 f, .., X_N f, Y_1 f, .., Y_N f), last axis 2N,
    from the Euclidean gradient: X_i f = d_{x_i} f + 2 y_i d_phi f and
    Y_i f = d_{y_i} f - 2 x_i d_phi f."""
    n = xi.N
    g = egrad(f, xi)
    dphi = g[..., 2 * n : 2 * n + 1]
    return np.concatenate([g[..., :n] + 2.0 * xi.y * dphi,
                           g[..., n : 2 * n] - 2.0 * xi.x * dphi], axis=-1)


def mms_reference(t: float, rho: np.ndarray) -> np.ndarray:
    """The manufactured profile e^{-t} cos(pi rho/2); vanishes at rho = 1."""
    return np.exp(-t) * np.cos(0.5 * math.pi * rho)


def mms_source(params: ProblemParams) -> Callable[[float, np.ndarray], np.ndarray]:
    """Forcing that makes mms_reference an exact solution of the k-th order
    equation (nonlinearity included; the profile is nonnegative on [0,1])."""
    half_pi = 0.5 * math.pi
    sign = -1.0 if params.k == 1 else 1.0  # d^k/dt^k e^{-t} = (-1)^k e^{-t}

    def src(t: float, rho: np.ndarray) -> np.ndarray:
        e = math.exp(-t)
        c = np.cos(half_pi * rho)
        s = np.sin(half_pi * rho)
        spatial = (
            -half_pi**2 * e * c
            - (2 * params.ctx.N + 1) * half_pi * e * s / rho
            - params.lam * e * c / rho**2
            + rho**params.a * (e * c) ** params.p
        )
        return sign * e * c - spatial

    return src


def mms_neumann(rho_min: float) -> Callable[[float], float]:
    """Exact inner slope of the manufactured profile."""
    half_pi = 0.5 * math.pi
    return lambda t: -math.exp(-t) * half_pi * math.sin(half_pi * rho_min)


def mms_initial_layers(params: ProblemParams, grid: RadialGrid) -> np.ndarray:
    rho = grid.nodes()
    u0 = mms_reference(0.0, rho)
    if params.k == 1:
        return u0[None, :]
    return np.stack([u0, -u0])  # du*/dt = -u* at t = 0


# ---------------------------------------------------------------------------
# per-direction oracle of the seeded operators
# ---------------------------------------------------------------------------

def seeded_one(f, xi, direction, order: int) -> list:
    """Lanes c[0..order] of f at the points xi seeded along one direction of
    shape (*batch, 2N+1): one evaluation of f per direction, the reference
    that `hcalc`'s vector-mode evaluator must reproduce bit for bit."""
    n = xi.N
    rest = [np.zeros(xi.x.shape)] * (order - 1)
    x = Jet(xi.x, direction[..., :n], *rest)
    y = Jet(xi.y, direction[..., n : 2 * n], *rest)
    phi = Jet(xi.phi, direction[..., 2 * n], *[r[..., 0] for r in rest])
    u = f(x, y, phi)
    lanes = u.c if isinstance(u, Jet) else [u] + [0.0] * order
    return [p if np.shape(p) == xi.shape else np.full(xi.shape, p) for p in lanes]


def block_rows(n: int) -> int:
    """Points per block of `hcalc._eval_seeded` at N = n: at most JET_BLOCK
    seed values, with up to 2N+1 directions of 2N+1 coordinates per point."""
    return max(1, JET_BLOCK // (2 * n + 1) ** 2)


def hlap_oracle(f, xi):
    """Sub-Laplacian from 2N single-direction evaluations, X_1, Y_1, .., Y_N."""
    n, total = xi.N, 0.0
    for i in range(n):
        for axis, phi_coef in ((i, 2.0 * xi.y[..., i]), (n + i, -2.0 * xi.x[..., i])):
            v = np.zeros(xi.shape + (2 * n + 1,))
            v[..., axis] = 1.0
            v[..., 2 * n] = phi_coef
            total = total + seeded_one(f, xi, v, 2)[2]
    return 2.0 * total


def egrad_oracle(f, xi) -> np.ndarray:
    """Euclidean gradient from 2N+1 single-axis evaluations."""
    m = 2 * xi.N + 1
    out = np.empty(xi.shape + (m,))
    for j, e in enumerate(np.eye(m)):
        out[..., j] = seeded_one(f, xi, np.broadcast_to(e, out.shape), 1)[1]
    return out

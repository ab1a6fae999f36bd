import math
from typing import Callable

import numpy as np
import pytest

from koranyi import hgroup
from koranyi.evolve import RadialGrid
from koranyi.hcalc import egrad
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

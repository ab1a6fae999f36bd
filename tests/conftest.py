import numpy as np
import pytest

from koranyi import hgroup
from koranyi.hgroup import GroupContext, HPoint


@pytest.fixture(scope="session")
def ctx1():
    return GroupContext(1)


@pytest.fixture(scope="session")
def ctx2():
    return GroupContext(2)


def random_points(ctx, n, seed, rho_floor=1e-2):
    """Box-uniform points with the gauge bounded away from the origin, as a
    list of single points drawn by `hgroup.random_points` from `seed`."""
    batch = hgroup.random_points(ctx, np.random.default_rng(seed), n, rho_floor)
    return [HPoint(x, y, float(phi)) for x, y, phi in zip(batch.x, batch.y, batch.phi)]

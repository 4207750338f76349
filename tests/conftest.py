import numpy as np
import pytest

import vrprox as vp
from vrprox.suite import _counting


def counting_quadratic(n: int = 10, p: int = 4, seed: int = 0):
    """Quadratic instance that counts its sample-gradient evaluations: one per
    id of a ``grad_rows`` call."""
    return _counting(vp.make_quadratic(n, p, 1.0, seed=seed))


def nan_with_bits(bits: int) -> float:
    """The float64 NaN whose IEEE bit pattern is ``bits``, payload and sign
    kept."""
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


@pytest.fixture
def quad_small():
    return vp.make_quadratic(20, 6, 1.0, seed=11)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)

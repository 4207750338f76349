from dataclasses import replace

import numpy as np
import pytest

import vrprox as vp


def counting_quadratic(n: int = 10, p: int = 4, seed: int = 0):
    """Quadratic instance that counts its sample-gradient evaluations: one per
    ``grad_sample`` call and one per id of a ``grad_batch`` call."""
    prob = vp.make_quadratic(n, p, 1.0, seed=seed)
    calls = {"grad": 0}
    sample, batch = prob.grad_sample, prob.grad_batch

    def counted_sample(x, i):
        calls["grad"] += 1
        return sample(x, i)

    def counted_batch(x, ids):
        calls["grad"] += len(ids)
        return batch(x, ids)

    return replace(prob, grad_sample=counted_sample, grad_batch=counted_batch), calls


@pytest.fixture
def quad_small():
    return vp.make_quadratic(20, 6, 1.0, seed=11)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)

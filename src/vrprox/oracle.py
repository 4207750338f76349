"""Stochastic first-order oracle for finite-sum objectives.

A :class:`ProblemInstance` describes a smooth finite sum
f(x) = (1/n) sum_i f_i(x) through per-sample and batched callbacks indexed by
an integer id in ``[0, n)``, plus its exact mean gradient and value in closed
form.  The optimizer draws sample ids uniformly; the diagnostics and the
variance checks use the exact expectations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class ProblemInstance:
    """A smooth finite sum of ``num_components`` summands with certified constants.

    ``grad_sample(x, i)`` and ``value_sample(x, i)`` evaluate one summand;
    ``grad_batch(x, ids) -> (len(ids), dim)`` stacks per-sample gradients;
    ``mean_grad(x)`` and ``mean_value(x)`` give the exact mean gradient and
    value (1/n) sum_i of the summands in closed form.  All five must agree.

    ``lipschitz_L`` must upper-bound the mean-square Lipschitz constant of the
    sample gradients, E||grad f_i(x) - grad f_i(y)||^2 <= L^2 ||x - y||^2;
    ``sigma_bound`` bounds E||grad f_i(x) - grad f(x)||^2.  The
    ``*_certified`` flags record whether those constants are analytic bounds
    or empirical estimates; bound checks that need true constants refuse
    uncertified instances.

    ``f_star_ref`` is the minimum of f alone (no regularizer), when known.
    """

    name: str
    dim: int
    num_components: int
    grad_sample: Callable[[np.ndarray, int], np.ndarray]
    value_sample: Callable[[np.ndarray, int], float]
    grad_batch: Callable[[np.ndarray, np.ndarray], np.ndarray]
    mean_grad: Callable[[np.ndarray], np.ndarray]
    mean_value: Callable[[np.ndarray], float]
    lipschitz_L: float
    lipschitz_certified: bool = True
    sigma_bound: float | None = None
    sigma_certified: bool = False
    f_star_ref: float | None = None
    sampling_radius: float = 10.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        n = self.num_components
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"num_components must be an integer >= 1, got {n!r}")
        if not (self.lipschitz_L > 0 and np.isfinite(self.lipschitz_L)):
            raise ValueError(f"lipschitz_L must be a positive finite scalar, got {self.lipschitz_L}")


@functools.lru_cache(maxsize=8)
def _zeros(dim: int) -> np.ndarray:
    z = np.zeros(dim)
    z.flags.writeable = False
    return z


def _check_point(prob: ProblemInstance, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (prob.dim,):
        raise ValueError(f"point has shape {x.shape}, expected ({prob.dim},)")
    # Screen: x . 0 is 0 exactly when every entry is finite (a NaN or an
    # infinity makes it NaN), and unlike x . x it cannot overflow on a finite
    # point; the full scan only confirms a failed screen.
    if x.dot(_zeros(prob.dim)) != 0.0 and not np.isfinite(x).all():
        raise ValueError("point must be finite")
    return x


def _check_id(prob: ProblemInstance, sample_id: int) -> int:
    sample_id = int(sample_id)
    if not 0 <= sample_id < prob.num_components:
        raise ValueError(
            f"sample id {sample_id} out of range [0, {prob.num_components})"
        )
    return sample_id


def sample_gradient(prob: ProblemInstance, x: np.ndarray, sample_id: int) -> np.ndarray:
    """Gradient of one sample realization, grad f_xi(x)."""
    x = _check_point(prob, x)
    return prob.grad_sample(x, _check_id(prob, sample_id))


def minibatch_gradient(prob: ProblemInstance, x: np.ndarray, ids) -> np.ndarray:
    """Arithmetic mean of sample gradients over a batch of ids."""
    ids = np.atleast_1d(np.asarray(ids, dtype=np.int64))
    if ids.size == 0:
        raise ValueError("mini-batch must contain at least one sample id")
    x = _check_point(prob, x)
    return gradient_rows(prob, x, ids).mean(axis=0)


def gradient_rows(prob: ProblemInstance, x: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Stack per-sample gradients for ``ids`` into a (len(ids), dim) matrix."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= prob.num_components):
        raise ValueError("sample id out of range")
    return prob.grad_batch(x, ids)


def full_gradient(prob: ProblemInstance, x: np.ndarray) -> np.ndarray:
    """Exact mean gradient (1/n) sum_i grad f_i(x)."""
    return prob.mean_grad(_check_point(prob, x))


def full_value(prob: ProblemInstance, x: np.ndarray) -> float:
    """Exact mean value f(x)."""
    return float(prob.mean_value(_check_point(prob, x)))


def sigma2_at(prob: ProblemInstance, x: np.ndarray) -> float:
    """E||grad f_i(x) - grad f(x)||^2 at one point, by enumerating all n components."""
    x = _check_point(prob, x)
    rows = gradient_rows(prob, x, np.arange(prob.num_components))
    dev = rows - rows.mean(axis=0)
    return float(np.mean(np.sum(dev * dev, axis=1)))


def estimate_sigma2(prob: ProblemInstance, xs) -> float:
    """Max over ``xs`` of the per-point gradient variance (lower bound on sigma^2)."""
    xs = list(xs)
    if not xs:
        raise ValueError("estimate_sigma2 needs at least one evaluation point")
    return max(sigma2_at(prob, x) for x in xs)


def draw_step_ids(prob: ProblemInstance, size: int, rng) -> np.ndarray:
    """Draw ``size`` independent uniform sample ids at once (with replacement).

    The ids, and the state ``rng`` is left in, are those of ``size``
    successive ``draw_sample_ids(prob, 1, rng)`` calls; tests pin this numpy
    behaviour (tests/test_numpy_contract.py).
    """
    return rng.integers(0, prob.num_components, size=size)


def draw_sample_ids(prob: ProblemInstance, size: int, rng) -> np.ndarray:
    """Draw ``size`` sample ids for one oracle batch, uniformly without replacement."""
    if size < 1:
        raise ValueError("batch size must be >= 1")
    n = prob.num_components
    if size > n:
        raise ValueError(f"batch size {size} exceeds the {n} components")
    if size > 1:
        # Sorted so the batch mean never depends on the draw order.
        return np.sort(rng.choice(n, size=size, replace=False))
    return rng.integers(0, n, size=size)


def smoothness_spot_check(
    prob: ProblemInstance, rng, n_pairs: int = 1000, radius: float | None = None
) -> dict:
    """Monte-Carlo check of the mean-square Lipschitz bound on sample gradients.

    Draws ``n_pairs`` random point pairs in a ball of the given radius and one
    uniform sample per pair, and compares the Monte-Carlo mean of
    ||grad f_xi(x) - grad f_xi(y)||^2 / (L^2 ||x - y||^2) against 1 with a
    three-standard-error allowance.
    """
    radius = prob.sampling_radius if radius is None else radius
    L2 = prob.lipschitz_L**2
    ratios = np.empty(n_pairs)
    for k in range(n_pairs):
        x = rng.uniform(-radius, radius, size=prob.dim)
        y = rng.uniform(-radius, radius, size=prob.dim)
        i = int(draw_sample_ids(prob, 1, rng)[0])
        diff = prob.grad_sample(x, i) - prob.grad_sample(y, i)
        ratios[k] = np.sum(diff * diff) / (L2 * np.sum((x - y) ** 2))
    mean = float(ratios.mean())
    stderr = float(ratios.std(ddof=1) / np.sqrt(n_pairs))
    return {
        "mean_ratio": mean,
        "stderr": stderr,
        "passed": mean <= 1.0 + 3.0 * stderr,
        "n_pairs": n_pairs,
    }

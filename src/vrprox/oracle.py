"""Stochastic first-order oracle for finite-sum and streaming objectives.

A :class:`ProblemInstance` describes a smooth objective f(x) = E_xi[f_xi(x)]
through per-sample callbacks.  Finite-sum instances index samples by an
integer in ``[0, n)``; streaming instances key a counter-based RNG stream by
the sample id, so the same id always reproduces the same realization (the
direction recursions re-evaluate one realization at two points, which makes
this reproducibility a hard requirement, not a convenience).

Exact diagnostics (full gradients, exact sigma^2) are only defined for
finite-sum instances; requesting them on a streaming instance raises
:class:`DiagnosticUnsupportedError`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class DiagnosticUnsupportedError(ValueError):
    """An exact finite-sum diagnostic was requested on a streaming instance."""


@dataclass(frozen=True)
class ProblemInstance:
    """A stochastic smooth objective with certified constants.

    ``num_components`` is the number of summands n for a finite-sum objective,
    or ``None`` for a streaming one.  ``lipschitz_L`` must upper-bound the
    mean-square Lipschitz constant of the sample gradients,
    E||grad f_xi(x) - grad f_xi(y)||^2 <= L^2 ||x - y||^2; ``sigma_bound``
    bounds E||grad f_xi(x) - grad f(x)||^2.  The ``*_certified`` flags record
    whether those constants are analytic bounds or empirical estimates; bound
    checks that need true constants refuse uncertified instances.

    ``f_star_ref`` is the minimum of f alone (no regularizer), when known.

    Optional fast paths: ``grad_batch(x, ids) -> (len(ids), dim)`` stacks
    per-sample gradients, ``mean_grad`` / ``mean_value`` give the exact
    expectation gradient/value in closed form.  They must agree with the
    per-sample callbacks; the defaults fall back to enumeration.
    """

    name: str
    dim: int
    num_components: int | None
    grad_sample: Callable[[np.ndarray, int], np.ndarray]
    value_sample: Callable[[np.ndarray, int], float]
    lipschitz_L: float
    lipschitz_certified: bool = True
    sigma_bound: float | None = None
    sigma_certified: bool = False
    f_star_ref: float | None = None
    x0: np.ndarray | None = None
    grad_batch: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    mean_grad: Callable[[np.ndarray], np.ndarray] | None = None
    mean_value: Callable[[np.ndarray], float] | None = None
    sampling_radius: float = 10.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.num_components is not None and self.num_components < 1:
            raise ValueError(f"num_components must be >= 1, got {self.num_components}")
        if not (self.lipschitz_L > 0 and np.isfinite(self.lipschitz_L)):
            raise ValueError(f"lipschitz_L must be a positive finite scalar, got {self.lipschitz_L}")

    @property
    def is_finite_sum(self) -> bool:
        return self.num_components is not None


# Streaming sample ids live in a fixed integer range so that a sample id fully
# determines the realization through the instance's counter-based stream.
STREAM_ID_SPACE = 2**63


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
    if prob.is_finite_sum and not 0 <= sample_id < prob.num_components:
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
    if prob.is_finite_sum and ids.size and (ids.min() < 0 or ids.max() >= prob.num_components):
        raise ValueError("sample id out of range")
    if prob.grad_batch is not None:
        return prob.grad_batch(x, ids)
    return np.stack([prob.grad_sample(x, int(i)) for i in ids])


def full_gradient(prob: ProblemInstance, x: np.ndarray) -> np.ndarray:
    """Exact expectation gradient (1/n) sum_i grad f_i(x); finite-sum only."""
    if not prob.is_finite_sum:
        raise DiagnosticUnsupportedError(
            "full gradient is only defined for finite-sum instances"
        )
    x = _check_point(prob, x)
    if prob.mean_grad is not None:
        return prob.mean_grad(x)
    return gradient_rows(prob, x, np.arange(prob.num_components)).mean(axis=0)


def full_value(prob: ProblemInstance, x: np.ndarray) -> float:
    """Exact expectation value f(x); finite-sum only."""
    if not prob.is_finite_sum:
        raise DiagnosticUnsupportedError(
            "exact objective value is only defined for finite-sum instances"
        )
    x = _check_point(prob, x)
    if prob.mean_value is not None:
        return float(prob.mean_value(x))
    n = prob.num_components
    return float(np.mean([prob.value_sample(x, i) for i in range(n)]))


def sigma2_at(prob: ProblemInstance, x: np.ndarray, n_mc: int = 0, rng=None) -> float:
    """E||grad f_xi(x) - grad f(x)||^2 at one point.

    Finite-sum: exact enumeration over all components.  Streaming: unbiased
    Monte-Carlo estimate from ``n_mc`` fresh sample ids.
    """
    x = _check_point(prob, x)
    if prob.is_finite_sum:
        rows = gradient_rows(prob, x, np.arange(prob.num_components))
        dev = rows - rows.mean(axis=0)
        return float(np.mean(np.sum(dev * dev, axis=1)))
    if n_mc < 2:
        raise ValueError("streaming sigma^2 estimation needs n_mc >= 2")
    if rng is None:
        raise ValueError("streaming sigma^2 estimation needs an rng")
    ids = rng.integers(0, STREAM_ID_SPACE, size=n_mc)
    rows = gradient_rows(prob, x, ids)
    dev = rows - rows.mean(axis=0)
    return float(np.sum(dev * dev) / (n_mc - 1))


def estimate_sigma2(prob: ProblemInstance, xs, n_mc: int = 0, rng=None) -> float:
    """Max over ``xs`` of the per-point gradient variance (lower bound on sigma^2)."""
    xs = list(xs)
    if not xs:
        raise ValueError("estimate_sigma2 needs at least one evaluation point")
    return max(sigma2_at(prob, x, n_mc=n_mc, rng=rng) for x in xs)


def _id_bound(prob: ProblemInstance) -> int:
    """Exclusive upper bound of a uniformly drawn sample id."""
    return prob.num_components if prob.is_finite_sum else STREAM_ID_SPACE


def sample_id_sampler(prob: ProblemInstance, rng) -> Callable[[], int]:
    """A zero-argument draw of one sample id, resolved once per run.

    Each call consumes ``rng`` exactly as ``draw_sample_ids(prob, 1, rng)``
    does and returns the same id, as a scalar.
    """
    return functools.partial(rng.integers, 0, _id_bound(prob))


def draw_sample_ids(prob: ProblemInstance, size: int, rng) -> np.ndarray:
    """Draw ``size`` sample ids for one oracle batch.

    Finite-sum batches are uniform without replacement; streaming batches are
    fresh keys from the id space (collisions are negligible).
    """
    if size < 1:
        raise ValueError("batch size must be >= 1")
    if prob.is_finite_sum:
        if size > prob.num_components:
            raise ValueError(
                f"batch size {size} exceeds the {prob.num_components} components"
            )
        if size > 1:
            # Sorted so the batch mean never depends on the draw order.
            return np.sort(rng.choice(prob.num_components, size=size, replace=False))
    return rng.integers(0, _id_bound(prob), size=size)


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

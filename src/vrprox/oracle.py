"""Stochastic first-order oracle for finite-sum objectives.

A :class:`ProblemInstance` describes a smooth finite sum
f(x) = (1/n) sum_i f_i(x) through sample callbacks indexed by integer ids in
``[0, n)``, plus its exact mean gradient and value in closed form, each with
one checked entry point here.  The optimizer draws sample ids uniformly; the
diagnostics and the variance checks use the exact expectations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


def _is_integer(value) -> bool:
    """True for a Python or numpy integer; False for anything else, ``bool``
    included."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _integer_array(name: str, values) -> np.ndarray:
    """``values`` as a 1-D integer array.  An ndarray is judged by its dtype.
    numpy gives ints mixed with bools an integer dtype, so any other sequence
    (a ``range`` holds ints only) is also searched for a Python or numpy bool."""
    arr = np.asarray(values)
    if arr.size == 0 and not isinstance(values, np.ndarray):
        arr = arr.astype(np.int64)  # numpy types an empty sequence as float
    if arr.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got dtype {arr.dtype}")
    if arr.ndim != 1:
        raise ValueError(f"{name} must form a 1-D array, got shape {arr.shape}")
    if not isinstance(values, (np.ndarray, range)) and {bool, np.bool_} & set(map(type, values)):
        raise ValueError(f"{name} must be integers, got a bool among them")
    return arr


def _check_count(name: str, value) -> None:
    if not _is_integer(value) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _check_positive_finite(name: str, value) -> None:
    if not (value > 0 and np.isfinite(value)):
        raise ValueError(f"{name} must be a positive finite scalar, got {value}")


@dataclass(frozen=True)
class ProblemInstance:
    """A smooth finite sum of ``num_components`` summands with certified constants.

    ``grad_rows(x, ids)`` is one summand's gradient for an integer id, and the
    ``(len(ids), dim)`` stack of them for a 1-D id array; ``value_sample(x, i)``
    is one summand's value; ``mean_grad(x)`` and ``mean_value(x)`` give the
    exact mean gradient and value in closed form.  All four must agree.

    ``lipschitz_L`` must be a certified upper bound on the mean-square
    Lipschitz constant of the sample gradients,
    E||grad f_i(x) - grad f_i(y)||^2 <= L^2 ||x - y||^2.  ``sigma_bound``,
    when given, must be a certified bound on E||grad f_i(x) - grad f(x)||^2
    at every x; ``None`` means none is known, and bound checks that need
    sigma^2 refuse the instance.

    ``f_star_ref`` is the minimum of f alone (no regularizer), when known.
    """

    name: str
    dim: int
    num_components: int
    grad_rows: Callable[[np.ndarray, int | np.ndarray], np.ndarray]
    value_sample: Callable[[np.ndarray, int], float]
    mean_grad: Callable[[np.ndarray], np.ndarray]
    mean_value: Callable[[np.ndarray], float]
    lipschitz_L: float
    sigma_bound: float | None = None
    f_star_ref: float | None = None
    sampling_radius: float = 10.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_count("dim", self.dim)
        _check_count("num_components", self.num_components)
        _check_positive_finite("lipschitz_L", self.lipschitz_L)
        if self.sigma_bound is not None and not 0 <= self.sigma_bound < np.inf:
            raise ValueError(f"sigma_bound must be None or a finite scalar >= 0, got {self.sigma_bound}")


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


def _check_ids(prob: ProblemInstance, ids):
    """One sample id as a Python int, or a 1-D integer id array; ids in [0, n)."""
    n = prob.num_components
    # The run loop passes Python ints; a list is converted once, below.
    if type(ids) is not int:
        if isinstance(ids, (list, tuple, range)) or np.ndim(ids):
            ids = _integer_array("sample ids", ids)
            if ids.size and (ids.min() < 0 or ids.max() >= n):
                raise ValueError("sample id out of range")
            return ids
        if not _is_integer(ids):
            raise ValueError(f"sample id must be an integer, got {ids!r}")
        ids = int(ids)
    if not 0 <= ids < n:
        raise ValueError(f"sample id {ids} out of range [0, {n})")
    return ids


def sample_gradient(prob: ProblemInstance, x: np.ndarray, ids) -> np.ndarray:
    """Gradient of one sample realization, grad f_xi(x), for an integer id;
    the ``(len(ids), dim)`` stack of sample gradients for a 1-D id array."""
    x = _check_point(prob, x)
    return prob.grad_rows(x, _check_ids(prob, ids))


def minibatch_gradient(prob: ProblemInstance, x: np.ndarray, ids) -> np.ndarray:
    """Arithmetic mean of sample gradients over a batch of ids."""
    if np.size(ids) == 0:
        raise ValueError("mini-batch must contain at least one sample id")
    # A single integer id is a batch of one.
    return np.atleast_2d(sample_gradient(prob, x, ids)).mean(axis=0)


def full_gradient(prob: ProblemInstance, x: np.ndarray) -> np.ndarray:
    """Exact mean gradient (1/n) sum_i grad f_i(x)."""
    return prob.mean_grad(_check_point(prob, x))


def full_value(prob: ProblemInstance, x: np.ndarray) -> float:
    """Exact mean value f(x)."""
    return float(prob.mean_value(_check_point(prob, x)))


def sigma2_at(prob: ProblemInstance, x: np.ndarray) -> float:
    """E||grad f_i(x) - grad f(x)||^2 at one point, by enumerating all n components."""
    rows = sample_gradient(prob, x, np.arange(prob.num_components))
    dev = rows - rows.mean(axis=0)
    return float(np.mean(np.sum(dev * dev, axis=1)))


def draw_step_ids(prob: ProblemInstance, size: int, rng) -> np.ndarray:
    """Draw ``size`` independent uniform sample ids at once (with replacement).

    The ids, and the state ``rng`` is left in, are those of ``size``
    successive ``draw_sample_ids(prob, 1, rng)`` calls; tests pin this numpy
    behaviour (tests/test_numpy_contract.py).
    """
    return rng.integers(0, prob.num_components, size=size)


def draw_sample_ids(prob: ProblemInstance, size: int, rng) -> np.ndarray:
    """Draw ``size`` sample ids for one oracle batch, uniformly without replacement."""
    _check_count("batch size", size)
    n = prob.num_components
    if size > n:
        raise ValueError(f"batch size {size} exceeds the {n} components")
    if size > 1:
        # Sorted so the batch mean never depends on the draw order.
        return np.sort(rng.choice(n, size=size, replace=False))
    return rng.integers(0, n, size=size)


def smoothness_spot_check(prob: ProblemInstance, rng, n_pairs: int = 1000) -> dict:
    """Monte-Carlo check of the mean-square Lipschitz bound on sample gradients.

    Draws ``n_pairs`` random point pairs in the cube of half-width
    ``prob.sampling_radius`` and one uniform sample per pair, and compares the
    Monte-Carlo mean of ||grad f_xi(x) - grad f_xi(y)||^2 / (L^2 ||x - y||^2)
    against 1 with a three-standard-error allowance.
    """
    if _is_integer(n_pairs) and n_pairs < 2:
        raise ValueError(f"need n_pairs >= 2 pairs, got {n_pairs}")
    _check_count("n_pairs", n_pairs)
    radius = prob.sampling_radius
    L2 = prob.lipschitz_L**2
    ratios = np.empty(n_pairs)
    for k in range(n_pairs):
        x = rng.uniform(-radius, radius, size=prob.dim)
        y = rng.uniform(-radius, radius, size=prob.dim)
        i = int(draw_sample_ids(prob, 1, rng)[0])
        diff = prob.grad_rows(x, i) - prob.grad_rows(y, i)
        ratios[k] = np.sum(diff * diff) / (L2 * np.sum((x - y) ** 2))
    mean = float(ratios.mean())
    stderr = float(ratios.std(ddof=1) / np.sqrt(n_pairs))
    return {
        "mean_ratio": mean,
        "stderr": stderr,
        "passed": mean <= 1.0 + 3.0 * stderr,
        "n_pairs": n_pairs,
    }

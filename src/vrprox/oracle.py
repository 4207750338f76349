"""Stochastic first-order oracle for finite-sum objectives.

A :class:`ProblemInstance` describes a smooth finite sum
f(x) = (1/n) sum_i f_i(x) through sample callbacks indexed by integer ids in
``[0, n)``, plus its exact mean gradient and value in closed form, each with
one checked entry point here.  The optimizer draws sample ids uniformly; the
diagnostics and the variance checks use the exact expectations.

It owns the library's two input policies: ``_finite_array`` makes every
public array argument a float64 array, refusing by name a non-real dtype, a
wrong shape or a non-finite entry, and ``_generator`` makes every seed a
``Generator(PCG64(seed))``.  Points are checked once, where they enter:
``_check_point`` screens a float64 point of the instance's shape by its dot
product with the instance's read-only zero vector, and checks anything else
in full.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

_FLOAT = np.dtype(float)


def _operand(value) -> np.ndarray:
    """``value`` as a read-only 0-d float64 array, the form every scalar
    operand of a hot array kernel takes.  Under numpy 2 an array op with a
    Python float or numpy scalar operand goes through weak-scalar promotion,
    which costs a few hundred ns per call more than a 0-d float64 operand and
    gives the same bits; kernels resolve such operands once, never per step."""
    arr = np.array(value, dtype=_FLOAT)
    arr.flags.writeable = False
    return arr


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


def _finite_array(name: str, value, shape: tuple | None = None) -> np.ndarray:
    """``value`` as a float64 array of finite reals, of ``shape`` if given (a
    ``None`` entry matches any length): dtype, then shape, then finiteness,
    each refused by a ``ValueError`` that names the argument."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"{name} must hold real numbers, got dtype {arr.dtype}")
    if shape is not None and not (
            arr.ndim == len(shape) and all(d in (None, s) for d, s in zip(shape, arr.shape))):
        expected = str(shape).replace("None", "k")
        raise ValueError(f"{name} has shape {arr.shape}, expected {expected}")
    arr = arr.astype(float, copy=False)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def _generator(seed) -> np.random.Generator:
    """``Generator(PCG64(seed))`` for a seed that is an integer >= 0 or a
    tuple or list of them (PCG64's entropy); anything else is a
    ``ValueError`` that names ``seed``."""
    entropy = seed if isinstance(seed, (tuple, list)) else [seed]
    if not all(_is_integer(s) and s >= 0 for s in entropy):
        raise ValueError(f"seed must be an integer >= 0 or a sequence of them, got {seed!r}")
    return np.random.Generator(np.random.PCG64(seed))


def _check_generator(rng) -> None:
    if not isinstance(rng, np.random.Generator):
        raise TypeError(f"rng must be a numpy Generator, got {rng!r}")


def _check_count(name: str, value) -> None:
    if not _is_integer(value) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _is_real(value) -> bool:
    """True for a real scalar: a Python or numpy int or float, or a 0-d array
    of one; False for a bool, a string, ``None`` or anything else."""
    if isinstance(value, np.ndarray):
        return value.ndim == 0 and value.dtype.kind in "iuf"
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _check_positive_finite(name: str, value) -> None:
    # The type comes first: a string or None would fail the comparison with
    # a message that does not name the argument, and True > 0.
    if not (_is_real(value) and value > 0 and np.isfinite(value)):
        raise ValueError(f"{name} must be a positive finite scalar, got {value!r}")


# A Monte-Carlo check works on stacks of rows, a chunk of them at a time, so
# that no stacked temporary exceeds this many bytes.
_CHUNK_BYTES = 2**17


def _chunks(count: int, row_bytes: int) -> list[tuple[int, int]]:
    """Bounds (start, stop) of consecutive chunks of ``count`` rows of
    ``row_bytes`` bytes each: at most ``_CHUNK_BYTES`` a chunk, one row at least."""
    step = max(1, _CHUNK_BYTES // row_bytes)
    return [(start, min(start + step, count)) for start in range(0, count, step)]


@dataclass(frozen=True)
class ProblemInstance:
    """A smooth finite sum of ``num_components`` summands with certified constants.

    ``grad_rows(x, ids)`` is one summand's gradient for an integer id, and the
    ``(len(ids), dim)`` stack of them for a 1-D id array.  Given a
    ``(k, dim)`` stack of points ``X`` and k ids, ``grad_rows(X, ids)`` gives
    row r the gradient of sample ``ids[r]`` at ``X[r]``.  Both agree bit for
    bit with the int path: row r is ``grad_rows(x, int(ids[r]))``, or
    ``grad_rows(X[r], int(ids[r]))``, on every family.  ``value_sample(x, i)`` is one
    summand's value; ``mean_grad(x)`` and ``mean_value(x)`` give the exact
    mean gradient and value in closed form.  All four must agree.
    ``mean_value(X)`` on a ``(k, dim)`` stack gives the k values, each with
    the bits of ``mean_value(X[r])``, which gives a float: a run's
    diagnostics read f once per block of iterates, so a custom instance's
    ``mean_value`` must take a stack too.

    ``lipschitz_L`` must be a certified upper bound on the mean-square
    Lipschitz constant of the sample gradients,
    E||grad f_i(x) - grad f_i(y)||^2 <= L^2 ||x - y||^2.  ``sigma_bound``
    must be a certified bound on E||grad f_i(x) - grad f(x)||^2 at every x,
    and ``f_lower`` a certified lower bound on inf f.
    """

    name: str
    dim: int
    num_components: int
    grad_rows: Callable[[np.ndarray, int | np.ndarray], np.ndarray]
    value_sample: Callable[[np.ndarray, int], float]
    mean_grad: Callable[[np.ndarray], np.ndarray]
    mean_value: Callable[[np.ndarray], float | np.ndarray]
    lipschitz_L: float
    sigma_bound: float
    f_lower: float
    sampling_radius: float = 10.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_count("dim", self.dim)
        _check_count("num_components", self.num_components)
        _check_positive_finite("lipschitz_L", self.lipschitz_L)
        _check_positive_finite("sampling_radius", self.sampling_radius)
        if not 0 <= self.sigma_bound < np.inf:
            raise ValueError(f"sigma_bound must be a finite scalar >= 0, got {self.sigma_bound}")
        if not np.isfinite(self.f_lower):
            raise ValueError(f"f_lower must be finite, got {self.f_lower}")
        # What _check_point's screen reads; not fields, so replace() rebuilds them.
        zero = np.zeros(self.dim)
        zero.flags.writeable = False
        object.__setattr__(self, "_zero", zero)
        object.__setattr__(self, "_shape", (self.dim,))


def _check_point(prob: ProblemInstance, x: np.ndarray) -> np.ndarray:
    # The run loop's float64 iterates pass on a screen: x . 0 is 0 exactly
    # when every entry is finite, and unlike x . x it cannot overflow.
    # Anything else takes the full check, which names the failure.
    if (type(x) is np.ndarray and x.dtype is _FLOAT and x.shape == prob._shape
            and x.dot(prob._zero) == 0.0):
        return x
    return _finite_array("point", x, (prob.dim,))


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
    against 1 with a three-standard-error allowance.  ``rng`` is a numpy
    ``Generator``; anything else is a ``TypeError``.

    The pairs are drawn as whole arrays, a chunk of rows at a time (one
    chunk up to 16,384 / dim pairs): the chunk's points x, then its points y,
    then its sample ids.  Each chunk's ratios come from two stacked
    ``grad_rows`` calls and row sums, with the bits of a per-pair loop.
    """
    _check_generator(rng)
    if _is_integer(n_pairs) and n_pairs < 2:
        raise ValueError(f"need n_pairs >= 2 pairs, got {n_pairs}")
    _check_count("n_pairs", n_pairs)
    radius = prob.sampling_radius
    L2 = prob.lipschitz_L**2
    ratios = np.empty(n_pairs)
    for start, stop in _chunks(n_pairs, 8 * prob.dim):
        X = rng.uniform(-radius, radius, size=(stop - start, prob.dim))
        Y = rng.uniform(-radius, radius, size=(stop - start, prob.dim))
        ids = draw_step_ids(prob, stop - start, rng)
        diff = prob.grad_rows(X, ids) - prob.grad_rows(Y, ids)
        ratios[start:stop] = np.sum(diff * diff, axis=1) / (L2 * np.sum((X - Y) ** 2, axis=1))
    mean = float(ratios.mean())
    stderr = float(ratios.std(ddof=1) / np.sqrt(n_pairs))
    return {
        "mean_ratio": mean,
        "stderr": stderr,
        "passed": mean <= 1.0 + 3.0 * stderr,
        "n_pairs": n_pairs,
    }

"""Checkers for the method's guarantees.

This module verifies what desk-scale computation *can* verify:

* the one-step variance recursion of the direction estimator,
  E_xi ||v_t - grad f(x_t)||^2
    <= (1-beta)^2 ||v_{t-1} - grad f(x_{t-1})||^2
       + 2 (1-beta)^2 L^2 ||x_t - x_{t-1}||^2 + 2 beta^2 sigma^2,
  by exact enumeration over the components of a finite sum;
* its unrolled form along a trajectory,
  E ||v_t - grad f(x_t)||^2
    <= (1-beta)^{2t} E ||v_0 - grad f(x_0)||^2 + 2 beta sigma^2
       + 2 L^2 sum_i (1-beta)^{2(t-i)} E ||x_{i+1} - x_i||^2,
  by its exact expectation along a *frozen* trajectory, in closed form
  (the recursion is linear, and its step draws are independent).  The true
  statement takes expectations over the iterates as well; freezing the
  points checks the conditional version (the strongest realizable surrogate
  from sample paths) and is reported as such;
* the schedule compatibility constraint beta >= 2 L^2 eta^2 / (1 - L eta),
  exactly, for whole ranges of horizons;
* the empirical decay exponent of the averaged squared gradient mapping.

Both variance checks compute their left side exactly and pass when
lhs <= rhs, with no statistical allowance.

Each of the three checks has one stacked engine (``_step_rows``,
``_unrolled_rows``, ``_schedule_rows``) that evaluates many tuples,
trajectories or values of L at once, with every entry's bits those of the
one-item call; the public checkers validate their inputs and run the
one-item case.  ``vrprox validate`` calls the engines on chunks of items
whose stacks stay within ``oracle._CHUNK_BYTES``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import _recursion, _weights
from .optimizer import _eta_beta
from .oracle import (
    ProblemInstance,
    _check_count,
    _check_positive_finite,
    _finite_array,
    _integer_array,
    _is_integer,
    _is_real,
    sigma2_at,
)


@dataclass(frozen=True)
class VarianceBoundReport:
    """Outcome of one variance-recursion check.

    ``lhs`` is the conditional expectation on the left, computed exactly:
    by enumeration over the components in the one-step check, in closed form
    in the unrolled one; ``rhs`` is assembled from certified constants only.
    ``passed`` means lhs <= rhs.
    """

    lhs: float
    rhs: float
    passed: bool
    inputs: dict


@dataclass(frozen=True)
class ScheduleReport:
    """Worst-case margin of beta - 2 L^2 eta^2 / (1 - L eta) over a horizon
    range; ``margins`` holds the margin of every horizon, in range order."""

    passed: bool
    worst_margin: float
    worst_T: int
    n_checked: int
    margins: np.ndarray


def _check_beta_open(beta) -> float:
    if not (_is_real(beta) and 0.0 < beta <= 1.0):
        raise ValueError(f"beta must lie in (0, 1], got {beta!r}")
    return float(beta)


def _stacked_tables(prob: ProblemInstance, X: np.ndarray) -> np.ndarray:
    """The (k, n, dim) component-gradient tables at the k rows of ``X``, from
    one ``grad_rows`` call on a (k*n, dim) stack: table r has the bits of
    ``grad_rows(X[r], np.arange(n))``."""
    k, n = X.shape[0], prob.num_components
    rows = prob.grad_rows(np.repeat(X, n, axis=0), np.tile(np.arange(n), k))
    return rows.reshape(k, n, prob.dim)


def _step_rows(prob, X_prev, X_curr, V_prev, betas) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) of the one-step check at k tuples: the rows of three
    (k, dim) stacks and the k weights in ``betas``, checked by the caller.
    Entry r has the bits of :func:`check_variance_recursion_step` on tuple r.

    The tables of all k tuples come from one ``grad_rows`` call per point
    stack, k*n rows of dim each, and their directions from one call of the
    estimator's recursion with a beta column.  The per-tuple scalars are
    Python floats, as the one-tuple check forms them."""
    one_m = np.array([(1.0 - b) ** 2 for b in betas.tolist()])
    beta_sq = np.array([b**2 for b in betas.tolist()])
    G_curr = np.array([prob.mean_grad(x) for x in X_curr])
    D_dir = V_prev - np.array([prob.mean_grad(x) for x in X_prev])
    D_step = X_curr - X_prev
    rhs = (
        one_m * np.vecdot(D_dir, D_dir)
        + 2.0 * one_m * prob.lipschitz_L**2 * np.vecdot(D_step, D_step)
        + 2.0 * beta_sq * prob.sigma_bound
    )
    E = _recursion(V_prev[:, None], _stacked_tables(prob, X_curr),
                   _stacked_tables(prob, X_prev), None, _weights(betas[:, None, None]))
    E -= G_curr[:, None]
    E *= E
    lhs = np.sum(E, axis=2).mean(axis=1)
    return lhs, rhs


def check_variance_recursion_step(
    prob: ProblemInstance,
    x_prev: np.ndarray,
    x_curr: np.ndarray,
    v_prev: np.ndarray,
    beta: float,
) -> VarianceBoundReport:
    """Check the one-step variance recursion at a single (x_prev, x_curr, v_prev).

    The left side is the conditional expectation over the one fresh sample,
    enumerated exactly over all n components through the estimator's own
    momentum recursion, on the two points' component-gradient tables.  The
    inputs are checked once, up front; it is the one-tuple case of the
    stacked evaluation ``vrprox validate`` runs.
    """
    beta = _check_beta_open(beta)
    x_prev = _finite_array("x_prev", x_prev, (prob.dim,))
    x_curr = _finite_array("x_curr", x_curr, (prob.dim,))
    v_prev = _finite_array("v_prev", v_prev, (prob.dim,))
    lhs, rhs = _step_rows(prob, x_prev[None], x_curr[None], v_prev[None], np.array([beta]))
    lhs, rhs = float(lhs[0]), float(rhs[0])
    return VarianceBoundReport(
        lhs=lhs,
        rhs=rhs,
        passed=lhs <= rhs,
        inputs={"x_prev": x_prev, "x_curr": x_curr, "v_prev": v_prev, "beta": beta},
    )


def _check_batch(n: int, b_tilde) -> None:
    if not _is_integer(b_tilde) or not 1 <= b_tilde <= n:
        raise ValueError(f"initial batch size must be an integer in [1, {n}], got {b_tilde!r}")


def initial_direction_variance(prob: ProblemInstance, x0: np.ndarray, b_tilde: int) -> float:
    """Exact E||v_0 - grad f(x_0)||^2 for a without-replacement batch of b_tilde.

    Mean of a simple random sample without replacement from n vectors with
    per-point scatter s2 has variance (s2 / b) * (n - b) / (n - 1).
    """
    n = prob.num_components
    _check_batch(n, b_tilde)
    if b_tilde == n:
        return 0.0
    return sigma2_at(prob, x0) * (n - b_tilde) / (b_tilde * (n - 1))


def _unrolled_rows(prob, trajectories, batches, V0, betas) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) of the unrolled check at k frozen trajectories of one
    length: a (k, m+1, dim) stack, the k weights in ``betas`` and k initial
    directions, row r a batch of ``batches[r]`` samples or, where that is 0,
    the fixed direction ``V0[r]``; all checked by the caller.  Entry r has
    the bits of :func:`check_variance_recursion_unrolled` on trajectory r.

    Each of the m+1 points is one ``grad_rows`` call on the k trajectories'
    (k*n, dim) stack, and each step one call of the estimator's recursion
    with a beta column.  The first stack gives both the mean gradient at x_0
    and, for a batch, the scatter of the without-replacement variance.  The
    per-trajectory scalars are Python floats, as the one-trajectory check
    forms them."""
    points = trajectories.shape[1]
    m, n = points - 1, prob.num_components
    decay = np.array([(1.0 - b) ** 2 for b in betas.tolist()])
    decay_m = np.array([d**m for d in decay.tolist()])

    rows = _stacked_tables(prob, trajectories[:, 0])
    mean0 = rows.mean(axis=1)
    D0 = V0 - mean0
    init = np.where(batches == 0, np.vecdot(D0, D0), 0.0)
    drawn = (0 < batches) & (batches < n)  # a batch of n has no variance
    dev = rows[drawn] - mean0[drawn][:, None]
    dev *= dev
    b = batches[drawn]
    init[drawn] = np.mean(np.sum(dev, axis=2), axis=1) * (n - b) / (b * (n - 1))

    weights = _weights(betas[:, None, None])
    noise = np.empty((betas.size, m))  # mean_j ||d_i(j) - mean_j d_i||^2 for i = 1..m
    for i in range(1, points):
        prev, rows = rows, _stacked_tables(prob, trajectories[:, i])
        d = _recursion(0.0, rows, prev, None, weights)
        d -= d.mean(axis=1, keepdims=True)
        d *= d
        noise[:, i - 1] = np.mean(np.sum(d, axis=2), axis=1)

    lhs = decay_m * init + np.sum(decay[:, None] ** np.arange(m - 1, -1, -1) * noise, axis=1)
    steps = np.sum(np.diff(trajectories, axis=1) ** 2, axis=2)  # ||x_{i+1} - x_i||^2
    weights = decay[:, None] ** np.arange(m, 0, -1)  # (1-beta)^{2(m-i)} for i = 0..m-1
    rhs = (
        decay_m * init
        + 2.0 * betas * prob.sigma_bound
        + 2.0 * prob.lipschitz_L**2 * np.sum(weights * steps, axis=1)
    )
    return lhs, rhs


def check_variance_recursion_unrolled(
    prob: ProblemInstance,
    trajectory: np.ndarray,
    v0,
    beta: float,
) -> VarianceBoundReport:
    """The exact expected squared error of the optimizer's momentum recursion
    (``estimators._recursion``) at the end of a frozen trajectory, against the
    unrolled variance bound.

    ``trajectory`` is an array of shape (k+1, dim) of fixed points
    x_0, ..., x_k; only the sample draws are random, so the expectation is
    conditional on the path (the frozen-trajectory surrogate for the full
    bound).  ``v0`` is either a fixed initial direction (a finite vector) or
    an integer batch size, for a without-replacement initial batch.

    With the points frozen the recursion is linear in v, and its step draws
    are independent of each other and of the initial batch, so the error
    unrolls to e_k = (1-beta)^k e_0 + sum_i (1-beta)^{k-i} c_i with centred,
    independent c_i, and
      E||e_k||^2 = (1-beta)^{2k} E||e_0||^2
                   + sum_{i=1..k} (1-beta)^{2(k-i)} mean_j ||d_i(j) - mean_j d_i||^2,
    where d_i(j) = g_j(x_i) - (1-beta) g_j(x_{i-1}) is one ``_recursion``
    step from v = 0 on all n sample ids.  E||e_0||^2 is
    :func:`initial_direction_variance` for a batch ``v0``, from the table at
    x_0 the steps use, and ||v0 - grad f(x_0)||^2 for a fixed one.  Memory
    is two (n, dim) component-gradient tables and a few arrays of their
    size.  It is the one-trajectory case of the stacked evaluation
    ``vrprox validate`` runs.
    """
    beta = _check_beta_open(beta)
    trajectory = _finite_array("trajectory", trajectory, (None, prob.dim))
    k = trajectory.shape[0] - 1
    if k < 0:
        raise ValueError("trajectory must hold at least one point")
    if np.ndim(v0) == 0:
        _check_batch(prob.num_components, v0)
        v0 = int(v0)
        batch, V0 = v0, np.zeros((1, prob.dim))
    else:
        v0 = _finite_array("v0", v0, (prob.dim,))
        batch, V0 = 0, v0[None]
    lhs, rhs = _unrolled_rows(prob, trajectory[None], np.array([batch]), V0, np.array([beta]))
    lhs, rhs = float(lhs[0]), float(rhs[0])
    return VarianceBoundReport(
        lhs=lhs,
        rhs=rhs,
        passed=lhs <= rhs,
        inputs={"k": k, "beta": beta, "v0": v0},
    )


def _schedule_rows(Ts: np.ndarray, Ls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Margins beta - 2 L^2 eta^2 / (1 - L eta) at the horizons ``Ts`` (1-D,
    >= 1) for each L of the ``(r, 1)`` column ``Ls``, as an (r, len(Ts))
    array, and whether each L passes (every constraint positive, every
    beta < 1, every margin >= -1e-12).  T+1, its cube root and beta are
    formed once for all r; row j has the bits of one L = Ls[j] call.  The
    arithmetic runs in place on the two (r, len(Ts)) arrays it allocates."""
    eta, beta = _eta_beta(Ts, Ls)
    q = Ls * eta
    np.subtract(1.0, q, out=q)  # 1 - L eta
    eta *= eta
    eta *= 2.0 * (Ls * Ls)
    eta /= q  # the constraint
    positive = eta.min(axis=1) > 0.0
    margins = np.subtract(beta, eta, out=eta)
    # A min is false against a bound exactly when some entry is, NaN included.
    return margins, positive & (beta.max() < 1.0) & (margins.min(axis=1) >= -1e-12)


def check_schedule_constraint(T_range, L: float) -> ScheduleReport:
    """Verify beta >= 2 L^2 eta^2 / (1 - L eta), to within 1e-12, for every
    horizon in ``T_range`` (1-D, integers >= 1; L positive and finite).

    The whole range is evaluated at once by the formula
    :func:`~vrprox.optimizer.schedule_from_T` uses; the report keeps every
    margin, 8 bytes per horizon, and the evaluation holds a few more such
    arrays while it runs.  ``vrprox validate`` checks T = 1..10^6 at three L
    in blocks of at most 128 KB of margins, so its memory does not grow with
    the range.
    """
    _check_positive_finite("L", L)
    Ts = _integer_array("horizons", T_range)
    if Ts.size == 0:
        raise ValueError("empty horizon range")
    if np.any(Ts < 1):
        raise ValueError("horizons must be >= 1")
    margins, passed = _schedule_rows(Ts, np.array([[float(L)]]))
    margins = margins[0]
    worst = int(np.argmin(margins))
    return ScheduleReport(
        passed=bool(passed[0]),
        worst_margin=float(margins[worst]),
        worst_T=int(Ts[worst]),
        n_checked=int(Ts.size),
        margins=margins,
    )


def rate_slope(summary) -> float:
    """Least-squares slope of log(mean ||G||^2) against log(T+1).

    ``summary`` is a sequence of (T, seed-averaged mean squared gradient
    mapping) pairs covering at least three distinct horizons, integers >= 1.
    """
    pairs = list(summary)
    for T, m in pairs:
        _check_count("horizon T", T)
        if not _is_real(m):
            raise ValueError(f"rate fit means must be real numbers, got {m!r}")
    Ts = np.array([T for T, _ in pairs], dtype=float)
    means = np.array([m for _, m in pairs], dtype=float)
    if np.unique(Ts).size < 3:
        raise ValueError("rate fit needs at least three distinct horizons")
    if not np.all((means > 0) & np.isfinite(means)):
        raise ValueError("rate fit needs positive finite means")
    return float(np.polyfit(np.log(Ts + 1.0), np.log(means), 1)[0])

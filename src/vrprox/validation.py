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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import MOMENTUM_SARAH, _recursion
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
    momentum recursion, gathering from the two points' component-gradient
    tables as the unrolled check does.  The inputs are checked once, up
    front; the problem's closures are then called directly.
    """
    beta = _check_beta_open(beta)
    x_prev = _finite_array("x_prev", x_prev, (prob.dim,))
    x_curr = _finite_array("x_curr", x_curr, (prob.dim,))
    v_prev = _finite_array("v_prev", v_prev, (prob.dim,))

    g_curr = prob.mean_grad(x_curr)
    d_dir = v_prev - prob.mean_grad(x_prev)
    d_step = x_curr - x_prev
    one_m = (1.0 - beta) ** 2
    rhs = float(
        one_m * (d_dir @ d_dir)
        + 2.0 * one_m * prob.lipschitz_L**2 * (d_step @ d_step)
        + 2.0 * beta**2 * prob.sigma_bound
    )
    ids = np.arange(prob.num_components)
    prev, curr = prob.grad_rows(x_prev, ids), prob.grad_rows(x_curr, ids)
    v_new = _recursion(_gather, None, MOMENTUM_SARAH, v_prev, prev, curr, ids, None, beta)
    lhs = float(np.sum((v_new - g_curr) ** 2, axis=1).mean())
    return VarianceBoundReport(
        lhs=lhs,
        rhs=rhs,
        passed=lhs <= rhs,
        inputs={"x_prev": x_prev, "x_curr": x_curr, "v_prev": v_prev, "beta": beta},
    )


def initial_direction_variance(prob: ProblemInstance, x0: np.ndarray, b_tilde: int) -> float:
    """Exact E||v_0 - grad f(x_0)||^2 for a without-replacement batch of b_tilde.

    Mean of a simple random sample without replacement from n vectors with
    per-point scatter s2 has variance (s2 / b) * (n - b) / (n - 1).
    """
    n = prob.num_components
    if not _is_integer(b_tilde) or not 1 <= b_tilde <= n:
        raise ValueError(f"initial batch size must be an integer in [1, {n}], got {b_tilde!r}")
    if n == 1 or b_tilde == n:
        return 0.0
    return sigma2_at(prob, x0) * (n - b_tilde) / (b_tilde * (n - 1))


def _gather(_, table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    # The estimator's grad(prob, x, ids), with the point's (n, dim)
    # component-gradient table standing in for the point.
    return table.take(ids, axis=0)


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
    :func:`initial_direction_variance` for a batch ``v0`` and
    ||v0 - grad f(x_0)||^2 for a fixed one.  Memory is two (n, dim)
    component-gradient tables and a few arrays of their size.
    """
    beta = _check_beta_open(beta)
    trajectory = _finite_array("trajectory", trajectory, (None, prob.dim))
    k = trajectory.shape[0] - 1
    if k < 0:
        raise ValueError("trajectory must hold at least one point")
    all_ids = np.arange(prob.num_components)

    rows = prob.grad_rows(trajectory[0], all_ids)
    if np.ndim(v0) == 0:
        init_term = initial_direction_variance(prob, trajectory[0], v0)
        v0 = int(v0)
    else:
        v0 = _finite_array("v0", v0, (prob.dim,))
        d0 = v0 - rows.mean(axis=0)
        init_term = float(d0 @ d0)

    zeros = np.zeros_like(rows)
    noise = np.empty(k)  # mean_j ||d_i(j) - mean_j d_i||^2 for i = 1..k
    for i, x in enumerate(trajectory[1:]):
        prev, rows = rows, prob.grad_rows(x, all_ids)
        d = _recursion(_gather, None, MOMENTUM_SARAH, zeros, prev, rows, all_ids, None, beta)
        d -= d.mean(axis=0)
        noise[i] = np.mean(np.sum(d * d, axis=1))

    decay = (1.0 - beta) ** 2
    lhs = float(decay**k * init_term + np.sum(decay ** np.arange(k - 1, -1, -1) * noise))
    steps = np.sum(np.diff(trajectory, axis=0) ** 2, axis=1)  # ||x_{i+1} - x_i||^2
    weights = decay ** np.arange(k, 0, -1)  # (1-beta)^{2(k-i)} for i = 0..k-1
    rhs = float(
        decay**k * init_term
        + 2.0 * beta * prob.sigma_bound
        + 2.0 * prob.lipschitz_L**2 * np.sum(weights * steps)
    )
    return VarianceBoundReport(
        lhs=lhs,
        rhs=rhs,
        passed=lhs <= rhs,
        inputs={"k": k, "beta": beta, "v0": v0},
    )


def check_schedule_constraint(T_range, L: float) -> ScheduleReport:
    """Verify beta >= 2 L^2 eta^2 / (1 - L eta), to within 1e-12, for every
    horizon in ``T_range`` (1-D, integers >= 1; L positive and finite).

    The whole range is evaluated at once by the formula
    :func:`~vrprox.optimizer.schedule_from_T` uses; the report keeps every
    margin, 8 bytes per horizon, and the evaluation holds a few more such
    arrays while it runs.  ``vrprox validate`` checks T = 1..10^6 in blocks
    of 2^14 horizons, so its memory does not grow with the range.
    """
    _check_positive_finite("L", L)
    Ts = _integer_array("horizons", T_range)
    if Ts.size == 0:
        raise ValueError("empty horizon range")
    if np.any(Ts < 1):
        raise ValueError("horizons must be >= 1")
    eta, beta = _eta_beta(Ts, L)
    q = L * eta
    constraint = 2.0 * (L * L) * (eta * eta) / (1.0 - q)
    margins = beta - constraint

    ok = bool(np.all(constraint > 0.0) and np.all(beta < 1.0) and np.all(margins >= -1e-12))

    worst = int(np.argmin(margins))
    return ScheduleReport(
        passed=ok,
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

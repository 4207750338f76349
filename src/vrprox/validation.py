"""Monte-Carlo and analytic checkers for the method's guarantees.

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
  by replaying the recursion many times along a *frozen* trajectory.  The
  true statement takes expectations over the iterates as well; freezing the
  points checks the conditional version (the strongest realizable surrogate
  from sample paths) and is reported as such;
* the schedule compatibility constraint beta >= 2 L^2 eta^2 / (1 - L eta),
  exactly, for whole ranges of horizons;
* the empirical decay exponent of the averaged squared gradient mapping.

All statistical checks pass at three standard errors; the inequalities are
one-sided bounds, which leaves headroom.  Checks that need sigma^2 refuse
instances without a certified one (``sigma_bound is None``).
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
    _integer_array,
    _is_integer,
    full_gradient,
    sample_gradient,
    sigma2_at,
)


@dataclass(frozen=True)
class VarianceBoundReport:
    """Outcome of one variance-recursion check.

    ``lhs_mc`` is the conditional expectation on the left: enumerated exactly
    by the one-step check (stderr 0), estimated from replays by the unrolled
    one; ``rhs`` is assembled from certified constants only.  ``passed``
    means lhs_mc <= rhs + 3 * stderr.
    """

    lhs_mc: float
    stderr: float
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


def _require_certified(prob: ProblemInstance, what: str) -> None:
    if prob.sigma_bound is None:
        raise ValueError(f"{what} needs a certified sigma^2; instance {prob.name!r} has none")


def _check_beta_open(beta: float) -> float:
    beta = float(beta)
    if not (0.0 < beta <= 1.0):
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    return beta


def variance_recursion_rhs(
    prob: ProblemInstance,
    x_prev: np.ndarray,
    x_curr: np.ndarray,
    v_prev: np.ndarray,
    beta: float,
) -> float:
    """Right-hand side of the one-step variance recursion, from certified constants."""
    d_dir = v_prev - full_gradient(prob, x_prev)
    d_step = np.asarray(x_curr, dtype=float) - np.asarray(x_prev, dtype=float)
    one_m = (1.0 - beta) ** 2
    return float(
        one_m * (d_dir @ d_dir)
        + 2.0 * one_m * prob.lipschitz_L**2 * (d_step @ d_step)
        + 2.0 * beta**2 * prob.sigma_bound
    )


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
    momentum recursion.
    """
    _require_certified(prob, "the one-step variance check")
    beta = _check_beta_open(beta)
    x_prev = np.asarray(x_prev, dtype=float)
    x_curr = np.asarray(x_curr, dtype=float)
    v_prev = np.asarray(v_prev, dtype=float)
    if v_prev.shape != (prob.dim,) or not np.isfinite(v_prev).all():
        raise ValueError(f"v_prev must be a finite vector of shape ({prob.dim},)")

    ids = np.arange(prob.num_components)
    g_curr = full_gradient(prob, x_curr)
    v_new = _recursion(sample_gradient, prob, MOMENTUM_SARAH, v_prev, x_prev, x_curr, ids, None, beta)
    lhs = float(np.sum((v_new - g_curr) ** 2, axis=1).mean())

    rhs = variance_recursion_rhs(prob, x_prev, x_curr, v_prev, beta)
    return VarianceBoundReport(
        lhs_mc=lhs,
        stderr=0.0,
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


def _floyd_batch_means(rows: np.ndarray, b_tilde: int, n_mc: int, rng) -> np.ndarray:
    """Mean of ``rows`` over a uniform b_tilde-subset of its indices, one
    independent subset per replay: an (n_mc, dim) array.

    Floyd's algorithm (Bentley & Floyd 1987), run for all replays at once:
    for j = n - b_tilde, ..., n - 1 each replay draws t uniform in [0, j] and
    takes j instead when t is already in its subset.  Every b_tilde-subset is
    equally likely, at O(b_tilde n_mc) cost.  The rows are summed in the order
    they are taken.  For b_tilde = 1 this is one ``rng.integers(0, n,
    size=n_mc)`` draw and its rows.
    """
    n = rows.shape[0]
    replay = np.arange(n_mc)
    member = np.zeros((n_mc, n), dtype=bool)
    first = n - b_tilde
    t = rng.integers(0, first + 1, size=n_mc)
    member[replay, t] = True
    V = rows[t]
    picked = np.empty_like(V)
    for j in range(first + 1, n):
        t = rng.integers(0, j + 1, size=n_mc)
        t = np.where(member[replay, t], j, t)
        member[replay, t] = True
        V += np.take(rows, t, axis=0, out=picked, mode="clip")
    V /= b_tilde
    return V


def check_variance_recursion_unrolled(
    prob: ProblemInstance,
    trajectory: np.ndarray,
    v0,
    beta: float,
    rng,
    n_mc: int = 10_000,
) -> VarianceBoundReport:
    """Replay the recursion along a frozen trajectory and compare against the
    unrolled variance bound.

    ``trajectory`` is an array of shape (k+1, dim) of fixed points
    x_0, ..., x_k; only the sample draws are random, so the expectation being
    estimated is conditional on the path (the frozen-trajectory surrogate for
    the full bound).  ``v0`` is either a fixed initial direction (an array) or
    an integer batch size, in which case every replay draws a fresh
    without-replacement initial batch by Floyd's algorithm, all replays at
    once (:func:`_floyd_batch_means`), and the bound's initial term uses the
    exact without-replacement variance.
    """
    _require_certified(prob, "the unrolled variance check")
    beta = _check_beta_open(beta)
    if _is_integer(n_mc) and n_mc < 2:
        raise ValueError("need n_mc >= 2 replays")
    _check_count("n_mc", n_mc)
    trajectory = np.asarray(trajectory, dtype=float)
    if trajectory.ndim != 2 or trajectory.shape[1] != prob.dim:
        raise ValueError(f"trajectory must have shape (k+1, {prob.dim})")
    k = trajectory.shape[0] - 1
    n = prob.num_components
    all_ids = np.arange(n)

    # Initial directions, one per replay.
    x0 = trajectory[0]
    rows0 = sample_gradient(prob, x0, all_ids)
    if np.ndim(v0) == 0:
        init_term = initial_direction_variance(prob, x0, v0)
        b_tilde = int(v0)
        V = _floyd_batch_means(rows0, b_tilde, n_mc, rng)
        v0_record = b_tilde
    else:
        v0 = np.asarray(v0, dtype=float)
        V = np.broadcast_to(v0, (n_mc, prob.dim)).copy()
        d0 = v0 - rows0.mean(axis=0)
        init_term = float(d0 @ d0)
        v0_record = v0

    # V <- rows_curr[ids] + (1 - beta) (V - rows_prev[ids]), in place: the
    # same operations in the same order, so the same bits.  Each point's
    # component gradients are computed once and serve two steps.  The ids
    # lie in [0, n), so "clip" never clips; it lets take write unbuffered.
    rows_prev = rows0
    picked = np.empty_like(V)
    for i in range(1, k + 1):
        rows_curr = sample_gradient(prob, trajectory[i], all_ids)
        ids = rng.integers(0, n, size=n_mc)
        V -= np.take(rows_prev, ids, axis=0, out=picked, mode="clip")
        V *= 1.0 - beta
        V += np.take(rows_curr, ids, axis=0, out=picked, mode="clip")
        rows_prev = rows_curr

    g_final = full_gradient(prob, trajectory[k])
    errs = np.sum((V - g_final) ** 2, axis=1)
    lhs = float(errs.mean())
    stderr = float(errs.std(ddof=1) / np.sqrt(n_mc))

    decay = (1.0 - beta) ** 2
    steps = np.sum(np.diff(trajectory, axis=0) ** 2, axis=1)  # ||x_{i+1} - x_i||^2
    weights = decay ** np.arange(k, 0, -1)  # (1-beta)^{2(k-i)} for i = 0..k-1
    rhs = float(
        decay**k * init_term
        + 2.0 * beta * prob.sigma_bound
        + 2.0 * prob.lipschitz_L**2 * np.sum(weights * steps)
    )
    return VarianceBoundReport(
        lhs_mc=lhs,
        stderr=stderr,
        rhs=rhs,
        passed=lhs <= rhs + 3.0 * stderr,
        inputs={"k": k, "beta": beta, "n_mc": n_mc, "v0": v0_record},
    )


def check_schedule_constraint(T_range, L: float) -> ScheduleReport:
    """Verify beta >= 2 L^2 eta^2 / (1 - L eta), to within 1e-12, for every
    horizon in ``T_range`` (1-D, integers >= 1; L positive and finite).

    The whole range is evaluated at once by the formula
    :func:`~vrprox.optimizer.schedule_from_T` uses; the report keeps every
    margin.
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
    pairs = [(T, float(m)) for T, m in summary]
    for T, _ in pairs:
        _check_count("horizon T", T)
    Ts = np.array([T for T, _ in pairs], dtype=float)
    means = np.array([m for _, m in pairs], dtype=float)
    if np.unique(Ts).size < 3:
        raise ValueError("rate fit needs at least three distinct horizons")
    if not np.all((means > 0) & np.isfinite(means)):
        raise ValueError("rate fit needs positive finite means")
    return float(np.polyfit(np.log(Ts + 1.0), np.log(means), 1)[0])

"""Gradient-direction recursions for the single-loop optimizer.

The central update blends the recursive gradient-difference estimator with a
fresh stochastic gradient evaluated at the *same* sample:

    v_t = grad f_xi(x_t) + (1 - beta) * [v_{t-1} - grad f_xi(x_{t-1})]

which costs two sample-gradient evaluations per step.  The same family yields
the baselines:

* ``beta = 0``  -- plain recursive (SARAH) estimator,
* ``beta = 1``  -- the recursion collapses to the fresh gradient (plain SGD),
* hybrid        -- the fresh gradient uses an independent second sample,
  v_t = (1 - beta) * [v_{t-1} + grad f_xi(x_t) - grad f_xi(x_{t-1})]
        + beta * grad f_zeta(x_t), three evaluations per step.

One private helper forms the direction of every kind.  The public updates
wrap it in immutable states: every update returns a new state carrying the
direction, the previous iterate the recursion needs, and the step counter.
Updates accept a single sample id or a small id batch (whose mean gradient
plays the role of one sample).  The optimizer's loop calls the helper
directly on plain arrays, after validating its inputs once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracle import (
    ProblemInstance,
    draw_sample_ids,
    full_gradient,
    minibatch_gradient,
    sample_gradient,
)

MOMENTUM_SARAH = "momentum_sarah"
HYBRID_SARAH = "hybrid_sarah"
SARAH = "sarah"
SGD = "sgd"
KINDS = (MOMENTUM_SARAH, HYBRID_SARAH, SARAH, SGD)

# Evaluations one update costs per sample id, by kind.
EVALS_PER_STEP = {MOMENTUM_SARAH: 2, SARAH: 2, HYBRID_SARAH: 3, SGD: 1}


@dataclass(frozen=True)
class EstimatorState:
    """Direction v_t, the iterate it was formed against, and the step count."""

    v: np.ndarray
    x_prev: np.ndarray
    t: int
    kind: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}; expected one of {KINDS}")
        if self.v.shape != self.x_prev.shape:
            raise ValueError("direction and iterate dimensions differ")


def _check_beta(beta: float) -> float:
    # Guaranteed-schedule runs use beta in (0, 1); the endpoints are admitted
    # as the SARAH (beta = 0) and SGD (beta = 1) degenerations.
    beta = float(beta)
    if not (0.0 <= beta <= 1.0):
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    return beta


def _grad_at(prob: ProblemInstance, x: np.ndarray, sample) -> np.ndarray:
    if np.ndim(sample) == 0:
        return sample_gradient(prob, x, int(sample))
    return minibatch_gradient(prob, x, sample)


def init_estimator(
    prob: ProblemInstance, x0: np.ndarray, b_tilde: int, rng, kind: str = MOMENTUM_SARAH
) -> EstimatorState:
    """Unbiased initial direction from a mini-batch of ``b_tilde`` samples.

    Finite-sum batches are drawn uniformly without replacement, so
    ``b_tilde = n`` gives the exact full gradient.
    """
    b_tilde = int(b_tilde)
    if b_tilde < 1:
        raise ValueError(f"initial batch size must be >= 1, got {b_tilde}")
    x0 = np.asarray(x0, dtype=float)
    ids = draw_sample_ids(prob, b_tilde, rng)
    return EstimatorState(v=minibatch_gradient(prob, x0, ids), x_prev=x0, t=0, kind=kind)


def _recursion(grad, prob, kind, v, x_prev, x_curr, xi, zeta, beta) -> np.ndarray:
    """The direction v_t of every kind, from v_{t-1} formed at ``x_prev``.

    ``grad(prob, x, sample)`` evaluates one sample (or batch) gradient; the
    same-sample kinds evaluate ``xi`` at both points, the hybrid adds ``zeta``
    at ``x_curr``, plain SGD evaluates ``xi`` at ``x_curr`` only.  No input
    checks: the public updates and the optimizer validate up front.
    """
    if kind == SGD:
        return grad(prob, x_curr, xi)
    g_curr = grad(prob, x_curr, xi)
    g_prev = grad(prob, x_prev, xi)
    if kind == HYBRID_SARAH:
        g_zeta = grad(prob, x_curr, zeta)
        if beta == 1.0:
            return g_zeta
        return (1.0 - beta) * (v + g_curr - g_prev) + beta * g_zeta
    if beta == 1.0:
        return g_curr
    return g_curr + (1.0 - beta) * (v - g_prev)


def _next_state(state, x_curr, prob, xi, zeta=None, beta=None) -> EstimatorState:
    x_curr = np.asarray(x_curr, dtype=float)
    v_new = _recursion(_grad_at, prob, state.kind, state.v, state.x_prev, x_curr, xi, zeta, beta)
    return EstimatorState(v=v_new, x_prev=x_curr, t=state.t + 1, kind=state.kind)


def update_momentum_sarah(
    state: EstimatorState, x_curr: np.ndarray, sample, beta: float, prob: ProblemInstance
) -> EstimatorState:
    """One step of the same-sample recursion (two evaluations, same sample).

    ``beta = 1`` returns the fresh gradient exactly (bitwise independent of
    the incoming direction); ``beta = 0`` is the plain recursive estimator.
    """
    if state.kind not in (MOMENTUM_SARAH, SARAH):
        raise ValueError(f"state kind {state.kind!r} does not use the same-sample recursion")
    return _next_state(state, x_curr, prob, sample, beta=_check_beta(beta))


def update_hybrid_sarah(
    state: EstimatorState,
    x_curr: np.ndarray,
    sample_xi,
    sample_zeta,
    beta: float,
    prob: ProblemInstance,
) -> EstimatorState:
    """One step of the two-sample hybrid recursion (three evaluations).

    ``sample_xi`` drives the gradient difference, ``sample_zeta`` the fresh
    unbiased term; the two are drawn independently by the caller.
    """
    if state.kind != HYBRID_SARAH:
        raise ValueError(f"state kind {state.kind!r} does not use the two-sample recursion")
    return _next_state(state, x_curr, prob, sample_xi, sample_zeta, _check_beta(beta))


def update_sgd(
    state: EstimatorState, x_curr: np.ndarray, sample, prob: ProblemInstance
) -> EstimatorState:
    """Plain stochastic gradient direction (one evaluation)."""
    if state.kind != SGD:
        raise ValueError(f"state kind {state.kind!r} is not the plain-gradient baseline")
    return _next_state(state, x_curr, prob, sample)


def estimator_error(
    state: EstimatorState, x_curr: np.ndarray, prob: ProblemInstance
) -> float:
    """Squared deviation ||v - grad f(x)||^2 of the direction from the exact gradient."""
    diff = state.v - full_gradient(prob, x_curr)
    return float(diff @ diff)

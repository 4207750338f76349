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

One private helper forms the direction of every kind on plain arrays;
:func:`vrprox.optimizer.run` validates its inputs once and is the public way
to advance the recursion.
"""

from __future__ import annotations

import numpy as np

from .oracle import ProblemInstance, _check_generator, draw_sample_ids, minibatch_gradient

MOMENTUM_SARAH = "momentum_sarah"
HYBRID_SARAH = "hybrid_sarah"
SARAH = "sarah"
SGD = "sgd"
KINDS = (MOMENTUM_SARAH, HYBRID_SARAH, SARAH, SGD)

# Evaluations one update costs per sample id, by kind.
EVALS_PER_STEP = {MOMENTUM_SARAH: 2, SARAH: 2, HYBRID_SARAH: 3, SGD: 1}


def init_estimator(prob: ProblemInstance, x0: np.ndarray, b_tilde: int, rng) -> np.ndarray:
    """Unbiased initial direction from a mini-batch of ``b_tilde`` samples.

    Finite-sum batches are drawn uniformly without replacement, so
    ``b_tilde = n`` gives the exact full gradient.  ``rng`` is a numpy
    ``Generator``; anything else is a ``TypeError``.
    """
    _check_generator(rng)
    return minibatch_gradient(prob, x0, draw_sample_ids(prob, b_tilde, rng))


def _recursion(grad, prob, kind, v, x_prev, x_curr, xi, zeta, beta) -> np.ndarray:
    """The direction v_t of every kind, from v_{t-1} formed at ``x_prev``.

    ``grad(prob, x, sample)`` evaluates one sample (or batch) gradient; the
    same-sample kinds evaluate ``xi`` at both points, the hybrid adds ``zeta``
    at ``x_curr``, plain SGD evaluates ``xi`` at ``x_curr`` only.  No input
    checks: the callers validate up front.  It is the one copy of the
    recursion: :func:`vrprox.optimizer.run` steps it on sample gradients,
    the suite's degenerate check on mini-batch means, and both variance
    checks of :mod:`vrprox.validation` on (k, n, dim) stacks of k tuples'
    component-gradient tables of every sample id, which ``grad`` returns as
    passed in place of the points.

    The recursions work in place on their first fresh difference
    ``v - g_prev`` or ``v + g_curr``, which has the shape of both sample
    terms since they share ids; the hybrid's ``zeta`` must give that shape
    too.  No input is written and the result is never one of them.

    ``beta`` is a float, or for the same-sample kinds an array of weights
    that broadcasts against the sample terms, one per stacked tuple, which
    the variance checks pass to step many tuples at once; each tuple then
    has the bits of a float ``beta``.
    """
    if kind == SGD:
        return grad(prob, x_curr, xi)
    g_curr = grad(prob, x_curr, xi)
    g_prev = grad(prob, x_prev, xi)
    if kind == HYBRID_SARAH:
        g_zeta = grad(prob, x_curr, zeta)
        if beta == 1.0:
            return g_zeta
        d = v + g_curr
        d -= g_prev
        d *= 1.0 - beta
        d += beta * g_zeta
        return d
    column = type(beta) is np.ndarray
    if not column and beta == 1.0:
        return g_curr
    d = v - g_prev
    d *= 1.0 - beta
    np.add(g_curr, d, out=d)
    if column:
        # A row with beta = 1 is its fresh gradient, as the scalar branch
        # returns it; copying where no weight is 1 would cost a full pass.
        ones = beta == 1.0
        if ones.any():
            np.copyto(d, g_curr, where=ones)
    return d

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

from .oracle import ProblemInstance, _check_generator, _operand, draw_sample_ids, minibatch_gradient

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


def _weights(beta):
    """The weights (1 - beta, beta) of :func:`_recursion`, resolved once.

    A float ``beta`` of 1 gives None: the direction is then the fresh
    gradient itself.  Any other float gives both weights as 0-d float64
    arrays (see ``oracle._operand``) and no unit rows.  An array of weights,
    one per stacked tuple and broadcasting against the sample terms, gives
    the arrays ``1 - beta`` and ``beta`` and the mask of its entries equal to
    1, or None where there are none; each tuple then has the bits of its
    float weight.
    """
    if type(beta) is not np.ndarray:
        if beta == 1.0:
            return None
        return _operand(1.0 - beta), _operand(beta), None
    ones = beta == 1.0
    return 1.0 - beta, beta, ones if ones.any() else None


def _recursion(grad, prob, kind, v, x_prev, x_curr, xi, zeta, weights) -> np.ndarray:
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

    ``weights`` is :func:`_weights` of the run's ``beta``, resolved once by
    the caller: a float weight becomes a 0-d float64 operand, never a Python
    float per step, and an array of weights steps many tuples at once, the
    variance checks' beta column.  Every operand keeps the order of the
    plain formula, so a lane where both operands are NaN gives the plain
    formula's NaN: numpy returns the first operand's.
    """
    if kind == SGD:
        return grad(prob, x_curr, xi)
    g_curr = grad(prob, x_curr, xi)
    g_prev = grad(prob, x_prev, xi)
    if kind == HYBRID_SARAH:
        g_zeta = grad(prob, x_curr, zeta)
        if weights is None:
            return g_zeta
        keep, fresh, ones = weights
        d = v + g_curr
        d -= g_prev
        d *= keep
        d += fresh * g_zeta
        if ones is not None:
            np.copyto(d, g_zeta, where=ones)
        return d
    if weights is None:
        return g_curr
    keep, _, ones = weights
    d = v - g_prev
    d *= keep
    # g_curr + d written into d, positionally: the keyword form costs more.
    np.add(g_curr, d, d)
    if ones is not None:
        # A row with beta = 1 is its fresh gradient, as the float weight
        # returns it; copying where no weight is 1 would cost a full pass.
        np.copyto(d, g_curr, where=ones)
    return d

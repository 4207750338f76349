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

``_recursion`` forms every kind's direction from sample gradients its caller
evaluated; :func:`vrprox.optimizer.run`, which makes a step's sample calls and
validates its inputs once, is the public way to advance the recursion.
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


def _recursion(kind, v, g_curr, g_prev, g_zeta, weights) -> np.ndarray:
    """The direction v_t of every kind from v_{t-1} and the sample gradients
    its caller evaluated and checked: ``g_curr`` of sample xi at x_t,
    ``g_prev`` of xi at x_{t-1} and the hybrid's ``g_zeta`` of its second
    sample at x_t; one the kind does not read may be None (SGD reads only
    ``g_curr``).  It is the one copy of the recursion: ``optimizer.run``
    steps it on sample gradients, the suite's degenerate check on mini-batch
    means, and both variance checks of :mod:`vrprox.validation` on (k, n, dim)
    stacks of k tuples' component-gradient tables of every sample id.

    The recursions work in place on their first fresh difference
    ``v - g_prev`` or ``v + g_curr``, which has the shape of both sample
    terms, as ``g_zeta`` must.  No input is written.  The result is a fresh
    array, except that SGD and a float weight of 1 return the ``g_curr``
    (the hybrid's ``g_zeta``) passed in, which the caller holds nowhere else.

    ``weights`` is :func:`_weights` of the run's ``beta``, resolved once by
    the caller: a float weight becomes a 0-d float64 operand, never a Python
    float per step, and an array of weights steps many tuples at once, the
    variance checks' beta column.  Every operand keeps the order of the
    plain formula, so a lane where both operands are NaN gives the plain
    formula's NaN: numpy returns the first operand's.
    """
    if kind == SGD:
        return g_curr
    if kind == HYBRID_SARAH:
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

"""Single-loop variance-reduced proximal gradient method.

One run minimizes F(x) = f(x) + psi(x) by iterating

    x_{t+1} = prox_{eta * psi}(x_t - eta * v_t),

where v_t is one of the direction recursions in :mod:`vrprox.estimators`,
initialized from a mini-batch of size b_tilde.  The T-step parameter schedule

    eta = 1 / (2 L (T+1)^{1/3}),   beta = 1 / (T+1)^{2/3},
    b_tilde = ceil((T+1)^{1/3} / 2)

drives the average squared gradient-mapping norm to O((T+1)^{-2/3}) at a cost
of b_tilde + 2T sample-gradient evaluations (same-sample recursion), and it
always satisfies the step/weight compatibility constraint
beta >= 2 L^2 eta^2 / (1 - L eta).

Stationarity is measured by the gradient mapping

    G_eta(x) = (x - prox_{eta * psi}(x - eta * grad f(x))) / eta,

which vanishes exactly at stationary points of F.  The run returns the
uniformly selected output iterate (drawn up front) plus optional
per-iteration diagnostics computed from exact full gradients; diagnostic
evaluations are counted separately and never enter the oracle-call tally.

The loop runs in blocks of ``BLOCK`` steps.  Each step does only the
recursion, the guarded prox step and, with diagnostics on, one exact
``full_gradient`` at its iterate plus the problem's ``mean_value`` at the
array that call has just checked; the block's sample ids are drawn in one
call before it, and its diagnostics and step norms are computed after it
with row-wise operations on the stacked iterates.  ``sample_gradient`` and
``full_gradient`` stay checked oracle calls inside the loop: the traced
benchmark counts one span of each per evaluation and per iterate.  A run
holds O(BLOCK * p) memory whatever T is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import (
    EVALS_PER_STEP,
    HYBRID_SARAH,
    KINDS,
    MOMENTUM_SARAH,
    SARAH,
    _recursion,
    init_estimator,
)
from .oracle import (
    ProblemInstance,
    _check_count,
    _check_positive_finite,
    _is_integer,
    draw_step_ids,
    full_gradient,
    sample_gradient,
)
from .prox import (
    BoxIndicator,
    PsiSpec,
    add_psi,
    is_psi_infinite,
    prox,
    prox_operator,
    psi_evaluator,
    psi_value,
)

# Iterates beyond this norm abort the run; a misconfigured step size must fail
# loudly instead of emitting garbage traces.
MAX_ITERATE_NORM = 1e12

# Steps per block: ids are drawn, and diagnostics and step norms computed,
# once per block, which bounds the memory a run holds to O(BLOCK * p).
BLOCK = 256


class DivergenceError(RuntimeError):
    """Raised when an iterate leaves the finite range the run can trust."""

    def __init__(self, t: int, norm: float):
        super().__init__(f"iterate diverged at t={t} (||x_t|| = {norm:.6g})")
        self.t = t
        self.norm = norm


@dataclass(frozen=True)
class HyperParams:
    """Constant step size, estimator weight, initial batch and horizon of one run."""

    eta: float
    beta: float
    b_tilde: int
    T: int

    def __post_init__(self):
        _check_positive_finite("eta", self.eta)
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        _check_count("b_tilde", self.b_tilde)
        _check_count("T", self.T)


def _eta_beta(T, L: float):
    """The schedule's step size and weight, eta = 1 / (2 L c) and
    beta = 1 / c^2 with c = (T+1)^{1/3}, for one horizon or an array of them;
    tests pin that both give the same bits."""
    c = np.cbrt(T + 1.0)
    return 1.0 / (2.0 * L * c), 1.0 / (c * c)


def schedule_from_T(T: int, L: float) -> HyperParams:
    """Horizon-indexed schedule: eta, beta and b_tilde as cube-root powers of T+1.

    The initial batch size is resolved in exact integer arithmetic
    (ceil((T+1)^{1/3} / 2) equals the least m with 8 m^3 >= T+1), so float
    cube roots can never misround it at perfect cubes.
    """
    _check_count("T", T)
    T = int(T)
    _check_positive_finite("L", L)
    eta, beta = _eta_beta(T, L)
    m = max(int(np.ceil(np.cbrt((T + 1) / 8.0))), 1)
    while 8 * m**3 < T + 1:
        m += 1
    while m > 1 and 8 * (m - 1) ** 3 >= T + 1:
        m -= 1
    return HyperParams(eta=float(eta), beta=float(beta), b_tilde=m, T=T)


def gradient_mapping(
    prob: ProblemInstance, psi: PsiSpec, x: np.ndarray, eta: float
) -> np.ndarray:
    """G_eta(x) = (x - prox_{eta psi}(x - eta grad f(x))) / eta."""
    _check_positive_finite("eta", eta)
    x = np.asarray(x, dtype=float)
    g = full_gradient(prob, x)
    return (x - prox(psi, x - eta * g, eta)) / eta


@dataclass
class RunTrace:
    """Per-iteration diagnostics and the uniformly selected output iterate.

    ``oracle_calls`` counts only algorithmic sample-gradient evaluations
    (b_tilde + 2T for the same-sample recursion, b_tilde + 3T for the hybrid,
    b_tilde + T for plain SGD, at unit batch size); the full gradients spent
    on diagnostics are tallied in ``diagnostic_full_gradients``.  Diagnostic
    arrays have length T+1 (entries t = 0..T) and are None when diagnostics
    were off; ``step_sq[t] = ||x_{t+1} - x_t||^2`` is always recorded.
    """

    T: int
    kind: str
    seed: int
    output_index: int
    output_x: np.ndarray
    oracle_calls: int
    diagnostic_full_gradients: int
    step_sq: np.ndarray
    grad_map_sq: np.ndarray | None
    obj: np.ndarray | None
    est_err_sq: np.ndarray | None


def mean_grad_map_sq(trace: RunTrace) -> float:
    """Average of ||G_eta(x_t)||^2 over t = 0..T (the quantity the output
    iterate's expectation equals under uniform selection)."""
    if trace.grad_map_sq is None:
        raise ValueError("trace carries no diagnostics")
    return float(np.mean(trace.grad_map_sq))


def _check_finite(x: np.ndarray, t: int) -> None:
    finite = np.isfinite(x)
    if not finite.all():
        raise DivergenceError(t, float(np.max(np.abs(x[finite]), initial=0.0)))


def _guard(x: np.ndarray, t: int) -> None:
    # sqrt(x . x) is np.linalg.norm(x) bit for bit; NaN, infinity and overflow
    # all fail the comparison and fall through to the reporting path.
    norm = math.sqrt(x.dot(x))
    if norm <= MAX_ITERATE_NORM:
        return
    _check_finite(x, t)
    raise DivergenceError(t, norm)


def run(
    prob: ProblemInstance,
    psi: PsiSpec,
    hp: HyperParams,
    rng,
    diagnostics: bool = True,
    kind: str = MOMENTUM_SARAH,
    x0: np.ndarray | None = None,
) -> RunTrace:
    """Execute one T-step run and return its trace.

    ``rng`` is the run's integer seed (recorded in the trace; the same seed
    reruns bit for bit), anything else is a ``TypeError``.  ``kind`` selects the
    direction recursion; ``sarah`` runs the same-sample recursion with weight
    0 regardless of ``hp.beta``, and ``sgd`` ignores the weight entirely.
    Every evaluation uses a single sample, which is what the schedule assumes.
    The run starts at ``x0``, the origin unless given.  An iterate or step
    that leaves the finite range raises :class:`DivergenceError`.

    The inputs are validated once, here; the loop then runs on plain arrays
    with operators resolved up front, and draws from the seeded generator
    exactly as the public oracle functions would.  Diagnostics come from one
    exact ``full_gradient`` per iterate and the problem's ``mean_value`` at
    the iterate that call has just checked, and are reduced a block of
    ``BLOCK`` iterates at a time, so memory stays O(BLOCK * p) whatever T is;
    the traces have the bits of a per-step computation.  The loop's
    ``sample_gradient`` and ``full_gradient`` calls stay checked, one per
    evaluation and one per iterate, because the traced benchmark counts them.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown estimator kind {kind!r}; expected one of {KINDS}")
    if not _is_integer(rng):
        raise TypeError(f"rng must be an integer seed, got {rng!r}")
    seed = int(rng)
    rng = np.random.Generator(np.random.PCG64(seed))

    x = np.zeros(prob.dim) if x0 is None else np.asarray(x0, dtype=float).copy()
    if x.shape != (prob.dim,) or not np.all(np.isfinite(x)):
        raise ValueError("x0 must be a finite point of the problem dimension")
    if is_psi_infinite(psi_value(psi, x)):
        raise ValueError("x0 lies outside the domain of the regularizer")

    T, eta = hp.T, hp.eta
    v = init_estimator(prob, x, hp.b_tilde, rng)
    output_index = int(rng.integers(0, T + 1))
    beta = 0.0 if kind == SARAH else hp.beta
    hybrid = kind == HYBRID_SARAH
    ids_per_step = 2 if hybrid else 1
    prox_eta = prox_operator(psi, eta)
    psi_at = psi_evaluator(psi)
    # The box prox clamps an infinite step onto its face; check its input.
    clamps = isinstance(psi, BoxIndicator)

    step_sq = np.empty(T + 1)
    if diagnostics:
        grad_map_sq = np.empty(T + 1)
        obj = np.empty(T + 1)
        est_err_sq = np.empty(T + 1)
    else:
        grad_map_sq = obj = est_err_sq = None

    x_prev = x
    for start in range(0, T + 1, BLOCK):
        stop = min(start + BLOCK, T + 1)
        # One draw for the block's steps (t >= 1), xi and zeta interleaved.
        first = max(start, 1)
        next_id = iter(
            draw_step_ids(prob, ids_per_step * (stop - first), rng).tolist()
        ).__next__
        # x_start..x_stop and, with diagnostics, v_t, grad f(x_t) and f(x_t),
        # kept by reference: nothing writes into them in place.
        xs, vs, gs, fs = [x], [], [], []
        for t in range(start, stop):
            # On entry x is x_t and x_prev is x_{t-1}; v becomes v_t here
            # (v_0 is the initial batch's direction).
            if t:
                xi = next_id()
                zeta = next_id() if hybrid else None
                v = _recursion(sample_gradient, prob, kind, v, x_prev, x, xi, zeta, beta)
            if diagnostics:
                vs.append(v)
                gs.append(full_gradient(prob, x))
                # f(x_t) at the array full_gradient has just checked.
                fs.append(prob.mean_value(x))
            # x_{t+1} = prox(x_t - eta v_t), guarded.
            z = x - eta * v
            x_next = prox_eta(z)
            _guard(x_next, t + 1)
            if clamps:
                _check_finite(z, t + 1)
            x_prev, x = x, x_next
            xs.append(x)

        if start <= output_index < stop:
            output_x = xs[output_index - start]
        X = np.array(xs)
        D = X[1:] - X[:-1]
        step_sq[start:stop] = np.vecdot(D, D)
        if diagnostics:
            X = X[:-1]
            G = np.array(gs)
            M = (X - prox_eta(X - eta * G)) / eta
            grad_map_sq[start:stop] = np.vecdot(M, M)
            obj[start:stop] = add_psi(np.array(fs), psi_at(X))
            E = np.array(vs) - G
            est_err_sq[start:stop] = np.vecdot(E, E)

    return RunTrace(
        T=T,
        kind=kind,
        seed=seed,
        output_index=output_index,
        output_x=output_x,
        oracle_calls=hp.b_tilde + EVALS_PER_STEP[kind] * T,
        diagnostic_full_gradients=T + 1 if diagnostics else 0,
        step_sq=step_sq,
        grad_map_sq=grad_map_sq,
        obj=obj,
        est_err_sq=est_err_sq,
    )

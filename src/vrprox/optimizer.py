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

The loop runs in blocks of ``BLOCK`` steps.  A step's budget: two checked
``sample_gradient`` calls and three array operations for the recursion (three
and five for the hybrid, one call for SGD), with diagnostics one checked
``full_gradient`` and ``mean_value`` at the array it has just checked, then
z = v * (-eta) + x in one temporary, the prox and the guard's dot product.
Ids are drawn once per block; diagnostics and step norms are reduced after it.
The checks cost more than the gradients they guard but stay until the seeds
run in lockstep: the traced benchmark counts one span of each call per
evaluation and per iterate.  A run holds O(BLOCK * p) memory whatever T is.
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
    _weights,
    init_estimator,
)
from .oracle import (
    ProblemInstance,
    _check_count,
    _check_point,
    _check_positive_finite,
    _is_integer,
    _is_real,
    _finite_array,
    _generator,
    _operand,
    draw_step_ids,
    full_gradient,
    sample_gradient,
)
from .prox import (
    BoxIndicator,
    PsiSpec,
    prox,
    prox_operator,
    psi_value,
)

# Iterates beyond this norm, times the data's scale (see _guard_limit), abort
# the run; a misconfigured step size must fail loudly instead of emitting
# garbage traces.
MAX_ITERATE_NORM = 1e12

# Largest horizon: beyond 2**53 the schedule's T + 1.0 is no longer exact.
MAX_HORIZON = 2**53 - 1

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
        if not (_is_real(self.beta) and 0.0 <= self.beta <= 1.0):
            raise ValueError(f"beta must lie in [0, 1], got {self.beta!r}")
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
    cube roots can never misround it at perfect cubes.  ``T`` is at most
    ``MAX_HORIZON``.
    """
    _check_count("T", T)
    T = int(T)
    if T > MAX_HORIZON:
        raise ValueError(f"T must be <= {MAX_HORIZON}, got {T}")
    _check_positive_finite("L", L)
    # A tiny L overflows eta to inf, which HyperParams refuses by name.
    with np.errstate(over="ignore"):
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
    x = _check_point(prob, x)
    return (x - prox(psi, x - eta * prob.mean_grad(x), eta)) / eta


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
    if not isinstance(trace, RunTrace):
        raise TypeError(f"trace must be a RunTrace, got {trace!r}")
    if trace.grad_map_sq is None:
        raise ValueError("trace carries no diagnostics")
    return float(np.mean(trace.grad_map_sq))


def _check_finite(x: np.ndarray, t: int) -> None:
    finite = np.isfinite(x)
    if not finite.all():
        raise DivergenceError(t, float(np.max(np.abs(x[finite]), initial=0.0)))


def _guard_limit(prob: ProblemInstance) -> float:
    """The largest iterate norm a run on ``prob`` trusts: MAX_ITERATE_NORM
    up to the default sampling radius 10, in proportion to a larger radius
    (the quadratic's is 10 times its largest center entry), so that whether
    a run diverges does not depend on the data's units; and at most
    sqrt(float max) / MAX_ITERATE_NORM, so the traces' squares stay finite."""
    scaled = MAX_ITERATE_NORM * max(1.0, prob.sampling_radius / 10.0)
    return min(math.sqrt(np.finfo(float).max) / MAX_ITERATE_NORM, scaled)


def _guard(x: np.ndarray, t: int, limit: float) -> None:
    # sqrt(x . x) is np.linalg.norm(x) bit for bit; NaN, infinity and overflow
    # all fail the comparison and fall through to the reporting path.
    norm = math.sqrt(x.dot(x))
    if norm <= limit:
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

    ``hp`` is a :class:`HyperParams` and ``rng`` the run's integer seed
    (recorded in the trace; the same seed reruns bit for bit); anything else
    is a ``TypeError``.  ``kind`` selects the direction recursion; ``sarah``
    runs the same-sample recursion with weight 0 regardless of ``hp.beta``,
    and ``sgd`` ignores the weight entirely.
    Every evaluation uses a single sample, which is what the schedule assumes.
    The run starts at ``x0``, the origin unless given.  An iterate or step
    that leaves the finite range raises :class:`DivergenceError`.

    The inputs are validated once, here; the loop then runs on plain arrays
    with operators resolved up front, and draws from the seeded generator
    exactly as the public oracle functions would.  Every scalar operand of an
    array op in the loop (the step -eta, the recursion's weights, the prox's
    threshold and shrink factor) is a 0-d float64 array resolved here or by
    its operator, never a Python float per step: numpy 2 takes a slower
    weak-scalar path for those, with the same bits.  Diagnostics come from one
    exact ``full_gradient`` per iterate and the problem's ``mean_value`` at
    the iterate that call has just checked, and are reduced a block of
    ``BLOCK`` iterates at a time, so memory stays O(BLOCK * p) whatever T is;
    the traces have the bits of a per-step computation.  The loop's
    ``sample_gradient`` and ``full_gradient`` calls stay checked, one per
    evaluation and one per iterate, because the traced benchmark counts them.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown estimator kind {kind!r}; expected one of {KINDS}")
    if not isinstance(hp, HyperParams):
        raise TypeError(f"hp must be a HyperParams, got {hp!r}")
    if not _is_integer(rng):
        raise TypeError(f"rng must be an integer seed, got {rng!r}")
    seed = int(rng)
    rng = _generator(seed)

    x = np.zeros(prob.dim) if x0 is None else _finite_array("x0", x0, (prob.dim,)).copy()
    if math.isinf(psi_value(psi, x)):
        raise ValueError("x0 lies outside the domain of the regularizer")

    T, eta = hp.T, hp.eta
    v = init_estimator(prob, x, hp.b_tilde, rng)
    output_index = int(rng.integers(0, T + 1))
    weights = _weights(0.0 if kind == SARAH else hp.beta)
    hybrid = kind == HYBRID_SARAH
    ids_per_step = 2 if hybrid else 1
    prox_eta = prox_operator(psi, eta)
    limit = _guard_limit(prob)
    # The box prox clamps an infinite step onto its face; check its input.
    clamps = isinstance(psi, BoxIndicator)

    step_sq = np.empty(T + 1)
    if diagnostics:
        grad_map_sq = np.empty(T + 1)
        obj = np.empty(T + 1)
        est_err_sq = np.empty(T + 1)
    else:
        grad_map_sq = obj = est_err_sq = None

    neg_eta = _operand(-eta)
    mean_value = prob.mean_value
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
        add_x, add_v, add_g, add_f = xs.append, vs.append, gs.append, fs.append
        for t in range(start, stop):
            # On entry x is x_t and x_prev is x_{t-1}; v becomes v_t here
            # (v_0 is the initial batch's direction).
            if t:
                xi = next_id()
                zeta = next_id() if hybrid else None
                v = _recursion(sample_gradient, prob, kind, v, x_prev, x, xi, zeta, weights)
            if diagnostics:
                add_v(v)
                add_g(full_gradient(prob, x))
                # f(x_t) at the array full_gradient has just checked.
                add_f(mean_value(x))
            # x_{t+1} = prox(x_t - eta v_t), guarded; v * -eta + x has the
            # bits of x - eta * v, with one temporary.
            z = v * neg_eta
            z += x
            x_next = prox_eta(z)
            if not math.sqrt(x_next.dot(x_next)) <= limit:
                _guard(x_next, t + 1, limit)
            if clamps:
                _check_finite(z, t + 1)
            x_prev, x = x, x_next
            add_x(x)

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
            obj[start:stop] = np.array(fs) + psi_value(psi, X)
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

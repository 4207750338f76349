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
uniformly selected output iterate (drawn up front, captured in O(p) memory)
plus optional per-iteration diagnostics computed from exact full gradients;
diagnostic evaluations are counted separately and never enter the oracle-call
tally.
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
    DiagnosticUnsupportedError,
    ProblemInstance,
    full_gradient,
    full_value,
    sample_gradient,
    sample_id_sampler,
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


class DivergenceError(RuntimeError):
    """Raised when an iterate leaves the finite range the run can trust."""

    def __init__(self, t: int, norm: float):
        super().__init__(f"iterate diverged at t={t} (||x_t|| = {norm:.6g})")
        self.t = t
        self.norm = norm


@dataclass(frozen=True)
class HyperParams:
    """Step size, estimator weight, initial batch and horizon of one run.

    ``eta0`` is the step used for the very first update (the schedule keeps a
    single constant step, eta0 = eta).
    """

    eta: float
    beta: float
    b_tilde: int
    T: int
    eta0: float

    def __post_init__(self):
        if not (self.eta > 0 and np.isfinite(self.eta)):
            raise ValueError(f"eta must be a positive finite scalar, got {self.eta}")
        if not (self.eta0 > 0 and np.isfinite(self.eta0)):
            raise ValueError(f"eta0 must be a positive finite scalar, got {self.eta0}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        if self.b_tilde < 1:
            raise ValueError(f"b_tilde must be >= 1, got {self.b_tilde}")
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")


def schedule_from_T(T: int, L: float) -> HyperParams:
    """Horizon-indexed schedule: eta, beta and b_tilde as cube-root powers of T+1.

    The initial batch size is resolved in exact integer arithmetic
    (ceil((T+1)^{1/3} / 2) equals the least m with 8 m^3 >= T+1), so float
    cube roots can never misround it at perfect cubes.
    """
    T = int(T)
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if not (L > 0 and np.isfinite(L)):
        raise ValueError(f"L must be a positive finite scalar, got {L}")
    c = float(np.cbrt(T + 1.0))
    eta = 1.0 / (2.0 * L * c)
    beta = 1.0 / (c * c)
    m = max(int(np.ceil(np.cbrt((T + 1) / 8.0))), 1)
    while 8 * m**3 < T + 1:
        m += 1
    while m > 1 and 8 * (m - 1) ** 3 >= T + 1:
        m -= 1
    return HyperParams(eta=eta, beta=beta, b_tilde=m, T=T, eta0=eta)


def gradient_mapping(
    prob: ProblemInstance, psi: PsiSpec, x: np.ndarray, eta: float
) -> np.ndarray:
    """G_eta(x) = (x - prox_{eta psi}(x - eta grad f(x))) / eta; finite-sum only."""
    if not (eta > 0 and np.isfinite(eta)):
        raise ValueError(f"eta must be a positive finite scalar, got {eta}")
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
    seed: int | None
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

    ``rng`` is a numpy Generator or an integer seed (an integer is recorded in
    the trace, which makes reruns bit-reproducible).  ``kind`` selects the
    direction recursion; ``sarah`` runs the same-sample recursion with weight
    0 regardless of ``hp.beta``, and ``sgd`` ignores the weight entirely.
    Every evaluation uses a single sample, which is what the schedule assumes.

    Diagnostics (stationarity, objective, estimator error per iteration)
    require a finite-sum instance; requesting them on a streaming one raises
    :class:`DiagnosticUnsupportedError`.  An iterate or step that leaves the
    finite range raises :class:`DivergenceError`.

    The inputs are validated once, here; the loop then runs on plain arrays
    with operators resolved up front, and draws from ``rng`` exactly as the
    public oracle and estimator functions would.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown estimator kind {kind!r}; expected one of {KINDS}")
    seed = None
    if isinstance(rng, (int, np.integer)):
        seed = int(rng)
        rng = np.random.Generator(np.random.PCG64(seed))
    if diagnostics and not prob.is_finite_sum:
        raise DiagnosticUnsupportedError(
            "per-iteration diagnostics need exact full gradients (finite-sum only); "
            "rerun with diagnostics off"
        )

    if x0 is None:
        x0 = prob.x0 if prob.x0 is not None else np.zeros(prob.dim)
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (prob.dim,) or not np.all(np.isfinite(x)):
        raise ValueError("x0 must be a finite point of the problem dimension")
    if is_psi_infinite(psi_value(psi, x)):
        raise ValueError("x0 lies outside the domain of the regularizer")

    T, eta = hp.T, hp.eta
    v = init_estimator(prob, x, hp.b_tilde, rng, kind=kind).v
    output_index = int(rng.integers(0, T + 1))
    draw = sample_id_sampler(prob, rng)
    beta = 0.0 if kind == SARAH else hp.beta
    hybrid = kind == HYBRID_SARAH
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

    def record(t: int, xt: np.ndarray, vt: np.ndarray) -> None:
        g = full_gradient(prob, xt)
        gm = (xt - prox_eta(xt - eta * g)) / eta
        grad_map_sq[t] = gm @ gm
        obj[t] = add_psi(full_value(prob, xt), psi_at(xt))
        dv = vt - g
        est_err_sq[t] = dv @ dv

    def step(t: int, xt: np.ndarray, vt: np.ndarray, tau: float, operator) -> np.ndarray:
        # x_{t+1} = prox(x_t - tau v_t), guarded; records ||x_{t+1} - x_t||^2.
        z = xt - tau * vt
        x_next = operator(z)
        _guard(x_next, t + 1)
        if clamps:
            _check_finite(z, t + 1)
        d = x_next - xt
        step_sq[t] = d @ d
        return x_next

    output_x = x.copy() if output_index == 0 else None
    if diagnostics:
        record(0, x, v)
    x_prev, x = x, step(0, x, v, hp.eta0, prox_operator(psi, hp.eta0))

    for t in range(1, T + 1):
        # Loop invariant: x is x_t, v is v_{t-1} formed at x_prev = x_{t-1}.
        xi = draw()
        zeta = draw() if hybrid else None
        v = _recursion(sample_gradient, prob, kind, v, x_prev, x, xi, zeta, beta)
        if t == output_index:
            output_x = x.copy()
        if diagnostics:
            record(t, x, v)
        x_prev, x = x, step(t, x, v, eta, prox_eta)

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

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every check asserts at its stated tolerance and runtime budget.
"""

import time

import numpy as np
import pytest

import vrprox as vp
from vrprox.estimators import HYBRID_SARAH, MOMENTUM_SARAH, SGD, _recursion, _weights
from vrprox.experiment import run_experiment, stationarity_bound_rhs
from vrprox.prox import BoxIndicator, ElasticNet, L1, Zero, prox
from vrprox.suite import _counting, central_difference_gradient
from vrprox.config import parse_config


def _report(num: int, name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {num}: {name} -- {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def test_criterion_1_variance_recursion_one_step():
    start = time.perf_counter()
    prob = vp.make_quadratic(50, 10, 1.0, seed=0)
    assert prob.lipschitz_L == 1.0
    rng = np.random.default_rng(2024)
    worst_slack = np.inf
    n_pass = 0
    for _ in range(1000):
        x_prev = rng.normal(0, 2, prob.dim)
        x_curr = x_prev + rng.normal(0, 1, prob.dim)
        v_prev = rng.normal(0, 3, prob.dim)
        beta = float(rng.uniform(0.01, 0.99))
        rep = vp.check_variance_recursion_step(prob, x_prev, x_curr, v_prev, beta)
        worst_slack = min(worst_slack, rep.rhs - rep.lhs)
        n_pass += rep.passed
    elapsed = time.perf_counter() - start
    _report(
        1,
        "one-step variance bound",
        n_pass == 1000 and worst_slack >= 0.0 and elapsed < 10.0,
        f"{n_pass}/1000 tuples, min slack {worst_slack:.3e}, {elapsed:.1f}s (< 10 s)",
    )


def test_criterion_2_variance_recursion_unrolled():
    start = time.perf_counter()
    prob = vp.make_quadratic(50, 10, 1.0, seed=0)
    rng = np.random.default_rng(77)
    n_pass = 0
    worst = np.inf
    for k in range(100):
        steps = rng.normal(0, 0.3, (9, prob.dim))
        traj = np.vstack([rng.normal(0, 1, prob.dim), steps]).cumsum(axis=0)
        beta = float(rng.uniform(0.05, 0.95))
        v0 = int(rng.integers(1, 11)) if k % 2 == 0 else rng.normal(0, 1, prob.dim)
        rep = vp.check_variance_recursion_unrolled(prob, traj, v0, beta)
        worst = min(worst, rep.rhs - rep.lhs)
        n_pass += rep.passed
    elapsed = time.perf_counter() - start
    _report(
        2,
        "unrolled variance bound (frozen trajectories)",
        n_pass == 100 and worst >= 0.0 and elapsed < 120.0,
        f"{n_pass}/100 trajectories (exact expectation), min slack {worst:.3e}, "
        f"{elapsed:.1f}s (< 2 min)",
    )


def test_criterion_3_schedule_constraint():
    start = time.perf_counter()
    horizon = range(1, 1_000_001)
    margins = {}
    all_pass = True
    for L in (0.1, 1.0, 10.0):
        rep = vp.check_schedule_constraint(horizon, L)
        all_pass &= rep.passed and rep.worst_margin >= 0.0
        margins[L] = rep.margins
    spread = max(
        float(np.max(np.abs(margins[0.1] - margins[1.0]))),
        float(np.max(np.abs(margins[10.0] - margins[1.0]))),
    )
    elapsed = time.perf_counter() - start
    _report(
        3,
        "schedule constraint for T = 1..10^6",
        all_pass and spread <= 1e-12 and elapsed < 5.0,
        f"margins >= 0 for all T and L, L-spread {spread:.1e} (<= 1e-12), "
        f"{elapsed:.1f}s (< 5 s)",
    )


def test_criterion_4_stationarity_bound():
    start = time.perf_counter()
    prob = vp.make_quadratic(100, 20, 1.0, seed=0)
    assert prob.lipschitz_L == 1.0 and prob.f_lower == 0.5 * prob.sigma_bound
    psi = Zero()
    T = 1000
    hp = vp.schedule_from_T(T, prob.lipschitz_L)
    means = np.array(
        [vp.mean_grad_map_sq(vp.run(prob, psi, hp, rng=seed)) for seed in range(20)]
    )
    se = float(means.std(ddof=1) / np.sqrt(means.size))
    bound = stationarity_bound_rhs(prob, psi, T)
    elapsed = time.perf_counter() - start
    _report(
        4,
        "a-priori stationarity bound at T=1000",
        means.mean() <= bound + 3 * se and elapsed < 60.0,
        f"seed mean {means.mean():.3e} <= bound {bound:.3e} + 3se ({se:.1e}), "
        f"{elapsed:.1f}s (< 1 min)",
    )


@pytest.mark.parametrize("key", ["sigmoid:200:10", "robust:200:10"])
def test_stationarity_bound_on_the_nonconvex_families(key):
    # The bound in the paper's own setting: a nonconvex f with psi != 0,
    # from the certified sigma^2 and f_lower.
    prob = vp.from_key(key, seed=0)
    psi = L1(lam=0.01)
    T = 1000
    hp = vp.schedule_from_T(T, prob.lipschitz_L)
    means = np.array(
        [vp.mean_grad_map_sq(vp.run(prob, psi, hp, rng=seed)) for seed in range(1000, 1020)]
    )
    se = float(means.std(ddof=1) / np.sqrt(means.size))
    bound = stationarity_bound_rhs(prob, psi, T)
    print(f"{key}: seed mean / bound = {means.mean() / bound:.3f}")
    assert means.mean() <= bound + 3 * se


def test_criterion_5_rate_exponent():
    start = time.perf_counter()
    prob = vp.make_quadratic(100, 20, 1.0, seed=0)
    psi = Zero()
    summary = []
    for T in (100, 1000, 10_000):
        hp = vp.schedule_from_T(T, prob.lipschitz_L)
        means = [vp.mean_grad_map_sq(vp.run(prob, psi, hp, rng=seed)) for seed in range(20)]
        summary.append((T, float(np.mean(means))))
    slope = vp.rate_slope(summary)
    elapsed = time.perf_counter() - start
    _report(
        5,
        "decay exponent over T in {10^2, 10^3, 10^4}",
        slope <= -0.5 and elapsed < 600.0,
        f"log-log slope {slope:.3f} (<= -0.5, theory -2/3), {elapsed:.1f}s (< 10 min)",
    )


def test_criterion_6_oracle_accounting():
    prob = vp.make_quadratic(40, 8, 1.0, seed=1)
    checked = []

    def counted_calls(hp, seed, kind):
        # The evaluations the run makes, counted, and the number it reports
        # must both equal the formula.
        counted, calls = _counting(prob)
        trace = vp.run(counted, Zero(), hp, rng=seed, kind=kind, diagnostics=False)
        return calls["grad"] if calls["grad"] == trace.oracle_calls else None

    for T in (37, 200):
        hp = vp.schedule_from_T(T, prob.lipschitz_L)
        checked.append(counted_calls(hp, 3, MOMENTUM_SARAH) == hp.b_tilde + 2 * T)
        checked.append(counted_calls(hp, 3, HYBRID_SARAH) == hp.b_tilde + 3 * T)
    hp = vp.HyperParams(eta=0.1, beta=0.4, b_tilde=9, T=55)
    checked.append(counted_calls(hp, 4, MOMENTUM_SARAH) == 9 + 110)
    checked.append(counted_calls(hp, 4, HYBRID_SARAH) == 9 + 165)
    _report(
        6,
        "oracle-call accounting",
        all(checked),
        "b+2T (same-sample) and b+3T (hybrid) exactly on auto and manual schedules",
    )


def test_criterion_7_degenerate_equivalences():
    prob = vp.make_quadratic(30, 6, 1.0, seed=2)
    # (a) beta = 1 same-sample recursion == plain SGD, bitwise, shared seed.
    hp = vp.HyperParams(eta=0.08, beta=1.0, b_tilde=3, T=100)
    sgd = vp.run(prob, Zero(), hp, rng=9, kind=SGD)
    mom = vp.run(prob, Zero(), hp, rng=9, kind=MOMENTUM_SARAH)
    bitwise = (
        np.array_equal(sgd.step_sq, mom.step_sq)
        and np.array_equal(sgd.grad_map_sq, mom.grad_map_sq)
        and np.array_equal(sgd.est_err_sq, mom.est_err_sq)
        and np.array_equal(sgd.output_x, mom.output_x)
    )
    # (b) beta = 0 telescoping identity.
    rng = np.random.default_rng(5)
    x = rng.normal(0, 1, prob.dim)
    v = v0 = vp.init_estimator(prob, x, 4, rng)
    total = np.zeros(prob.dim)
    for _ in range(30):
        x_new = x + rng.normal(0, 0.4, prob.dim)
        i = int(rng.integers(0, prob.num_components))
        g_curr, g_prev = vp.sample_gradient(prob, x_new, i), vp.sample_gradient(prob, x, i)
        total += g_curr - g_prev
        v = _recursion(v, g_curr, g_prev, None, _weights(0.0))
        x = x_new
    telescope = float(np.linalg.norm(v - v0 - total))

    # (c) full-batch exactness at every step.
    def error_sq(v, x):
        d = v - vp.full_gradient(prob, x)
        return float(d @ d)

    all_ids = np.arange(prob.num_components)
    x = rng.normal(0, 1, prob.dim)
    v = vp.full_gradient(prob, x)
    worst = error_sq(v, x)
    for _ in range(15):
        x_new = x + rng.normal(0, 0.4, prob.dim)
        v = _recursion(v, vp.minibatch_gradient(prob, x_new, all_ids),
                       vp.minibatch_gradient(prob, x, all_ids), None, _weights(0.37))
        x = x_new
        worst = max(worst, error_sq(v, x))
    _report(
        7,
        "degenerate-case equivalences",
        bitwise and telescope <= 1e-12 and worst <= 1e-12,
        f"beta=1 bitwise={bitwise}, telescoping {telescope:.1e} (<= 1e-12), "
        f"full-batch error {worst:.1e} (<= 1e-12)",
    )


def _psi_rows(psi, W: np.ndarray) -> np.ndarray:
    # Independent row-wise regularizer values (test-local implementation).
    if isinstance(psi, Zero):
        return np.zeros(W.shape[0])
    if isinstance(psi, L1):
        return psi.lam * np.abs(W).sum(axis=1)
    if isinstance(psi, ElasticNet):
        return psi.lam1 * np.abs(W).sum(axis=1) + 0.5 * psi.lam2 * (W * W).sum(axis=1)
    inside = np.all(W >= psi.lo - 1e-12, axis=1) & np.all(W <= psi.hi + 1e-12, axis=1)
    return np.where(inside, 0.0, np.inf)


def _closed_form_rows(psi, Z: np.ndarray, tau: float) -> np.ndarray:
    # Test-local restatement of each variant's componentwise closed form.
    if isinstance(psi, Zero):
        return Z
    if isinstance(psi, L1):
        return np.sign(Z) * np.maximum(np.abs(Z) - tau * psi.lam, 0.0)
    if isinstance(psi, ElasticNet):
        soft = np.sign(Z) * np.maximum(np.abs(Z) - tau * psi.lam1, 0.0)
        return soft / (1.0 + tau * psi.lam2)
    return np.minimum(np.maximum(Z, psi.lo), psi.hi)


def test_criterion_8_prox_toolkit():
    p = 8
    rng = np.random.default_rng(31)
    variants = [
        Zero(),
        L1(lam=0.9),
        BoxIndicator(lo=-np.ones(p), hi=np.ones(p)),
        ElasticNet(lam1=0.6, lam2=1.4),
    ]
    n_inputs = 10_000
    ok_expand = ok_closed = ok_cert = True
    for psi in variants:
        # nonexpansiveness + closed forms, vectorized in blocks of shared tau
        for _ in range(100):
            tau = float(rng.uniform(0.01, 10.0))
            Z1 = rng.normal(0, 3, (n_inputs // 100, p))
            Z2 = rng.normal(0, 3, (n_inputs // 100, p))
            U1, U2 = prox(psi, Z1, tau), prox(psi, Z2, tau)
            d_out = np.linalg.norm(U1 - U2, axis=1)
            d_in = np.linalg.norm(Z1 - Z2, axis=1)
            ok_expand &= bool(np.all(d_out <= d_in + 1e-12))
            ok_closed &= np.allclose(U1, _closed_form_rows(psi, Z1, tau), atol=1e-14)
        # optimality certificate: u beats 100 random perturbations, chunked
        for _ in range(n_inputs // 500):
            tau = float(rng.uniform(0.01, 10.0))
            Z = rng.normal(0, 3, (500, p))
            U = prox(psi, Z, tau)
            f_u = _psi_rows(psi, U) + ((U - Z) ** 2).sum(axis=1) / (2 * tau)
            deltas = rng.normal(0, 1, (100, p))
            deltas *= (0.1 * rng.random((100, 1))) / np.linalg.norm(
                deltas, axis=1, keepdims=True
            )
            for delta in deltas:
                W = U + delta
                f_w = _psi_rows(psi, W) + ((W - Z) ** 2).sum(axis=1) / (2 * tau)
                ok_cert &= bool(np.all(f_u <= f_w + 1e-12))
    # stationary point of the 1-D lasso maps to zero
    lasso = vp.make_quadratic(1, 1, centers=np.array([[2.0]]))
    gm_worst = max(
        float(np.abs(vp.gradient_mapping(lasso, L1(lam=1.0), np.array([1.0]), eta))[0])
        for eta in (0.1, 0.5)
    )
    _report(
        8,
        "prox toolkit on 10^4 inputs per variant",
        ok_expand and ok_closed and ok_cert and gm_worst <= 1e-10,
        f"nonexpansive={ok_expand}, closed-forms={ok_closed}, certificates={ok_cert}, "
        f"lasso |G|={gm_worst:.1e} (<= 1e-10)",
    )


def test_criterion_9_gradient_correctness():
    families = [
        ("quad", vp.make_quadratic(30, 8, 1.0, seed=3)),
        ("sigmoid", vp.make_nonconvex_sigmoid(30, 8, seed=3)),
        ("robust", vp.make_robust_regression(30, 8, seed=3)),
    ]
    worst = {}
    for name, prob in families:
        rng = np.random.default_rng(11)
        w = 0.0
        for _ in range(100):
            x = rng.uniform(-2, 2, prob.dim)
            i = int(rng.integers(0, prob.num_components))
            g = vp.sample_gradient(prob, x, i)
            fd = central_difference_gradient(prob, x, i)
            w = max(w, float(np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-8)))
        worst[name] = w
    _report(
        9,
        "gradients vs central finite differences",
        all(w <= 1e-6 for w in worst.values()),
        "max rel err " + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()) + " (<= 1e-6)",
    )


def test_criterion_10_reproducibility(tmp_path):
    cfg = parse_config(
        "problem = quad:40:8:1.0\nproblem_seed = 5\npsi = l1:0.05\n"
        "estimator = momentum_sarah\nT = 60,120\nseeds = 4\nschedule = auto\n"
        "diagnostics = on\n"
    )
    run_experiment(cfg, output_dir=tmp_path / "first", master_seed=12)
    run_experiment(cfg, output_dir=tmp_path / "second", master_seed=12)
    names = sorted(f.name for f in (tmp_path / "first").iterdir())
    identical = names == sorted(f.name for f in (tmp_path / "second").iterdir()) and all(
        (tmp_path / "first" / n).read_bytes() == (tmp_path / "second" / n).read_bytes()
        for n in names
    )
    _report(
        10,
        "byte-identical reruns",
        identical,
        f"{len(names)} files compared byte-for-byte across two executions",
    )

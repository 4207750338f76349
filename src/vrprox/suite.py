"""Self-contained pass/fail suite behind ``vrprox validate``.

Each check exercises one guarantee the library claims: the variance recursion
(one-step and unrolled), the schedule constraint, the a-priori stationarity
bound, decay of the averaged squared gradient mapping, gradient correctness
against central finite differences, mean-square smoothness, oracle-call
accounting, the degenerate estimator equivalences, the prox toolkit's
contraction/optimality properties, and byte-level reproducibility of the
experiment outputs.

``quick`` trims the sample counts for a fast smoke run; the default scales
match the acceptance suite where runtime permits (the decay check runs at a
reduced horizon grid here, the full grid lives in the test suite).

The Monte-Carlo and exact rows draw their inputs as whole arrays and
evaluate them as row-wise stacks, a chunk at a time, so that no stacked
temporary exceeds ``oracle._CHUNK_BYTES``: the two variance rows and the
schedule row through the stacked engines of :mod:`vrprox.validation`, the
smoothness row through ``smoothness_spot_check``, the prox row here.  Each
stack has the bits of a per-item loop, so the rows read as that loop would.
"""

from __future__ import annotations

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import parse_config
from .estimators import (
    HYBRID_SARAH,
    MOMENTUM_SARAH,
    SARAH,
    SGD,
    _recursion,
    _weights,
    init_estimator,
)
from .experiment import run_experiment, stationarity_bound_rhs
from .optimizer import HyperParams, gradient_mapping, mean_grad_map_sq, run, schedule_from_T
from .oracle import (
    _CHUNK_BYTES,
    _check_point,
    _chunks,
    _generator,
    full_gradient,
    minibatch_gradient,
    sample_gradient,
    sigma2_at,
    smoothness_spot_check,
)
from .problems import make_nonconvex_sigmoid, make_quadratic, make_robust_regression
from .prox import L1, BoxIndicator, ElasticNet, Zero, prox, psi_value
from .validation import _schedule_rows, _step_rows, _unrolled_rows, rate_slope


def _row(check: str, passed: bool, value, threshold: str) -> dict:
    return {
        "check": check,
        "passed": bool(passed),
        "value": value,
        "threshold": threshold,
    }


def central_difference_gradient(prob, x: np.ndarray, sample_id: int) -> np.ndarray:
    """Per-sample gradient by central differences of value_sample at step
    h = 1e-5 (the independent oracle for gradient checks)."""
    x = _check_point(prob, x)
    h = 1e-5
    g = np.empty_like(x)
    # Row j of h * I is the perturbation of coordinate j.
    for j, e in enumerate(h * np.eye(x.size)):
        g[j] = (prob.value_sample(x + e, sample_id) - prob.value_sample(x - e, sample_id)) / (
            2.0 * h
        )
    return g


# The schedule row's L, as the column _schedule_rows takes, and its horizons
# per call: a block's (3, block) margins fill at most _CHUNK_BYTES.
_SCHEDULE_LS = np.array([[0.1], [1.0], [10.0]])
_SCHEDULE_BLOCK = _CHUNK_BYTES // (8 * len(_SCHEDULE_LS))


def _schedule_margins(horizon: int):
    """(passed, worst margin, L-spread) of the schedule constraint over
    T = 1..horizon at L = 0.1, 1 and 10.  The horizons go through
    validation's stacked core in fixed blocks, all three L at once, so
    memory stays flat; min and max are exact, so the result is that of one
    check_schedule_constraint call per L over the whole range."""
    passed = True
    worst = np.inf
    spread = 0.0
    # Arrays, not ranges: np.asarray of a range goes through a Python int per
    # horizon.
    for start in range(1, horizon + 1, _SCHEDULE_BLOCK):
        Ts = np.arange(start, min(start + _SCHEDULE_BLOCK, horizon + 1))
        margins, ok = _schedule_rows(Ts, _SCHEDULE_LS)
        passed &= bool(ok.all())
        worst = min(worst, float(margins.min()))
        spread = max(spread, float(np.max(np.abs(margins[::2] - margins[1]))))
    return passed, worst, spread


def _check_schedule(quick: bool) -> dict:
    horizon = 10_000 if quick else 1_000_000
    passed, worst, spread = _schedule_margins(horizon)
    return _row(
        "schedule_constraint",
        passed and spread <= 1e-12,
        f"worst_margin={worst:.3e} L_spread={spread:.1e}",
        "margin >= 0 for T=1..{:g}, L-invariant to 1e-12".format(horizon),
    )


def _min_slack(rows, prob, count: int, *stacks) -> tuple[float, bool]:
    """The least rhs - lhs of the stacked variance check ``rows`` over the
    ``count`` items whose inputs are the rows of ``stacks``, and whether
    every item passed.  The items go in chunks whose component-gradient
    tables fill at most _CHUNK_BYTES; like a per-item loop, it stops at the
    first item that fails, whose slack it includes."""
    worst = np.inf
    for start, stop in _chunks(count, 8 * prob.num_components * prob.dim):
        lhs, rhs = rows(prob, *(a[start:stop] for a in stacks))
        slack = rhs - lhs
        failed = np.flatnonzero(~(lhs <= rhs))
        if failed.size:
            return min(worst, float(slack[: failed[0] + 1].min())), False
        worst = min(worst, float(slack.min()))
    return worst, True


def _check_variance_recursion_step(quick: bool, seed: int) -> dict:
    prob = make_quadratic(50, 10, 1.0, seed=seed)
    rng = _generator([seed, 1])
    n_tuples = 100 if quick else 1000
    # The tuples as four arrays, 80 KB each at full scale.
    X_prev = rng.normal(0.0, 2.0, (n_tuples, prob.dim))
    X_curr = X_prev + rng.normal(0.0, 0.5, (n_tuples, prob.dim))
    V_prev = rng.normal(0.0, 2.0, (n_tuples, prob.dim))
    betas = rng.uniform(0.01, 0.99, n_tuples)
    worst, ok = _min_slack(_step_rows, prob, n_tuples, X_prev, X_curr, V_prev, betas)
    if not ok:
        return _row("variance_recursion_step", False, f"slack={worst:.3e}",
                    "lhs <= rhs on every tuple (exact enumeration)")
    return _row(
        "variance_recursion_step",
        worst >= 0.0,
        f"min_slack={worst:.3e}",
        f"lhs <= rhs on {n_tuples} random tuples (exact enumeration)",
    )


def _check_variance_recursion_unrolled(quick: bool, seed: int) -> dict:
    prob = make_quadratic(50, 10, 1.0, seed=seed)
    rng = _generator([seed, 2])
    n_traj = 10 if quick else 100
    # The draws go trajectory by trajectory: its steps, its start, its beta,
    # then an initial batch size (even k) or a fixed initial direction (odd k).
    walks = np.empty((n_traj, 10, prob.dim))
    betas = np.empty(n_traj)
    batches = np.zeros(n_traj, dtype=np.int64)
    V0 = np.zeros((n_traj, prob.dim))
    for k in range(n_traj):
        walks[k, 1:] = rng.normal(0.0, 0.3, (9, prob.dim))
        walks[k, 0] = rng.normal(0.0, 1.0, prob.dim)
        betas[k] = rng.uniform(0.05, 0.95)
        if k % 2 == 0:
            batches[k] = rng.integers(1, 11)
        else:
            V0[k] = rng.normal(0.0, 1.0, prob.dim)
    trajectories = walks.cumsum(axis=1)
    worst, ok = _min_slack(_unrolled_rows, prob, n_traj, trajectories, batches, V0, betas)
    if not ok:
        return _row("variance_recursion_unrolled", False, f"slack={worst:.3e}",
                    "lhs <= rhs on every trajectory (exact expectation)")
    return _row(
        "variance_recursion_unrolled",
        worst >= 0.0,
        f"min_slack={worst:.3e}",
        f"lhs <= rhs on {n_traj} frozen 10-point trajectories (exact expectation)",
    )


def _seed_means(prob, T: int, seeds) -> list[float]:
    """Mean squared gradient mapping of one auto-schedule run per seed, psi = 0."""
    hp = schedule_from_T(T, prob.lipschitz_L)
    return [mean_grad_map_sq(run(prob, Zero(), hp, rng=s, diagnostics=True)) for s in seeds]


def _check_stationarity_bound(quick: bool, seed: int) -> dict:
    prob = make_quadratic(100, 20, 1.0, seed=seed)
    T = 200 if quick else 1000
    n_seeds = 8 if quick else 20
    means = _seed_means(prob, T, range(1000, 1000 + n_seeds))
    mean = float(np.mean(means))
    se = float(np.std(means, ddof=1) / np.sqrt(n_seeds))
    bound = stationarity_bound_rhs(prob, Zero(), T)
    return _row(
        "stationarity_bound",
        mean <= bound + 3 * se,
        f"mean={mean:.3e} bound={bound:.3e}",
        f"seed mean over {n_seeds} seeds <= bound + 3 stderr at T={T}",
    )


def _check_rate(quick: bool, seed: int) -> dict:
    prob = make_quadratic(100, 20, 1.0, seed=seed)
    Ts = (50, 200, 800) if quick else (100, 400, 1600)
    n_seeds = 5 if quick else 10
    summary = [(T, float(np.mean(_seed_means(prob, T, range(2000, 2000 + n_seeds)))))
               for T in Ts]
    slope = rate_slope(summary)
    return _row(
        "decay_exponent",
        slope <= -0.5,
        f"slope={slope:.3f}",
        f"log-log slope over T={Ts} <= -0.5 (theory -2/3)",
    )


def _families(seed: int) -> list[tuple]:
    """(name, instance) of the three small families the per-family rows check."""
    return [
        ("quad", make_quadratic(20, 10, 1.0, seed=seed)),
        ("sigmoid", make_nonconvex_sigmoid(30, 8, seed=seed)),
        ("robust", make_robust_regression(30, 8, seed=seed)),
    ]


def _check_gradients(quick: bool, seed: int) -> list[dict]:
    rows = []
    n_points = 20 if quick else 100
    for name, prob in _families(seed):
        rng = _generator([seed, 3])
        worst = 0.0
        for _ in range(n_points):
            x = rng.uniform(-2.0, 2.0, prob.dim)
            i = int(rng.integers(0, prob.num_components))
            g = sample_gradient(prob, x, i)
            fd = central_difference_gradient(prob, x, i)
            rel = float(np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-8))
            worst = max(worst, rel)
        rows.append(
            _row(
                f"gradient_fd_{name}",
                worst <= 1e-6,
                f"max_rel={worst:.2e}",
                f"central differences at h=1e-5 on {n_points} points, rel <= 1e-6",
            )
        )
    return rows


def _check_smoothness(quick: bool, seed: int) -> list[dict]:
    rows = []
    n_pairs = 200 if quick else 1000
    for name, prob in _families(seed):
        rng = _generator([seed, 4])
        rep = smoothness_spot_check(prob, rng, n_pairs=n_pairs)
        rows.append(
            _row(
                f"smoothness_{name}",
                rep["passed"],
                f"mean_ratio={rep['mean_ratio']:.3f}",
                "MC mean of ||dg||^2 / (L^2 ||dx||^2) <= 1 + 3 stderr",
            )
        )
    return rows


def _check_sigma_consistency(seed: int) -> dict:
    prob = make_quadratic(50, 10, 1.0, seed=seed)
    rng = _generator([seed, 5])
    xs = [rng.normal(0.0, 3.0, prob.dim) for _ in range(10)]
    est = max(sigma2_at(prob, x) for x in xs)
    err = abs(est - prob.sigma_bound)
    return _row(
        "sigma2_enumeration",
        err <= 1e-12,
        f"abs_err={err:.2e}",
        "enumerated variance equals the closed form to 1e-12 at 10 random points",
    )


def _counting(prob):
    """``prob`` with its sample-gradient evaluations counted, one per id of
    a ``grad_rows`` call; returns the counting instance and its
    ``{"grad": count}`` tally."""
    calls = {"grad": 0}

    def counted(x, ids):
        calls["grad"] += np.size(ids)
        return prob.grad_rows(x, ids)

    return replace(prob, grad_rows=counted), calls


def _check_oracle_accounting(seed: int) -> dict:
    prob = make_quadratic(20, 5, 1.0, seed=seed)
    hp = HyperParams(eta=0.1, beta=0.5, b_tilde=4, T=25)
    expected = {MOMENTUM_SARAH: hp.b_tilde + 2 * hp.T, SARAH: hp.b_tilde + 2 * hp.T,
                HYBRID_SARAH: hp.b_tilde + 3 * hp.T, SGD: hp.b_tilde + hp.T}
    # The evaluations are counted, so a run that spends more than it reports
    # fails here.
    got, ok = {}, True
    for kind in expected:
        counted, calls = _counting(prob)
        trace = run(counted, Zero(), hp, rng=7, diagnostics=False, kind=kind)
        got[kind] = calls["grad"]
        ok &= got[kind] == trace.oracle_calls == expected[kind]
    return _row(
        "oracle_accounting",
        ok,
        ",".join(f"{k}={v}" for k, v in got.items()),
        "b+2T same-sample / b+3T hybrid / b+T sgd, exactly",
    )


def _check_degenerate_equivalences(seed: int) -> dict:
    prob = make_quadratic(30, 6, 1.0, seed=seed)
    hp = HyperParams(eta=0.1, beta=1.0, b_tilde=3, T=100)
    tr_sgd = run(prob, Zero(), hp, rng=seed + 11, diagnostics=True, kind=SGD)
    tr_mom = run(prob, Zero(), hp, rng=seed + 11, diagnostics=True, kind=MOMENTUM_SARAH)
    bitwise = (
        np.array_equal(tr_sgd.step_sq, tr_mom.step_sq)
        and np.array_equal(tr_sgd.grad_map_sq, tr_mom.grad_map_sq)
        and np.array_equal(tr_sgd.est_err_sq, tr_mom.est_err_sq)
        and np.array_equal(tr_sgd.output_x, tr_mom.output_x)
    )

    # beta = 0 telescoping along a random path.
    rng = _generator([seed, 6])
    x = rng.normal(0.0, 1.0, prob.dim)
    v = v0 = init_estimator(prob, x, 5, rng)
    total = np.zeros(prob.dim)
    for _ in range(20):
        x_new = x + rng.normal(0.0, 0.3, prob.dim)
        i = int(rng.integers(0, prob.num_components))
        g_curr, g_prev = sample_gradient(prob, x_new, i), sample_gradient(prob, x, i)
        total += g_curr - g_prev
        v = _recursion(SARAH, v, g_curr, g_prev, None, _weights(0.0))
        x = x_new
    telescoping = float(np.linalg.norm(v - v0 - total))

    # Full-batch updates keep the direction exact at every step.
    def error_sq(v, x):
        d = v - full_gradient(prob, x)
        return float(d @ d)

    all_ids = np.arange(prob.num_components)
    x = rng.normal(0.0, 1.0, prob.dim)
    v = minibatch_gradient(prob, x, all_ids)
    worst_exact = error_sq(v, x)
    for _ in range(10):
        x_new = x + rng.normal(0.0, 0.3, prob.dim)
        v = _recursion(MOMENTUM_SARAH, v, minibatch_gradient(prob, x_new, all_ids),
                       minibatch_gradient(prob, x, all_ids), None, _weights(0.3))
        x = x_new
        worst_exact = max(worst_exact, error_sq(v, x))

    ok = bitwise and telescoping <= 1e-12 and worst_exact <= 1e-12
    return _row(
        "degenerate_equivalences",
        ok,
        f"bitwise={bitwise} telescope={telescoping:.1e} fullbatch={worst_exact:.1e}",
        "beta=1 == sgd bitwise; beta=0 telescoping and full-batch error <= 1e-12",
    )


def _expansion_excess(psi, taus, Z1, Z2) -> float:
    """max ||prox(z1) - prox(z2)|| - ||z1 - z2|| over the row pairs of the
    stacks ``Z1[j]`` and ``Z2[j]``, each at step ``taus[j]``."""
    d_out = np.array([np.linalg.norm(prox(psi, z1, tau) - prox(psi, z2, tau), axis=1)
                      for tau, z1, z2 in zip(taus, Z1, Z2)])
    return float(np.max(d_out - np.linalg.norm(Z1 - Z2, axis=-1)))


def _certificate_gaps(psi, taus, Z, deltas, radii) -> np.ndarray:
    """f(u) - f(w) for each row z of ``Z``, its step tau and its stack of
    nearby points w: u = prox_{tau psi}(z), w = u + delta scaled to length
    0.1 * radius, f(w) = psi(w) + ||w - z||^2 / (2 tau).  A positive gap
    means the prox missed the minimum of its own objective.  ``deltas`` and
    ``radii`` have shapes (k, m, p) and (k, m, 1); the gaps (k, m) have the
    bits of a per-row loop."""
    U = np.array([prox(psi, z, tau) for z, tau in zip(Z, taus)])
    f_u = psi_value(psi, U) + np.sum((U - Z) ** 2, axis=1) / (2 * taus)
    # In place where the bits allow: a chunk holds a few (k, m, p) arrays.
    W = deltas * ((0.1 * radii) / np.linalg.norm(deltas, axis=-1, keepdims=True))
    W += U[:, None]
    D = W - Z[:, None]
    D *= D
    f_w = psi_value(psi, W) + np.sum(D, axis=-1) / (2 * taus[:, None])
    return f_u[:, None] - f_w


def _check_prox_properties(quick: bool, seed: int) -> dict:
    rng = _generator([seed, 8])
    p = 8
    variants = [
        Zero(),
        L1(lam=0.7),
        BoxIndicator(lo=-np.ones(p), hi=np.ones(p)),
        ElasticNet(lam1=0.5, lam2=1.5),
    ]
    n_inputs = 2000 if quick else 10_000
    n_cert = 200 if quick else 1000
    per_tau = n_inputs // 50
    n_near = 100
    worst_expand = -np.inf
    worst_cert = -np.inf
    # Each regularizer's inputs are drawn as arrays, a chunk of steps at a
    # time: a chunk's two input stacks, and its certificates' nearby points,
    # stay within _CHUNK_BYTES.
    for psi in variants:
        taus = rng.uniform(0.01, 10.0, 50)
        for start, stop in _chunks(taus.size, 8 * per_tau * p):
            Z1 = rng.normal(0.0, 3.0, (stop - start, per_tau, p))
            Z2 = rng.normal(0.0, 3.0, (stop - start, per_tau, p))
            worst_expand = max(worst_expand, _expansion_excess(psi, taus[start:stop], Z1, Z2))
        for start, stop in _chunks(n_cert // 4, 8 * n_near * p):
            k = stop - start
            cert_taus = rng.uniform(0.01, 10.0, k)
            Z = rng.normal(0.0, 3.0, (k, p))
            deltas = rng.normal(0.0, 1.0, (k, n_near, p))
            radii = rng.random((k, n_near, 1))
            gaps = _certificate_gaps(psi, cert_taus, Z, deltas, radii)
            worst_cert = max(worst_cert, float(np.max(gaps)))

    lasso = make_quadratic(1, 1, centers=np.array([[2.0]]))
    gm = max(
        float(np.abs(gradient_mapping(lasso, L1(lam=1.0), np.array([1.0]), eta))[0])
        for eta in (0.1, 0.5)
    )
    ok = worst_expand <= 1e-10 and worst_cert <= 1e-12 and gm <= 1e-10
    return _row(
        "prox_toolkit",
        ok,
        f"expansion={worst_expand:.1e} cert={worst_cert:.1e} lasso_gm={gm:.1e}",
        "nonexpansive, prox minimizes its objective, stationary lasso point maps to 0",
    )


_REPRO_CFG = """\
problem = quad:30:6:1.0
problem_seed = 3
psi = l1:0.1
estimator = momentum_sarah
T = 40
seeds = 3
schedule = auto
diagnostics = on
"""


def _check_reproducibility() -> dict:
    cfg = parse_config(_REPRO_CFG)
    with tempfile.TemporaryDirectory() as tmp:
        a = Path(tmp) / "a"
        b = Path(tmp) / "b"
        run_experiment(cfg, output_dir=a, master_seed=5)
        run_experiment(cfg, output_dir=b, master_seed=5)
        names = sorted(f.name for f in a.iterdir())
        same = names == sorted(f.name for f in b.iterdir()) and all(
            (a / n).read_bytes() == (b / n).read_bytes() for n in names
        )
    return _row(
        "reproducibility",
        same,
        f"files={len(names)}",
        "two identical runs produce byte-identical outputs",
    )


def run_suite(quick: bool = False, seed: int = 0) -> list[dict]:
    """Run every check; returns one row per check."""
    rows = [
        _check_schedule(quick),
        _check_variance_recursion_step(quick, seed),
        _check_variance_recursion_unrolled(quick, seed),
        _check_stationarity_bound(quick, seed),
        _check_rate(quick, seed),
    ]
    rows.extend(_check_gradients(quick, seed))
    rows.extend(_check_smoothness(quick, seed))
    rows.append(_check_sigma_consistency(seed))
    rows.append(_check_oracle_accounting(seed))
    rows.append(_check_degenerate_equivalences(seed))
    rows.append(_check_prox_properties(quick, seed))
    rows.append(_check_reproducibility())
    return rows


def format_table(rows: list[dict]) -> str:
    width = max(len(r["check"]) for r in rows)
    lines = []
    for r in rows:
        status = "PASS" if r["passed"] else "FAIL"
        lines.append(f"{r['check']:<{width}}  {status}  {r['value']}  [{r['threshold']}]")
    n_fail = sum(not r["passed"] for r in rows)
    lines.append(f"{len(rows) - n_fail}/{len(rows)} checks passed")
    return "\n".join(lines)


def write_csv(rows: list[dict], path) -> None:
    lines = ["check,passed,value,threshold"]
    for r in rows:
        value = str(r["value"]).replace(",", ";")
        threshold = r["threshold"].replace(",", ";")
        lines.append(f"{r['check']},{str(r['passed']).lower()},{value},{threshold}")
    Path(path).write_text("\n".join(lines) + "\n")

import inspect
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vrprox as vp
from vrprox import suite, validation
from vrprox.estimators import MOMENTUM_SARAH, _recursion, _weights
from vrprox.oracle import _CHUNK_BYTES, _chunks
from vrprox.validation import initial_direction_variance


@pytest.fixture(scope="module")
def quad():
    return vp.make_quadratic(50, 10, 1.0, seed=0)


class TestOneStep:
    def test_coincident_points_with_exact_direction(self, quad, rng):
        # v_prev = grad f(x), x_curr = x_prev: only the fresh-gradient term
        # remains, lhs = beta^2 sigma^2 <= 2 beta^2 sigma^2 = rhs.
        x = rng.normal(0, 1, quad.dim)
        v = vp.full_gradient(quad, x)
        beta = 0.4
        rep = vp.check_variance_recursion_step(quad, x, x, v, beta)
        assert rep.lhs == pytest.approx(beta**2 * quad.sigma_bound, rel=1e-10)
        assert rep.rhs == pytest.approx(2 * beta**2 * quad.sigma_bound, rel=1e-10)
        assert rep.passed

    def test_beta_near_one(self, quad, rng):
        x_prev = rng.normal(0, 1, quad.dim)
        x_curr = rng.normal(0, 1, quad.dim)
        v_prev = rng.normal(0, 5, quad.dim)
        rep = vp.check_variance_recursion_step(quad, x_prev, x_curr, v_prev, 1.0 - 1e-9)
        assert rep.passed
        # lhs collapses to the gradient variance at x_curr
        assert rep.lhs == pytest.approx(quad.sigma_bound, rel=1e-6)

    def test_random_tuples_all_pass(self, quad):
        rng = np.random.default_rng(42)
        for _ in range(300):
            x_prev = rng.normal(0, 2, quad.dim)
            x_curr = x_prev + rng.normal(0, 1, quad.dim)
            v_prev = rng.normal(0, 3, quad.dim)
            beta = float(rng.uniform(0.01, 0.99))
            rep = vp.check_variance_recursion_step(quad, x_prev, x_curr, v_prev, beta)
            assert rep.passed
            assert rep.lhs <= rep.rhs

    def test_lhs_enumerates_every_component(self, quad, rng):
        # The one-step check is exact: lhs is the mean over all n fresh
        # samples, and it passes exactly when lhs <= rhs.
        x_prev = rng.normal(0, 1, quad.dim)
        x_curr = x_prev + rng.normal(0, 0.5, quad.dim)
        v_prev = rng.normal(0, 2, quad.dim)
        beta = 0.35
        g = vp.full_gradient(quad, x_curr)
        sq = []
        for i in range(quad.num_components):
            v = quad.grad_rows(x_curr, i) + (1 - beta) * (v_prev - quad.grad_rows(x_prev, i))
            sq.append(np.sum((v - g) ** 2))
        rep = vp.check_variance_recursion_step(quad, x_prev, x_curr, v_prev, beta)
        assert rep.lhs == pytest.approx(np.mean(sq), rel=1e-12)
        assert rep.passed == (rep.lhs <= rep.rhs)

    def test_lhs_comes_from_the_estimator_recursion(self, quad, rng, monkeypatch):
        # The check runs the optimizer's own momentum update, so a fault in
        # that recursion reaches the reported lhs.
        x_prev, x_curr, v_prev = (rng.normal(0, 1, quad.dim) for _ in range(3))
        honest = vp.check_variance_recursion_step(quad, x_prev, x_curr, v_prev, 0.3)
        calls = []

        def faulty(*args):
            calls.append(args[2])
            return 2.0 * _recursion(*args)

        monkeypatch.setattr(validation, "_recursion", faulty)
        faulted = vp.check_variance_recursion_step(quad, x_prev, x_curr, v_prev, 0.3)
        assert calls == [MOMENTUM_SARAH]
        assert faulted.lhs != honest.lhs

    @pytest.mark.parametrize("beta", [0.3, 1.0])
    @pytest.mark.parametrize("bad", ["inf", "nan", "short"])
    def test_rejects_nonfinite_or_misshapen_v_prev(self, quad, rng, beta, bad):
        x_prev, x_curr, v_prev = (rng.normal(0, 1, quad.dim) for _ in range(3))
        if bad == "short":
            v_prev = v_prev[:1]
        else:
            v_prev[0] = float(bad)
        msg = r"v_prev (must be finite|has shape \(1,\), expected \(10,\))"
        with pytest.raises(ValueError, match=msg):
            vp.check_variance_recursion_step(quad, x_prev, x_curr, v_prev, beta)

    def test_enumerates_every_id_through_grad_rows_unchecked(self, quad, rng):
        # The inputs are checked once, up front; the two points' tables of
        # the n ids then come from one grad_rows call each.
        counted, calls = suite._counting(quad)
        x_prev, x_curr, v_prev = (rng.normal(0, 1, quad.dim) for _ in range(3))
        want = vp.check_variance_recursion_step(quad, x_prev, x_curr, v_prev, 0.3)
        got = vp.check_variance_recursion_step(counted, x_prev, x_curr, v_prev, 0.3)
        assert calls["grad"] == 2 * quad.num_components
        assert (got.lhs, got.rhs) == (want.lhs, want.rhs)

    def test_rejects_bad_beta(self, quad):
        z = np.zeros(quad.dim)
        for beta in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                vp.check_variance_recursion_step(quad, z, z, z, beta)

    def test_rhs_assembly(self, quad, rng):
        x_prev = rng.normal(0, 1, quad.dim)
        x_curr = rng.normal(0, 1, quad.dim)
        v_prev = rng.normal(0, 1, quad.dim)
        beta = 0.3
        d = v_prev - vp.full_gradient(quad, x_prev)
        manual = (
            (1 - beta) ** 2 * (d @ d)
            + 2 * (1 - beta) ** 2 * quad.lipschitz_L**2 * np.sum((x_curr - x_prev) ** 2)
            + 2 * beta**2 * quad.sigma_bound
        )
        rep = vp.check_variance_recursion_step(quad, x_prev, x_curr, v_prev, beta)
        assert rep.rhs == pytest.approx(manual)


def _replayed_error(prob, traj, v0, beta, n_mc, rng):
    """Monte-Carlo E||v_k - grad f(x_k)||^2 along ``traj``: n_mc replays of
    ``_recursion`` on sample gradients, each from its own ``init_estimator``
    batch (an integer ``v0``) or from the fixed ``v0``; (mean, stderr)."""
    k = traj.shape[0] - 1
    if np.ndim(v0) == 0:
        V = np.stack([vp.init_estimator(prob, traj[0], v0, rng) for _ in range(n_mc)])
    else:
        V = np.tile(v0, (n_mc, 1))
    for i in range(1, k + 1):
        ids = rng.integers(0, prob.num_components, size=n_mc)
        V = _recursion(vp.sample_gradient, prob, MOMENTUM_SARAH, V, traj[i - 1], traj[i], ids,
                       None, _weights(beta))
    errs = np.sum((V - vp.full_gradient(prob, traj[k])) ** 2, axis=1)
    return errs.mean(), errs.std(ddof=1) / np.sqrt(n_mc)


def _walk(prob, rng, k):
    steps = rng.normal(0, 0.3, (k, prob.dim))
    return np.vstack([rng.normal(0, 1, prob.dim), steps]).cumsum(axis=0)


class TestUnrolled:
    def test_constant_trajectory_with_exact_v0(self, quad, rng):
        # Every step adds d_i(j) = beta g_j(x), whose scatter is beta^2 sigma^2
        # on the quadratic, so lhs = beta^2 sigma^2 sum_{m<k} (1-beta)^{2m}.
        x0 = rng.normal(0, 1, quad.dim)
        traj = np.tile(x0, (6, 1))
        v0 = vp.full_gradient(quad, x0)
        beta = 0.25
        rep = vp.check_variance_recursion_unrolled(quad, traj, v0, beta)
        decay = (1 - beta) ** 2
        expected = beta**2 * quad.sigma_bound * (1 - decay**5) / (1 - decay)
        assert rep.lhs == pytest.approx(expected, rel=1e-12)
        assert rep.rhs == pytest.approx(2 * beta * quad.sigma_bound, rel=1e-12)
        assert rep.passed

    def test_single_step_matches_onestep_check(self, quad, rng):
        x0 = rng.normal(0, 1, quad.dim)
        x1 = x0 + rng.normal(0, 0.5, quad.dim)
        v0 = rng.normal(0, 2, quad.dim)
        beta = 0.3
        step = vp.check_variance_recursion_step(quad, x0, x1, v0, beta)
        unrolled = vp.check_variance_recursion_unrolled(quad, np.stack([x0, x1]), v0, beta)
        assert unrolled.lhs == pytest.approx(step.lhs, rel=1e-12)
        assert unrolled.passed

    def test_zero_length_trajectory_is_the_initial_variance(self, quad, rng):
        # k = 0 with a drawn initial batch: lhs is the exact
        # without-replacement variance itself.
        n = quad.num_components
        for b in (5, 2, n - 1, n):
            x0 = rng.normal(0, 1, quad.dim)
            rep = vp.check_variance_recursion_unrolled(quad, x0[None, :], b, 0.5)
            assert rep.lhs == initial_direction_variance(quad, x0, b)
            assert rep.passed

    @pytest.mark.parametrize("v0_form", ["batch", "array"])
    def test_agrees_with_a_direct_replay(self, quad, v0_form):
        rng = np.random.default_rng(31)
        traj = _walk(quad, rng, 5)
        v0 = 4 if v0_form == "batch" else rng.normal(0, 1, quad.dim)
        rep = vp.check_variance_recursion_unrolled(quad, traj, v0, 0.3)
        mean, stderr = _replayed_error(quad, traj, v0, 0.3, 4000, rng)
        assert abs(mean - rep.lhs) <= 4 * stderr

    def test_random_trajectories_pass(self, quad):
        rng = np.random.default_rng(7)
        for k in range(30):
            traj = _walk(quad, rng, 9)
            beta = float(rng.uniform(0.05, 0.95))
            v0 = int(rng.integers(1, 11)) if k % 2 else rng.normal(0, 1, quad.dim)
            rep = vp.check_variance_recursion_unrolled(quad, traj, v0, beta)
            assert rep.passed and rep.lhs <= rep.rhs

    @pytest.mark.parametrize("v0_form", ["batch", "array"])
    def test_lhs_comes_from_the_estimator_recursion(self, quad, rng, monkeypatch, v0_form):
        # Each step's term is one call of the optimizer's own momentum
        # update, so a fault in that recursion reaches the reported lhs.
        traj = _walk(quad, rng, 4)
        v0 = 3 if v0_form == "batch" else rng.normal(0, 1, quad.dim)
        honest = vp.check_variance_recursion_unrolled(quad, traj, v0, 0.3)
        calls = []

        def faulty(*args):
            calls.append(args[2])
            return 2.0 * _recursion(*args)

        monkeypatch.setattr(validation, "_recursion", faulty)
        faulted = vp.check_variance_recursion_unrolled(quad, traj, v0, 0.3)
        assert calls == [MOMENTUM_SARAH] * 4
        assert faulted.lhs != honest.lhs

    def test_draws_nothing(self):
        params = inspect.signature(vp.check_variance_recursion_unrolled).parameters
        assert list(params) == ["prob", "trajectory", "v0", "beta"]

    @pytest.mark.parametrize("bad", [2.5, 2.0, True])
    def test_initial_batch_size_must_be_an_integer(self, quad, bad):
        traj = np.zeros((3, quad.dim))
        with pytest.raises(ValueError, match="initial batch size must be an integer"):
            vp.check_variance_recursion_unrolled(quad, traj, bad, 0.5)
        with pytest.raises(ValueError, match="initial batch size must be an integer"):
            initial_direction_variance(quad, traj[0], bad)

    @pytest.mark.parametrize("bad", ["inf", "nan", "short", "matrix"])
    def test_rejects_nonfinite_or_misshapen_v0(self, quad, rng, bad):
        traj = _walk(quad, rng, 3)
        v0 = rng.normal(0, 1, quad.dim)
        if bad == "short":
            v0 = v0[:1]
        elif bad == "matrix":
            v0 = np.tile(v0, (2, 1))
        else:
            v0[0] = float(bad)
        msg = r"v0 (must be finite|has shape \((1,|2, 10)\), expected \(10,\))"
        with pytest.raises(ValueError, match=msg):
            vp.check_variance_recursion_unrolled(quad, traj, v0, 0.5)

    def test_rejects_an_empty_trajectory(self, quad):
        with pytest.raises(ValueError, match="trajectory must hold at least one point"):
            vp.check_variance_recursion_unrolled(quad, np.zeros((0, quad.dim)), 2, 0.5)

    def test_batch_variance_comes_from_the_first_table(self, quad, rng):
        # One table of the n ids per point: the initial batch's variance
        # reads the table at x_0 the first step uses, not a second one.
        counted, calls = suite._counting(quad)
        traj = _walk(quad, rng, 9)
        want = vp.check_variance_recursion_unrolled(quad, traj, 3, 0.4)
        got = vp.check_variance_recursion_unrolled(counted, traj, 3, 0.4)
        assert calls["grad"] == 10 * quad.num_components
        assert (got.lhs, got.rhs) == (want.lhs, want.rhs)

    def test_numpy_integer_initial_batch_size(self, quad):
        traj = np.zeros((3, quad.dim))
        reps = [vp.check_variance_recursion_unrolled(quad, traj, v0, 0.5)
                for v0 in (3, np.int64(3))]
        assert reps[1].inputs["v0"] == 3
        assert (reps[1].lhs, reps[1].rhs) == (reps[0].lhs, reps[0].rhs)

    def test_initial_variance_formula_edges(self, quad, rng):
        x0 = np.zeros(quad.dim)
        assert initial_direction_variance(quad, x0, quad.num_components) == 0.0
        assert initial_direction_variance(quad, x0, 1) == pytest.approx(
            quad.sigma_bound, rel=1e-12
        )
        single = vp.make_quadratic(1, 3, 1.0, seed=0)
        assert initial_direction_variance(single, np.zeros(3), 1) == 0.0


@pytest.mark.parametrize("key", ["sigmoid:50:10", "robust:50:10"])
def test_variance_recursions_hold_on_the_nonconvex_families(key):
    # The inputs `vrprox validate` draws for its quadratic rows, on the
    # nonconvex families: 1000 one-step tuples, then 20 frozen trajectories,
    # against their certified sigma^2 and L.
    prob = vp.from_key(key, seed=0)
    rng = np.random.Generator(np.random.PCG64([0, 1]))
    for _ in range(1000):
        x_prev = rng.normal(0.0, 2.0, prob.dim)
        x_curr = x_prev + rng.normal(0.0, 0.5, prob.dim)
        v_prev = rng.normal(0.0, 2.0, prob.dim)
        beta = rng.uniform(0.01, 0.99)
        assert vp.check_variance_recursion_step(prob, x_prev, x_curr, v_prev, beta).passed
    rng = np.random.Generator(np.random.PCG64([0, 2]))
    for k in range(20):
        steps = rng.normal(0.0, 0.3, (9, prob.dim))
        traj = np.vstack([rng.normal(0.0, 1.0, prob.dim), steps]).cumsum(axis=0)
        beta = rng.uniform(0.05, 0.95)
        v0 = int(rng.integers(1, 11)) if k % 2 == 0 else rng.normal(0.0, 1.0, prob.dim)
        assert vp.check_variance_recursion_unrolled(prob, traj, v0, beta).passed


def _traced_peak_mb(fn) -> float:
    """Peak of the memory Python and numpy allocate while ``fn`` runs, in MB
    above what was allocated before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - before) / 1e6
    finally:
        if not tracing:
            tracemalloc.stop()


def test_unrolled_check_memory_is_a_few_gradient_tables():
    # Trajectories of 10 and 100 points on n = 1000 components, from a batch
    # of 10: the check holds a handful of (n, dim) tables of 80 kB at a time
    # (about 7 measured), whatever the trajectory's length.
    prob = vp.make_quadratic(1000, 10, 1.0, seed=0)
    rng = np.random.default_rng(7)
    table_mb = prob.num_components * prob.dim * 8 / 1e6
    for points in (10, 100):
        traj = rng.normal(0.0, 0.3, (points, prob.dim)).cumsum(axis=0)
        peak = _traced_peak_mb(lambda: vp.check_variance_recursion_unrolled(prob, traj, 10, 0.5))
        assert peak < 12 * table_mb


class TestScheduleConstraint:
    def test_small_horizon_margin(self):
        rep = vp.check_schedule_constraint([7], 1.0)
        # beta - 2 L^2 eta^2 / (1 - L eta) = 1/4 - (2/16)/(3/4) = 1/12
        assert rep.passed
        assert rep.margins[0] == pytest.approx(1.0 / 12.0, rel=1e-12)

    def test_range_passes(self):
        rep = vp.check_schedule_constraint(range(1, 50_001), 1.0)
        assert rep.passed
        assert rep.worst_margin > 0
        assert rep.n_checked == 50_000

    def test_margin_L_invariant(self):
        Ts = range(1, 20_001)
        margins = {
            L: vp.check_schedule_constraint(Ts, L).margins
            for L in (0.1, 1.0, 10.0)
        }
        assert np.max(np.abs(margins[0.1] - margins[1.0])) <= 1e-12
        assert np.max(np.abs(margins[10.0] - margins[1.0])) <= 1e-12
        # The suite passes its horizons as an array; same bits as the range.
        arr = vp.check_schedule_constraint(np.arange(1, 20_001), 1.0)
        assert arr.margins.tobytes() == margins[1.0].tobytes()

    @pytest.mark.parametrize("quick", [True, False])
    def test_suite_blocks_give_the_one_call_result(self, quick):
        # The suite's row folds blocks of 5,461 horizons, three L at once (quick:
        # block); one call over the whole range gives the same bits.
        horizon = 10_000 if quick else 1_000_000
        Ts = np.arange(1, horizon + 1)
        reps = {L: vp.check_schedule_constraint(Ts, L) for L in (0.1, 1.0, 10.0)}
        spread = max(
            float(np.max(np.abs(reps[0.1].margins - reps[1.0].margins))),
            float(np.max(np.abs(reps[10.0].margins - reps[1.0].margins))),
        )
        worst = min(rep.worst_margin for rep in reps.values())
        passed = all(rep.passed for rep in reps.values())
        got_passed, got_worst, got_spread = suite._schedule_margins(horizon)
        assert got_passed is passed
        assert (got_worst.hex(), got_spread.hex()) == (worst.hex(), spread.hex())

    def test_suite_row_memory_does_not_grow_with_the_range(self):
        # 10^6 horizons at three L: one call per L would hold about nine
        # float arrays of 8 MB.
        assert _traced_peak_mb(lambda: suite._check_schedule(False)) < 4.0

    def test_margins_match_the_scalar_schedule(self):
        # The range check and schedule_from_T share one formula: margins
        # rebuilt from the scalar schedule have the same bits, at about 100
        # horizons spread over T = 1..10^6.
        Ts = np.arange(1, 10**6 + 1)
        probe = np.unique(
            np.concatenate([[0, Ts.size - 1], np.arange(0, Ts.size, Ts.size // 97)])
        )
        for L in (0.1, 1.0, 10.0):
            rep = vp.check_schedule_constraint(Ts, L)
            rebuilt = []
            for i in probe:
                hp = vp.schedule_from_T(int(Ts[i]), L)
                rebuilt.append(hp.beta - 2.0 * (L * L) * (hp.eta * hp.eta) / (1.0 - L * hp.eta))
            assert np.array(rebuilt).tobytes() == rep.margins[probe].tobytes()

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            vp.check_schedule_constraint([], 1.0)
        with pytest.raises(ValueError):
            vp.check_schedule_constraint([0], 1.0)
        with pytest.raises(ValueError, match="empty"):
            vp.check_schedule_constraint(range(5, 5), 1.0)
        with pytest.raises(ValueError, match=">= 1"):
            vp.check_schedule_constraint(range(0, 5), 1.0)

    @pytest.mark.parametrize("L", [-1.0, 0.0, np.nan, np.inf])
    def test_rejects_bad_L(self, L):
        with pytest.raises(ValueError, match="L must be a positive finite scalar"):
            vp.check_schedule_constraint([1, 2], L)

    @pytest.mark.parametrize("Ts", [[1.5, 2], np.array([1.0, 2.0]), [True, False], [True, 2],
                                    (2, np.True_)])
    def test_horizons_must_be_integers(self, Ts):
        with pytest.raises(ValueError, match="horizons must be integers"):
            vp.check_schedule_constraint(Ts, 1.0)

    @pytest.mark.parametrize("Ts", [[[1, 2], [3, 4]], np.array(5)])
    def test_horizons_must_form_a_1d_array(self, Ts):
        with pytest.raises(ValueError, match="horizons must form a 1-D array"):
            vp.check_schedule_constraint(Ts, 1.0)

    def test_range_and_integer_arrays_agree(self):
        want = vp.check_schedule_constraint(range(3, 90, 7), 1.0).margins.tobytes()
        for Ts in ([*range(3, 90, 7)], np.arange(3, 90, 7, dtype=np.int32),
                   np.arange(3, 90, 7, dtype=np.uint64)):
            assert vp.check_schedule_constraint(Ts, 1.0).margins.tobytes() == want


class TestRateSlope:
    def test_exact_power_law(self):
        Ts = [100, 1000, 10_000]
        data = [(T, 3.7 * (T + 1.0) ** (-2.0 / 3.0)) for T in Ts]
        assert vp.rate_slope(data) == pytest.approx(-2.0 / 3.0, abs=1e-10)

    def test_constant_data(self):
        assert vp.rate_slope([(10, 2.0), (100, 2.0), (1000, 2.0)]) == pytest.approx(0.0, abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            vp.rate_slope([(10, 1.0), (100, 0.5)])
        with pytest.raises(ValueError):
            vp.rate_slope([(10, 1.0), (100, 0.5), (100, 0.4)])
        with pytest.raises(ValueError):
            vp.rate_slope([(10, 1.0), (100, 0.5), (1000, 0.0)])

    @pytest.mark.parametrize("T", [100.7, True, 0, -1])
    def test_horizons_must_be_integers_at_least_one(self, T):
        with pytest.raises(ValueError, match="horizon T must be an integer >= 1"):
            vp.rate_slope([(10, 1.0), (T, 0.5), (1000, 0.2)])

    @pytest.mark.parametrize("bad", ["a", None, [0.5]], ids=repr)
    def test_means_must_be_real_numbers(self, bad):
        with pytest.raises(ValueError, match="rate fit means must be real numbers"):
            vp.rate_slope([(1, bad), (2, 1.0), (3, 1.0)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_means(self, bad):
        with pytest.raises(ValueError, match="positive finite means"):
            vp.rate_slope([(10, 1.0), (100, 0.5), (1000, bad)])


class TestSuiteStacks:
    """The prox row's stacked evaluations against the per-row loops they
    replace, on the same drawn arrays."""

    PSIS = [vp.Zero(), vp.L1(lam=0.7), vp.BoxIndicator(lo=-np.ones(8), hi=np.ones(8)),
            vp.ElasticNet(lam1=0.5, lam2=1.5)]

    @pytest.mark.parametrize("psi", PSIS, ids=lambda psi: type(psi).__name__)
    def test_certificate_gaps_match_a_per_row_loop(self, psi):
        rng = np.random.default_rng(8)
        taus = rng.uniform(0.01, 10.0, 7)
        Z = rng.normal(0.0, 3.0, (7, 8))
        deltas = rng.normal(0.0, 1.0, (7, 100, 8))
        radii = rng.random((7, 100, 1))
        got = suite._certificate_gaps(psi, taus, Z, deltas, radii)
        for tau, z, d, r, row in zip(taus.tolist(), Z, deltas, radii, got):
            u = vp.prox(psi, z, tau)
            f_u = vp.psi_value(psi, u) + np.sum((u - z) ** 2) / (2 * tau)
            d = d * ((0.1 * r) / np.linalg.norm(d, axis=1, keepdims=True))
            W = u + d
            f_w = vp.psi_value(psi, W) + np.sum((W - z) ** 2, axis=1) / (2 * tau)
            assert np.array_equal(row, f_u - f_w)

    @pytest.mark.parametrize("psi", PSIS, ids=lambda psi: type(psi).__name__)
    def test_expansion_excess_matches_a_per_step_loop(self, psi):
        rng = np.random.default_rng(9)
        taus = rng.uniform(0.01, 10.0, 5)
        Z1 = rng.normal(0.0, 3.0, (5, 40, 8))
        Z2 = rng.normal(0.0, 3.0, (5, 40, 8))
        want = max(
            float(np.max(np.linalg.norm(vp.prox(psi, z1, tau) - vp.prox(psi, z2, tau), axis=1)
                         - np.linalg.norm(z1 - z2, axis=1)))
            for tau, z1, z2 in zip(taus, Z1, Z2)
        )
        assert suite._expansion_excess(psi, taus, Z1, Z2) == want

    def test_prox_row_memory_stays_within_a_few_chunks(self):
        # Whole per-regularizer stacks would hold 1.6 MB of nearby points,
        # times the temporaries of their objective.
        assert _traced_peak_mb(lambda: suite._check_prox_properties(False, 0)) < 1.2


# One size for the three families: a chunk of the variance rows is then 68
# items, and the property's k runs past it.
_N, _DIM = 30, 8
_FAMILY_KEYS = {"quad": f"quad:{_N}:{_DIM}:1.0", "sigmoid": f"sigmoid:{_N}:{_DIM}",
                "robust": f"robust:{_N}:{_DIM}"}
_CHUNK_ITEMS = _chunks(100, 8 * _N * _DIM)[0][1]


def _direct_step(prob, x_prev, x_curr, v_prev, beta):
    """(lhs, rhs) of the one-step check on one tuple, from its two (n, dim)
    tables in plain numpy: the reference for the stacked evaluation."""
    g_curr = prob.mean_grad(x_curr)
    d_dir = v_prev - prob.mean_grad(x_prev)
    d_step = x_curr - x_prev
    one_m = (1.0 - beta) ** 2
    rhs = (one_m * (d_dir @ d_dir) + 2.0 * one_m * prob.lipschitz_L**2 * (d_step @ d_step)
           + 2.0 * beta**2 * prob.sigma_bound)
    ids = np.arange(prob.num_components)
    prev, curr = prob.grad_rows(x_prev, ids), prob.grad_rows(x_curr, ids)
    v_new = curr if beta == 1.0 else curr + (1.0 - beta) * (v_prev - prev)
    return float(np.sum((v_new - g_curr) ** 2, axis=1).mean()), float(rhs)


def _direct_unrolled(prob, traj, v0, beta):
    """(lhs, rhs) of the unrolled check on one trajectory, table by table in
    plain numpy: the reference for the stacked evaluation."""
    k = traj.shape[0] - 1
    ids = np.arange(prob.num_components)
    tables = [prob.grad_rows(x, ids) for x in traj]
    if np.ndim(v0) == 0:
        init = initial_direction_variance(prob, traj[0], v0)
    else:
        d0 = v0 - tables[0].mean(axis=0)
        init = float(d0 @ d0)
    noise = np.empty(k)
    for i in range(k):
        d = tables[i + 1] if beta == 1.0 else tables[i + 1] + (1.0 - beta) * (0.0 - tables[i])
        d = d - d.mean(axis=0)
        noise[i] = np.mean(np.sum(d * d, axis=1))
    decay = (1.0 - beta) ** 2
    lhs = decay**k * init + np.sum(decay ** np.arange(k - 1, -1, -1) * noise)
    steps = np.sum(np.diff(traj, axis=0) ** 2, axis=1)
    rhs = (decay**k * init + 2.0 * beta * prob.sigma_bound
           + 2.0 * prob.lipschitz_L**2 * np.sum(decay ** np.arange(k, 0, -1) * steps))
    return float(lhs), float(rhs)


class TestStackedEngines:
    """The stacked evaluations behind the variance and schedule rows against
    the public one-item checkers and a direct per-item evaluation, bit for
    bit."""

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(family=st.sampled_from(sorted(_FAMILY_KEYS)), k=st.integers(1, _CHUNK_ITEMS + 3),
           m=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
    def test_variance_engines_match_the_one_item_checks(self, family, k, m, seed):
        prob = vp.from_key(_FAMILY_KEYS[family], seed=1)
        rng = np.random.default_rng(seed)
        # beta in (0, 1], a fifth of them exactly 1.
        betas = np.where(rng.random(k) < 0.2, 1.0, 1.0 - rng.random(k))
        X_prev = rng.normal(0.0, 2.0, (k, _DIM))
        X_curr = X_prev + rng.normal(0.0, 0.5, (k, _DIM))
        V_prev = rng.normal(0.0, 2.0, (k, _DIM))
        lhs, rhs = validation._step_rows(prob, X_prev, X_curr, V_prev, betas)
        for r in range(k):
            rep = vp.check_variance_recursion_step(prob, X_prev[r], X_curr[r], V_prev[r], betas[r])
            direct = _direct_step(prob, X_prev[r], X_curr[r], V_prev[r], float(betas[r]))
            assert (lhs[r], rhs[r]) == (rep.lhs, rep.rhs) == direct

        # Initial batches of 1..n samples and fixed directions, mixed.
        trajectories = rng.normal(0.0, 0.5, (k, m + 1, _DIM)).cumsum(axis=1)
        batches = np.where(rng.random(k) < 0.5, rng.integers(1, _N + 1, k), 0)
        V0 = np.where(batches[:, None] == 0, rng.normal(0.0, 1.0, (k, _DIM)), 0.0)
        lhs, rhs = validation._unrolled_rows(prob, trajectories, batches, V0, betas)
        for r in range(k):
            v0 = int(batches[r]) if batches[r] else V0[r]
            rep = vp.check_variance_recursion_unrolled(prob, trajectories[r], v0, betas[r])
            direct = _direct_unrolled(prob, trajectories[r], v0, float(betas[r]))
            assert (lhs[r], rhs[r]) == (rep.lhs, rep.rhs) == direct

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(start=st.integers(1, 10**9), size=st.integers(1, 3000),
           Ls=st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=4))
    def test_schedule_core_matches_the_one_L_check(self, start, size, Ls):
        Ts = np.arange(start, start + size)
        margins, passed = validation._schedule_rows(Ts, np.array(Ls)[:, None])
        for j, L in enumerate(Ls):
            rep = vp.check_schedule_constraint(Ts, L)
            assert margins[j].tobytes() == rep.margins.tobytes()
            assert bool(passed[j]) is rep.passed


def test_full_scale_rows_stack_within_a_chunk(monkeypatch):
    # Every grad_rows call of the two variance rows, and every schedule
    # block, holds at most _CHUNK_BYTES, and each stacks many items.
    sizes = []

    def quadratic(*args, **kwargs):
        prob = vp.make_quadratic(*args, **kwargs)

        def recorded(x, ids):
            rows = prob.grad_rows(x, ids)
            sizes.append(rows.nbytes)
            return rows

        return replace(prob, grad_rows=recorded)

    def schedule_rows(Ts, Ls):
        margins, passed = validation._schedule_rows(Ts, Ls)
        sizes.append(margins.nbytes)
        return margins, passed

    monkeypatch.setattr(suite, "make_quadratic", quadratic)
    monkeypatch.setattr(suite, "_schedule_rows", schedule_rows)
    table = 50 * 10 * 8  # one (n, dim) table of the rows' quad 50x10
    for check in (lambda: suite._check_variance_recursion_step(False, 0),
                  lambda: suite._check_variance_recursion_unrolled(False, 0),
                  lambda: suite._check_schedule(False)):
        sizes.clear()
        assert check()["passed"]
        assert table < min(sizes) and max(sizes) <= _CHUNK_BYTES

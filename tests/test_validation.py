import itertools
import tracemalloc

import numpy as np
import pytest

import vrprox as vp
from vrprox import suite, validation
from vrprox.estimators import MOMENTUM_SARAH, _recursion
from vrprox.validation import (
    _floyd_draws,
    _floyd_means,
    initial_direction_variance,
    variance_recursion_rhs,
)


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
        assert rep.stderr == 0.0
        assert rep.lhs_mc == pytest.approx(beta**2 * quad.sigma_bound, rel=1e-10)
        assert rep.rhs == pytest.approx(2 * beta**2 * quad.sigma_bound, rel=1e-10)
        assert rep.passed

    def test_beta_near_one(self, quad, rng):
        x_prev = rng.normal(0, 1, quad.dim)
        x_curr = rng.normal(0, 1, quad.dim)
        v_prev = rng.normal(0, 5, quad.dim)
        rep = vp.check_variance_recursion_step(quad, x_prev, x_curr, v_prev, 1.0 - 1e-9)
        assert rep.passed
        # lhs collapses to the gradient variance at x_curr
        assert rep.lhs_mc == pytest.approx(quad.sigma_bound, rel=1e-6)

    def test_random_tuples_all_pass(self, quad):
        rng = np.random.default_rng(42)
        for _ in range(300):
            x_prev = rng.normal(0, 2, quad.dim)
            x_curr = x_prev + rng.normal(0, 1, quad.dim)
            v_prev = rng.normal(0, 3, quad.dim)
            beta = float(rng.uniform(0.01, 0.99))
            rep = vp.check_variance_recursion_step(quad, x_prev, x_curr, v_prev, beta)
            assert rep.stderr == 0.0
            assert rep.passed
            assert rep.lhs_mc <= rep.rhs

    def test_lhs_enumerates_every_component(self, quad, rng):
        # The one-step check is exact: lhs is the mean over all n fresh
        # samples, stderr is 0, and it passes exactly when lhs <= rhs.
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
        assert rep.lhs_mc == pytest.approx(np.mean(sq), rel=1e-12)
        assert rep.stderr == 0.0
        assert rep.passed == (rep.lhs_mc <= rep.rhs)

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
        assert faulted.lhs_mc != honest.lhs_mc

    @pytest.mark.parametrize("beta", [0.3, 1.0])
    @pytest.mark.parametrize("bad", ["inf", "nan", "short"])
    def test_rejects_nonfinite_or_misshapen_v_prev(self, quad, rng, beta, bad):
        x_prev, x_curr, v_prev = (rng.normal(0, 1, quad.dim) for _ in range(3))
        if bad == "short":
            v_prev = v_prev[:1]
        else:
            v_prev[0] = float(bad)
        with pytest.raises(ValueError, match="v_prev must be a finite vector"):
            vp.check_variance_recursion_step(quad, x_prev, x_curr, v_prev, beta)

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
        assert variance_recursion_rhs(quad, x_prev, x_curr, v_prev, beta) == pytest.approx(manual)


class TestUnrolled:
    def test_constant_trajectory_with_exact_v0(self, quad, rng):
        x0 = rng.normal(0, 1, quad.dim)
        traj = np.tile(x0, (6, 1))
        v0 = vp.full_gradient(quad, x0)
        rep = vp.check_variance_recursion_unrolled(quad, traj, v0, 0.25, n_mc=4000, rng=rng)
        assert rep.rhs == pytest.approx(2 * 0.25 * quad.sigma_bound, rel=1e-12)
        assert rep.passed

    def test_single_step_matches_onestep_check(self, quad, rng):
        x0 = rng.normal(0, 1, quad.dim)
        x1 = x0 + rng.normal(0, 0.5, quad.dim)
        v0 = rng.normal(0, 2, quad.dim)
        beta = 0.3
        exact = vp.check_variance_recursion_step(quad, x0, x1, v0, beta)
        mc = vp.check_variance_recursion_unrolled(quad, np.stack([x0, x1]), v0, beta, n_mc=20_000, rng=rng)
        assert abs(mc.lhs_mc - exact.lhs_mc) <= 5 * mc.stderr
        assert mc.passed

    def test_zero_length_trajectory_estimates_initial_variance(self, quad, rng):
        # k = 0 with a drawn initial batch: the replay directly estimates the
        # exact without-replacement variance.
        n = quad.num_components
        for b in (5, 2, n - 1, n):
            x0 = rng.normal(0, 1, quad.dim)
            rep = vp.check_variance_recursion_unrolled(
                quad, x0[None, :], b, 0.5, n_mc=20_000, rng=rng
            )
            exact = initial_direction_variance(quad, x0, b)
            if b == n:
                # Every batch is the whole sum: the error is rounding only.
                assert exact == 0.0 and rep.lhs_mc <= 1e-24
            else:
                assert abs(rep.lhs_mc - exact) <= 3 * rep.stderr
            assert rep.passed

    def test_random_trajectories_pass(self, quad):
        rng = np.random.default_rng(7)
        for k in range(30):
            steps = rng.normal(0, 0.3, (9, quad.dim))
            traj = np.vstack([rng.normal(0, 1, quad.dim), steps]).cumsum(axis=0)
            beta = float(rng.uniform(0.05, 0.95))
            v0 = int(rng.integers(1, 11)) if k % 2 else rng.normal(0, 1, quad.dim)
            rep = vp.check_variance_recursion_unrolled(quad, traj, v0, beta, n_mc=4000, rng=rng)
            assert rep.passed

    @pytest.mark.parametrize("v0_form", ["batch", "array"])
    def test_lhs_comes_from_the_estimator_recursion(self, quad, rng, monkeypatch, v0_form):
        # The replays run the optimizer's own momentum update, one call per
        # step and block of replays, so a fault in that recursion reaches
        # the reported lhs.
        traj = np.vstack([rng.normal(0, 1, quad.dim), rng.normal(0, 0.3, (4, quad.dim))])
        traj = traj.cumsum(axis=0)
        v0 = 3 if v0_form == "batch" else rng.normal(0, 1, quad.dim)

        def check():
            return vp.check_variance_recursion_unrolled(
                quad, traj, v0, 0.3, n_mc=1500, rng=np.random.default_rng(5))

        honest = check()
        calls = []

        def faulty(*args):
            calls.append(args[2])
            return 2.0 * _recursion(*args)

        monkeypatch.setattr(validation, "_recursion", faulty)
        faulted = check()
        assert calls == [MOMENTUM_SARAH] * 4 * 2
        assert faulted.lhs_mc != honest.lhs_mc

    @pytest.mark.parametrize("bad", [2.5, 2.0, True])
    def test_initial_batch_size_must_be_an_integer(self, quad, bad):
        traj = np.zeros((3, quad.dim))
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="initial batch size must be an integer"):
            vp.check_variance_recursion_unrolled(quad, traj, bad, 0.5, n_mc=100, rng=rng)
        with pytest.raises(ValueError, match="initial batch size must be an integer"):
            initial_direction_variance(quad, traj[0], bad)

    @pytest.mark.parametrize("n_mc", [2.5, np.float64(3.0), True, "3"], ids=repr)
    def test_replay_count_must_be_an_integer(self, quad, n_mc):
        traj = np.zeros((3, quad.dim))
        with pytest.raises(ValueError, match="n_mc must be an integer"):
            vp.check_variance_recursion_unrolled(
                quad, traj, 3, 0.5, n_mc=n_mc, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("n_mc", [0, 1])
    def test_replay_count_needs_two_replays(self, quad, n_mc):
        traj = np.zeros((3, quad.dim))
        with pytest.raises(ValueError, match="n_mc >= 2"):
            vp.check_variance_recursion_unrolled(
                quad, traj, 3, 0.5, n_mc=n_mc, rng=np.random.default_rng(0))

    def test_numpy_integer_initial_batch_size(self, quad):
        traj = np.zeros((3, quad.dim))
        reps = [
            vp.check_variance_recursion_unrolled(
                quad, traj, v0, 0.5, n_mc=100, rng=np.random.default_rng(0))
            for v0 in (3, np.int64(3))
        ]
        assert reps[1].inputs["v0"] == 3
        assert (reps[1].lhs_mc, reps[1].rhs) == (reps[0].lhs_mc, reps[0].rhs)

    def test_initial_variance_formula_edges(self, quad, rng):
        x0 = np.zeros(quad.dim)
        assert initial_direction_variance(quad, x0, quad.num_components) == 0.0
        assert initial_direction_variance(quad, x0, 1) == pytest.approx(
            quad.sigma_bound, rel=1e-12
        )
        single = vp.make_quadratic(1, 3, 1.0, seed=0)
        assert initial_direction_variance(single, np.zeros(3), 1) == 0.0


def _reference_floyd_batch(n, b, n_mc, rng):
    """Floyd's without-replacement draw written per replay with Python sets,
    consuming the stream as the check does: one (n_mc,) draw per j.  Returns
    each replay's ids in the order they are taken, shape (n_mc, b)."""
    draws = [rng.integers(0, j + 1, size=n_mc) for j in range(n - b, n)]
    order = np.empty((n_mc, b), dtype=np.int64)
    for r in range(n_mc):
        taken = set()
        for c, j in enumerate(range(n - b, n)):
            t = int(draws[c][r])
            if t in taken:
                t = j
            taken.add(t)
            order[r, c] = t
    return order


def _reference_unrolled(prob, trajectory, v0, beta, n_mc, rng):
    """The unrolled replay written out of place, drawing what the check draws
    in the same order; returns (lhs_mc, stderr, rhs)."""
    k = trajectory.shape[0] - 1
    n = prob.num_components
    all_ids = np.arange(n)
    rows0 = vp.sample_gradient(prob, trajectory[0], all_ids)
    if np.ndim(v0) == 0:
        order = _reference_floyd_batch(n, v0, n_mc, rng)
        V = rows0[order[:, 0]]
        for c in range(1, v0):
            V = V + rows0[order[:, c]]
        V = V / v0
        init_term = initial_direction_variance(prob, trajectory[0], v0)
    else:
        V = np.broadcast_to(v0, (n_mc, prob.dim)).copy()
        d0 = v0 - rows0.mean(axis=0)
        init_term = float(d0 @ d0)
    for i in range(1, k + 1):
        rows_curr = vp.sample_gradient(prob, trajectory[i], all_ids)
        rows_prev = vp.sample_gradient(prob, trajectory[i - 1], all_ids)
        ids = rng.integers(0, n, size=n_mc)
        V = rows_curr[ids] + (1.0 - beta) * (V - rows_prev[ids])
    errs = np.sum((V - vp.full_gradient(prob, trajectory[k])) ** 2, axis=1)
    decay = (1.0 - beta) ** 2
    steps = np.sum(np.diff(trajectory, axis=0) ** 2, axis=1)
    weights = decay ** np.arange(k, 0, -1)
    rhs = float(
        decay**k * init_term
        + 2.0 * beta * prob.sigma_bound
        + 2.0 * prob.lipschitz_L**2 * np.sum(weights * steps)
    )
    return float(errs.mean()), float(errs.std(ddof=1) / np.sqrt(n_mc)), rhs


@pytest.mark.parametrize("v0_form", ["batch", "array"])
def test_unrolled_matches_an_out_of_place_replay_bitwise(quad, v0_form):
    # Twelve random replay counts, then the edges of the 1024-replay blocks:
    # one replay past a block, two full blocks, and the suite's 10,000 plus
    # one (nine full blocks and a partial tenth).
    edges = (1025, 2048, 10_001)
    rng = np.random.default_rng(19)
    for case in range(12 + len(edges)):
        k = int(rng.integers(0, 10))
        traj = np.vstack([rng.normal(0, 1, quad.dim), rng.normal(0, 0.3, (k, quad.dim))])
        traj = traj.cumsum(axis=0)
        beta = float(rng.uniform(0.05, 1.0))
        if v0_form == "batch":
            v0 = [1, 2, int(rng.integers(3, quad.num_components)), quad.num_components][case % 4]
        else:
            v0 = rng.normal(0, 1, quad.dim)
        n_mc = int(rng.integers(2, 3000)) if case < 12 else edges[case - 12]
        seed = int(rng.integers(2**32))
        ref_rng, rng_used = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = _reference_unrolled(quad, traj, v0, beta, n_mc, ref_rng)
        rep = vp.check_variance_recursion_unrolled(quad, traj, v0, beta, n_mc=n_mc, rng=rng_used)
        assert (rep.lhs_mc, rep.stderr, rep.rhs) == expected
        assert rng_used.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("key", ["sigmoid:50:10", "robust:50:10"])
def test_variance_recursions_hold_on_the_nonconvex_families(key):
    # The inputs `vrprox validate` draws for its quadratic rows, on the
    # nonconvex families: 1000 one-step tuples, then 20 frozen trajectories
    # at 10,000 replays, against their certified sigma^2 and L.
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
        assert vp.check_variance_recursion_unrolled(prob, traj, v0, beta, n_mc=10_000, rng=rng).passed


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


def test_unrolled_check_memory_does_not_grow_with_the_replays():
    # 10,000 replays of a 10-point trajectory on n = 1000 components, from a
    # batch of 10: an (n_mc, n) membership or an (n_mc, dim) direction array
    # would take 10 MB and 0.8 MB.  The replays run in blocks of 1024, beside
    # 19 arrays of 10,000 ids and ten (1000, 10) gradient tables.
    prob = vp.make_quadratic(1000, 10, 1.0, seed=0)
    rng = np.random.default_rng(7)
    traj = rng.normal(0.0, 0.3, (10, prob.dim)).cumsum(axis=0)
    peak = _traced_peak_mb(
        lambda: vp.check_variance_recursion_unrolled(prob, traj, 10, 0.5, rng, n_mc=10_000)
    )
    assert peak < 6.0


class TestFloydBatch:
    # Identity rows: each replay's mean is its subset's indicator over b.
    N = 8

    def _subsets(self, b, n_mc, seed):
        draws = _floyd_draws(self.N, b, n_mc, np.random.default_rng(seed))
        V = _floyd_means(np.eye(self.N), draws)
        member = V > 0.0
        np.testing.assert_array_equal(V, member / b)
        return member

    @pytest.mark.parametrize("b", range(1, 9))
    def test_each_replay_takes_b_distinct_ids(self, b):
        member = self._subsets(b, 5000, seed=b)
        assert np.all(member.sum(axis=1) == b)

    def test_subsets_are_uniform(self):
        # 56 subsets of 3 out of 8, 200 expected draws each.  The chi-square
        # statistic (55 degrees of freedom) stays below its 0.999 quantile,
        # 93.17, and each id's inclusion count lies within 4 standard
        # deviations of its binomial mean n_mc * 3/8.
        b, n_mc = 3, 56 * 200
        member = self._subsets(b, n_mc, seed=2024)
        codes = member.astype(np.int64) @ (1 << np.arange(self.N))
        subsets = [sum(1 << i for i in c) for c in itertools.combinations(range(self.N), b)]
        counts = np.array([np.count_nonzero(codes == c) for c in subsets])
        assert counts.sum() == n_mc
        expected = n_mc / len(subsets)
        assert np.sum((counts - expected) ** 2 / expected) < 93.17
        q = b / self.N
        inclusion = member.sum(axis=0)
        assert np.all(np.abs(inclusion - n_mc * q) <= 4 * np.sqrt(n_mc * q * (1 - q)))

    def test_single_id_batch_is_one_integers_draw(self):
        rows = np.random.default_rng(3).normal(size=(self.N, 5))
        ours, ref = np.random.default_rng(11), np.random.default_rng(11)
        V = _floyd_means(rows, _floyd_draws(self.N, 1, 777, ours))
        batch = ref.integers(0, self.N, size=(777, 1))
        assert V.tobytes() == rows[batch].mean(axis=1).tobytes()
        assert ours.bit_generator.state == ref.bit_generator.state


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
        # The suite's row folds blocks of 2^14 horizons (quick: one partial
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_means(self, bad):
        with pytest.raises(ValueError, match="positive finite means"):
            vp.rate_slope([(10, 1.0), (100, 0.5), (1000, bad)])

import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vrprox as vp
from vrprox import estimators, optimizer, oracle
from vrprox.estimators import EVALS_PER_STEP, HYBRID_SARAH, MOMENTUM_SARAH, SARAH, SGD
from vrprox.optimizer import BLOCK, DivergenceError, MAX_ITERATE_NORM, _guard
from vrprox.oracle import draw_sample_ids
from vrprox.prox import BoxIndicator, L1, Zero


class TestSchedule:
    def test_values_at_small_horizon(self):
        hp = vp.schedule_from_T(7, 1.0)
        assert hp.eta == 0.25
        assert hp.beta == 0.25
        assert hp.b_tilde == 1
        assert hp.T == 7

    def test_values_at_cube_horizon(self):
        hp = vp.schedule_from_T(999, 1.0)
        assert hp.eta == 0.05
        assert hp.beta == 0.01
        assert hp.b_tilde == 5

    def test_eta_scales_with_L(self):
        assert vp.schedule_from_T(7, 2.0).eta == 0.125
        assert vp.schedule_from_T(7, 2.0).beta == 0.25

    @pytest.mark.parametrize(
        "T,b",
        [(1, 1), (7, 1), (8, 2), (62, 2), (63, 2), (215, 3), (999, 5), (1000, 6), (10**6, 51)],
    )
    def test_initial_batch_exact_integer(self, T, b):
        # b_tilde = ceil((T+1)^{1/3} / 2) = least m with 8 m^3 >= T+1
        assert vp.schedule_from_T(T, 1.0).b_tilde == b

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(1, 10**4), offset=st.sampled_from([-2, -1, 0]))
    def test_initial_batch_at_perfect_cubes(self, m, offset):
        # T + 1 = 8 m^3 - 1, 8 m^3 and 8 m^3 + 1: the least m' with
        # 8 m'^3 >= T + 1 is m, m and m + 1.
        T = 8 * m**3 + offset
        b = vp.schedule_from_T(T, 1.0).b_tilde
        assert 8 * b**3 >= T + 1 and (b == 1 or 8 * (b - 1) ** 3 < T + 1)
        assert b == (m + 1 if offset == 0 else m)

    def test_constraint_holds_on_sampled_horizons(self):
        for T in (1, 2, 7, 99, 1000, 54321, 10**6):
            for L in (0.1, 1.0, 10.0):
                hp = vp.schedule_from_T(T, L)
                q = L * hp.eta
                assert 0 < q < 0.5
                assert hp.beta >= 2 * L**2 * hp.eta**2 / (1 - q)
                assert hp.beta < 1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            vp.schedule_from_T(0, 1.0)
        with pytest.raises(ValueError):
            vp.schedule_from_T(10, 0.0)

    @pytest.mark.parametrize("L", [True, np.True_], ids=repr)
    def test_lipschitz_constant_must_not_be_a_bool(self, L):
        # T = True is refused as a horizon; L = True is refused alike.
        with pytest.raises(ValueError, match="L must be a positive finite scalar"):
            vp.schedule_from_T(5, L)

    @pytest.mark.parametrize("T", [10.7, 10.0, True, "10"])
    def test_horizon_must_be_an_integer(self, T):
        with pytest.raises(ValueError, match="T must be an integer"):
            vp.schedule_from_T(T, 1.0)

    @pytest.mark.parametrize("T", [2**53, 10**400], ids=["2**53", "10**400"])
    def test_horizon_above_the_maximum_is_refused(self, T):
        # From 2**53 on, T + 1.0 is no longer exact; far above it, it overflows.
        with pytest.raises(ValueError, match=rf"T must be <= {optimizer.MAX_HORIZON}"):
            vp.schedule_from_T(T, 1.0)

    def test_largest_horizon_is_scheduled(self):
        T = optimizer.MAX_HORIZON
        assert T == 2**53 - 1
        b = vp.schedule_from_T(T, 1.0).b_tilde
        assert 8 * b**3 >= T + 1 > 8 * (b - 1) ** 3

    def test_numpy_integer_horizon(self):
        hp = vp.schedule_from_T(np.int64(999), 1.0)
        assert hp == vp.schedule_from_T(999, 1.0)
        assert type(hp.T) is int and type(hp.eta) is float


class TestHyperParams:
    def test_one_constant_step(self):
        assert [f.name for f in fields(vp.HyperParams)] == ["eta", "beta", "b_tilde", "T"]

    @pytest.mark.parametrize("bad", [dict(eta=0.0), dict(eta=np.inf), dict(beta=-0.1),
                                     dict(beta=1.1), dict(b_tilde=0), dict(T=0),
                                     dict(b_tilde=2.5), dict(T=10.5), dict(b_tilde=2.0),
                                     dict(b_tilde=True), dict(T=True)])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            vp.HyperParams(**{**dict(eta=0.1, beta=0.5, b_tilde=2, T=10), **bad})

    def test_accepts_numpy_integers(self):
        hp = vp.HyperParams(eta=0.1, beta=0.5, b_tilde=np.int64(2), T=np.int32(10))
        assert (hp.b_tilde, hp.T) == (2, 10)


class TestGradientMapping:
    def test_zero_regularizer_reduces_to_gradient(self, quad_small, rng):
        x = rng.normal(0, 2, quad_small.dim)
        g = vp.full_gradient(quad_small, x)
        for eta in (0.05, 0.5, 2.0):
            np.testing.assert_allclose(
                vp.gradient_mapping(quad_small, Zero(), x, eta), g, atol=1e-12
            )

    def test_zero_at_stationary_point(self):
        prob = vp.make_quadratic(1, 3, centers=np.array([[1.0, -2.0, 0.5]]))
        gm = vp.gradient_mapping(prob, Zero(), np.array([1.0, -2.0, 0.5]), 0.3)
        np.testing.assert_array_equal(gm, np.zeros(3))

    def test_lasso_stationary_point(self):
        # f(x) = (x-2)^2/2, psi = |x|: the composite minimum sits at x = 1
        # (confirmed by grid search below), and the mapping vanishes there.
        prob = vp.make_quadratic(1, 1, centers=np.array([[2.0]]))
        psi = L1(lam=1.0)
        grid = np.arange(-1.0, 3.0, 1e-4)
        F = 0.5 * (grid - 2.0) ** 2 + np.abs(grid)
        assert abs(grid[np.argmin(F)] - 1.0) <= 1e-4
        for eta in (0.1, 0.5):
            gm = vp.gradient_mapping(prob, psi, np.array([1.0]), eta)
            assert np.abs(gm[0]) <= 1e-10


def _hp(eta=0.1, beta=0.5, b=4, T=60):
    return vp.HyperParams(eta=eta, beta=beta, b_tilde=b, T=T)


class TestRun:
    def test_deterministic_instance_descends(self):
        # n = 1: no stochasticity, the run is exact proximal gradient descent.
        prob = vp.make_quadratic(1, 6, 1.0, seed=4)
        hp = _hp(eta=0.4, beta=0.7, b=1, T=30)
        trace = vp.run(prob, Zero(), hp, rng=0, x0=np.full(6, 3.0))
        assert np.all(np.diff(trace.grad_map_sq) <= 1e-15)
        assert np.all(np.diff(trace.obj) <= 1e-15)

    def test_same_seed_bitwise_identical(self, quad_small):
        a = vp.run(quad_small, L1(lam=0.1), _hp(), rng=77)
        b = vp.run(quad_small, L1(lam=0.1), _hp(), rng=77)
        assert a.output_index == b.output_index
        assert a.oracle_calls == b.oracle_calls
        np.testing.assert_array_equal(a.output_x, b.output_x)
        for field in ("grad_map_sq", "obj", "est_err_sq", "step_sq"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_sgd_equals_momentum_with_beta_one(self, quad_small):
        hp = vp.HyperParams(eta=0.08, beta=1.0, b_tilde=3, T=100)
        sgd = vp.run(quad_small, Zero(), hp, rng=5, kind=SGD)
        mom = vp.run(quad_small, Zero(), hp, rng=5, kind=MOMENTUM_SARAH)
        np.testing.assert_array_equal(sgd.step_sq, mom.step_sq)
        np.testing.assert_array_equal(sgd.grad_map_sq, mom.grad_map_sq)
        np.testing.assert_array_equal(sgd.est_err_sq, mom.est_err_sq)
        np.testing.assert_array_equal(sgd.output_x, mom.output_x)
        assert sgd.oracle_calls == 3 + 100
        assert mom.oracle_calls == 3 + 200

    @pytest.mark.parametrize(
        "kind,calls",
        [(MOMENTUM_SARAH, 4 + 2 * 60), (SARAH, 4 + 2 * 60), (HYBRID_SARAH, 4 + 3 * 60), (SGD, 4 + 60)],
    )
    def test_oracle_accounting(self, quad_small, kind, calls):
        trace = vp.run(quad_small, Zero(), _hp(), rng=1, kind=kind, diagnostics=False)
        assert trace.oracle_calls == calls
        assert trace.diagnostic_full_gradients == 0

    def test_diagnostic_accounting_separate(self, quad_small):
        trace = vp.run(quad_small, Zero(), _hp(T=25), rng=1)
        assert trace.oracle_calls == 4 + 50
        assert trace.diagnostic_full_gradients == 26

    def test_box_keeps_iterates_feasible(self):
        prob = vp.make_quadratic(12, 4, 3.0, seed=6)
        box = BoxIndicator(lo=-0.2 * np.ones(4), hi=0.2 * np.ones(4))
        trace = vp.run(prob, box, _hp(eta=0.3, T=60), rng=9, x0=np.zeros(4))
        # obj = f + psi stays finite only on feasible iterates, and the
        # selected output obeys the bounds componentwise.
        assert np.all(np.isfinite(trace.obj))
        assert np.all(trace.output_x >= -0.2 - 1e-12)
        assert np.all(trace.output_x <= 0.2 + 1e-12)

    def test_stationary_start_stays_fixed(self):
        center = np.array([[0.3, -1.0, 2.0]])
        prob = vp.make_quadratic(1, 3, centers=center)
        hp = vp.HyperParams(eta=0.2, beta=0.6, b_tilde=1, T=40)
        trace = vp.run(prob, Zero(), hp, rng=3, x0=center[0])
        assert np.all(trace.step_sq <= 1e-24)
        np.testing.assert_allclose(trace.output_x, center[0], atol=1e-12)

    def test_output_index_uniform_capture(self, quad_small):
        # output_x must equal the iterate the index points at; check against a
        # rerun that records the full trajectory via diagnostics arrays.
        hp = _hp(T=15)
        trace = vp.run(quad_small, Zero(), hp, rng=123)
        assert 0 <= trace.output_index <= 15
        gm = vp.gradient_mapping(quad_small, Zero(), trace.output_x, hp.eta)
        assert gm @ gm == pytest.approx(trace.grad_map_sq[trace.output_index], rel=1e-12)

    def test_divergence_raises_with_iteration(self, quad_small):
        hp = vp.HyperParams(eta=2.5e11, beta=0.5, b_tilde=2, T=50)
        with pytest.raises(DivergenceError) as err:
            vp.run(quad_small, Zero(), hp, rng=2, diagnostics=False)
        assert err.value.t >= 1
        assert err.value.norm > MAX_ITERATE_NORM or not np.isfinite(err.value.norm)

    def test_unknown_kind_rejected(self, quad_small):
        with pytest.raises(ValueError, match="unknown estimator kind"):
            vp.run(quad_small, Zero(), _hp(), rng=0, kind="warp_drive")

    @pytest.mark.parametrize("rng", [3.7, 3.0, True, None, "3", np.random.default_rng(3)])
    def test_rng_must_be_an_integer_seed(self, quad_small, rng):
        with pytest.raises(TypeError, match="integer seed"):
            vp.run(quad_small, Zero(), _hp(T=5), rng=rng)

    def test_negative_seed_names_the_seed(self, quad_small):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            vp.run(quad_small, Zero(), _hp(T=5), rng=-1)

    @pytest.mark.parametrize("hp", [None, {"eta": 0.1, "beta": 0.5, "b_tilde": 2, "T": 5}],
                             ids=["None", "dict"])
    def test_hp_must_be_hyperparams(self, quad_small, hp):
        with pytest.raises(TypeError, match="hp must be a HyperParams"):
            vp.run(quad_small, Zero(), hp, rng=0)

    def test_numpy_integer_seed_is_recorded_as_int(self, quad_small):
        trace = vp.run(quad_small, Zero(), _hp(T=5), rng=np.int64(3))
        assert type(trace.seed) is int and trace.seed == 3
        same = vp.run(quad_small, Zero(), _hp(T=5), rng=3)
        assert trace.step_sq.tobytes() == same.step_sq.tobytes()

    def test_x0_outside_domain_rejected(self, quad_small):
        box = BoxIndicator(lo=np.zeros(quad_small.dim), hi=np.ones(quad_small.dim))
        with pytest.raises(ValueError):
            vp.run(quad_small, box, _hp(), rng=0, x0=-np.ones(quad_small.dim))


class TestMeanGradMapSq:
    def test_trivial_values(self, quad_small):
        trace = vp.run(quad_small, Zero(), _hp(T=10), rng=4)
        trace.grad_map_sq = np.zeros(11)
        assert vp.mean_grad_map_sq(trace) == 0.0
        trace.grad_map_sq = np.array([4.0])
        assert vp.mean_grad_map_sq(trace) == 4.0

    def test_requires_diagnostics(self, quad_small):
        trace = vp.run(quad_small, Zero(), _hp(T=10), rng=4, diagnostics=False)
        with pytest.raises(ValueError):
            vp.mean_grad_map_sq(trace)

    @pytest.mark.parametrize("bad", [None, np.zeros(3)], ids=["None", "array"])
    def test_refuses_what_is_not_a_trace(self, bad):
        with pytest.raises(TypeError, match="trace must be a RunTrace"):
            vp.mean_grad_map_sq(bad)

    def test_matches_output_resampling(self, quad_small):
        # Independent oracle: resample the uniform output index many times and
        # average the recorded ||G||^2 values.
        trace = vp.run(quad_small, Zero(), _hp(T=40), rng=8)
        rng = np.random.default_rng(0)
        draws = trace.grad_map_sq[rng.integers(0, 41, size=10_000)]
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(vp.mean_grad_map_sq(trace) - draws.mean()) <= 3 * se


class TestNonFiniteStep:
    """A step that leaves the float range ends in DivergenceError, whatever the
    regularizer (the box prox would otherwise clamp an infinite step)."""

    @pytest.mark.parametrize("psi", [Zero(), L1(lam=0.1), vp.ElasticNet(0.1, 0.2),
                                     BoxIndicator(lo=-20.0, hi=20.0)])
    @pytest.mark.parametrize("diagnostics", [True, False])
    def test_overflowing_first_step(self, quad_small, psi, diagnostics):
        hp = vp.HyperParams(eta=1e308, beta=0.5, b_tilde=2, T=50)
        x0 = 10.0 * np.ones(quad_small.dim)
        # With overflow ignored, as an experiment task runs, the divergence is
        # reported once, as DivergenceError: any other RuntimeWarning would
        # become a different exception here.
        with np.errstate(over="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError) as err:
                vp.run(quad_small, psi, hp, rng=2, x0=x0, diagnostics=diagnostics)
        assert err.value.t == 1

    @pytest.mark.parametrize("psi", [Zero(), BoxIndicator(lo=-20.0, hi=20.0)])
    def test_overflowing_step_in_the_loop(self, quad_small, psi):
        # x0 is the center of the first drawn sample, so v_0 = 0 exactly and
        # the first step stays put; the huge constant step overflows later.
        hp = vp.HyperParams(eta=1e308, beta=0.5, b_tilde=1, T=50)
        first = draw_sample_ids(quad_small, 1, np.random.Generator(np.random.PCG64(2)))[0]
        x0 = quad_small.meta["centers"][first]
        with np.errstate(over="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError) as err:
                vp.run(quad_small, psi, hp, rng=2, x0=x0)
        assert err.value.t >= 2


@pytest.mark.parametrize("lam", [None, 0.05], ids=["Zero", "L1"])
def test_quadratic_trace_scales_with_its_data(lam):
    # Centers 2^43 times as far out give iterates 2^43 times and every
    # squared quantity 2^86 times the unit spread's, bit for bit (a power of
    # two scales exactly), with the L1 weight scaled alike; the scaled
    # minimiser lies beyond MAX_ITERATE_NORM, so the guard must scale too.
    S = 2.0**43
    hp = vp.schedule_from_T(1000, 1.0)
    psis = (Zero(), Zero()) if lam is None else (L1(lam=lam), L1(lam=lam * S))
    unit = vp.run(vp.make_quadratic(20, 6, 1.0, seed=3), psis[0], hp, rng=5)
    scaled = vp.run(vp.make_quadratic(20, 6, S, seed=3), psis[1], hp, rng=5)
    for name in ("grad_map_sq", "est_err_sq", "step_sq", "obj"):
        assert (getattr(unit, name) * S**2).tobytes() == getattr(scaled, name).tobytes(), name
    assert (unit.output_x * S).tobytes() == scaled.output_x.tobytes()


def _scan_guard(x, t):
    # The divergence check as a full finiteness scan plus np.linalg.norm.
    if not np.all(np.isfinite(x)):
        raise DivergenceError(t, float(np.max(np.abs(x[np.isfinite(x)]), initial=0.0)))
    norm = float(np.linalg.norm(x))
    if norm > MAX_ITERATE_NORM:
        raise DivergenceError(t, norm)


@pytest.mark.parametrize(
    "x",
    [
        np.array([1.0, np.nan, -3.0]),
        np.array([np.inf, 2.0, -5.0]),
        np.array([-np.inf, np.nan, np.inf]),
        np.array([6e12, 8e12, 0.0]),  # norm 1e13
        np.full(4, 1e200),  # finite entries whose squared norm overflows
        np.array([3.0, -4.0, 0.5]),
        np.array([1e12, 0.0, 0.0]),
    ],
)
def test_guard_reports_like_a_full_scan(x):
    expected = got = None
    # With overflow ignored, as an experiment task runs (a squared norm of
    # 1e200 entries overflows to inf in both forms); nothing else may warn.
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            _scan_guard(x, 7)
        except DivergenceError as exc:
            expected = (exc.t, exc.norm)
        try:
            _guard(x, 7, MAX_ITERATE_NORM)
        except DivergenceError as exc:
            got = (exc.t, exc.norm)
    assert got == expected


def _reference_run(prob, psi, hp, seed, kind):
    """run() rebuilt on the public oracle and prox functions, with the four
    direction recursions written out in the library's operation order."""
    rng = np.random.Generator(np.random.PCG64(seed))
    x = np.zeros(prob.dim)
    v = vp.minibatch_gradient(prob, x, draw_sample_ids(prob, hp.b_tilde, rng))
    calls = hp.b_tilde
    output_index = int(rng.integers(0, hp.T + 1))
    output_x = x.copy() if output_index == 0 else None
    grad_map_sq, obj, est_err_sq, step_sq = [], [], [], []

    def draw():
        return int(draw_sample_ids(prob, 1, rng)[0])

    def grad(xt, i):
        nonlocal calls
        calls += 1
        return vp.sample_gradient(prob, xt, i)

    def record(xt, vt):
        g = vp.full_gradient(prob, xt)
        gm = (xt - vp.prox(psi, xt - hp.eta * g, hp.eta)) / hp.eta
        grad_map_sq.append(gm @ gm)
        obj.append(vp.full_value(prob, xt) + vp.psi_value(psi, xt))
        dv = vt - g
        est_err_sq.append(dv @ dv)

    def step(xt, vt):
        x_next = vp.prox(psi, xt - hp.eta * vt, hp.eta)
        _scan_guard(x_next, len(step_sq) + 1)
        d = x_next - xt
        step_sq.append(d @ d)
        return x_next

    record(x, v)
    x_prev, x = x, step(x, v)
    for t in range(1, hp.T + 1):
        xi = draw()
        if kind == SGD:
            v = grad(x, xi)
        elif kind == HYBRID_SARAH:
            zeta = draw()
            g_curr, g_prev, g_zeta = grad(x, xi), grad(x_prev, xi), grad(x, zeta)
            v = (1.0 - hp.beta) * (v + g_curr - g_prev) + hp.beta * g_zeta
        else:
            beta = 0.0 if kind == SARAH else hp.beta
            g_curr, g_prev = grad(x, xi), grad(x_prev, xi)
            v = g_curr + (1.0 - beta) * (v - g_prev)
        if t == output_index:
            output_x = x.copy()
        record(x, v)
        x_prev, x = x, step(x, v)
    arrays = {"step_sq": step_sq, "grad_map_sq": grad_map_sq, "obj": obj,
              "est_err_sq": est_err_sq}
    return {k: np.array(v) for k, v in arrays.items()}, output_x, output_index, calls


_EQUIV_PROBLEMS = {
    "quad": lambda: vp.make_quadratic(30, 6, 1.0, seed=3),
    "sigmoid": lambda: vp.make_nonconvex_sigmoid(60, 5, seed=2),
    "robust": lambda: vp.make_robust_regression(40, 4, seed=1),
}


@pytest.mark.parametrize("problem", sorted(_EQUIV_PROBLEMS))
@pytest.mark.parametrize("psi", [Zero(), L1(lam=0.05), vp.ElasticNet(0.05, 0.3),
                                 BoxIndicator(lo=-0.5, hi=0.5)], ids=repr)
@pytest.mark.parametrize("kind", [MOMENTUM_SARAH, HYBRID_SARAH, SARAH, SGD])
# Horizons on both sides of the block edges of the loop's draws and reductions.
@pytest.mark.parametrize("T", [80, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_run_matches_public_api_loop_bitwise(problem, psi, kind, T):
    prob = _EQUIV_PROBLEMS[problem]()
    hp = vp.schedule_from_T(T, prob.lipschitz_L)
    arrays, output_x, output_index, calls = _reference_run(prob, psi, hp, 41, kind)
    for diagnostics in (True, False):
        trace = vp.run(prob, psi, hp, rng=41, kind=kind, diagnostics=diagnostics)
        for name, expected in arrays.items():
            if diagnostics or name == "step_sq":
                assert getattr(trace, name).tobytes() == expected.tobytes(), name
            else:
                assert getattr(trace, name) is None, name
        assert trace.output_index == output_index
        assert trace.output_x.tobytes() == output_x.tobytes()
        assert trace.oracle_calls == calls
        assert trace.diagnostic_full_gradients == (T + 1 if diagnostics else 0)


@pytest.mark.parametrize("kind", [MOMENTUM_SARAH, HYBRID_SARAH, SARAH, SGD])
@pytest.mark.parametrize("diagnostics", [True, False])
def test_run_keeps_the_call_structure_the_benchmark_traces(monkeypatch, kind, diagnostics):
    # A traced benchmark run wraps these module attributes and checks the
    # counts exactly: one sample_gradient per evaluation with a Python-int
    # id, one full_gradient per iterate with diagnostics on, and one initial
    # batch of b_tilde ids.
    sample_ids, full_points, batches = [], [], []

    def sample_gradient(prob, x, ids):
        sample_ids.append(ids)
        return oracle.sample_gradient(prob, x, ids)

    def full_gradient(prob, x):
        full_points.append(x)
        return oracle.full_gradient(prob, x)

    def minibatch_gradient(prob, x, ids):
        batches.append(ids)
        return oracle.minibatch_gradient(prob, x, ids)

    monkeypatch.setattr(optimizer, "sample_gradient", sample_gradient)
    monkeypatch.setattr(optimizer, "full_gradient", full_gradient)
    monkeypatch.setattr(estimators, "minibatch_gradient", minibatch_gradient)
    prob = _EQUIV_PROBLEMS["quad"]()
    T = BLOCK + 5
    hp = vp.schedule_from_T(T, prob.lipschitz_L)
    trace = vp.run(prob, Zero(), hp, rng=7, kind=kind, diagnostics=diagnostics)
    assert len(sample_ids) == EVALS_PER_STEP[kind] * T
    assert all(type(i) is int for i in sample_ids)
    assert len(full_points) == (T + 1 if diagnostics else 0)
    assert len(batches) == 1 and np.size(batches[0]) == hp.b_tilde > 1
    assert trace.oracle_calls == hp.b_tilde + len(sample_ids)


@pytest.mark.parametrize("psi", [Zero(), L1(lam=0.01), vp.ElasticNet(0.001, 0.001)], ids=repr)
@pytest.mark.parametrize("kind", [MOMENTUM_SARAH, HYBRID_SARAH, SARAH, SGD])
@pytest.mark.parametrize("diagnostics", [True, False])
def test_divergence_in_second_block_matches_public_api_loop(psi, kind, diagnostics):
    # A constant step past the stable range grows the iterate geometrically
    # until its norm crosses MAX_ITERATE_NORM, while still finite, at a step
    # of the loop's second block (t = 344 to 377 here).
    prob = _EQUIV_PROBLEMS["quad"]()
    hp = vp.HyperParams(eta=2.08, beta=0.5, b_tilde=2, T=3 * BLOCK)
    with pytest.raises(DivergenceError) as expected:
        _reference_run(prob, psi, hp, 41, kind)
    assert BLOCK < expected.value.t <= 2 * BLOCK
    with pytest.raises(DivergenceError) as got:
        vp.run(prob, psi, hp, rng=41, kind=kind, diagnostics=diagnostics)
    assert (got.value.t, got.value.norm) == (expected.value.t, expected.value.norm)

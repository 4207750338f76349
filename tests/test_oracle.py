import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

import vrprox as vp
from vrprox.oracle import (
    _generator,
    draw_sample_ids,
    draw_step_ids,
    sigma2_at,
)
from vrprox.problems import from_key


def test_quadratic_sample_gradient_closed_form(quad_small, rng):
    x = rng.normal(0, 2, quad_small.dim)
    centers = x - np.stack(
        [vp.sample_gradient(quad_small, x, i) for i in range(quad_small.num_components)]
    )
    # grad f_i(x) = x - c_i, so recovered centers must be x-independent
    y = rng.normal(0, 2, quad_small.dim)
    for i in range(quad_small.num_components):
        np.testing.assert_allclose(vp.sample_gradient(quad_small, y, i), y - centers[i], atol=1e-14)


def test_mean_of_sample_gradients_is_full_gradient(quad_small, rng):
    x = rng.normal(0, 2, quad_small.dim)
    mean = np.mean(
        [vp.sample_gradient(quad_small, x, i) for i in range(quad_small.num_components)], axis=0
    )
    np.testing.assert_allclose(mean, vp.full_gradient(quad_small, x), atol=1e-12)


def test_single_component_full_equals_sample(rng):
    prob = vp.make_quadratic(1, 5, 1.0, seed=3)
    x = rng.normal(0, 1, 5)
    np.testing.assert_allclose(
        vp.full_gradient(prob, x), vp.sample_gradient(prob, x, 0), atol=1e-14
    )


def test_minibatch_gradient(quad_small, rng):
    x = rng.normal(0, 1, quad_small.dim)
    n = quad_small.num_components
    np.testing.assert_allclose(
        vp.minibatch_gradient(quad_small, x, np.arange(n)),
        vp.full_gradient(quad_small, x),
        atol=1e-12,
    )
    np.testing.assert_array_equal(
        vp.minibatch_gradient(quad_small, x, [7]), vp.sample_gradient(quad_small, x, 7)
    )
    with pytest.raises(ValueError):
        vp.minibatch_gradient(quad_small, x, [])


def test_minibatch_variance_over_redraws():
    # Monte-Carlo over batch redraws against the exact without-replacement
    # variance (sigma^2 / b) * (n - b) / (n - 1).
    prob = vp.make_quadratic(25, 6, 1.0, seed=5)
    n, b = prob.num_components, 5
    x = np.zeros(prob.dim)
    g = vp.full_gradient(prob, x)
    rng = np.random.default_rng(99)
    n_redraws = 10_000
    errs = np.empty(n_redraws)
    for k in range(n_redraws):
        ids = draw_sample_ids(prob, b, rng)
        d = vp.minibatch_gradient(prob, x, ids) - g
        errs[k] = d @ d
    expected = prob.sigma_bound / b * (n - b) / (n - 1)
    se = errs.std(ddof=1) / np.sqrt(n_redraws)
    assert abs(errs.mean() - expected) <= 3 * se
    # Sampling without replacement can only shrink the with-replacement variance.
    assert errs.mean() <= prob.sigma_bound / b + 3 * se


def test_sigma2_at_exact_enumeration(rng):
    prob = vp.make_quadratic(30, 8, 1.5, seed=21)
    xs = [rng.normal(0, 3, prob.dim) for _ in range(10)]
    # Exact enumeration, x-independent for this family: every point gives the
    # closed-form center scatter.
    for x in xs:
        assert sigma2_at(prob, x) == pytest.approx(prob.sigma_bound, abs=1e-12)


def test_sigma2_at_zero_for_deterministic_instance():
    centers = np.tile(np.array([[1.0, -2.0]]), (4, 1))
    prob = vp.make_quadratic(4, 2, centers=centers)
    assert sigma2_at(prob, np.zeros(2)) == 0.0
    assert prob.sigma_bound == 0.0


def test_sigma2_at_respects_certified_bound(quad_small, rng):
    for _ in range(5):
        x = rng.normal(0, 5, quad_small.dim)
        assert sigma2_at(quad_small, x) <= quad_small.sigma_bound + 1e-12


@pytest.mark.parametrize("bad", [None, 0, 2.5])
def test_num_components_must_be_a_positive_integer(quad_small, bad):
    with pytest.raises(ValueError, match="num_components must be an integer >= 1"):
        replace(quad_small, num_components=bad)


@pytest.mark.parametrize("bad", [0, 2.5, True, None])
def test_dim_must_be_a_positive_integer(quad_small, bad):
    with pytest.raises(ValueError, match="dim must be an integer >= 1"):
        replace(quad_small, dim=bad)


def test_numpy_integer_dim_is_accepted(quad_small):
    assert replace(quad_small, dim=np.int64(quad_small.dim)).dim == quad_small.dim


@pytest.mark.parametrize("bad", [np.nan, -1.0, np.inf])
def test_sigma_bound_must_be_finite_and_nonnegative(quad_small, bad):
    with pytest.raises(ValueError, match="sigma_bound must be a finite scalar >= 0"):
        replace(quad_small, sigma_bound=bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -5.0, 0.0, True])
def test_sampling_radius_must_be_positive_and_finite(quad_small, bad):
    # The spot check and the divergence guard read the radius; a bad one
    # used to end in OverflowError, numpy's "high - low < 0" or a NaN there.
    with pytest.raises(ValueError, match="sampling_radius must be a positive finite scalar"):
        replace(quad_small, sampling_radius=bad)


@pytest.mark.parametrize("bad", [True, np.True_], ids=repr)
def test_lipschitz_L_must_not_be_a_bool(quad_small, bad):
    with pytest.raises(ValueError, match="lipschitz_L must be a positive finite scalar"):
        replace(quad_small, lipschitz_L=bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_f_lower_must_be_finite(quad_small, bad):
    with pytest.raises(ValueError, match="f_lower must be finite"):
        replace(quad_small, f_lower=bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_centers_are_rejected(bad):
    with pytest.raises(ValueError, match="centers must be finite"):
        vp.make_quadratic(2, 2, centers=[[bad, 0.0], [1.0, 1.0]])


def test_far_out_centers_keep_a_finite_sampling_radius():
    # Ten times the largest center entry overflows; the radius, which must
    # be finite, stops at the largest float.
    prob = vp.make_quadratic(2, 2, centers=[[5e307, 0.0], [5e307, 0.0]])
    assert prob.sampling_radius == np.finfo(float).max


@pytest.mark.parametrize("name", ["grad_rows", "mean_grad", "mean_value"])
def test_closed_forms_are_required_fields(quad_small, name):
    kwargs = {f.name: getattr(quad_small, f.name) for f in fields(quad_small) if f.name != name}
    with pytest.raises(TypeError, match=name):
        vp.ProblemInstance(**kwargs)


@pytest.mark.parametrize("key", ["quad:20:4:1.0", "sigmoid:20:4", "robust:20:4"])
def test_sigma2_at_enumerates_every_component(key, rng):
    # sigma2_at is exact: the scatter of all n per-sample gradients about
    # their mean, with no Monte-Carlo draw.
    prob = from_key(key, seed=3)
    for x in rng.uniform(-5.0, 5.0, (5, prob.dim)):
        grads = np.array([prob.grad_rows(x, i) for i in range(prob.num_components)])
        dev = grads - grads.mean(axis=0)
        expected = np.mean(np.sum(dev * dev, axis=1))
        assert sigma2_at(prob, x) == pytest.approx(expected, rel=1e-10, abs=1e-14)


@pytest.mark.parametrize("wrap", [lambda i: i, lambda i: [0, i]], ids=["id", "array"])
def test_sample_id_validation(quad_small, wrap):
    x = np.zeros(quad_small.dim)
    with pytest.raises(ValueError, match="out of range"):
        vp.sample_gradient(quad_small, x, wrap(quad_small.num_components))
    with pytest.raises(ValueError, match="out of range"):
        vp.sample_gradient(quad_small, x, wrap(-1))
    with pytest.raises(ValueError, match="point has shape"):
        vp.sample_gradient(quad_small, np.zeros(quad_small.dim + 1), wrap(0))


@pytest.mark.parametrize("bad", [2.9, 2.0, True, "2", None])
def test_sample_id_must_be_an_integer(quad_small, bad):
    x = np.zeros(quad_small.dim)
    with pytest.raises(ValueError, match="sample id must be an integer"):
        vp.sample_gradient(quad_small, x, bad)


@pytest.mark.parametrize("bad", [[1.7], [True], [0, 2.0], np.array([0.5, 2.2]),
                                 np.array([True, False]), [True, 2], (2, np.True_),
                                 [np.int64(2), False]])
def test_batch_ids_must_be_integers(quad_small, bad):
    x = np.zeros(quad_small.dim)
    with pytest.raises(ValueError, match="sample ids must be integers"):
        vp.minibatch_gradient(quad_small, x, bad)
    with pytest.raises(ValueError, match="sample ids must be integers"):
        vp.sample_gradient(quad_small, x, bad)


@pytest.mark.parametrize("key", ["quad:5:3:1.0", "sigmoid:5:3", "robust:5:3"])
@pytest.mark.parametrize("bad", [[[1, 2], [3, 4]], np.array([[1], [2]])])
def test_id_arrays_must_be_one_dimensional(key, bad):
    prob = from_key(key)
    x = np.zeros(prob.dim)
    with pytest.raises(ValueError, match="sample ids must form a 1-D array"):
        vp.sample_gradient(prob, x, bad)
    with pytest.raises(ValueError, match="sample ids must form a 1-D array"):
        vp.minibatch_gradient(prob, x, bad)


def test_numpy_integer_ids_are_accepted(quad_small):
    x = np.ones(quad_small.dim)
    g = vp.sample_gradient(quad_small, x, 3)
    np.testing.assert_array_equal(vp.sample_gradient(quad_small, x, np.int64(3)), g)
    np.testing.assert_array_equal(vp.sample_gradient(quad_small, x, np.uint8(3)), g)
    for ids in (np.array([3], dtype=np.int32), np.array([3], dtype=np.uint64), [np.int64(3)]):
        np.testing.assert_array_equal(vp.minibatch_gradient(quad_small, x, ids), g)
        np.testing.assert_array_equal(vp.sample_gradient(quad_small, x, ids), [g])


def test_empty_batch_is_rejected(quad_small):
    with pytest.raises(ValueError, match="at least one sample id"):
        vp.minibatch_gradient(quad_small, np.zeros(quad_small.dim), [])


def test_determinism_across_rebuilds(rng):
    x = rng.normal(0, 1, 6)
    a = vp.make_quadratic(20, 6, 1.0, seed=11)
    b = vp.make_quadratic(20, 6, 1.0, seed=11)
    for i in (0, 7, 19):
        np.testing.assert_array_equal(vp.sample_gradient(a, x, i), vp.sample_gradient(b, x, i))


@pytest.mark.parametrize("key", ["quad:15:5:1.0", "sigmoid:15:5", "robust:15:5"])
def test_sample_gradient_id_array_matches_per_id_calls(key, rng):
    # The quadratic path is pure subtraction (bitwise equal); the nonlinear
    # families go through a BLAS matvec whose summation order may differ from
    # the scalar dot, so those agree to rounding.
    prob = from_key(key, seed=2)
    x = rng.normal(0, 1, 5)
    for ids in (np.array([0, 3, 3, 14]), [0, 3, 3, 14], range(15)):
        rows = vp.sample_gradient(prob, x, ids)
        assert rows.shape == (len(ids), prob.dim)
        for row, i in zip(rows, ids):
            one = vp.sample_gradient(prob, x, int(i))
            assert one.shape == (prob.dim,)
            if key.startswith("quad"):
                np.testing.assert_array_equal(row, one)
            else:
                np.testing.assert_allclose(row, one, rtol=0, atol=1e-13)
    empty = vp.sample_gradient(prob, x, np.array([], dtype=np.int64))
    assert empty.shape == (0, prob.dim)


def test_draw_sample_ids_without_replacement(quad_small, rng):
    ids = draw_sample_ids(quad_small, quad_small.num_components, rng)
    assert sorted(ids.tolist()) == list(range(quad_small.num_components))
    with pytest.raises(ValueError):
        draw_sample_ids(quad_small, quad_small.num_components + 1, rng)
    with pytest.raises(ValueError):
        draw_sample_ids(quad_small, 0, rng)


def test_smoothness_spot_check_quadratic_is_tight(quad_small):
    rng = np.random.default_rng(3)
    rep = vp.smoothness_spot_check(quad_small, rng, n_pairs=200)
    # For quadratics the ratio is exactly 1 at every pair.
    assert rep["passed"]
    assert rep["mean_ratio"] == pytest.approx(1.0, abs=1e-12)
    assert rep["stderr"] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n_pairs", [0, 1])
def test_smoothness_spot_check_needs_two_pairs(quad_small, n_pairs):
    with pytest.raises(ValueError, match="n_pairs >= 2"):
        vp.smoothness_spot_check(quad_small, np.random.default_rng(3), n_pairs=n_pairs)


@pytest.mark.parametrize("rng", [3, None, np.random.PCG64(3)], ids=["int", "None", "PCG64"])
def test_smoothness_spot_check_needs_a_generator(quad_small, rng):
    with pytest.raises(TypeError, match="rng must be a numpy Generator"):
        vp.smoothness_spot_check(quad_small, rng, n_pairs=10)


@pytest.mark.parametrize("rng", [3, None, np.random.PCG64(3)], ids=["int", "None", "PCG64"])
def test_init_estimator_needs_a_generator(quad_small, rng):
    with pytest.raises(TypeError, match="rng must be a numpy Generator"):
        vp.init_estimator(quad_small, np.zeros(quad_small.dim), 2, rng)


@pytest.mark.parametrize("seed", [0, 7, np.uint8(7), 2**70, [3, 1], (3, 8)], ids=repr)
def test_generator_is_pcg64_of_the_seed(seed):
    want = np.random.Generator(np.random.PCG64(seed))
    assert _generator(seed).bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("n_pairs", [2.5, np.float64(3.0), True, "3"], ids=repr)
def test_smoothness_spot_check_needs_an_integer_count(quad_small, n_pairs):
    with pytest.raises(ValueError, match="n_pairs must be an integer"):
        vp.smoothness_spot_check(quad_small, np.random.default_rng(3), n_pairs=n_pairs)


def test_huge_finite_point_accepted_without_warning(quad_small):
    x = np.full(quad_small.dim, 1e200)
    with np.errstate(over="ignore"):
        assert np.isinf(x @ x)  # the squared norm overflows; the point is still finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = vp.sample_gradient(quad_small, x, 3)
        full = vp.full_gradient(quad_small, x)
    assert np.all(np.isfinite(g)) and np.all(np.isfinite(full))


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_points_rejected(quad_small, bad):
    x = np.zeros(quad_small.dim)
    x[2] = bad
    with pytest.raises(ValueError, match="finite"):
        vp.sample_gradient(quad_small, x, 0)
    with pytest.raises(ValueError, match="finite"):
        vp.full_gradient(quad_small, x)
    with pytest.raises(ValueError, match="finite"):
        vp.full_value(quad_small, x)


@pytest.mark.parametrize("size", [1, 7, 255, 256, 257])
def test_draw_step_ids_consumes_like_single_draws(quad_small, size):
    a = np.random.default_rng(9)
    b = np.random.default_rng(9)
    for _ in range(3):
        single = [int(draw_sample_ids(quad_small, 1, a)[0]) for _ in range(size)]
        assert draw_step_ids(quad_small, size, b).tolist() == single
    assert a.bit_generator.state == b.bit_generator.state


def _boundary_calls():
    """(argument named in the error, call) for constants of the wrong type."""
    prob = vp.make_quadratic(10, 3, 1.0, seed=0)
    x = np.zeros(3)
    traj = np.zeros((3, 3))
    return {
        "schedule L str": ("L", lambda: vp.schedule_from_T(5, "1")),
        "schedule L None": ("L", lambda: vp.schedule_from_T(5, None)),
        "quadratic spread str": ("spread", lambda: vp.make_quadratic(10, 3, "1")),
        "hyperparams eta str": ("eta", lambda: vp.HyperParams("a", 0.5, 1, 5)),
        "hyperparams beta str": ("beta", lambda: vp.HyperParams(0.1, "x", 1, 5)),
        "hyperparams beta None": ("beta", lambda: vp.HyperParams(0.1, None, 1, 5)),
        "l1 lam str": ("lam", lambda: vp.L1(lam="x")),
        "enet lam1 None": ("lam1", lambda: vp.ElasticNet(lam1=None, lam2=1.0)),
        "prox tau str": ("tau", lambda: vp.prox(vp.Zero(), x, "1")),
        "gradient mapping eta str": ("eta", lambda: vp.gradient_mapping(prob, vp.Zero(), x, "1")),
        "schedule constraint L str": ("L", lambda: vp.check_schedule_constraint([1, 2], "1")),
        "step check beta str": (
            "beta", lambda: vp.check_variance_recursion_step(prob, x, x, x, "x")),
        "step check v_prev str": (
            "v_prev", lambda: vp.check_variance_recursion_step(prob, x, x, ["a", "b", "c"], 0.5)),
        "unrolled v0 str": ("v0", lambda: vp.check_variance_recursion_unrolled(
            prob, traj, np.array(["a", "b", "c"]), 0.5)),
    }


@pytest.mark.parametrize("case", sorted(_boundary_calls()))
def test_wrong_type_constants_name_their_argument(case):
    name, call = _boundary_calls()[case]
    with pytest.raises(ValueError, match=rf"\b{name} must"):
        call()


def _non_real_point_calls():
    """(argument named in the error, call) for points of strings or complex
    numbers; numpy's own conversion names no argument, and it drops an
    imaginary part with only a warning."""
    prob = vp.make_quadratic(10, 3, 1.0, seed=0)
    x, s, c = np.zeros(3), ["a", "b", "c"], np.array([1j, 0.0, 0.0])
    hp = vp.schedule_from_T(5, prob.lipschitz_L)
    return {
        "full gradient str": ("point", lambda: vp.full_gradient(prob, s)),
        "full gradient complex": ("point", lambda: vp.full_gradient(prob, c)),
        "sample gradient str": ("point", lambda: vp.sample_gradient(prob, s, 0)),
        "gradient mapping str": ("point", lambda: vp.gradient_mapping(prob, vp.Zero(), s, 0.1)),
        "init estimator str": (
            "point", lambda: vp.init_estimator(prob, s, 2, np.random.default_rng(0))),
        "prox str": ("prox input", lambda: vp.prox(vp.Zero(), ["a"], 1.0)),
        "prox complex": ("prox input", lambda: vp.prox(vp.Zero(), c, 1.0)),
        "psi value str": ("psi_value input", lambda: vp.psi_value(vp.L1(lam=0.1), ["a"])),
        "box lo str": ("lo", lambda: vp.BoxIndicator(lo="a", hi=1.0)),
        "run x0 str": ("x0", lambda: vp.run(prob, vp.Zero(), hp, 0, x0=s)),
        "quadratic centers str": ("centers", lambda: vp.make_quadratic(2, 3, centers=[s, s])),
        "step check x_prev str": (
            "x_prev", lambda: vp.check_variance_recursion_step(prob, s, x, x, 0.5)),
        "step check x_curr str": (
            "x_curr", lambda: vp.check_variance_recursion_step(prob, x, s, x, 0.5)),
        "unrolled trajectory str": (
            "trajectory", lambda: vp.check_variance_recursion_unrolled(prob, [s, s], 2, 0.5)),
    }


@pytest.mark.parametrize("case", sorted(_non_real_point_calls()))
def test_non_real_points_name_their_argument(case):
    name, call = _non_real_point_calls()[case]
    with pytest.raises(ValueError, match=rf"\b{name} must hold real numbers"):
        call()


def _draw_pairs(prob, n_pairs, rng):
    """The points and ids smoothness_spot_check draws for one chunk."""
    r = prob.sampling_radius
    X = rng.uniform(-r, r, (n_pairs, prob.dim))
    Y = rng.uniform(-r, r, (n_pairs, prob.dim))
    return X, Y, draw_step_ids(prob, n_pairs, rng)


@pytest.mark.parametrize("family", ["quad", "sigmoid", "robust"])
def test_smoothness_ratios_match_a_per_pair_loop(family):
    prob = from_key({"quad": "quad:20:10:1.0", "sigmoid": "sigmoid:30:8",
                     "robust": "robust:30:8"}[family], seed=4)
    rep = vp.smoothness_spot_check(prob, np.random.default_rng(5), n_pairs=300)
    L2 = prob.lipschitz_L**2
    ratios = []
    for x, y, i in zip(*_draw_pairs(prob, 300, np.random.default_rng(5))):
        diff = prob.grad_rows(x, int(i)) - prob.grad_rows(y, int(i))
        ratios.append(np.sum(diff * diff) / (L2 * np.sum((x - y) ** 2)))
    ratios = np.array(ratios)
    want = (float(ratios.mean()), float(ratios.std(ddof=1) / np.sqrt(300)))
    assert (rep["mean_ratio"], rep["stderr"]) == want


def test_smoothness_pairs_are_drawn_a_chunk_at_a_time():
    # dim 3000 holds 5 pairs a chunk: 12 pairs are chunks of 5, 5 and 2,
    # each drawn as its points x, its points y, then its ids.
    prob = vp.make_nonconvex_sigmoid(4, 3000, seed=0)
    rng = np.random.default_rng(2)
    rep = vp.smoothness_spot_check(prob, np.random.default_rng(2), n_pairs=12)
    ratios = []
    for size in (5, 5, 2):
        X, Y, ids = _draw_pairs(prob, size, rng)
        diff = prob.grad_rows(X, ids) - prob.grad_rows(Y, ids)
        dx_sq = prob.lipschitz_L**2 * np.sum((X - Y) ** 2, axis=1)
        ratios.extend(np.sum(diff * diff, axis=1) / dx_sq)
    assert rep["mean_ratio"] == float(np.mean(ratios))


def test_smoothness_memory_does_not_grow_with_the_pairs(quad_small):
    tracemalloc.start()
    try:
        vp.smoothness_spot_check(quad_small, np.random.default_rng(0), n_pairs=100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The 0.8 MB of ratios and a few chunks of at most 128 KB; whole
    # (100000, 6) stacks would take 4.8 MB each.
    assert peak < 2e6

import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

import vrprox as vp
from vrprox.oracle import (
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
    with pytest.raises(ValueError, match="sigma_bound must be None or a finite scalar >= 0"):
        replace(quad_small, sigma_bound=bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_centers_are_rejected(bad):
    with pytest.raises(ValueError, match="centers must be finite"):
        vp.make_quadratic(2, 2, centers=[[bad, 0.0], [1.0, 1.0]])


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

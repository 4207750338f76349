import warnings

import numpy as np
import pytest

import vrprox as vp
from vrprox.oracle import (
    DiagnosticUnsupportedError,
    draw_sample_ids,
    draw_step_ids,
    gradient_rows,
    sigma2_at,
)

from conftest import make_streaming_quadratic


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


def test_estimate_sigma2_exact_enumeration(rng):
    prob = vp.make_quadratic(30, 8, 1.5, seed=21)
    xs = [rng.normal(0, 3, prob.dim) for _ in range(10)]
    # Exact enumeration, x-independent for this family: every point gives the
    # closed-form center scatter.
    for x in xs:
        assert sigma2_at(prob, x) == pytest.approx(prob.sigma_bound, abs=1e-12)
    assert vp.estimate_sigma2(prob, xs) == pytest.approx(prob.sigma_bound, abs=1e-12)


def test_estimate_sigma2_zero_for_deterministic_instance():
    centers = np.tile(np.array([[1.0, -2.0]]), (4, 1))
    prob = vp.make_quadratic(4, 2, centers=centers)
    assert vp.estimate_sigma2(prob, [np.zeros(2)]) == 0.0
    assert prob.sigma_bound == 0.0


def test_estimate_sigma2_respects_certified_bound(quad_small, rng):
    xs = [rng.normal(0, 5, quad_small.dim) for _ in range(5)]
    assert vp.estimate_sigma2(quad_small, xs) <= quad_small.sigma_bound + 1e-12


def test_sample_id_validation(quad_small):
    x = np.zeros(quad_small.dim)
    with pytest.raises(ValueError):
        vp.sample_gradient(quad_small, x, quad_small.num_components)
    with pytest.raises(ValueError):
        vp.sample_gradient(quad_small, x, -1)
    with pytest.raises(ValueError):
        vp.sample_gradient(quad_small, np.zeros(quad_small.dim + 1), 0)


def test_streaming_rejects_exact_diagnostics():
    prob = make_streaming_quadratic()
    with pytest.raises(DiagnosticUnsupportedError):
        vp.full_gradient(prob, np.zeros(prob.dim))
    with pytest.raises(DiagnosticUnsupportedError):
        vp.full_value(prob, np.zeros(prob.dim))


def test_streaming_sample_is_reproducible():
    prob = make_streaming_quadratic(instance_seed=9)
    x = np.ones(prob.dim)
    a = vp.sample_gradient(prob, x, 123456789)
    b = vp.sample_gradient(prob, x, 123456789)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, vp.sample_gradient(prob, x, 123456790))


def test_streaming_sigma2_needs_mc_budget():
    prob = make_streaming_quadratic(p=3, spread=0.5, instance_seed=4)
    rng = np.random.default_rng(0)
    est = sigma2_at(prob, np.zeros(3), n_mc=4000, rng=rng)
    # E||c_xi||^2 = spread^2 * p for gaussian centers
    assert est == pytest.approx(0.25 * 3, rel=0.15)
    with pytest.raises(ValueError):
        sigma2_at(prob, np.zeros(3), n_mc=1, rng=rng)


def test_determinism_across_rebuilds(rng):
    x = rng.normal(0, 1, 6)
    a = vp.make_quadratic(20, 6, 1.0, seed=11)
    b = vp.make_quadratic(20, 6, 1.0, seed=11)
    for i in (0, 7, 19):
        np.testing.assert_array_equal(vp.sample_gradient(a, x, i), vp.sample_gradient(b, x, i))


def test_gradient_rows_matches_per_sample_calls(rng):
    # The quadratic path is pure subtraction (bitwise equal); the nonlinear
    # families go through a BLAS matvec whose summation order may differ from
    # the scalar dot, so those agree to rounding.
    x = rng.normal(0, 1, 5)
    ids = np.array([0, 3, 3, 14])
    quad = vp.make_quadratic(15, 5, 1.0, seed=2)
    for row, i in zip(gradient_rows(quad, x, ids), ids):
        np.testing.assert_array_equal(row, quad.grad_sample(x, int(i)))
    for prob in (
        vp.make_nonconvex_sigmoid(15, 5, seed=2),
        vp.make_robust_regression(15, 5, seed=2),
    ):
        for row, i in zip(gradient_rows(prob, x, ids), ids):
            np.testing.assert_allclose(row, prob.grad_sample(x, int(i)), rtol=0, atol=1e-13)


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


@pytest.mark.parametrize("streaming", [False, True])
@pytest.mark.parametrize("size", [1, 7, 255, 256, 257])
def test_draw_step_ids_consumes_like_single_draws(quad_small, streaming, size):
    prob = make_streaming_quadratic() if streaming else quad_small
    a = np.random.default_rng(9)
    b = np.random.default_rng(9)
    for _ in range(3):
        single = [int(draw_sample_ids(prob, 1, a)[0]) for _ in range(size)]
        assert draw_step_ids(prob, size, b).tolist() == single
    assert a.bit_generator.state == b.bit_generator.state

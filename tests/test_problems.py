import numpy as np
import pytest

import vrprox as vp
from vrprox.problems import (
    REDESCENDING_CURVATURE_BOUND,
    SIGMOID_CURVATURE_BOUND,
    from_key,
    parse_key,
)
from vrprox.suite import central_difference_gradient


def test_quadratic_single_component():
    prob = vp.make_quadratic(1, 4, 1.0, seed=0)
    assert prob.sigma_bound == 0.0
    assert prob.f_star_ref == 0.0
    c = -vp.full_gradient(prob, np.zeros(4))  # x - c at x = 0
    np.testing.assert_allclose(vp.full_gradient(prob, c), np.zeros(4), atol=1e-14)
    assert vp.full_value(prob, c) == pytest.approx(0.0, abs=1e-14)


def test_quadratic_two_symmetric_centers():
    e1 = np.zeros(3)
    e1[0] = 1.0
    prob = vp.make_quadratic(2, 3, centers=np.stack([-e1, e1]))
    assert prob.sigma_bound == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(vp.full_gradient(prob, np.zeros(3)), np.zeros(3), atol=1e-15)
    assert vp.full_value(prob, np.zeros(3)) == pytest.approx(0.5, abs=1e-15)
    assert prob.f_star_ref == pytest.approx(0.5, abs=1e-15)


def test_quadratic_sigma_matches_enumeration(rng):
    prob = vp.make_quadratic(40, 7, 2.0, seed=13)
    xs = [rng.normal(0, 3, 7) for _ in range(10)]
    assert vp.estimate_sigma2(prob, xs) == pytest.approx(prob.sigma_bound, abs=1e-12)


def test_sigmoid_values_at_origin():
    prob = vp.make_nonconvex_sigmoid(25, 6, seed=7)
    for i in range(prob.num_components):
        assert prob.value_sample(np.zeros(6), i) == pytest.approx(0.5, abs=1e-15)
    # grad f(0) = s'(0) * (-1/n) sum_i y_i a_i with s'(0) = 1/4
    rows = np.stack([vp.sample_gradient(prob, np.zeros(6), i) for i in range(25)])
    np.testing.assert_allclose(
        vp.full_gradient(prob, np.zeros(6)), rows.mean(axis=0), atol=1e-14
    )
    for i in range(25):
        g = rows[i]
        # each sample gradient has norm s'(0) ||a_i|| = ||a_i|| / 4 <= 1/4
        assert np.linalg.norm(g) <= 0.25 + 1e-12


@pytest.mark.parametrize(
    "factory",
    [
        lambda: vp.make_quadratic(20, 8, 1.0, seed=5),
        lambda: vp.make_nonconvex_sigmoid(20, 8, seed=5),
        lambda: vp.make_robust_regression(20, 8, seed=5),
    ],
    ids=["quad", "sigmoid", "robust"],
)
def test_gradient_against_finite_differences(factory, rng):
    prob = factory()
    for _ in range(25):
        x = rng.uniform(-2, 2, prob.dim)
        i = int(rng.integers(0, prob.num_components))
        g = vp.sample_gradient(prob, x, i)
        fd = central_difference_gradient(prob, x, i, h=1e-5)
        assert np.linalg.norm(fd - g) <= 1e-6 * max(np.linalg.norm(g), 1e-8)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: vp.make_quadratic(20, 8, 1.0, seed=5),
        lambda: vp.make_nonconvex_sigmoid(20, 8, seed=5),
        lambda: vp.make_robust_regression(20, 8, seed=5),
    ],
    ids=["quad", "sigmoid", "robust"],
)
def test_smoothness_bound_holds(factory):
    prob = factory()
    rng = np.random.default_rng(17)
    rep = vp.smoothness_spot_check(prob, rng, n_pairs=500)
    assert rep["passed"], rep


def test_robust_zero_residual_gives_zero_gradient():
    prob = vp.make_robust_regression(10, 4, seed=1)
    A, b = prob.meta["A"], prob.meta["b"]
    for i in (0, 5, 9):
        # At x = b_i a_i / ||a_i||^2 the residual vanishes (up to rounding).
        x = b[i] * A[i] / (A[i] @ A[i])
        assert prob.value_sample(x, i) <= 1e-25
        assert np.linalg.norm(vp.sample_gradient(prob, x, i)) <= 1e-12


def test_robust_loss_bounded():
    prob = vp.make_robust_regression(30, 5, seed=9)
    rng = np.random.default_rng(2)
    for _ in range(200):
        x = rng.normal(0, 4, 5)
        i = int(rng.integers(0, 30))
        v = prob.value_sample(x, i)
        assert 0.0 <= v < 1.0


def test_certification_labels():
    quad = vp.make_quadratic(5, 3, 1.0, seed=0)
    assert quad.lipschitz_certified and quad.sigma_certified
    assert quad.lipschitz_L == 1.0
    sig = vp.make_nonconvex_sigmoid(5, 3, seed=0)
    rob = vp.make_robust_regression(5, 3, seed=0)
    for prob in (sig, rob):
        assert prob.lipschitz_certified
        assert not prob.sigma_certified
        assert prob.sigma_bound is not None and prob.sigma_bound > 0
        assert prob.f_star_ref is None
    # constants documented: curvature bound times max feature norm squared
    assert sig.lipschitz_L <= SIGMOID_CURVATURE_BOUND + 1e-12
    assert rob.lipschitz_L <= REDESCENDING_CURVATURE_BOUND + 1e-12


def test_empirical_sigma_dominates_interior_estimate(rng):
    prob = vp.make_nonconvex_sigmoid(20, 5, seed=3)
    assert vp.estimate_sigma2(prob, [np.zeros(5)]) <= prob.sigma_bound


@pytest.mark.parametrize("key", ["quad:60:5:1.0", "sigmoid:60:5", "robust:60:5"])
def test_closed_form_means_match_enumerated_samples(key):
    # The closed forms are the only path to the exact mean gradient and value;
    # they must equal the per-sample means over all n ids.
    prob = from_key(key, seed=0)
    n = prob.num_components
    for x in np.random.default_rng(8).uniform(-10.0, 10.0, (200, prob.dim)):
        grad = np.mean([prob.grad_sample(x, i) for i in range(n)], axis=0)
        assert np.max(np.abs(vp.full_gradient(prob, x) - grad)) <= 1e-12 * np.max(np.abs(grad))
        value = np.mean([prob.value_sample(x, i) for i in range(n)])
        assert abs(vp.full_value(prob, x) - value) <= 1e-12 * abs(value)


def test_generation_deterministic_in_seed(rng):
    x = rng.normal(0, 1, 6)
    for key in ("quad:12:6:1.0", "sigmoid:12:6", "robust:12:6"):
        a = from_key(key, seed=42)
        b = from_key(key, seed=42)
        c = from_key(key, seed=43)
        np.testing.assert_array_equal(a.grad_sample(x, 3), b.grad_sample(x, 3))
        assert not np.array_equal(a.grad_sample(x, 3), c.grad_sample(x, 3))


def test_parse_key():
    assert parse_key("quad:50:10:1.5") == {
        "family": "quad", "n": 50, "p": 10, "spread": 1.5
    }
    assert parse_key("sigmoid:10:3") == {"family": "sigmoid", "n": 10, "p": 3}
    for bad in ("quad:50:10", "sigmoid:10", "cubic:1:2", "quad:0:10:1.0", "quad:a:b:c"):
        with pytest.raises(ValueError):
            parse_key(bad)

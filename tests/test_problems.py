import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vrprox as vp
from vrprox.problems import (
    REDESCENDING_CURVATURE_BOUND,
    REDESCENDING_SLOPE_BOUND,
    SIGMOID_CURVATURE_BOUND,
    SIGMOID_SLOPE_BOUND,
    from_key,
    parse_key,
)
from vrprox.oracle import sigma2_at
from vrprox.suite import central_difference_gradient


def test_quadratic_single_component():
    prob = vp.make_quadratic(1, 4, 1.0, seed=0)
    assert prob.sigma_bound == 0.0
    assert prob.f_lower == 0.0
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
    assert prob.f_lower == pytest.approx(0.5, abs=1e-15)


def test_quadratic_sigma_matches_enumeration(rng):
    prob = vp.make_quadratic(40, 7, 2.0, seed=13)
    for _ in range(10):
        x = rng.normal(0, 3, 7)
        assert sigma2_at(prob, x) == pytest.approx(prob.sigma_bound, abs=1e-12)


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
        fd = central_difference_gradient(prob, x, i)
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


def test_certified_constants():
    quad = vp.make_quadratic(5, 3, 1.0, seed=0)
    assert quad.lipschitz_L == 1.0
    assert quad.f_lower == 0.5 * quad.sigma_bound
    sig = vp.make_nonconvex_sigmoid(5, 3, seed=0)
    rob = vp.make_robust_regression(5, 3, seed=0)
    # constants documented: curvature bound times max feature norm squared,
    # slope bound squared times mean feature norm squared; both losses >= 0
    for prob, curvature, s_max in ((sig, SIGMOID_CURVATURE_BOUND, SIGMOID_SLOPE_BOUND),
                                   (rob, REDESCENDING_CURVATURE_BOUND, REDESCENDING_SLOPE_BOUND)):
        row_sq = np.sum(prob.meta["A"] ** 2, axis=1)
        assert prob.lipschitz_L == curvature * np.max(row_sq) <= curvature + 1e-12
        assert prob.sigma_bound == s_max**2 * np.mean(row_sq)
        assert prob.f_lower == 0.0


def test_slope_bounds_are_the_maxima_of_the_loss_slopes():
    u = np.linspace(-20.0, 20.0, 400_001)
    s = 1.0 / (1.0 + np.exp(-u))
    assert np.max(np.abs(s * (1.0 - s))) == pytest.approx(SIGMOID_SLOPE_BOUND, rel=1e-12)
    assert np.all(np.abs(s * (1.0 - s)) <= SIGMOID_SLOPE_BOUND)
    r = np.append(np.linspace(-20.0, 20.0, 400_001), 1.0 / np.sqrt(3.0))
    slope = np.abs(2.0 * r / (1.0 + r * r) ** 2)
    assert np.max(slope) == pytest.approx(REDESCENDING_SLOPE_BOUND, rel=1e-12)
    assert np.all(slope <= REDESCENDING_SLOPE_BOUND * (1.0 + 1e-12))


@pytest.mark.parametrize("key", ["quad:200:10:1.0", "sigmoid:200:10", "robust:200:10"])
def test_certificates_hold_at_random_points(key):
    # sigma2_at enumerates the exact gradient variance at x: it must stay
    # under the certified sigma^2 (and equal it on the quadratic), and f
    # must stay above its certified lower bound.
    prob = from_key(key, seed=0)
    for x in np.random.default_rng(21).uniform(-3.0, 3.0, (20, prob.dim)):
        sigma2 = sigma2_at(prob, x)
        if prob.meta["family"] == "quad":
            assert sigma2 == pytest.approx(prob.sigma_bound, abs=1e-12)
        assert sigma2 <= prob.sigma_bound + 1e-12
        assert vp.full_value(prob, x) >= prob.f_lower


BUILDERS = {
    "quad": lambda n, p: vp.make_quadratic(n, p, 1.0),
    "sigmoid": vp.make_nonconvex_sigmoid,
    "robust": vp.make_robust_regression,
}


@pytest.mark.parametrize("family", sorted(BUILDERS))
@pytest.mark.parametrize("bad", [2.5, np.float64(3.0), True, 0], ids=repr)
def test_builders_refuse_sizes_that_are_not_counts(family, bad):
    for name, (n, p) in (("n", (bad, 3)), ("p", (4, bad))):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
            BUILDERS[family](n, p)


@pytest.mark.parametrize("key", ["quad:60:5:1.0", "sigmoid:60:5", "robust:60:5"])
def test_closed_form_means_match_enumerated_samples(key):
    # The closed forms are the only path to the exact mean gradient and value;
    # they must equal the per-sample means over all n ids.
    prob = from_key(key, seed=0)
    n = prob.num_components
    for x in np.random.default_rng(8).uniform(-10.0, 10.0, (200, prob.dim)):
        grad = np.mean([prob.grad_rows(x, i) for i in range(n)], axis=0)
        assert np.max(np.abs(vp.full_gradient(prob, x) - grad)) <= 1e-12 * np.max(np.abs(grad))
        value = np.mean([prob.value_sample(x, i) for i in range(n)])
        assert abs(vp.full_value(prob, x) - value) <= 1e-12 * abs(value)


def test_generation_deterministic_in_seed(rng):
    x = rng.normal(0, 1, 6)
    for key in ("quad:12:6:1.0", "sigmoid:12:6", "robust:12:6"):
        a = from_key(key, seed=42)
        b = from_key(key, seed=42)
        c = from_key(key, seed=43)
        np.testing.assert_array_equal(a.grad_rows(x, 3), b.grad_rows(x, 3))
        assert not np.array_equal(a.grad_rows(x, 3), c.grad_rows(x, 3))


def test_parse_key():
    assert parse_key("quad:50:10:1.5") == {
        "family": "quad", "n": 50, "p": 10, "spread": 1.5
    }
    assert parse_key("sigmoid:10:3") == {"family": "sigmoid", "n": 10, "p": 3}
    for bad in ("quad:50:10", "sigmoid:10", "cubic:1:2", "quad:0:10:1.0", "quad:a:b:c",
                "quad:10:3:0", "quad:10:3:nan", "quad:10:3:inf"):
        with pytest.raises(ValueError):
            parse_key(bad)


@pytest.mark.parametrize("key", [5, None, b"quad:10:3:1.0"], ids=repr)
def test_parse_key_refuses_a_key_that_is_not_a_string(key):
    msg = rf"bad problem key {re.escape(repr(key))} \(not a string\)"
    with pytest.raises(ValueError, match=msg):
        from_key(key)


@pytest.mark.parametrize("call", [
    lambda: from_key("quad:10:3:1.0", -1),
    lambda: from_key("sigmoid:10:3", -1),
    lambda: vp.make_nonconvex_sigmoid(10, 3, seed=1.5),
    lambda: vp.make_robust_regression(10, 3, seed="1"),
    lambda: vp.make_quadratic(10, 3, seed=True),
    lambda: vp.make_quadratic(10, 3, seed=[1, -2]),
    lambda: vp.make_quadratic(2, 2, seed="x", centers=[[0.0, 0.0], [1.0, 1.0]]),
    lambda: vp.make_quadratic(2, 2, seed=-1, centers=[[0.0, 0.0], [1.0, 1.0]]),
], ids=["quad -1", "sigmoid -1", "sigmoid 1.5", "robust str", "quad bool", "quad list",
        "quad centers str", "quad centers -1"])
def test_builders_name_a_bad_seed(call):
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        call()


@pytest.mark.parametrize("spread", [np.nan, np.inf, 0.0, -1.0, True, np.True_], ids=repr)
def test_quadratic_spread_must_be_positive_and_finite(spread):
    with pytest.raises(ValueError, match="spread must be a positive finite scalar"):
        vp.make_quadratic(10, 3, spread)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(family=st.sampled_from(["quad", "sigmoid", "robust"]), n=st.integers(1, 6),
       dim=st.integers(1, 5), k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
@example(family="sigmoid", n=4, dim=3, k=3, seed=0)  # k == dim: not a matrix product
def test_grad_rows_stack_pairs_each_row_with_its_id(family, n, dim, k, seed):
    prob = from_key(f"quad:{n}:{dim}:1.0" if family == "quad" else f"{family}:{n}:{dim}", seed=1)
    rng = np.random.default_rng(seed)
    X = rng.uniform(-5.0, 5.0, (k, dim))
    ids = rng.integers(0, n, k)
    got = prob.grad_rows(X, ids)
    want = np.array([prob.grad_rows(X[r], int(ids[r])) for r in range(k)])
    assert got.shape == (k, dim)
    assert got.tobytes() == want.tobytes()
    # One point and an id array: every row has the bits of its one-id call.
    got = prob.grad_rows(X[0], ids)
    want = np.array([prob.grad_rows(X[0], int(i)) for i in ids])
    assert got.tobytes() == want.tobytes()

import numpy as np
import pytest

import vrprox as vp
from vrprox.estimators import (
    HYBRID_SARAH,
    MOMENTUM_SARAH,
    SARAH,
    SGD,
    _recursion,
    _weights,
)

from conftest import counting_quadratic, nan_with_bits


def _step(prob, kind, v, x_prev, x, xi, beta, zeta=None):
    # The step's sample gradients, then the recursion on them.
    g_prev = vp.sample_gradient(prob, x_prev, xi)
    g_zeta = None if zeta is None else vp.sample_gradient(prob, x, zeta)
    return _recursion(kind, v, vp.sample_gradient(prob, x, xi), g_prev, g_zeta, _weights(beta))


def _fresh(prob, rng, b=4):
    x0 = rng.normal(0, 1, prob.dim)
    return vp.init_estimator(prob, x0, b, rng), x0


def test_init_full_batch_equals_full_gradient(quad_small, rng):
    x0 = rng.normal(0, 1, quad_small.dim)
    v = vp.init_estimator(quad_small, x0, quad_small.num_components, rng)
    np.testing.assert_allclose(v, vp.full_gradient(quad_small, x0), atol=1e-12)
    d = v - vp.full_gradient(quad_small, x0)
    assert d @ d <= 1e-24


def test_init_single_sample(quad_small):
    x0 = np.ones(quad_small.dim)
    r1 = np.random.default_rng(7)
    r2 = np.random.default_rng(7)
    v = vp.init_estimator(quad_small, x0, 1, r1)
    i = int(r2.integers(0, quad_small.num_components))
    np.testing.assert_array_equal(v, vp.sample_gradient(quad_small, x0, i))


def test_init_batch_too_large_errors(quad_small, rng):
    with pytest.raises(ValueError):
        vp.init_estimator(quad_small, np.zeros(quad_small.dim), quad_small.num_components + 1, rng)
    with pytest.raises(ValueError):
        vp.init_estimator(quad_small, np.zeros(quad_small.dim), 0, rng)


@pytest.mark.parametrize("bad", [2.5, 2.0, True])
def test_init_batch_size_must_be_an_integer(quad_small, rng, bad):
    with pytest.raises(ValueError, match="batch size must be an integer"):
        vp.init_estimator(quad_small, np.zeros(quad_small.dim), bad, rng)


def test_init_numpy_integer_batch_size(quad_small):
    x0 = np.ones(quad_small.dim)
    v = vp.init_estimator(quad_small, x0, np.int64(3), np.random.default_rng(5))
    np.testing.assert_array_equal(v, vp.init_estimator(quad_small, x0, 3, np.random.default_rng(5)))


def test_init_variance_monte_carlo():
    # E||v0 - grad f(x0)||^2 over re-initializations against the exact
    # without-replacement value; enumeration gives sigma^2 for this family.
    prob = vp.make_quadratic(20, 5, 1.0, seed=8)
    n, b = 20, 4
    x0 = np.zeros(5)
    g = vp.full_gradient(prob, x0)
    rng = np.random.default_rng(0)
    n_mc = 10_000
    errs = np.empty(n_mc)
    for k in range(n_mc):
        d = vp.init_estimator(prob, x0, b, rng) - g
        errs[k] = d @ d
    se = errs.std(ddof=1) / np.sqrt(n_mc)
    exact = prob.sigma_bound / b * (n - b) / (n - 1)
    assert abs(errs.mean() - exact) <= 3 * se
    assert errs.mean() <= prob.sigma_bound / b + 3 * se


@pytest.mark.parametrize("kind", [MOMENTUM_SARAH, HYBRID_SARAH, SARAH, SGD])
@pytest.mark.parametrize("make", [
    lambda: vp.make_quadratic(20, 6, 1.0, seed=11),
    lambda: vp.make_nonconvex_sigmoid(40, 6, seed=2),
    lambda: vp.make_robust_regression(40, 6, seed=3),
], ids=["quad", "sigmoid", "robust"])
def test_float_weights_equal_the_beta_column_row_by_row(kind, make):
    # Row r of one step on k stacked tuples with a beta column has the bits
    # of the step on tuple r alone with its float beta, 0 and 1 included.
    prob = make()
    rng = np.random.default_rng(17)
    k = 12
    V, X_prev, X_curr = rng.normal(0, 1, (3, k, prob.dim))
    xi, zeta = rng.integers(0, prob.num_components, (2, k))
    betas = np.concatenate([[0.0, 1.0, 0.3, 1.0 - 1e-12], rng.uniform(0, 1, k - 4)])
    stacked = _recursion(kind, V, prob.grad_rows(X_curr, xi), prob.grad_rows(X_prev, xi),
                         prob.grad_rows(X_curr, zeta), _weights(betas[:, None]))
    for r in range(k):
        one = _step(prob, kind, V[r], X_prev[r], X_curr[r], int(xi[r]), float(betas[r]),
                    zeta=int(zeta[r]))
        assert one.tobytes() == stacked[r].tobytes(), r


@pytest.mark.parametrize("kind", [MOMENTUM_SARAH, HYBRID_SARAH, SARAH])
@pytest.mark.parametrize("beta", [0.0, 0.3, 0.9])
def test_recursion_keeps_the_plain_formula_s_bits(kind, beta):
    # The plain formulas with Python-float weights, term by term in the
    # docstring's order.  The sample terms are arrays whose NaNs of other
    # payloads and signs meet in one lane; numpy then returns the first
    # operand's NaN, and the recursion must keep every operand in the plain
    # order.
    rng = np.random.default_rng(5)
    v, x_prev, x_curr, z = rng.normal(0, 1, (4, 12))
    v[::3], x_curr[::3] = nan_with_bits(0x7FF8000000000011), nan_with_bits(0xFFF8000000000022)
    x_prev[1::3], z[1::3] = -np.inf, nan_with_bits(0x7FF8000000000033)
    v[2::3], z[2::3] = -0.0, -0.0
    with np.errstate(invalid="ignore"):
        got = _recursion(kind, v, x_curr, x_prev, z, _weights(beta))
        if kind == HYBRID_SARAH:
            want = (v + x_curr - x_prev) * (1.0 - beta) + beta * z
        else:
            want = x_curr + (v - x_prev) * (1.0 - beta)
    assert got.tobytes() == want.tobytes()


def test_float_weights_are_read_only_zero_d_arrays():
    keep, fresh, ones = _weights(0.3)
    for w, value in ((keep, 1.0 - 0.3), (fresh, 0.3)):
        assert (w.ndim, w.dtype, w.flags.writeable, float(w)) == (0, np.float64, False, value)
    assert ones is None
    assert _weights(1.0) is None and _weights(1) is None
    # An integer weight becomes a float64 operand too.
    assert _weights(0)[1].dtype == np.float64


def test_beta_one_collapse_is_bitwise(quad_small, rng):
    v, x0 = _fresh(quad_small, rng)
    x = rng.normal(0, 1, quad_small.dim)
    new = _step(quad_small, MOMENTUM_SARAH, v, x0, x, 3, 1.0)
    np.testing.assert_array_equal(new, vp.sample_gradient(quad_small, x, 3))


def test_beta_zero_is_recursive_difference(quad_small, rng):
    v, x0 = _fresh(quad_small, rng)
    x = rng.normal(0, 1, quad_small.dim)
    new = _step(quad_small, SARAH, v, x0, x, 5, 0.0)
    manual = v + vp.sample_gradient(quad_small, x, 5) - vp.sample_gradient(quad_small, x0, 5)
    np.testing.assert_allclose(new, manual, atol=1e-12)


def test_full_batch_updates_stay_exact(quad_small, rng):
    # v0 exact and full-batch ids keep v_t = grad f(x_t) for any beta.
    all_ids = np.arange(quad_small.num_components)
    x = rng.normal(0, 1, quad_small.dim)
    v = vp.full_gradient(quad_small, x)
    for beta in (0.0, 0.3, 0.9):
        for _ in range(5):
            x_new = x + rng.normal(0, 0.5, quad_small.dim)
            v = _recursion(MOMENTUM_SARAH, v, vp.minibatch_gradient(quad_small, x_new, all_ids),
                           vp.minibatch_gradient(quad_small, x, all_ids), None, _weights(beta))
            x = x_new
            d = v - vp.full_gradient(quad_small, x)
            assert d @ d <= 1e-12


def test_beta_zero_telescoping(quad_small, rng):
    v0, x = _fresh(quad_small, rng, b=6)
    v = v0
    total = np.zeros(quad_small.dim)
    for _ in range(25):
        x_new = x + rng.normal(0, 0.4, quad_small.dim)
        i = int(rng.integers(0, quad_small.num_components))
        total += vp.sample_gradient(quad_small, x_new, i) - vp.sample_gradient(quad_small, x, i)
        v = _step(quad_small, SARAH, v, x, x_new, i, 0.0)
        x = x_new
    assert np.linalg.norm(v - v0 - total) <= 1e-12


def test_conditional_unbiasedness_by_enumeration(quad_small, rng):
    # Mean of v_new over all ids equals grad f(x) + (1-beta)(v - grad f(x_prev)).
    v, x0 = _fresh(quad_small, rng)
    x = rng.normal(0, 1, quad_small.dim)
    beta = 0.37
    vs = [
        _step(quad_small, MOMENTUM_SARAH, v, x0, x, i, beta)
        for i in range(quad_small.num_components)
    ]
    expected = vp.full_gradient(quad_small, x) + (1 - beta) * (
        v - vp.full_gradient(quad_small, x0)
    )
    np.testing.assert_allclose(np.mean(vs, axis=0), expected, atol=1e-12)


def test_hybrid_with_equal_samples_matches_momentum(quad_small, rng):
    x0 = rng.normal(0, 1, quad_small.dim)
    v = vp.init_estimator(quad_small, x0, 4, np.random.default_rng(3))
    x = rng.normal(0, 1, quad_small.dim)
    for beta in (0.2, 0.8):
        h = _step(quad_small, HYBRID_SARAH, v, x0, x, 7, beta, zeta=7)
        m = _step(quad_small, MOMENTUM_SARAH, v, x0, x, 7, beta)
        np.testing.assert_allclose(h, m, atol=1e-12)


def test_hybrid_beta_endpoints(quad_small, rng):
    v, x0 = _fresh(quad_small, rng)
    x = rng.normal(0, 1, quad_small.dim)
    one = _step(quad_small, HYBRID_SARAH, v, x0, x, 2, 1.0, zeta=9)
    np.testing.assert_array_equal(one, vp.sample_gradient(quad_small, x, 9))
    zero = _step(quad_small, HYBRID_SARAH, v, x0, x, 2, 0.0, zeta=9)
    manual = v + vp.sample_gradient(quad_small, x, 2) - vp.sample_gradient(quad_small, x0, 2)
    np.testing.assert_allclose(zero, manual, atol=1e-12)


def test_evaluation_accounting():
    # The initial batch evaluates one gradient per id, and each step of run
    # the sample gradients its kind reads.
    prob, calls = counting_quadratic(n=10, p=4)
    rng = np.random.default_rng(5)
    vp.init_estimator(prob, np.zeros(4), 6, rng)
    assert calls["grad"] == 6
    hp = vp.HyperParams(eta=0.1, beta=0.5, b_tilde=6, T=3)
    for kind, expected in ((MOMENTUM_SARAH, 2), (SARAH, 2), (HYBRID_SARAH, 3), (SGD, 1)):
        calls["grad"] = 0
        vp.run(prob, vp.Zero(), hp, rng=5, diagnostics=False, kind=kind)
        assert calls["grad"] == 6 + expected * hp.T, kind

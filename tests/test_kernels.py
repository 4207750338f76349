"""The sigmoid and robust kernels against their plain reference forms, bit for bit.

The reference closures below are the straightforward kernels: a masked
sigmoid on 0-d or 1-d arrays, separate one-id and id-array forms of the
sample gradient behind one dispatching ``grad_rows``, and a fresh ``A @ x``
for every mean gradient and mean value.  The library's kernels
(``_sigmoid``'s branch-free array path and its scalar branch, and the
closures and one-entry link memo that ``_linear_model`` builds) must give
the same bytes at every finite point.
"""

import numpy as np
import pytest

import vrprox as vp
from vrprox.estimators import HYBRID_SARAH, MOMENTUM_SARAH, SARAH, SGD
from vrprox.oracle import ProblemInstance
from vrprox.problems import _sigmoid
from vrprox.prox import L1, BoxIndicator, ElasticNet, Zero


def masked_sigmoid(u):
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    return out


def reference_sigmoid_problem(prob):
    A, y, n = prob.meta["A"], prob.meta["y"], prob.num_components

    def margin(x, i):
        return -y[i] * float(A[i] @ x)

    def grad_rows(x, ids):
        if np.ndim(ids) == 0:
            s = masked_sigmoid(margin(x, ids))
            return (s * (1.0 - s) * (-y[ids])) * A[ids]
        s = masked_sigmoid(-(A[ids] @ x) * y[ids])
        return (s * (1.0 - s) * (-y[ids]))[:, None] * A[ids]

    def value_sample(x, i):
        return float(masked_sigmoid(margin(x, i)))

    def mean_grad(x):
        s = masked_sigmoid(-(A @ x) * y)
        return A.T @ (s * (1.0 - s) * (-y)) / n

    def mean_value(x):
        return float(np.mean(masked_sigmoid(-(A @ x) * y)))

    return _reference(prob, grad_rows, value_sample, mean_grad, mean_value)


def reference_robust_problem(prob):
    A, b, n = prob.meta["A"], prob.meta["b"], prob.num_components

    def grad_rows(x, ids):
        if np.ndim(ids) == 0:
            r = float(A[ids] @ x) - b[ids]
            return (2.0 * r / (1.0 + r * r) ** 2) * A[ids]
        r = A[ids] @ x - b[ids]
        return (2.0 * r / (1.0 + r * r) ** 2)[:, None] * A[ids]

    def value_sample(x, i):
        r = float(A[i] @ x) - b[i]
        return r * r / (1.0 + r * r)

    def mean_grad(x):
        r = A @ x - b
        return A.T @ (2.0 * r / (1.0 + r * r) ** 2) / n

    def mean_value(x):
        r = A @ x - b
        return float(np.mean(r * r / (1.0 + r * r)))

    return _reference(prob, grad_rows, value_sample, mean_grad, mean_value)


def _reference(prob, grad_rows, value_sample, mean_grad, mean_value):
    return ProblemInstance(
        name="reference-" + prob.name,
        dim=prob.dim,
        num_components=prob.num_components,
        grad_rows=grad_rows,
        value_sample=value_sample,
        lipschitz_L=prob.lipschitz_L,
        sigma_bound=prob.sigma_bound,
        f_lower=prob.f_lower,
        mean_grad=mean_grad,
        mean_value=mean_value,
    )


FAMILIES = {
    "sigmoid": (lambda: vp.make_nonconvex_sigmoid(60, 5, seed=2), reference_sigmoid_problem),
    "robust": (lambda: vp.make_robust_regression(60, 5, seed=2), reference_robust_problem),
}

SPECIAL = [np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0, 709.0, -709.0, 745.0, -745.0,
           1e308, -1e308]


def _random_margins():
    rng = np.random.default_rng(5)
    return np.concatenate([rng.standard_normal(8000) * 40.0, rng.uniform(-800, 800, 2000)])


def test_sigmoid_matches_masked_reference_on_special_values():
    u = np.array(SPECIAL)
    assert _sigmoid(u).tobytes() == masked_sigmoid(u).tobytes()


def test_sigmoid_matches_masked_reference_on_random_values():
    u = _random_margins()
    assert _sigmoid(u).tobytes() == masked_sigmoid(u).tobytes()


def test_scalar_sigmoid_matches_masked_reference():
    for value in np.concatenate([np.array(SPECIAL), _random_margins()[:3000]]):
        for u in (value, float(value)):
            got = _sigmoid(u)
            assert isinstance(got, np.float64), type(u)
            assert got.tobytes() == masked_sigmoid(value).tobytes(), value


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_per_sample_and_mean_kernels_match_reference(family):
    make, reference = FAMILIES[family]
    prob = make()
    ref = reference(prob)
    rng = np.random.default_rng(9)
    ids = np.arange(prob.num_components)
    for x in rng.uniform(-12, 12, (40, prob.dim)):
        for i in (0, 17, prob.num_components - 1):
            assert prob.grad_rows(x, i).tobytes() == ref.grad_rows(x, i).tobytes()
            assert prob.value_sample(x, i) == ref.value_sample(x, i)
        assert prob.grad_rows(x, ids).tobytes() == ref.grad_rows(x, ids).tobytes()
        assert vp.full_gradient(prob, x).tobytes() == vp.full_gradient(ref, x).tobytes()
        assert vp.full_value(prob, x) == vp.full_value(ref, x)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("psi", [Zero(), L1(lam=0.05), ElasticNet(0.05, 0.3),
                                 BoxIndicator(lo=-0.5, hi=0.5)], ids=repr)
@pytest.mark.parametrize("kind", [MOMENTUM_SARAH, HYBRID_SARAH, SARAH, SGD])
def test_run_matches_reference_closures_bitwise(family, psi, kind):
    make, reference = FAMILIES[family]
    prob = make()
    ref = reference(prob)
    hp = vp.schedule_from_T(80, prob.lipschitz_L)
    got = vp.run(prob, psi, hp, rng=41, kind=kind)
    want = vp.run(ref, psi, hp, rng=41, kind=kind)
    for name in ("step_sq", "grad_map_sq", "obj", "est_err_sq", "output_x"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert (got.output_index, got.oracle_calls) == (want.output_index, want.oracle_calls)


@pytest.fixture(params=sorted(FAMILIES))
def pair(request):
    make, reference = FAMILIES[request.param]
    prob = make()
    return prob, reference(prob)


def _same(prob, ref, x):
    assert vp.full_gradient(prob, x).tobytes() == vp.full_gradient(ref, x).tobytes()
    assert vp.full_value(prob, x) == vp.full_value(ref, x)


def test_memo_sees_in_place_mutation(pair):
    prob, ref = pair
    x = np.linspace(-1.0, 1.0, prob.dim)
    _same(prob, ref, x)
    x[0] += 0.25
    assert vp.full_value(prob, x) == vp.full_value(ref, x)
    assert vp.full_gradient(prob, x).tobytes() == vp.full_gradient(ref, x).tobytes()


def test_memo_keys_negative_zero_apart(pair):
    prob, ref = pair
    zero, neg_zero = np.zeros(prob.dim), -np.zeros(prob.dim)
    for x in (zero, neg_zero, zero):
        _same(prob, ref, x)


def test_memo_value_before_gradient(pair):
    prob, ref = pair
    x = np.full(prob.dim, 0.3)
    assert vp.full_value(prob, x) == vp.full_value(ref, x)
    assert vp.full_gradient(prob, x).tobytes() == vp.full_gradient(ref, x).tobytes()


def test_memo_alternating_points(pair):
    prob, ref = pair
    a, b = np.full(prob.dim, 0.7), np.full(prob.dim, -2.0)
    for x in (a, b, a, a, b, a):
        _same(prob, ref, x)


"""The sigmoid and robust kernels against their plain reference forms, bit for bit.

The reference closures below are the straightforward kernels: a masked
sigmoid on 0-d or 1-d arrays, a robust slope that squares ``1 + r^2`` as a
product, a one-id sample gradient whose id-array form is the stack of its
one-id rows, and a fresh ``A @ x`` for every mean gradient and mean value.
The library's kernels (``_sigmoid``'s branch-free array path and its scalar
branch, and the closures and one-entry link memo that ``_linear_model``
builds) must give the same bytes at every finite point, +0, -0 and saturated
margins included.

The kernels compute in place on their own temporaries; the last tests check
that no sample or mean gradient, prox or recursion writes into an input or
returns memory shared with one.
"""

import numpy as np
import pytest

import vrprox as vp
from vrprox.estimators import HYBRID_SARAH, MOMENTUM_SARAH, SARAH, SGD, _recursion, _weights
from vrprox.oracle import ProblemInstance
from vrprox.problems import _sigmoid
from vrprox.prox import L1, BoxIndicator, ElasticNet, Zero, prox_operator


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

    def grad_row(x, i):
        s = masked_sigmoid(margin(x, i))
        return (s * (1.0 - s) * (-y[i])) * A[i]

    def value_sample(x, i):
        return float(masked_sigmoid(margin(x, i)))

    def mean_grad(x):
        s = masked_sigmoid(-(A @ x) * y)
        return A.T @ (s * (1.0 - s) * (-y)) / n

    def mean_value(x):
        return float(np.mean(masked_sigmoid(-(A @ x) * y)))

    return _reference(prob, grad_row, value_sample, mean_grad, mean_value)


def reference_robust_problem(prob):
    A, b, n = prob.meta["A"], prob.meta["b"], prob.num_components

    def slope(r):
        q = 1.0 + r * r
        return 2.0 * r / (q * q)

    def grad_row(x, i):
        return slope(float(A[i] @ x) - b[i]) * A[i]

    def value_sample(x, i):
        r = float(A[i] @ x) - b[i]
        return r * r / (1.0 + r * r)

    def mean_grad(x):
        return A.T @ slope(A @ x - b) / n

    def mean_value(x):
        r = A @ x - b
        return float(np.mean(r * r / (1.0 + r * r)))

    return _reference(prob, grad_row, value_sample, mean_grad, mean_value)


def _reference(prob, grad_row, value_sample, mean_grad, mean_value):
    def grad_rows(x, ids):
        if np.ndim(ids) == 0:
            return grad_row(x, ids)
        return np.array([grad_row(x, i) for i in ids])

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


def _kernel_points(prob):
    """Random points, +0 and -0, and points that put one row's margin
    a_k^T x at +-700..800, where exp saturates (||a_i|| <= 1, so the other
    rows' margins reach up to that size too)."""
    A = prob.meta["A"]
    rng = np.random.default_rng(9)
    points = list(rng.uniform(-12, 12, (40, prob.dim)))
    points += [np.zeros(prob.dim), -np.zeros(prob.dim)]
    for k in (0, 17, 33):
        for margin in (700.0, 709.0, 745.0, 760.0, 800.0):
            for sign in (1.0, -1.0):
                points.append(sign * margin * A[k] / A[k].dot(A[k]))
    directions = rng.standard_normal((6, prob.dim))
    points += list(800.0 * directions / np.linalg.norm(directions, axis=1, keepdims=True))
    return points


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_per_sample_and_mean_kernels_match_reference(family):
    make, reference = FAMILIES[family]
    prob = make()
    ref = reference(prob)
    ids = np.arange(prob.num_components)
    some = np.array([33, 0, 17, 17, prob.num_components - 1])
    for x in _kernel_points(prob):
        for i in (0, 17, 33, prob.num_components - 1):
            assert prob.grad_rows(x, i).tobytes() == ref.grad_rows(x, i).tobytes()
            assert prob.value_sample(x, i) == ref.value_sample(x, i)
        for batch in (ids, some):
            assert prob.grad_rows(x, batch).tobytes() == ref.grad_rows(x, batch).tobytes()
        assert vp.full_gradient(prob, x).tobytes() == vp.full_gradient(ref, x).tobytes()
        assert vp.full_value(prob, x) == vp.full_value(ref, x)


def _call_checked(fn, *inputs):
    """fn(*inputs), asserting that every input keeps its bytes and that the
    result shares no memory with one."""
    before = [arr.tobytes() for arr in inputs]
    result = fn(*inputs)
    for arr, data in zip(inputs, before):
        assert arr.tobytes() == data
        assert not np.shares_memory(result, arr)
    return result


ALL_FAMILIES = {**{k: make for k, (make, _) in FAMILIES.items()},
                "quad": lambda: vp.make_quadratic(60, 5, seed=2)}


@pytest.mark.parametrize("family", sorted(ALL_FAMILIES))
def test_kernels_write_no_input_and_return_fresh_arrays(family):
    # The run loop keeps x_t and v_t by reference in its block lists, so a
    # kernel that wrote into an input, or returned one, would change them.
    prob = ALL_FAMILIES[family]()
    x = np.linspace(-1.0, 1.0, prob.dim)
    for ids in (3, np.array([3, 0, 3, 59])):
        _call_checked(lambda x: prob.grad_rows(x, ids), x)
    _call_checked(prob.mean_grad, x)
    # A second call at the memo's point returns a fresh array too.
    first = prob.mean_grad(x)
    assert not np.shares_memory(first, _call_checked(prob.mean_grad, x))


@pytest.mark.parametrize("psi", [L1(lam=0.05), ElasticNet(0.05, 0.3)], ids=repr)
def test_prox_operators_write_no_input(psi):
    z = np.array([-0.3, -0.05, -0.0, 0.0, 0.02, 0.05, 0.7])
    _call_checked(prox_operator(psi, 1.0), z)
    _call_checked(prox_operator(psi, 1.0), np.stack([z, -z]))


@pytest.mark.parametrize("kind", [MOMENTUM_SARAH, HYBRID_SARAH, SARAH, SGD])
@pytest.mark.parametrize("beta", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("batched", [False, True], ids=["one_id", "id_array"])
def test_recursion_writes_no_input(kind, beta, batched):
    prob = vp.make_nonconvex_sigmoid(60, 5, seed=2)
    rng = np.random.default_rng(3)
    v, x_prev, x_curr = rng.standard_normal((3, prob.dim))
    xi, zeta = (np.array([4, 9, 4]), np.array([1, 2, 59])) if batched else (4, 59)
    _call_checked(
        lambda v, x_prev, x_curr: _recursion(vp.sample_gradient, prob, kind, v, x_prev,
                                             x_curr, xi, zeta, _weights(beta)),
        v, x_prev, x_curr)


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


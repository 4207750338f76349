import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vrprox.prox import (
    BOX_MEMBERSHIP_TOL,
    BoxIndicator,
    ElasticNet,
    L1,
    Zero,
    parse_psi,
    prox,
    prox_operator,
    psi_value,
)

from conftest import nan_with_bits

VARIANTS = [
    Zero(),
    L1(lam=1.3),
    BoxIndicator(lo=-1.0, hi=1.0),
    ElasticNet(lam1=0.8, lam2=2.0),
]


def test_zero_prox_is_identity(rng):
    z = rng.normal(0, 3, 12)
    for tau in (1e-3, 1.0, 10.0):
        np.testing.assert_array_equal(prox(Zero(), z, tau), z)


def test_l1_soft_threshold_closed_form():
    got = prox(L1(lam=1.0), np.array([3.0, -0.5, 0.0]), 1.0)
    np.testing.assert_array_equal(got, [2.0, 0.0, 0.0])


def test_l1_tie_maps_to_zero():
    # |z| == tau * lam exactly: the closed form is continuous there, return 0.
    got = prox(L1(lam=2.0), np.array([1.0, -1.0]), 0.5)
    np.testing.assert_array_equal(got, [0.0, 0.0])


def test_box_projection_and_tau_independence():
    box = BoxIndicator(lo=-1.0, hi=1.0)
    z = np.array([2.0, 0.3, -5.0])
    got = prox(box, z, 0.7)
    np.testing.assert_array_equal(got, [1.0, 0.3, -1.0])
    np.testing.assert_array_equal(prox(box, z, 3.9), got)


def test_box_vector_bounds():
    box = BoxIndicator(lo=np.array([0.0, -2.0]), hi=np.array([1.0, 2.0]))
    np.testing.assert_array_equal(prox(box, np.array([-1.0, 5.0]), 1.0), [0.0, 2.0])


def test_elastic_net_against_grid_minimization():
    # Independent oracle: dense 1-D grid minimization of
    # psi(u) + (1/(2 tau)) (u - z)^2.
    psi = ElasticNet(lam1=1.0, lam2=1.0)
    z, tau = 4.0, 1.0
    grid = np.arange(-1.0, 4.0, 1e-6)
    objective = (
        psi.lam1 * np.abs(grid) + 0.5 * psi.lam2 * grid**2 + (grid - z) ** 2 / (2 * tau)
    )
    u_grid = grid[np.argmin(objective)]
    u = prox(psi, np.array([z]), tau)[0]
    assert abs(u - u_grid) <= 1e-6
    assert u == pytest.approx(1.5, abs=1e-12)


@pytest.mark.parametrize("lam1,lam2,z,tau", [(0.5, 3.0, -2.7, 0.3), (2.0, 0.0, 1.1, 2.0)])
def test_elastic_net_random_cases_against_grid(lam1, lam2, z, tau):
    psi = ElasticNet(lam1=lam1, lam2=lam2)
    grid = np.arange(-4.0, 4.0, 1e-6)
    objective = lam1 * np.abs(grid) + 0.5 * lam2 * grid**2 + (grid - z) ** 2 / (2 * tau)
    u = prox(psi, np.array([z]), tau)[0]
    assert abs(u - grid[np.argmin(objective)]) <= 2e-6


def test_psi_values():
    assert psi_value(L1(lam=2.0), np.array([1.0, -3.0])) == 8.0
    assert psi_value(Zero(), np.array([5.0, -5.0])) == 0.0
    assert psi_value(ElasticNet(lam1=1.0, lam2=2.0), np.array([2.0])) == pytest.approx(
        1.0 * 2.0 + 0.5 * 2.0 * 4.0
    )


def test_box_psi_value_membership():
    box = BoxIndicator(lo=0.0, hi=1.0)
    assert math.isinf(psi_value(box, np.array([2.0])))
    assert psi_value(box, np.array([0.5])) == 0.0
    # Boundary within rounding tolerance still counts as inside.
    assert psi_value(box, np.array([1.0 + 1e-13])) == 0.0
    assert math.isinf(psi_value(box, np.array([1.0 + 1e-9])))


@pytest.mark.parametrize("psi", VARIANTS, ids=lambda p: type(p).__name__)
def test_nonexpansiveness(psi, rng):
    p = 6
    for _ in range(300):
        tau = float(rng.uniform(1e-3, 10.0))
        z1 = rng.normal(0, 4, p)
        z2 = rng.normal(0, 4, p)
        d_out = np.linalg.norm(prox(psi, z1, tau) - prox(psi, z2, tau))
        d_in = np.linalg.norm(z1 - z2)
        assert d_out <= d_in + 1e-12


@pytest.mark.parametrize("psi", VARIANTS, ids=lambda p: type(p).__name__)
def test_prox_fixed_points(psi):
    # Points where psi vanishes with 0 in the subdifferential stay put.
    z = np.zeros(4) if not isinstance(psi, BoxIndicator) else np.full(4, 0.25)
    np.testing.assert_allclose(prox(psi, z, 0.7), z, atol=1e-15)


@pytest.mark.parametrize("psi", VARIANTS, ids=lambda p: type(p).__name__)
def test_optimality_certificate(psi, rng):
    # The returned point must beat 100 random perturbations on the prox
    # objective, up to 1e-12 rounding slack.
    p = 6
    for _ in range(50):
        tau = float(rng.uniform(1e-2, 10.0))
        z = rng.normal(0, 3, p)
        u = prox(psi, z, tau)
        f_u = psi_value(psi, u) + np.sum((u - z) ** 2) / (2 * tau)
        for _ in range(100):
            delta = rng.normal(0, 1, p)
            delta *= rng.uniform(0, 0.1) / np.linalg.norm(delta)
            w = u + delta
            f_w = psi_value(psi, w) + np.sum((w - z) ** 2) / (2 * tau)
            assert f_u <= f_w + 1e-12


def test_box_projection_idempotent_exactly(rng):
    box = BoxIndicator(lo=np.array([-1.0, 0.0, 2.0]), hi=np.array([1.0, 0.5, 3.0]))
    for _ in range(100):
        z = rng.normal(0, 5, 3)
        once = prox(box, z, 0.3)
        np.testing.assert_array_equal(prox(box, once, 7.7), once)


def test_prox_applies_rowwise(rng):
    psi = ElasticNet(lam1=0.3, lam2=0.9)
    Z = rng.normal(0, 2, (5, 4))
    rows = np.stack([prox(psi, z, 0.4) for z in Z])
    np.testing.assert_array_equal(prox(psi, Z, 0.4), rows)


def test_parse_psi():
    assert parse_psi("zero") == Zero()
    assert parse_psi("l1:0.5") == L1(lam=0.5)
    enet = parse_psi("enet:1.0:2.0")
    assert (enet.lam1, enet.lam2) == (1.0, 2.0)
    box = parse_psi("box:-1:1")
    assert float(box.lo) == -1.0 and float(box.hi) == 1.0
    for bad in ("l2:1", "l1", "box:1", "enet:1", "l1:abc", "l1:-1"):
        with pytest.raises(ValueError):
            parse_psi(bad)


def test_input_validation():
    with pytest.raises(ValueError):
        prox(L1(lam=1.0), np.array([np.nan, 0.0]), 1.0)
    with pytest.raises(ValueError):
        prox(L1(lam=1.0), np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        prox(L1(lam=1.0), np.array([1.0]), -2.0)
    with pytest.raises(ValueError):
        L1(lam=-0.1)
    with pytest.raises(ValueError):
        ElasticNet(lam1=1.0, lam2=-1.0)
    with pytest.raises(ValueError):
        BoxIndicator(lo=np.array([1.0, 0.0]), hi=np.array([0.0, 1.0]))
    box = BoxIndicator(lo=np.zeros(3), hi=np.ones(3))
    with pytest.raises(ValueError):
        prox(box, np.zeros(4), 1.0)
    with pytest.raises(ValueError):
        psi_value(L1(lam=1.0), np.array([np.inf]))


@pytest.mark.parametrize("psi", VARIANTS)
def test_prox_operator_matches_prox_bitwise(psi, rng):
    Z = rng.normal(0, 2, (6, 3))
    for tau in (1e-3, 0.4, 5.0):
        operator = prox_operator(psi, tau)
        assert operator(Z).tobytes() == prox(psi, Z, tau).tobytes()
        assert operator(Z[0]).tobytes() == prox(psi, Z[0], tau).tobytes()


@pytest.mark.parametrize("psi", [L1(lam=1.3), ElasticNet(lam1=0.8, lam2=2.0)], ids=repr)
def test_soft_threshold_operators_keep_the_plain_formula_s_bits(psi, rng):
    # sign(z) * max(|z| - tau lam1, 0) / (1 + tau lam2) with Python floats, as
    # written plainly; the operators' 0-d operands and in-place order must
    # give its bits, the sign and payload of a NaN input included.
    z = np.concatenate([rng.normal(0, 2, 20), [np.nan, nan_with_bits(0xFFF8000000000123),
                        nan_with_bits(0x7FF8000000000456), np.inf, -np.inf, 0.0, -0.0, 5e-324,
                        -5e-324, 1.04, -1.04, 800.0, -745.0]])
    lam1, lam2 = (psi.lam, 0.0) if isinstance(psi, L1) else (psi.lam1, psi.lam2)
    for tau in (1e-3, 0.8, 5.0):
        with np.errstate(invalid="ignore"):
            want = np.sign(z) * np.maximum(np.abs(z) - tau * lam1, 0.0)
            if lam2:
                want = want / (1.0 + tau * lam2)
            got = prox_operator(psi, tau)(z)
        assert got.tobytes() == want.tobytes(), tau


@pytest.mark.parametrize("psi", VARIANTS, ids=repr)
def test_prox_of_a_scalar_is_the_prox_of_a_one_point(psi):
    for z in (3.0, -0.4, 0.0):
        want = prox(psi, np.array([z]), 0.5)
        assert prox(psi, z, 0.5) == want[0] and np.ndim(prox(psi, z, 0.5)) == 0


def test_prox_returns_a_new_array_even_for_the_identity(rng):
    z = rng.normal(0, 1, 4)
    out = prox(Zero(), z, 1.0)
    assert out is not z and not np.shares_memory(out, z)
    assert prox_operator(Zero(), 1.0)(z) is z


def test_prox_operator_validation():
    for tau in (0.0, -1.0, np.inf, np.nan, np.ones(2)):
        with pytest.raises(ValueError):
            prox_operator(L1(lam=1.0), tau)
    with pytest.raises(TypeError):
        prox_operator(object(), 1.0)


def test_psi_value_rejects_an_unknown_regularizer():
    with pytest.raises(TypeError, match="unknown regularizer"):
        psi_value(object(), np.zeros(3))


def _per_row(psi, X):
    # The reference: one psi_value call per row, shaped like the stack.
    X = np.asarray(X)
    values = [psi_value(psi, row) for row in X.reshape(-1, X.shape[-1])]
    return np.array(values).reshape(X.shape[:-1])


@pytest.mark.parametrize("p", [5, 300])
def test_psi_value_row_wise_matches_per_row_bitwise(p, rng):
    variants = VARIANTS + [BoxIndicator(lo=-np.ones(p), hi=2.0 * np.ones(p))]
    for psi in variants:
        for shape in [(1, p), (7, p), (100, p), (3, 4, p)]:
            X = rng.normal(0, 0.6, shape)
            got = psi_value(psi, X)
            assert isinstance(got, np.ndarray) and got.shape == shape[:-1]
            assert got.tobytes() == _per_row(psi, X).tobytes()
        # A strided stack is read as its C-ordered copy, so it sums alike.
        F = np.asfortranarray(rng.normal(0, 0.6, (50, p)))
        assert psi_value(psi, F).tobytes() == _per_row(psi, F).tobytes()


def test_box_row_wise_membership_at_the_tolerance():
    box = BoxIndicator(lo=-1.0, hi=1.0)
    X = np.array([
        [0.0, 0.5, -0.5],
        [1.0 + BOX_MEMBERSHIP_TOL, 0.0, 1.0],
        [-1.0 - BOX_MEMBERSHIP_TOL, -1.0, 0.0],
        [1.0 + 1e-9, 0.0, 0.0],
        [0.0, -1.0 - BOX_MEMBERSHIP_TOL, 1.0 + BOX_MEMBERSHIP_TOL],
    ])
    got = psi_value(box, X)
    np.testing.assert_array_equal(got, [0.0, 0.0, 0.0, math.inf, 0.0])
    assert got.tobytes() == _per_row(box, X).tobytes()
    assert got.tobytes() == _per_row(box, X.reshape(5, 1, 3)).reshape(5).tobytes()


@pytest.mark.parametrize("psi", VARIANTS, ids=lambda p: type(p).__name__)
def test_psi_value_of_a_point_is_a_float(psi, rng):
    x = rng.normal(0, 0.5, 4)
    assert type(psi_value(psi, x)) is float
    assert type(psi_value(psi, list(x))) is float


@pytest.mark.parametrize("psi", VARIANTS, ids=lambda p: type(p).__name__)
def test_psi_value_rejects_a_non_finite_row(psi, rng):
    X = rng.normal(0, 0.5, (6, 4))
    for bad in (np.nan, np.inf, -np.inf):
        Y = X.copy()
        Y[4, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            psi_value(psi, Y)
        with pytest.raises(ValueError, match="finite"):
            psi_value(psi, Y.reshape(2, 3, 4))


def test_row_wise_box_checks_the_dimension():
    box = BoxIndicator(lo=np.zeros(3), hi=np.ones(3))
    with pytest.raises(ValueError, match="dimension"):
        psi_value(box, np.zeros((5, 4)))


# Arbitrary finite stacks; entries stay below 1e100 so that squared norms of
# up to eight entries cannot overflow.
_FINITE = st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False)
_STACKS = st.integers(1, 8).flatmap(
    lambda p: hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.just(p)), elements=_FINITE)
)
_PSI = st.sampled_from(VARIANTS)


@settings(deadline=None)
@given(psi=_PSI, X=_STACKS)
def test_property_psi_value_row_wise(psi, X):
    assert psi_value(psi, X).tobytes() == _per_row(psi, X).tobytes()


@settings(deadline=None)
@given(
    psi=_PSI,
    pair=st.integers(1, 8).flatmap(
        lambda p: st.tuples(*[
            hnp.arrays(np.float64, (4, p), elements=_FINITE) for _ in range(2)
        ])
    ),
    tau=st.floats(1e-3, 1e3),
)
def test_property_prox_nonexpansive_row_wise(psi, pair, tau):
    Z1, Z2 = pair
    d_out = np.linalg.norm(prox(psi, Z1, tau) - prox(psi, Z2, tau), axis=1)
    d_in = np.linalg.norm(Z1 - Z2, axis=1)
    # Each output entry is rounded at the scale of its input: allow a few ulps
    # of the inputs' norms.
    slack = 1e-15 * (np.linalg.norm(Z1, axis=1) + np.linalg.norm(Z2, axis=1))
    assert np.all(d_out <= d_in + slack)


@pytest.mark.parametrize("psi", VARIANTS, ids=lambda p: type(p).__name__)
@settings(deadline=None)
@given(
    case=st.integers(1, 8).flatmap(
        lambda p: st.tuples(
            hnp.arrays(np.float64, p, elements=st.floats(-10.0, 10.0)),
            hnp.arrays(np.float64, st.tuples(st.integers(1, 10), st.just(p)),
                       elements=st.floats(-1.0, 1.0)),
        )
    ),
    tau=st.floats(1e-2, 10.0),
    radius=st.floats(1e-3, 0.1),
)
def test_property_prox_optimality(psi, case, tau, radius):
    # u = prox(psi, z, tau) beats every point at distance `radius` from it on
    # the prox objective, up to test_optimality_certificate's 1e-12 slack.
    # The objective's strong convexity puts those points at least
    # radius^2 / (2 tau) >= 5e-8 above u, far above rounding.
    z, directions = case
    norms = np.linalg.norm(directions, axis=1)
    assume(np.all(norms > 1e-6))
    u = prox(psi, z, tau)
    W = u + radius * directions / norms[:, None]
    f_u = psi_value(psi, u) + np.sum((u - z) ** 2) / (2 * tau)
    f_w = psi_value(psi, W) + np.sum((W - z) ** 2, axis=1) / (2 * tau)
    assert np.all(f_u <= f_w + 1e-12)

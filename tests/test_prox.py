import numpy as np
import pytest

from vrprox.prox import (
    PSI_INFINITY,
    BoxIndicator,
    ElasticNet,
    L1,
    Zero,
    add_psi,
    is_psi_infinite,
    parse_psi,
    prox,
    prox_operator,
    psi_evaluator,
    psi_value,
)

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
    assert is_psi_infinite(psi_value(box, np.array([2.0])))
    assert psi_value(box, np.array([0.5])) == 0.0
    # Boundary within rounding tolerance still counts as inside.
    assert psi_value(box, np.array([1.0 + 1e-13])) == 0.0
    assert is_psi_infinite(psi_value(box, np.array([1.0 + 1e-9])))


def test_add_psi_guards_the_marker():
    assert add_psi(1.5, 2.5) == 4.0
    assert is_psi_infinite(add_psi(1.5, PSI_INFINITY))


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


@pytest.mark.parametrize("psi", VARIANTS + [BoxIndicator(lo=0.5, hi=2.0)])
def test_psi_evaluator_matches_psi_value(psi, rng):
    evaluate = psi_evaluator(psi)
    for _ in range(20):
        x = rng.normal(0, 1, 3)
        assert evaluate(x) == psi_value(psi, x)
    with pytest.raises(TypeError):
        psi_evaluator(object())

"""The numpy behaviour that byte-identical traces rest on.

``optimizer.run`` draws a block's sample ids in one ``rng.integers`` call and
reduces a block's squared norms with ``np.vecdot``; its traces equal a
per-step loop's (one scalar draw per id, one ``d @ d`` per row) only while
numpy keeps both identities below.  The problems' step kernels use
``ndarray.dot`` for ``@`` (``A.T.dot(w)`` included) and ``arr.sum() / n``
for ``np.mean``, which are cheaper calls to the same arithmetic; the sigmoid
family's margins are dot products with rows whose sign is folded in, and
its link maps +0 and -0 alike.  The last tests pin all of that.  A numpy
upgrade that breaks any of them must fail here, not change traces silently.
"""

import numpy as np
import pytest

from vrprox.optimizer import BLOCK
from vrprox.problems import _sigmoid

HIGHS = [1, 2, 3, 50, 100, 200, 1000, 12345, 2**31 + 1, 2**32 + 5, 2**62, 2**63]
SIZES = [1, 7, BLOCK - 1, BLOCK, BLOCK + 1, 1000, 4001]


@pytest.mark.parametrize("high", HIGHS)
@pytest.mark.parametrize("size", SIZES)
def test_block_draw_equals_scalar_draws(high, size):
    block = np.random.Generator(np.random.PCG64(5))
    single = np.random.Generator(np.random.PCG64(5))
    # An odd draw first, so a half-used 32-bit buffer carries into the block.
    assert block.integers(0, 3) == single.integers(0, 3)
    ids = block.integers(0, high, size=size)
    assert ids.tolist() == [int(single.integers(0, high)) for _ in range(size)]
    assert block.bit_generator.state == single.bit_generator.state


@pytest.mark.parametrize("p", [1, 2, 5, 8, 20, 50, 300, 1000])
def test_vecdot_equals_per_row_dot(p):
    rng = np.random.default_rng(p)
    rows = rng.standard_normal((4096, p)) * 10.0 ** rng.integers(-8, 9, size=(4096, 1))
    special = np.array([np.inf, -np.inf, np.nan, 1e200, -1e200, 5e-324, -2.5e-310])
    for k, value in enumerate(special):
        rows[k, k % p] = value
        rows[len(special) + k] = value
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        got = np.vecdot(rows, rows)
        want = np.array([r @ r for r in rows])
    assert got.tobytes() == want.tobytes()


PS = [1, 2, 5, 8, 20, 50, 300, 1000]
SPECIAL = np.array([np.inf, -np.inf, np.nan, 1e200, -1e200, 5e-324, -2.5e-310, 0.0, -0.0])


def _rows(p, count=4096):
    """Rows of mixed scale, with the special values both alone in a row and
    filling one."""
    rng = np.random.default_rng(p)
    rows = rng.standard_normal((count, p)) * 10.0 ** rng.integers(-8, 9, size=(count, 1))
    for k, value in enumerate(SPECIAL):
        rows[k, k % p] = value
        rows[len(SPECIAL) + k] = value
    return rows


def _as_matmul(got, p):
    # With one product to sum (p = 1), @ adds it to +0.0 while dot returns
    # it, so the two differ in the sign of a -0.0 product and nowhere else.
    # The problems cannot meet it: the quadratic's d.dot(d) sums squares, and
    # a linear model's link maps z = +0.0 and -0.0 alike (the robust link
    # z - b_i unless b_i is exactly +0.0).
    return got + 0.0 if p == 1 else got


@pytest.mark.parametrize("p", PS)
def test_vector_dot_equals_matmul(p):
    rows = _rows(p)
    others = np.roll(rows[::-1], 3, axis=0)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        got = np.array([a.dot(b) for a, b in zip(rows, others)])
        want = np.array([a @ b for a, b in zip(rows, others)])
    assert _as_matmul(got, p).tobytes() == want.tobytes()


@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("m", [1, 2, 7, 64, BLOCK + 1])
def test_matrix_dot_vector_equals_matmul(p, m):
    rows = _rows(p)
    rng = np.random.default_rng(m)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for start in range(0, len(rows) - m, 131):
            # A slice of rows and, as grad_rows makes them, gathered rows.
            for A in (rows[start:start + m], rows[rng.integers(0, len(rows), size=m)]):
                x = rows[(start + 11) % len(rows)]
                assert _as_matmul(A.dot(x), p).tobytes() == (A @ x).tobytes()


@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("m", [1, 2, 7, 64, BLOCK + 1])
def test_transposed_dot_vector_equals_matmul(p, m):
    # The mean gradient's A.T.dot(w), m = n; a matrix takes one path for
    # both calls, so even a single -0.0 product (m = 1) keeps its sign.
    rows = _rows(p)
    weights = _rows(1)[:, 0]
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for start in range(0, len(rows) - m, 131):
            A = rows[start:start + m]
            w = weights[(start + 11) % (len(weights) - m):][:m]
            assert A.T.dot(w).tobytes() == (A.T @ w).tobytes()


def _bits_but_zero_sign(values):
    # -0.0 becomes +0.0 and every NaN one NaN; all other bits stay.
    values = values + 0.0
    values[np.isnan(values)] = np.nan
    return values.tobytes()


@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("m", [1, 2, 7, 64, BLOCK + 1])
def test_sign_folded_rows_dot_equals_signed_dot(p, m):
    # The sigmoid family's margins: (-y_i a_i)^T x is -y_i (a_i^T x), up to
    # the sign of an exact zero, which its link does not see (below).
    rows = _rows(p)
    rng = np.random.default_rng(m)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for start in range(0, len(rows) - m, 131):
            A = rows[start:start + m]
            s = rng.choice([-1.0, 1.0], size=m)
            x = rows[(start + 11) % len(rows)]
            got = (s[:, None] * A).dot(x)
            assert _bits_but_zero_sign(got) == _bits_but_zero_sign(A.dot(x) * s)


def test_sigmoid_maps_both_zeros_alike():
    zeros = np.array([0.0, -0.0])
    assert _sigmoid(zeros)[0].tobytes() == _sigmoid(zeros)[1].tobytes()
    assert _sigmoid(0.0).tobytes() == _sigmoid(-0.0).tobytes()
    assert _sigmoid(zeros)[1].tobytes() == _sigmoid(-0.0).tobytes()


def test_sum_over_n_equals_mean():
    # Every length up to 4097 covers the 8-wide unrolled inner loop and the
    # 128-element blocks of numpy's pairwise summation, and the edges of both.
    rng = np.random.default_rng(4097)
    for n in range(1, 4098):
        arr = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, size=n)
        assert (arr.sum() / n).tobytes() == np.mean(arr).tobytes(), n

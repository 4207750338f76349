"""The numpy behaviour that byte-identical traces rest on.

``optimizer.run`` draws a block's sample ids in one ``rng.integers`` call and
reduces a block's squared norms with ``np.vecdot``; its traces equal a
per-step loop's (one scalar draw per id, one ``d @ d`` per row) only while
numpy keeps both identities below.  A numpy upgrade that breaks either must
fail here, not change traces silently.
"""

import numpy as np
import pytest

from vrprox.optimizer import BLOCK

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

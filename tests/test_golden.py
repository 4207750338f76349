"""Byte identity of the command-line outputs, pinned by sha256.

The digests were recorded with numpy 2.4.6, whose random streams and
reductions the outputs rest on; under another numpy version the tests skip.
A change that alters the random stream, a certified constant or a kernel's
arithmetic on purpose updates a digest here and says so in CHANGES.md.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from vrprox.cli import main

ROOT = Path(__file__).resolve().parents[1]

NUMPY_VERSION = "2.4.6"

# The one-step variance, smoothness and prox rows draw their samples as
# whole arrays, a chunk at a time; the digests rest on that order of draws.
VALIDATE_QUICK_SEED0 = "e60bb7b3abcc60dc239d68ed331c5405d5cd4ac1e565deb5a0bf522d44b37d5f"
# Full scale: the rows run their full sample counts, e.g. 100 frozen
# trajectories in the unrolled variance row where the quick run takes 10.
VALIDATE_SEED0 = "a1cf844e97fd5cae392884d5959e164f72301750f3f0a5d5744c8da24bb7ba5f"
QUAD_SWEEP_SUMMARY = "907d13a25a234aca68e7f91d3f6b862212fb7cb1987108fdead9a588e67bf560"
# sha256 of the listing "<sha256>  <name>\n" of every file but run_meta.txt,
# sorted by name: summary.csv and the 40 traces.
QUAD_SWEEP_FILES = "febed1917d5cbd4c5892ef03e2309fb91fe6d30fc8f683af0ec35903037241e6"

# The nonconvex families, T = 50,200 and 3 seeds at --master-seed 0:
# (config text, summary.csv, listing of summary.csv and the 6 traces).  The
# robust config is the one tools/output_digests.py runs.
NONCONVEX_RUNS = {
    "sigmoid": (
        "problem = sigmoid:200:10\npsi = l1:0.01\nestimator = hybrid_sarah\n"
        "T = 50,200\nseeds = 3\n",
        "1848970fd8e80531de84a1fe1f92296c1fa451cf8d97af07fca03662ed758ec7",
        "f03edca382648988951b8745f2a455396c2e33d7af7f6476da5e9305f476e614",
    ),
    "robust": (
        (ROOT / "demos" / "configs" / "robust_run.cfg").read_text(),
        "2998f99bc4887304b6faadd4b14b34fb4330a384c5dda2a7705dac66af945076",
        "cb13d5991483efac681a7db364f97df24e08d64f0f8092124c94209557427e33",
    ),
}

# compare.csv of the robust config above, every estimator kind, --master-seed 0.
ROBUST_COMPARE = "cb18900b439e82b90cddfc99f4f11ebc1820466b068de124ea10a3ab6b95a226"

pytestmark = pytest.mark.skipif(
    np.__version__ != NUMPY_VERSION,
    reason=f"digests recorded with numpy {NUMPY_VERSION}; this is numpy {np.__version__}",
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_validate_quick_stdout(capsys):
    assert main(["validate", "--quick", "--seed", "0"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == VALIDATE_QUICK_SEED0


def test_validate_stdout(capsys):
    assert main(["validate", "--seed", "0"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == VALIDATE_SEED0


def _check_run_files(cfg, out, n_files, summary, listing_digest):
    assert main(["run", "--config", str(cfg), "--output", str(out), "--master-seed", "0"]) == 0
    files = sorted(p for p in out.iterdir() if p.name != "run_meta.txt")
    assert len(files) == n_files
    assert _sha256((out / "summary.csv").read_bytes()) == summary
    listing = "".join(f"{_sha256(p.read_bytes())}  {p.name}\n" for p in files)
    assert _sha256(listing.encode()) == listing_digest


def test_quad_sweep_files(tmp_path):
    cfg = ROOT / "demos" / "configs" / "quad_sweep.cfg"
    _check_run_files(cfg, tmp_path / "quad_sweep", 41, QUAD_SWEEP_SUMMARY, QUAD_SWEEP_FILES)


@pytest.mark.parametrize("family", sorted(NONCONVEX_RUNS))
def test_nonconvex_run_files(tmp_path, family):
    text, summary, listing = NONCONVEX_RUNS[family]
    cfg = tmp_path / f"{family}.cfg"
    cfg.write_text(text)
    _check_run_files(cfg, tmp_path / family, 7, summary, listing)


def test_robust_compare_csv(tmp_path):
    out = tmp_path / "compare"
    cfg = ROOT / "demos" / "configs" / "robust_run.cfg"
    assert main(["compare", "--config", str(cfg), "--output", str(out), "--master-seed", "0"]) == 0
    assert _sha256((out / "compare.csv").read_bytes()) == ROBUST_COMPARE

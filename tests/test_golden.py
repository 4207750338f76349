"""Byte identity of the command-line outputs, pinned by sha256.

The digests were recorded with numpy 2.4.6, whose random streams and
reductions the outputs rest on; under another numpy version the tests skip.
A change that alters the random stream on purpose updates a digest here and
says so in CHANGES.md.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from vrprox.cli import main

ROOT = Path(__file__).resolve().parents[1]

NUMPY_VERSION = "2.4.6"

VALIDATE_QUICK_SEED0 = "80d1440ec228846a7b659143871e3d792191e323a9c686a3d35dba27d4e65c08"
QUAD_SWEEP_SUMMARY = "907d13a25a234aca68e7f91d3f6b862212fb7cb1987108fdead9a588e67bf560"
# sha256 of the listing "<sha256>  <name>\n" of every file but run_meta.txt,
# sorted by name: summary.csv and the 40 traces.
QUAD_SWEEP_FILES = "febed1917d5cbd4c5892ef03e2309fb91fe6d30fc8f683af0ec35903037241e6"

pytestmark = pytest.mark.skipif(
    np.__version__ != NUMPY_VERSION,
    reason=f"digests recorded with numpy {NUMPY_VERSION}; this is numpy {np.__version__}",
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_validate_quick_stdout(capsys):
    assert main(["validate", "--quick", "--seed", "0"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == VALIDATE_QUICK_SEED0


def test_quad_sweep_files(tmp_path):
    out = tmp_path / "quad_sweep"
    cfg = ROOT / "demos" / "configs" / "quad_sweep.cfg"
    assert main(["run", "--config", str(cfg), "--output", str(out), "--master-seed", "0"]) == 0
    files = sorted(p for p in out.iterdir() if p.name != "run_meta.txt")
    assert len(files) == 41
    assert _sha256((out / "summary.csv").read_bytes()) == QUAD_SWEEP_SUMMARY
    listing = "".join(f"{_sha256(p.read_bytes())}  {p.name}\n" for p in files)
    assert _sha256(listing.encode()) == QUAD_SWEEP_FILES

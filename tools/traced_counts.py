"""Compare the benchmark's exact traced counts between two checkouts.

Usage::

    python3 tools/traced_counts.py <parent root> <change root>

For every workload that the parent's ``BENCHMARK.json`` lists, runs each
checkout's own ``bench/run.py --workload W --seed 3 --seconds 1 --trace 1``
and compares ``correct``, the counts that tracing reports exactly
(``oracle.oracle_calls``, ``optimizer.iterations`` and
``optimizer.diag_full_gradients``) and the calls per iteration of the
oracle functions (``oracle.<fn>.calls_per_iter`` for ``sample_gradient``,
``full_gradient``, ``minibatch_gradient``, ``draw_sample_ids`` and
``full_value``, which the loop does not call per iterate), ratios of exact
counts.  A count a checkout does not
report reads as missing.  Prints one line per workload and field, marking a difference
``DIFFERS``, and exits 1 when any field differs or a change's run is not
``correct``, 0 otherwise.  Nothing is written under either checkout beyond
what ``bench/run.py`` itself writes and removes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

COUNTS = ("oracle.oracle_calls", "optimizer.iterations", "optimizer.diag_full_gradients",
          *(f"oracle.{fn}.calls_per_iter" for fn in (
              "sample_gradient", "full_gradient", "minibatch_gradient", "draw_sample_ids",
              "full_value")))
# The one run the counts are recorded at.
SEED = 3
SECONDS = 1.0


def counts(result: dict) -> dict:
    """``correct`` and the exact counts of one ``bench/run.py`` result object."""
    metrics = result.get("metrics", {})
    return {"correct": result.get("correct"),
            **{name: metrics.get(name, {}).get("value") for name in COUNTS}}


def compare(workload: str, parent: dict, change: dict) -> tuple[list[str], bool]:
    """One line per field of two results' :func:`counts`, and whether they
    agree on every field with the change ``correct``."""
    p, c = counts(parent), counts(change)
    lines = [f"{workload} {field}: parent {p[field]} change {c[field]}"
             + ("" if p[field] == c[field] else " DIFFERS") for field in p]
    return lines, p == c and c["correct"] is True


def run_traced(root: Path, workload: str) -> dict:
    got = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "1"],
        cwd=root, capture_output=True, text=True)
    if got.returncode:
        raise SystemExit(f"{root}: bench/run.py exited {got.returncode}\n{got.stderr}")
    return json.loads(got.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    benchmark = json.loads((args.parent / "BENCHMARK.json").read_text())
    same = True
    for workload in (w["name"] for w in benchmark["workloads"]):
        parent = run_traced(args.parent, workload)
        change = run_traced(args.change, workload)
        lines, agree = compare(workload, parent, change)
        print("\n".join(lines), flush=True)
        same = same and agree
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())

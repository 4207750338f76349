"""Alternating benchmark pairs of two checkouts, summarized per end-to-end metric.

Usage::

    python3 tools/bench_pairs.py <parent root> <change root> \\
        --workload rate_sweep --pairs 10 --seed 7 --seconds 40

Runs each checkout's own ``bench/run.py --trace 0`` with the same workload,
seed and length, ``--pairs`` times each.  Pair k runs the parent first when
k is even and the change first when k is odd.  Each run's result is the JSON
object on the last line of its standard output; one line per run is printed
as it completes.  Then, for every end-to-end metric that the parent's
``BENCHMARK.json`` lists, it prints:

- both sides' median and quartiles (numpy's default linear interpolation);
- the change's wins over the pairs, in the metric's ``better`` direction
  (ties count for neither side);
- ``within bound``: the change's median is no worse than the parent's by
  more than the metric's ``bound``, a fraction of the parent's median;
- ``gain``: the rule for claiming a gain, met when the change wins at least
  nine tenths of the pairs and the medians differ, in its favour, by more
  than the parent's interquartile range.

Nothing is written under either checkout beyond what ``bench/run.py`` itself
writes and removes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


def parse_result(stdout: str) -> dict:
    """The result object of one ``bench/run.py`` run: its last output line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("bench/run.py printed nothing")
    return json.loads(lines[-1])


def end_to_end_metrics(root: Path) -> list[dict]:
    """The ``end_to_end`` entries of ``<root>/BENCHMARK.json``."""
    return json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(median), float(q3)


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[dict]:
    """One row per metric from (parent result, change result) pairs.

    A row holds each side's quartiles, the change's wins, the pair count,
    whether the change's median stays within the metric's bound and whether
    the gain rule is met.
    """
    rows = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        sign = -1.0 if lower else 1.0  # sign * (change - parent) > 0 is a win
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        p_q, c_q = _quartiles(parent), _quartiles(change)
        gap = sign * (c_q[1] - p_q[1])
        rows.append({
            "name": name,
            "unit": metric["unit"],
            "parent": p_q,
            "change": c_q,
            "wins": wins,
            "pairs": len(pairs),
            "within_bound": -gap <= metric["bound"] * abs(p_q[1]),
            "gain": wins >= 0.9 * len(pairs) and gap > p_q[2] - p_q[0],
        })
    return rows


def format_rows(rows: list[dict]) -> list[str]:
    def side(q):
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    return [
        f"{r['name']} ({r['unit']}): parent {side(r['parent'])}, change {side(r['change'])}, "
        f"change wins {r['wins']} of {r['pairs']}, "
        f"{'within bound' if r['within_bound'] else 'OUT OF BOUND'}, "
        f"gain {'met' if r['gain'] else 'not met'}"
        for r in rows
    ]


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    got = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    if got.returncode:
        raise SystemExit(f"{root}: bench/run.py exited {got.returncode}\n{got.stderr}")
    return parse_result(got.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    metrics = end_to_end_metrics(args.parent)
    sides = {"parent": args.parent, "change": args.change}
    pairs = []
    for k in range(args.pairs):
        results = {}
        for name in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            results[name] = res = run_once(sides[name], args.workload, args.seed, args.seconds)
            values = " ".join(f"{m['name']}={res['metrics'][m['name']]['value']:.6g}"
                              for m in metrics)
            print(f"pair {k} {name}: correct={res['correct']} failed={res['failed']} {values}",
                  flush=True)
        pairs.append((results["parent"], results["change"]))
    print("\n".join(format_rows(summarize(pairs, metrics))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

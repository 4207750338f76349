import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from vrprox.cli import main

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("output_digests", ROOT / "tools" / "output_digests.py")
output_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digests)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_output_digests_of_one_command(capsys):
    assert main(["schedule", "--T", "1000", "--L", "1"]) == 0
    stdout = capsys.readouterr().out.encode()
    lines = output_digests._run("schedule --T 1000 --L 1", output_digests.vrprox_env(ROOT))
    assert lines == [
        f"{_sha256(stdout)}  schedule --T 1000 --L 1/stdout",
        f"{_sha256(b'0')}  schedule --T 1000 --L 1/exit_code",
    ]


def test_output_digests_list_every_written_file():
    # T = 50,200 and 3 seeds: summary.csv and 6 traces; run_meta.txt is left out.
    command = "run --config robust_run.cfg --jobs 1"
    assert command in output_digests.commands()
    lines = output_digests._run(command, output_digests.vrprox_env(ROOT))
    names = [line.split("  ", 1)[1].rsplit("/", 1)[1] for line in lines]
    assert names[:3] == ["stdout", "exit_code", "summary.csv"]
    assert len(names) == 9 and all(name.startswith("trace_T") for name in names[3:])


_pairs_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_pairs_spec)
_pairs_spec.loader.exec_module(bench_pairs)

_METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "iters_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def _result_text(wall_s, iters_per_s):
    """Standard output of one bench/run.py run, as it prints it."""
    metrics = {"wall_s": {"value": wall_s, "unit": "s"},
               "iters_per_s": {"value": iters_per_s, "unit": "1/s"}}
    return "\n".join([
        f"wall_s = {wall_s:.6g} s",
        f"iters_per_s = {iters_per_s:.6g} 1/s",
        "fail_frac = 0 (0 of 3)",
        'env {"python": "3"}',
        json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}),
    ]) + "\n"


def _pairs(parent_walls, change_walls):
    return [(bench_pairs.parse_result(_result_text(p, 1.0 / p)),
             bench_pairs.parse_result(_result_text(c, 1.0 / c)))
            for p, c in zip(parent_walls, change_walls)]


def test_bench_pairs_reads_the_last_line():
    result = bench_pairs.parse_result(_result_text(2.0, 0.5))
    assert result["correct"] and result["metrics"]["wall_s"]["value"] == 2.0


def test_bench_pairs_end_to_end_metrics_are_the_benchmark_s():
    names = [m["name"] for m in bench_pairs.end_to_end_metrics(ROOT)]
    assert names[:2] == ["wall_s", "setup_s"] and "peak_rss_mb" in names


def test_bench_pairs_claims_a_gain_on_nine_of_ten_wins_past_the_iqr():
    parent = [2.10, 2.12, 2.13, 2.14, 2.11, 2.15, 2.13, 2.12, 2.16, 2.14]
    change = [1.95, 1.96, 1.97, 1.94, 2.20, 1.96, 1.95, 1.98, 1.93, 1.96]
    wall, iters = bench_pairs.summarize(_pairs(parent, change), _METRICS)
    assert wall["wins"] == iters["wins"] == 9 and wall["pairs"] == 10
    assert wall["parent"] == pytest.approx((2.12, 2.13, 2.14))
    assert wall["gain"] and iters["gain"]
    assert wall["within_bound"] and iters["within_bound"]
    lines = bench_pairs.format_rows([wall])
    assert lines == ["wall_s (s): parent 2.13 [2.12, 2.14], change 1.96 [1.95, 1.9675], "
                     "change wins 9 of 10, within bound, gain met"]


def test_bench_pairs_needs_nine_tenths_of_the_wins():
    parent = [2.0, 2.1, 2.2, 2.0, 2.1, 2.2, 2.0, 2.1, 2.2, 2.0]
    change = [1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 2.3, 2.3]
    (wall,) = bench_pairs.summarize(_pairs(parent, change), _METRICS[:1])
    assert wall["wins"] == 8 and not wall["gain"]


def test_bench_pairs_needs_a_median_gap_past_the_parent_iqr():
    parent = [2.0, 2.4, 2.0, 2.4, 2.0, 2.4, 2.0, 2.4, 2.0, 2.4]
    change = [1.9, 2.3, 1.9, 2.3, 1.9, 2.3, 1.9, 2.3, 1.9, 2.3]
    (wall,) = bench_pairs.summarize(_pairs(parent, change), _METRICS[:1])
    assert wall["wins"] == 10 and not wall["gain"]


def test_bench_pairs_counts_ties_for_neither_side_and_flags_a_bound():
    parent = [1.0, 1.0, 1.0, 1.0]
    change = [1.0, 1.3, 1.3, 1.3]
    wall, iters = bench_pairs.summarize(_pairs(parent, change), _METRICS)
    assert wall["wins"] == iters["wins"] == 0
    assert not wall["within_bound"]  # 30% slower against a 25% bound
    assert iters["within_bound"]  # 1 / 1.3 is 23% fewer iterations per second

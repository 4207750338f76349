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


def test_bench_pairs_workload_repeats_in_the_order_given():
    args = bench_pairs.parse_args(["p", "c", "--workload", "rate_sweep", "--workload", "validate"])
    assert args.workload == ["rate_sweep", "validate"]
    assert bench_pairs.parse_args(["p", "c", "--workload", "validate"]).workload == ["validate"]
    for argv in (["p", "c"], ["p", "c", "--workload", "validate", "--pairs", "0"]):
        with pytest.raises(SystemExit):
            bench_pairs.parse_args(argv)


def test_bench_pairs_prints_one_summary_block_per_workload(monkeypatch, capsys):
    calls = []

    def canned(root, workload, seed, seconds):
        calls.append((str(root), workload))
        wall = 2.0 if str(root) == "parent" else 1.9
        return bench_pairs.parse_result(_result_text(wall, 1.0 / wall))

    monkeypatch.setattr(bench_pairs, "run_once", canned)
    monkeypatch.setattr(bench_pairs, "end_to_end_metrics", lambda root: _METRICS)
    argv = ["parent", "change", "--workload", "rate_sweep", "--workload", "validate",
            "--pairs", "2"]
    assert bench_pairs.main(argv) == 0
    # Pair 0 runs the parent first, pair 1 the change first, per workload.
    assert calls == [("parent", "rate_sweep"), ("change", "rate_sweep"),
                     ("change", "rate_sweep"), ("parent", "rate_sweep"),
                     ("parent", "validate"), ("change", "validate"),
                     ("change", "validate"), ("parent", "validate")]
    lines = capsys.readouterr().out.splitlines()
    heads = [k for k, line in enumerate(lines) if line.startswith("== ")]
    assert [lines[k] for k in heads] == ["== rate_sweep", "== validate"]
    for k in heads:
        block = lines[k + 1:k + 3]
        assert [line.split(" ", 1)[0] for line in block] == ["wall_s", "iters_per_s"]
        assert all("change wins 2 of 2" in line for line in block)


_counts_spec = importlib.util.spec_from_file_location(
    "traced_counts", ROOT / "tools" / "traced_counts.py")
traced_counts = importlib.util.module_from_spec(_counts_spec)
_counts_spec.loader.exec_module(traced_counts)


def _traced(correct=True, calls=444_400.0, iterations=222_000.0, diag=222_060.0):
    """The parts of one ``bench/run.py --trace 1`` result the counts read."""
    metrics = {"oracle.oracle_calls": {"value": calls, "unit": "count"},
               "optimizer.iterations": {"value": iterations, "unit": "count"},
               "optimizer.diag_full_gradients": {"value": diag, "unit": "count"},
               "optimizer.run.us_per_iter": {"value": 9.7, "unit": "us"}}
    return {"correct": correct, "attempted": 3, "failed": 0, "metrics": metrics}


def test_traced_counts_agree_on_equal_counts():
    # Timings differ between runs; only correct and the exact counts are read.
    change = _traced()
    change["metrics"]["optimizer.run.us_per_iter"]["value"] = 8.1
    lines, agree = traced_counts.compare("rate_sweep", _traced(), change)
    assert agree
    assert lines == [
        "rate_sweep correct: parent True change True",
        "rate_sweep oracle.oracle_calls: parent 444400.0 change 444400.0",
        "rate_sweep optimizer.iterations: parent 222000.0 change 222000.0",
        "rate_sweep optimizer.diag_full_gradients: parent 222060.0 change 222060.0",
    ]


@pytest.mark.parametrize("change, field", [
    (_traced(calls=444_401.0), "oracle.oracle_calls"),
    (_traced(iterations=221_999.0), "optimizer.iterations"),
    (_traced(diag=222_000.0), "optimizer.diag_full_gradients"),
    (_traced(correct=False), "correct"),
])
def test_traced_counts_flag_each_difference(change, field):
    lines, agree = traced_counts.compare("validate", _traced(), change)
    assert not agree
    assert [line for line in lines if line.endswith(" DIFFERS")] == [
        line for line in lines if line.startswith(f"validate {field}:")]


def test_traced_counts_flag_a_missing_count_and_an_incorrect_change():
    missing = _traced()
    del missing["metrics"]["optimizer.iterations"]
    lines, agree = traced_counts.compare("validate", _traced(), missing)
    assert not agree and lines[2] == (
        "validate optimizer.iterations: parent 222000.0 change None DIFFERS")
    # The same counts on both sides still fail when the change is not correct.
    lines, agree = traced_counts.compare("validate", _traced(False), _traced(False))
    assert not agree and not any(line.endswith("DIFFERS") for line in lines)


@pytest.mark.parametrize("differ", [False, True])
def test_traced_counts_exit_code(monkeypatch, capsys, differ):
    def canned(root, workload):
        odd = differ and root.name == "change" and workload == "validate"
        return _traced(calls=1.0 if odd else 2.0)

    monkeypatch.setattr(traced_counts, "run_traced", canned)
    assert traced_counts.main([str(ROOT), str(ROOT.parent / "change")]) == int(differ)
    out = capsys.readouterr().out
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert [line.split(" ", 1)[0] for line in out.splitlines()] == [
        w for w in workloads for _ in range(4)]
    assert out.count("DIFFERS") == int(differ)

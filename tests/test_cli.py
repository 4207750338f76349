import contextlib
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrprox import experiment
from vrprox.cli import main
from vrprox.config import MAX_SEED_COUNT, parse_config
from vrprox.optimizer import MAX_HORIZON

ROOT = Path(__file__).resolve().parents[1]

CFG = """\
problem = quad:15:4:1.0
estimator = momentum_sarah
T = 25
seeds = 2
"""


def test_schedule_prints_hyperparameters(capsys):
    assert main(["schedule", "--T", "999", "--L", "1"]) == 0
    assert capsys.readouterr().out == "eta=0.05\nbeta=0.01\nb_tilde=5\n"


def test_schedule_bad_T_is_config_error(capsys):
    assert main(["schedule", "--T", "0", "--L", "1"]) == 1
    assert "config error" in capsys.readouterr().err


def test_schedule_with_a_subnormal_L_prints_only_the_config_error():
    # eta = 1 / (2 L (T+1)^{1/3}) overflows for L = 1e-320; the refusal
    # names eta, and no numpy warning precedes it on stderr.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "vrprox", "schedule", "--T", "10", "--L", "1e-320"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("config error:") and "Warning" not in proc.stderr


def _vrprox(*argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-m", "vrprox", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def test_schedule_with_a_huge_horizon_is_config_error():
    # A subprocess with a timeout: correcting b_tilde one step at a time from
    # a float cube root would run for ages here.
    proc = _vrprox("schedule", "--T", "1" + "0" * 300, "--L", "1")
    assert proc.returncode == 1
    assert proc.stderr.startswith("config error:") and "Traceback" not in proc.stderr


def test_config_with_a_huge_horizon_is_config_error(tmp_path):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(CFG.replace("T = 25", "T = 1" + "0" * 300))
    proc = _vrprox("run", "--config", str(cfg), "--output", str(tmp_path / "o"))
    assert proc.returncode == 1
    assert proc.stderr.startswith("config error: line 3: key 'T' must be <=")
    assert not (tmp_path / "o").exists()


JUNK = ["", "1e3", "x", " 7", "1_0"]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    t=st.sampled_from([0, 1, -1, MAX_HORIZON - 1, MAX_HORIZON + 1, 10**400]).map(str)
    | st.sampled_from(JUNK),
    l=st.sampled_from([0.0, -0.0, 5e-324, 1e-320, 1e308, float("inf"), float("nan")]).map(repr)
    | st.sampled_from(JUNK),
)
def test_schedule_argv_ends_in_output_or_a_config_error(t, l):
    # schedule only evaluates a formula, so any horizon is safe to try
    # in-process; numpy's warnings are caught, not left to the runner.
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(["schedule", "--T", t, "--L", l])
    stderr = err.getvalue()
    assert code in (0, 1)
    assert (code == 1) == stderr.startswith("config error:")
    assert "Traceback" not in stderr and "Warning" not in stderr
    assert not caught
    if code == 0:
        assert [line.split("=")[0] for line in out.getvalue().splitlines()] == [
            "eta", "beta", "b_tilde"]


def test_run_subcommand(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CFG)
    out_dir = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--output", str(out_dir), "--master-seed", "4"])
    assert code == 0
    assert (out_dir / "summary.csv").exists()
    assert "T=25" in capsys.readouterr().out


def test_run_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1
    assert "config error" in capsys.readouterr().err


def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "binary.cfg"
    cfg.write_bytes(b"\xff\xfe\x00bad")
    for command in ("run", "compare"):
        out_dir = tmp_path / command
        assert main([command, "--config", str(cfg), "--output", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {str(cfg)!r}: ")
        assert "can't decode byte 0xff" in err and "Traceback" not in err
        assert not out_dir.exists()


def test_run_bad_config_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CFG + "estimator = again\n")
    assert main(["run", "--config", str(cfg), "--output", str(tmp_path / "o")]) == 1


def test_run_divergence_exits_two(tmp_path):
    cfg = tmp_path / "div.cfg"
    cfg.write_text(
        CFG + "schedule = manual\neta = 1e11\nbeta = 0.5\nb_tilde = 1\ndiagnostics = off\n"
    )
    assert main(["run", "--config", str(cfg), "--output", str(tmp_path / "o")]) == 2


def test_divergent_run_writes_no_runtime_warning(tmp_path):
    # A step of 1e308 overflows; the run reports DivergenceError in
    # summary.csv, and numpy's overflow warning stays off stderr even when
    # RuntimeWarning is an error.
    cfg = tmp_path / "div.cfg"
    cfg.write_text(CFG + "schedule = manual\neta = 1e308\nbeta = 0.5\nb_tilde = 2\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "vrprox", "run",
         "--config", str(cfg), "--output", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Warning" not in proc.stderr
    assert "divergent:2" in (tmp_path / "o" / "summary.csv").read_text()


ERROR_CFG = """\
problem = quad:15:4:1.0
estimator = momentum_sarah
T = 25,40
seeds = 5,6,7
"""


def _fail_at(monkeypatch, T, seed):
    """Make the run for (T, seed) raise; pool workers inherit it by fork."""
    real = experiment.run

    def flaky(prob, psi, hp, rng, **kw):
        if hp.T == T and rng == seed:
            raise RuntimeError("injected")
        return real(prob, psi, hp, rng, **kw)

    monkeypatch.setattr(experiment, "run", flaky)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_error_in_one_task_keeps_the_sweep(tmp_path, capsys, monkeypatch, jobs):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(ERROR_CFG)
    main(["run", "--config", str(cfg), "--output", str(tmp_path / "clean")])
    _fail_at(monkeypatch, 40, 6)
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--output", str(out), "--jobs", jobs]) == 4
    err = capsys.readouterr().err
    assert "run error: T=40 seed=6 estimator=momentum_sarah: RuntimeError: injected" in err
    assert "Traceback" in err and 'raise RuntimeError("injected")' in err
    summary = (out / "summary.csv").read_text().splitlines()
    clean = (tmp_path / "clean" / "summary.csv").read_text().splitlines()
    assert summary[:2] == clean[:2]
    assert summary[2].startswith("40,3,") and summary[2].endswith(",error(RuntimeError):1")
    assert (out / "run_meta.txt").exists()
    traces = sorted(f.name for f in out.glob("trace_*.csv"))
    assert traces == sorted(f.name for f in (tmp_path / "clean").glob("trace_*.csv")
                            if f.name != "trace_T40_s6.csv")
    for name in traces:
        assert (out / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()


def test_stderr_is_empty_below_two_finished_runs(tmp_path, monkeypatch):
    # A horizon with one finished run has a mean but no spread: its stderr is
    # None in summary_rows and empty in summary.csv, not 0.
    def summary(seeds, out):
        cfg = parse_config(ERROR_CFG.replace("seeds = 5,6,7", f"seeds = {seeds}"))
        rows = experiment.run_experiment(cfg, output_dir=tmp_path / out).summary_rows
        lines = (tmp_path / out / "summary.csv").read_text().splitlines()[1:]
        return [r["stderr"] for r in rows], [line.split(",")[3] for line in lines]

    assert summary("1", "one") == ([None, None], ["", ""])
    _fail_at(monkeypatch, 40, 6)
    stderr, cells = summary("5,6", "err")
    assert stderr[0] > 0 and float(cells[0]) == stderr[0]
    assert stderr[1] is None and cells[1] == ""


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_compare_error_in_one_task_keeps_the_sweep(tmp_path, capsys, monkeypatch, jobs):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(ERROR_CFG)
    argv = ["compare", "--config", str(cfg), "--estimators", "momentum_sarah,sgd"]
    main(argv + ["--output", str(tmp_path / "clean")])
    _fail_at(monkeypatch, 25, 7)
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(argv + ["--output", str(out), "--jobs", jobs]) == 4
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("run error:")] == [
        f"run error: T=25 seed=7 estimator={kind}: RuntimeError: injected"
        for kind in ("momentum_sarah", "sgd")
    ]
    rows = (out / "compare.csv").read_text().splitlines()
    clean = (tmp_path / "clean" / "compare.csv").read_text().splitlines()
    failed = {i for i, row in enumerate(rows) if row.startswith("25,7,")}
    assert failed == {5, 6}
    for i in failed:
        assert rows[i].endswith(",,,,error(RuntimeError)")
    assert [r for i, r in enumerate(rows) if i not in failed] == [
        r for i, r in enumerate(clean) if i not in failed
    ]
    assert (out / "run_meta.txt").exists()


def test_missing_required_flag_exits_one(capsys):
    assert main(["run"]) == 1


def test_compare_subcommand(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CFG)
    out_dir = tmp_path / "out"
    code = main(
        [
            "compare",
            "--config",
            str(cfg),
            "--estimators",
            "momentum_sarah,sgd",
            "--output",
            str(out_dir),
        ]
    )
    assert code == 0
    lines = (out_dir / "compare.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 2  # header + kinds x seeds
    kinds = {line.split(",")[2] for line in lines[1:]}
    assert kinds == {"momentum_sarah", "sgd"}


def test_compare_unknown_kind_exits_one(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CFG)
    assert main(["compare", "--config", str(cfg), "--estimators", "zen"]) == 1


def test_validate_quick(tmp_path, capsys):
    out_csv = tmp_path / "report.csv"
    code = main(["validate", "--quick", "--output", str(out_csv)])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    header = out_csv.read_text().splitlines()[0]
    assert header == "check,passed,value,threshold"


def test_validate_full_suite_exits_zero(capsys):
    assert main(["validate"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def _assert_config_error_without_output(argv, out_dir, capsys):
    assert main(argv + ["--output", str(out_dir)]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not out_dir.exists()


def test_manual_initial_batch_larger_than_n_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "big_batch.cfg"
    cfg.write_text(CFG + "schedule = manual\neta = 0.1\nbeta = 0.5\nb_tilde = 16\n")
    _assert_config_error_without_output(["run", "--config", str(cfg)], tmp_path / "o", capsys)


def test_auto_initial_batch_larger_than_n_is_config_error(tmp_path, capsys):
    # n = 2 components, while the schedule at T = 1000 asks for b_tilde = 6.
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(CFG.replace("quad:15:4:1.0", "quad:2:4:1.0").replace("T = 25", "T = 1000"))
    for command in ("run", "compare"):
        _assert_config_error_without_output([command, "--config", str(cfg)],
                                            tmp_path / command, capsys)


def test_box_excluding_the_origin_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "box.cfg"
    cfg.write_text(CFG + "psi = box:0.5:1\n")
    for command in ("run", "compare"):
        out_dir = tmp_path / command
        assert main([command, "--config", str(cfg), "--output", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'psi'" in err and "Traceback" not in err
        assert not out_dir.exists()


@pytest.mark.parametrize("spread", ["nan", "inf"])
def test_nonfinite_quad_spread_is_config_error(tmp_path, capsys, spread):
    cfg = tmp_path / "spread.cfg"
    cfg.write_text(CFG.replace("quad:15:4:1.0", f"quad:15:4:{spread}"))
    for command in ("run", "compare"):
        _assert_config_error_without_output([command, "--config", str(cfg)],
                                            tmp_path / command, capsys)


def test_overflowing_quadratic_is_config_error(tmp_path):
    # The center scatter of spread 1e200 overflows: no certified sigma^2.
    cfg = tmp_path / "spread.cfg"
    cfg.write_text(CFG.replace("quad:15:4:1.0", "quad:4:2:1e200"))
    for command in ("run", "compare"):
        out_dir = tmp_path / command
        proc = _vrprox(command, "--config", str(cfg), "--output", str(out_dir))
        assert proc.returncode == 1
        assert proc.stderr.startswith("config error: key 'problem'")
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert not out_dir.exists()


@pytest.mark.parametrize("key", ["quad:100000000000:1000:1", "sigmoid:100000000000:1000"])
def test_problem_too_large_to_map_is_config_error(tmp_path, key):
    # 1e11 x 1000 float64 data is 728 TiB, above the 2^47-byte user address
    # space: the allocation fails before any page is touched.  Only sizes
    # that can never be granted belong here.
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(CFG.replace("quad:15:4:1.0", key))
    for command in ("run", "compare"):
        out_dir = tmp_path / command
        proc = _vrprox(command, "--config", str(cfg), "--output", str(out_dir))
        assert proc.returncode == 1
        assert proc.stderr.startswith("config error: key 'problem'")
        assert "Traceback" not in proc.stderr
        assert not out_dir.exists()


def test_large_finite_quadratic_still_runs_and_diverges(tmp_path):
    cfg = tmp_path / "spread.cfg"
    cfg.write_text(CFG.replace("quad:15:4:1.0", "quad:4:2:1e150"))
    assert main(["run", "--config", str(cfg), "--output", str(tmp_path / "o")]) == 2
    assert "divergent:2" in (tmp_path / "o" / "summary.csv").read_text()


def test_far_out_quadratic_converges_like_the_unit_one(tmp_path):
    # The minimiser of quad:10:3:1e13 has norm 1.27e12; the quadratic family
    # is scale-equivariant, so its run converges as at spread 1, and the
    # divergence guard scales with the data.
    cfg = tmp_path / "far.cfg"
    cfg.write_text(CFG.replace("quad:15:4:1.0", "quad:10:3:1e13").replace("T = 25", "T = 20"))
    assert main(["run", "--config", str(cfg), "--output", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "summary.csv").read_text().splitlines()[1].endswith(",ok")


def test_unwritable_output_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CFG)
    # run and compare: a file stands where the output directory should be.
    for command, out in (("run", cfg), ("compare", cfg / "sub")):
        assert main([command, "--config", str(cfg), "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error: cannot write")
    # validate: a report in a missing directory is refused before the suite runs.
    missing = tmp_path / "missing" / "x.csv"
    assert main(["validate", "--quick", "--output", str(missing)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: cannot write") and captured.out == ""
    assert not missing.parent.exists()
    # A directory where the report should be fails at the write.
    assert main(["validate", "--quick", "--output", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("config error: cannot write")


def test_negative_master_seed_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CFG)
    for command in ("run", "compare"):
        _assert_config_error_without_output(
            [command, "--config", str(cfg), "--master-seed", "-1"], tmp_path / command, capsys)


def test_nonpositive_jobs_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CFG)
    for command in ("run", "compare"):
        for jobs in ("0", "-3"):
            _assert_config_error_without_output(
                [command, "--config", str(cfg), "--jobs", jobs], tmp_path / command, capsys)


def test_negative_validate_seed_is_config_error(capsys):
    for seed, message in (("-1", "must be >= 0, got -1"), ("abc", "needs an integer, got 'abc'")):
        assert main(["validate", "--quick", "--seed", seed]) == 1
        assert capsys.readouterr().err == f"config error: argument --seed: {message}\n"


_KINDS = "momentum_sarah, hybrid_sarah, sarah, sgd"


@pytest.mark.parametrize("argv, message", [
    (["run", "--jobs", "0"], "argument --jobs: must be >= 1, got 0"),
    (["compare", "--jobs", "1.5"], "argument --jobs: needs an integer, got '1.5'"),
    (["run", "--master-seed", "-1"], "argument --master-seed: must be >= 0, got -1"),
    (["compare", "--estimators", "zen,zen"], f"unknown estimator 'zen'; valid kinds: {_KINDS}"),
    (["compare", "--estimators", "sarah,sarah"], "estimator kinds repeat: sarah,sarah"),
    (["compare", "--estimators", " , "], f"no estimator kind to compare; valid kinds: {_KINDS}"),
], ids=" ".join)
def test_flag_refusal_messages_are_exact(tmp_path, capsys, argv, message):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CFG)
    out_dir = tmp_path / "o"
    assert main(argv[:1] + ["--config", str(cfg), "--output", str(out_dir)] + argv[1:]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out_dir.exists()


def test_compare_with_no_estimator_kind_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CFG)
    for kinds in (",", " , ,", "sarah,sarah"):
        _assert_config_error_without_output(
            ["compare", "--config", str(cfg), "--estimators", kinds], tmp_path / "o", capsys)


def test_repeated_seed_or_horizon_is_config_error(tmp_path, capsys):
    for name, text in (("seeds", CFG.replace("seeds = 2", "seeds = 3,3")),
                       ("T", CFG.replace("T = 25", "T = 25,25"))):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        for command in ("run", "compare"):
            _assert_config_error_without_output(
                [command, "--config", str(cfg)], tmp_path / command, capsys)


def test_oversized_seed_count_is_config_error(tmp_path, capsys):
    # Only counts above the maximum: they fail in parsing, before any seed
    # is expanded.
    for count in (MAX_SEED_COUNT + 1, 99999999999999999999):
        cfg = tmp_path / "seeds.cfg"
        cfg.write_text(CFG.replace("seeds = 2", f"seeds = {count}"))
        for command in ("run", "compare"):
            out_dir = tmp_path / command
            assert main([command, "--config", str(cfg), "--output", str(out_dir)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("config error:") and "'seeds'" in err
            assert not out_dir.exists()

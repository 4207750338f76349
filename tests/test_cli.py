from vrprox.cli import main

CFG = """\
problem = quad:15:4:1.0
estimator = momentum_sarah
T = 25
seeds = 2
"""


def test_schedule_prints_hyperparameters(capsys):
    assert main(["schedule", "--T", "999", "--L", "1"]) == 0
    out = capsys.readouterr().out
    assert "eta=0.05" in out
    assert "beta=0.01" in out
    assert "b_tilde=5" in out


def test_schedule_bad_T_is_config_error(capsys):
    assert main(["schedule", "--T", "0", "--L", "1"]) == 1
    assert "config error" in capsys.readouterr().err


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
    assert main(["validate", "--quick", "--seed", "-1"]) == 1
    assert "config error:" in capsys.readouterr().err

import platform
from dataclasses import replace

import numpy as np
import pytest

import vrprox as vp
from vrprox.config import MAX_SEED_COUNT, ConfigError, parse_config
from vrprox.experiment import (
    COMPARE_HEADER,
    SUMMARY_HEADER,
    TRACE_HEADER,
    _fmt,
    _summary_status,
    _write_trace,
    compare_experiment,
    expand_seeds,
    run_experiment,
    stationarity_bound_rhs,
)
from vrprox.prox import L1, BoxIndicator, ElasticNet, Zero

CFG = """\
problem = quad:20:5:1.0
problem_seed = 4
estimator = momentum_sarah
T = 30,60
seeds = 3
schedule = auto
diagnostics = on
"""


def test_expand_seeds():
    a = expand_seeds(4, master_seed=1)
    b = expand_seeds(4, master_seed=1)
    c = expand_seeds(4, master_seed=2)
    assert a == b and a != c and len(a) == 4
    assert expand_seeds([5, 6], master_seed=1) == [5, 6]
    with pytest.raises(ValueError):
        expand_seeds(0)


def test_expand_seeds_refuses_counts_above_the_maximum():
    # Only counts above the maximum: they are refused before anything is drawn.
    for count in (MAX_SEED_COUNT + 1, 99999999999999999999):
        with pytest.raises(ValueError, match="seed count must lie in"):
            expand_seeds(count)


@pytest.mark.parametrize("bad", ["12", True, [-1, 2], [2.7], (1, True), 2.5, None,
                                 np.array([1, 2])], ids=repr)
def test_expand_seeds_refuses_what_is_neither_a_count_nor_a_seed_list(bad):
    with pytest.raises(ValueError, match=r"^seeds must be a count or a list of integers >= 0"):
        expand_seeds(bad)


@pytest.mark.parametrize("bad", [[], (), [4, 4], (3, 3)], ids=repr)
def test_expand_seeds_refuses_an_empty_or_repeating_seed_list(tmp_path, bad):
    # A repeated seed would run one run twice and count it as two in the
    # summary; an empty list would write a summary of no runs.
    match = r"^seeds must be distinct and at least one"
    with pytest.raises(ValueError, match=match):
        expand_seeds(bad)
    cfg = replace(parse_config(CFG), seeds=bad)
    for call in (run_experiment, compare_experiment):
        with pytest.raises(ValueError, match=match):
            call(cfg, output_dir=tmp_path / call.__name__)
        assert not (tmp_path / call.__name__).exists()


def test_expand_seeds_takes_numpy_counts_and_seed_tuples():
    assert expand_seeds(np.int64(3), 2) == expand_seeds(3, 2)
    assert expand_seeds((5, np.int64(6))) == [5, 6]


@pytest.mark.parametrize("field, value, message", [
    ("psi", "box:1:2", "key 'psi' = 'box:1:2' is infinite at the start point x0 = 0"),
    ("estimator", "bogus",
     "unknown estimator 'bogus'; valid kinds: momentum_sarah, hybrid_sarah, sarah, sgd"),
], ids=["psi", "estimator"])
def test_a_hand_built_config_is_checked_before_the_output_directory(tmp_path, field, value,
                                                                    message):
    # A hand-built config skips parse_config; run_experiment refuses what
    # parse_config would, before anything is written.
    cfg = replace(parse_config(CFG), **{field: value})
    with pytest.raises(ConfigError) as err:
        run_experiment(cfg, output_dir=tmp_path / "out")
    assert str(err.value) == message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("psi, match", [
    ("box:1:2", r"^key 'psi' = 'box:1:2' is infinite at the start point x0 = 0$"),
    ("l3:1", r"^bad regularizer key 'l3:1'; expected zero \| l1:<lam>"),
])
def test_compare_checks_a_hand_built_psi_before_the_output_directory(tmp_path, psi, match):
    cfg = replace(parse_config(CFG), psi=psi)
    with pytest.raises(ValueError, match=match):
        compare_experiment(cfg, kinds=["sgd"], output_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_compare_refuses_a_string_of_kinds(tmp_path):
    with pytest.raises(ConfigError, match=r"^kinds must be a sequence of estimator kinds, "
                                          r"not the string 'sgd'$"):
        compare_experiment(parse_config(CFG), kinds="sgd", output_dir=tmp_path)


def test_run_experiment_files_and_headers(tmp_path):
    cfg = parse_config(CFG)
    result = run_experiment(cfg, output_dir=tmp_path, master_seed=3)
    assert result.exit_code == 0
    seeds = expand_seeds(3, 3)
    assert TRACE_HEADER == "t,grad_map_sq,obj,est_err_sq,step_sq"
    assert SUMMARY_HEADER == "T,seeds,mean_grad_map_sq,stderr,bound_rhs,oracle_calls,status"
    for T in (30, 60):
        for s in seeds:
            path = tmp_path / f"trace_T{T}_s{s}.csv"
            lines = path.read_text().splitlines()
            assert lines[0] == TRACE_HEADER
            assert len(lines) == T + 2  # header + t = 0..T
            first = lines[1].split(",")
            assert first[0] == "0" and len(first) == 5
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0] == SUMMARY_HEADER
    assert len(summary) == 3
    row = summary[1].split(",")
    assert row[0] == "30" and row[1] == "3" and row[-1] == "ok"
    assert float(row[2]) > 0 and float(row[4]) > 0
    meta = (tmp_path / "run_meta.txt").read_text()
    assert "vrprox_version" in meta and "seeds = " in meta


def test_run_meta_records_the_environment(tmp_path):
    run_experiment(parse_config(CFG), output_dir=tmp_path, master_seed=0)
    lines = (tmp_path / "run_meta.txt").read_text().splitlines()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert lines[:4] == [
        f"vrprox_version = {vp.__version__}",
        f"numpy_version = {np.__version__}",
        f"python_version = {platform.python_version()}",
        f"blas = {blas['name']} {blas['version']} ({blas['openblas configuration']})",
    ]


def test_rerun_is_byte_identical(tmp_path):
    cfg = parse_config(CFG)
    run_experiment(cfg, output_dir=tmp_path / "a", master_seed=3)
    run_experiment(cfg, output_dir=tmp_path / "b", master_seed=3)
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_jobs_parallel_matches_serial(tmp_path):
    cfg = parse_config(CFG)
    run_experiment(cfg, output_dir=tmp_path / "serial", master_seed=3, jobs=1)
    run_experiment(cfg, output_dir=tmp_path / "par", master_seed=3, jobs=2)
    for p in sorted((tmp_path / "serial").iterdir()):
        assert p.read_bytes() == (tmp_path / "par" / p.name).read_bytes()


def test_deterministic_instance_trace_descends(tmp_path):
    # n = 1 only has one sample, so pin b_tilde = 1 with a manual schedule.
    cfg = parse_config(
        "problem = quad:1:4:1.0\nestimator = momentum_sarah\nT = 10\nseeds = 1\n"
        "schedule = manual\neta = 0.4\nbeta = 0.5\nb_tilde = 1\n"
    )
    run_experiment(cfg, output_dir=tmp_path, master_seed=0)
    trace = (tmp_path / f"trace_T10_s{expand_seeds(1, 0)[0]}.csv").read_text().splitlines()
    gms = [float(line.split(",")[1]) for line in trace[1:]]
    assert all(a >= b - 1e-15 for a, b in zip(gms, gms[1:]))


def test_divergent_run_recorded(tmp_path):
    cfg = parse_config(
        "problem = quad:20:5:1.0\nestimator = momentum_sarah\nT = 40\nseeds = 2\n"
        "schedule = manual\neta = 1e11\nbeta = 0.5\nb_tilde = 2\ndiagnostics = off\n"
    )
    result = run_experiment(cfg, output_dir=tmp_path, master_seed=1)
    assert result.exit_code == 2
    assert result.n_divergent == 2
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert "divergent:2" in summary[1]


def test_summary_mean_below_bound(tmp_path):
    # Full pipeline version of the stationarity bound at small scale.
    cfg = parse_config(
        "problem = quad:50:8:1.0\nproblem_seed = 1\nestimator = momentum_sarah\n"
        "T = 300\nseeds = 10\nschedule = auto\ndiagnostics = on\n"
    )
    result = run_experiment(cfg, output_dir=tmp_path, master_seed=0)
    row = result.summary_rows[0]
    assert row["mean_grad_map_sq"] <= row["bound_rhs"] + 3 * row["stderr"]


@pytest.mark.parametrize("key", ["quad:10:3:1.0", "sigmoid:10:3", "robust:10:3"])
@pytest.mark.parametrize("psi", [Zero(), L1(lam=0.1), ElasticNet(0.1, 0.2),
                                 BoxIndicator(lo=-1.0, hi=0.5)], ids=repr)
def test_bound_rhs_for_every_family_and_regularizer(key, psi):
    bound = stationarity_bound_rhs(vp.from_key(key, seed=0), psi, 100)
    assert type(bound) is float and 0.0 < bound < np.inf


def test_bound_rhs_keeps_its_bits_on_the_quadratic_with_zero():
    # f_lower = sigma^2 / 2 is the quadratic's exact minimum, so the bound
    # is the one recorded before every family was certified.
    quad = vp.make_quadratic(10, 3, 1.0, seed=0)
    assert stationarity_bound_rhs(quad, Zero(), 100) == 0.11825942119856354


def test_bound_rhs_refuses_a_regularizer_infinite_at_the_origin():
    quad = vp.make_quadratic(10, 3, 1.0, seed=0)
    with pytest.raises(ValueError, match="infinite at the start point"):
        stationarity_bound_rhs(quad, BoxIndicator(lo=0.5, hi=1.0), 100)


def test_bound_rhs_field_filled_off_psi_zero(tmp_path):
    cfg = parse_config(
        "problem = quad:10:3:1.0\nestimator = momentum_sarah\nT = 20\nseeds = 2\npsi = l1:0.2\n"
    )
    result = run_experiment(cfg, output_dir=tmp_path, master_seed=0)
    row = (tmp_path / "summary.csv").read_text().splitlines()[1].split(",")
    bound = stationarity_bound_rhs(vp.from_key("quad:10:3:1.0"), L1(lam=0.2), 20)
    assert float(row[4]) == result.summary_rows[0]["bound_rhs"] == bound


def test_bound_rhs_empty_field_under_a_manual_schedule(tmp_path):
    # The a-priori bound belongs to the auto schedule: a manual eta, beta and
    # b_tilde on the same certified, psi = zero instance leave it empty.
    base = "problem = quad:15:4:1.0\nestimator = momentum_sarah\nT = 25\nseeds = 2\n"
    manual = base + "schedule = manual\neta = 0.1\nbeta = 0.5\nb_tilde = 2\n"
    run_experiment(parse_config(manual), output_dir=tmp_path / "m", master_seed=0)
    row = (tmp_path / "m" / "summary.csv").read_text().splitlines()[1].split(",")
    assert row[4] == ""
    assert row[6] == "ok"
    result = run_experiment(parse_config(base), output_dir=tmp_path / "a", master_seed=0)
    assert result.summary_rows[0]["bound_rhs"] > 0


def test_compare_oracle_calls_differ_by_T(tmp_path):
    cfg = parse_config(CFG.replace("T = 30,60", "T = 50"))
    result = compare_experiment(
        cfg, kinds=("momentum_sarah", "hybrid_sarah"), output_dir=tmp_path, master_seed=2
    )
    assert result.exit_code == 0
    lines = (tmp_path / "compare.csv").read_text().splitlines()
    assert lines[0] == COMPARE_HEADER
    rows = [line.split(",") for line in lines[1:]]
    by_kind = {}
    for r in rows:
        by_kind.setdefault(r[2], []).append(r)
    for m, h in zip(by_kind["momentum_sarah"], by_kind["hybrid_sarah"]):
        assert m[1] == h[1]  # same seed
        assert int(h[5]) - int(m[5]) == 50


def test_diagnostics_off_leaves_columns_empty(tmp_path):
    cfg = parse_config(
        "problem = quad:15:4:1.0\nestimator = sgd\nT = 10\nseeds = 1\ndiagnostics = off\n"
    )
    run_experiment(cfg, output_dir=tmp_path, master_seed=0)
    seed = expand_seeds(1, 0)[0]
    lines = (tmp_path / f"trace_T10_s{seed}.csv").read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    for line in lines[1:]:
        t, gms, obj, err, step = line.split(",")
        assert gms == "" and obj == "" and err == ""
        assert float(step) >= 0.0
    summary = (tmp_path / "summary.csv").read_text().splitlines()[1].split(",")
    assert summary[2] == "" and summary[3] == ""  # no mean/stderr without diagnostics
    assert summary[6] == "ok"


def test_nonconvex_families_run_under_auto_schedule(tmp_path):
    cfg = parse_config(
        "problem = sigmoid:25:6\nestimator = momentum_sarah\nT = 40\nseeds = 2\npsi = box:-3:3\n"
    )
    result = run_experiment(cfg, output_dir=tmp_path, master_seed=1)
    assert result.exit_code == 0
    row = (tmp_path / "summary.csv").read_text().splitlines()[1].split(",")
    assert float(row[4]) > 0.0  # sigma^2 and f_lower are certified
    assert float(row[2]) >= 0.0


def test_trace_floats_have_full_precision(tmp_path):
    cfg = parse_config(CFG.replace("T = 30,60", "T = 12").replace("seeds = 3", "seeds = 1"))
    run_experiment(cfg, output_dir=tmp_path, master_seed=0)
    seed = expand_seeds(1, 0)[0]
    lines = (tmp_path / f"trace_T12_s{seed}.csv").read_text().splitlines()[1:]
    # 17 significant digits round-trip doubles exactly
    values = [float(line.split(",")[1]) for line in lines]
    trace_again = [f"{v:.17g}" for v in values]
    assert [line.split(",")[1] for line in lines] == trace_again


def _per_cell_trace(trace) -> str:
    """The trace CSV written one formatted cell at a time."""
    diag = trace.grad_map_sq is not None
    lines = [TRACE_HEADER]
    for t in range(trace.T + 1):
        cells = [str(t)]
        for col in (trace.grad_map_sq, trace.obj, trace.est_err_sq):
            cells.append(_fmt(col[t]) if diag else "")
        cells.append(_fmt(trace.step_sq[t]))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("diagnostics", [True, False])
def test_trace_writer_matches_per_cell_format(tmp_path, diagnostics):
    prob = vp.make_nonconvex_sigmoid(40, 5, seed=1)
    hp = vp.schedule_from_T(300, prob.lipschitz_L)
    trace = vp.run(prob, L1(0.01), hp, rng=8, diagnostics=diagnostics, kind="hybrid_sarah")
    # Values of every magnitude, exact zeros and non-finite cells format alike.
    trace.step_sq[:4] = [0.0, 1e-300, 123456789.0, float("inf")]
    if diagnostics:
        trace.obj[1] = float("nan")
    _write_trace(tmp_path / "t.csv", trace)
    assert (tmp_path / "t.csv").read_text() == _per_cell_trace(trace)


@pytest.mark.parametrize("seeds, kinds", [(1, ["sgd"]), (3, ["sgd"]), (3, ["sgd", "sarah"])])
def test_jobs_beyond_the_task_count_start_no_more_workers(tmp_path, monkeypatch, seeds, kinds):
    # A forking pool starts every worker at its first submit; this one runs
    # in-process and records how many workers it was asked for.
    import concurrent.futures

    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    cfg = parse_config(CFG.replace("T = 30,60", "T = 30").replace("seeds = 3", f"seeds = {seeds}"))
    tasks = seeds * len(kinds)
    run = run_experiment if len(kinds) == 1 else (
        lambda cfg, **kw: compare_experiment(cfg, kinds=kinds, **kw))
    run(cfg, output_dir=tmp_path / "serial", master_seed=3, jobs=1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    run(cfg, output_dir=tmp_path / "wide", master_seed=3, jobs=4096)
    # One task runs in the calling process; more get one worker each.
    assert asked == ([] if tasks == 1 else [tasks])
    names = sorted(p.name for p in (tmp_path / "serial").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "wide").iterdir())
    for name in names:
        assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "wide" / name).read_bytes()


def test_serial_experiment_builds_each_problem_once(tmp_path, monkeypatch):
    from vrprox import experiment, problems

    builds = []
    real = problems.from_key

    def counting(key, seed=0):
        builds.append((key, seed))
        return real(key, seed)

    monkeypatch.setattr(problems, "from_key", counting)
    experiment._problem.cache_clear()
    cfg = parse_config(CFG)  # 2 horizons x 3 seeds
    run_experiment(cfg, output_dir=tmp_path / "run", master_seed=3, jobs=1)
    compare_experiment(cfg, kinds=["sgd", "sarah"], output_dir=tmp_path / "cmp", jobs=1)
    assert builds == [("quad:20:5:1.0", 4)]
    experiment._problem.cache_clear()


def test_summary_status_counts_each_kind_of_failed_run():
    rows = [{"status": s} for s in
            ("ok", "error(ValueError)", "divergent(t=3)", "ok", "divergent(t=9)")]
    assert _summary_status(rows) == "divergent:2;error(ValueError):1"
    assert _summary_status(rows[3:]) == "divergent:1"
    assert _summary_status(rows[:1]) == "ok"

"""Config-driven experiment orchestration and CSV emission.

One experiment expands to a grid of (horizon, seed) runs, each written to
``trace_T<T>_s<seed>.csv`` with per-iteration diagnostics, plus one
``summary.csv`` aggregating seed means and the a-priori stationarity bound
of the auto schedule, and a ``run_meta.txt`` pinning
the config, the resolved seeds, the vrprox, numpy and Python versions and
numpy's BLAS build.  No
timestamps are written anywhere: identical config and master seed reproduce
every output file byte for byte, in the same environment, regardless of the
worker count.

Floats are written with 17 significant digits, enough to round-trip doubles.
"""

from __future__ import annotations

import concurrent.futures
import functools
import math
import platform
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, problems
from .config import READERS, ConfigError, ExperimentConfig, check_initial_batch
from .estimators import KINDS
from .optimizer import DivergenceError, HyperParams, mean_grad_map_sq, run, schedule_from_T
from .oracle import ProblemInstance, full_value
from .prox import parse_psi, psi_value

TRACE_HEADER = "t,grad_map_sq,obj,est_err_sq,step_sq"
SUMMARY_HEADER = "T,seeds,mean_grad_map_sq,stderr,bound_rhs,oracle_calls,status"
COMPARE_HEADER = "T,seed,estimator,mean_grad_map_sq,obj_final,oracle_calls,status"
# The keys of a run's row that fill COMPARE_HEADER's columns.
COMPARE_FIELDS = ("T", "seed", "estimator", "mean_gms", "obj_final", "oracle_calls", "status")


@dataclass
class ExperimentResult:
    exit_code: int
    output_dir: Path
    summary_rows: list
    n_divergent: int
    failures: list = field(default_factory=list)  # the rows of runs that raised


def _result(out: Path, summary_rows: list, rows: list) -> ExperimentResult:
    """Exit code 0 when every run finished, 4 when any run raised, else 2
    when any run diverged."""
    failures = [r for r in rows if "error" in r]
    n_divergent = sum(r["status"].startswith("divergent") for r in rows)
    return ExperimentResult(
        exit_code=4 if failures else (2 if n_divergent else 0),
        output_dir=out,
        summary_rows=summary_rows,
        n_divergent=n_divergent,
        failures=failures,
    )


def _summary_status(t_rows) -> str:
    """``ok``, or ``<status>:<count>`` per kind of failed run, joined by ``;``:
    ``divergent:2``, ``error(ValueError):1``."""
    counts: dict[str, int] = {}
    for r in t_rows:
        if r["status"] != "ok":
            kind = "divergent" if r["status"].startswith("divergent") else r["status"]
            counts[kind] = counts.get(kind, 0) + 1
    return ";".join(f"{kind}:{c}" for kind, c in sorted(counts.items())) or "ok"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def stationarity_bound_rhs(prob: ProblemInstance, psi, T: int) -> float:
    """A-priori bound (4 L [F(x0) - F*] + 4 sigma^2) / (T+1)^{2/3} from x0 = 0.

    Every regularizer is >= 0, so F* >= inf f >= ``f_lower`` and
    F(x0) - f_lower bounds the gap.  A psi infinite at x0 raises ValueError.
    """
    x0 = np.zeros(prob.dim)
    psi0 = psi_value(psi, x0)
    if math.isinf(psi0):
        raise ValueError("psi is infinite at the start point x0 = 0")
    gap = full_value(prob, x0) + psi0 - prob.f_lower
    return float((4.0 * prob.lipschitz_L * gap + 4.0 * prob.sigma_bound)
                 / float(np.cbrt(T + 1.0)) ** 2)


def _write_trace(path: Path, trace) -> None:
    # The cells are exactly :func:`_fmt`'s (``%.17g`` formats a float as
    # ``:.17g`` does): float arrays give Python floats through ``tolist``,
    # and ``step_sq`` has the T + 1 rows t = 0..T.  One format per row.
    steps = trace.step_sq.tolist()
    if trace.grad_map_sq is None:
        rows = ["%d,,,,%.17g" % row for row in enumerate(steps)]
    else:
        cols = zip(range(len(steps)), trace.grad_map_sq.tolist(), trace.obj.tolist(),
                   trace.est_err_sq.tolist(), steps)
        rows = ["%d,%.17g,%.17g,%.17g,%.17g" % row for row in cols]
    path.write_text(TRACE_HEADER + "\n" + "\n".join(rows) + "\n")


@functools.lru_cache(maxsize=8)
def _problem(key: str, seed: int) -> ProblemInstance:
    """Build a problem once per (key, seed) in this process.

    Instances are deterministic in the seed, so a cached one is the one a
    rebuild would give.  ``run_experiment`` and ``compare_experiment`` build
    through here before the pool forks, so workers inherit the instance.
    ``problems.from_key`` is looked up at call time, which keeps every real
    build visible to anything that wraps it.
    """
    return problems.from_key(key, seed)


def _row(task: dict) -> dict:
    """The row of a task's run before it runs."""
    return {
        "T": task["hp"].T,
        "seed": task["seed"],
        "estimator": task["estimator"],
        "status": "ok",
        "mean_gms": None,
        "obj_final": None,
        "oracle_calls": None,
    }


def _failed(row: dict, kind: str, exc: BaseException) -> dict:
    """Mark ``row`` as an ``error(<kind>)`` run; call it inside the handler,
    whose traceback the row carries."""
    row["status"] = f"error({kind})"
    row["error"] = f"{kind}: {exc}"
    row["traceback"] = traceback.format_exc()
    return row


def _single_run(task: dict) -> dict:
    """Execute one (T, seed) run; used directly and by worker processes.

    Tasks carry the problem's key, not the instance (instances hold
    closures); :func:`_problem` builds it once per process.
    """
    prob = _problem(task["problem"], task["problem_seed"])
    psi = parse_psi(task["psi"])
    hp: HyperParams = task["hp"]
    row = _row(task)
    try:
        # A step that overflows ends in DivergenceError, reported in the
        # status row; numpy's overflow warning would only repeat it on
        # stderr.  Not inside run: ufuncs run slower in any errstate context.
        with np.errstate(over="ignore"):
            trace = run(
                prob,
                psi,
                hp,
                rng=task["seed"],
                diagnostics=task["diagnostics"],
                kind=task["estimator"],
            )
    except DivergenceError as exc:
        row["status"] = f"divergent(t={exc.t})"
        return row
    except Exception as exc:
        # One failed run must not cost the sweep its other rows and files.
        # The report travels as text: not every exception pickles.
        return _failed(row, type(exc).__name__, exc)
    row["oracle_calls"] = trace.oracle_calls
    if trace.grad_map_sq is not None:
        row["mean_gms"] = mean_grad_map_sq(trace)
        row["obj_final"] = float(trace.obj[-1])
    if task.get("trace_path"):
        _write_trace(Path(task["trace_path"]), trace)
    return row


def _run_tasks(tasks: list[dict], jobs: int) -> list[dict]:
    # A forking pool starts all its workers at the first submit, so it gets
    # no more workers than tasks; one worker is the in-process loop.
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return [_single_run(t) for t in tasks]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_single_run, t) for t in tasks]
    # A worker that dies breaks the pool, and with it every task not yet
    # finished; each of those reruns alone, so only a task that kills its
    # worker again is lost.
    broken = concurrent.futures.BrokenExecutor
    return [_run_alone(t) if isinstance(f.exception(), broken) else f.result()
            for f, t in zip(futures, tasks)]


def _run_alone(task: dict) -> dict:
    """Run one task in a fresh one-worker pool; a worker that dies there
    makes it an ``error(WorkerDied)`` row."""
    with concurrent.futures.ProcessPoolExecutor(max_workers=1) as pool:
        future = pool.submit(_single_run, task)
        try:
            return future.result()
        except concurrent.futures.BrokenExecutor as exc:
            return _failed(_row(task), "WorkerDied", exc)


def _hyperparams_for(cfg: ExperimentConfig, prob: ProblemInstance, T: int) -> HyperParams:
    if cfg.schedule == "auto":
        hp = schedule_from_T(T, prob.lipschitz_L)
        check_initial_batch(hp.b_tilde, cfg.problem, f"b_tilde (schedule = auto, T = {T})")
        return hp
    return HyperParams(eta=cfg.eta, beta=cfg.beta, b_tilde=cfg.b_tilde, T=T)


def _plan(cfg: ExperimentConfig, kinds, output_dir, master_seed: int, traces: bool):
    """Resolve every input, then create the output directory and list one task
    per (T, seed, kind), in that order.  ``cfg`` was checked when its text was
    parsed; the kinds, the problem build and the auto schedule's initial batch
    are checked here.  A seed count expands from ``master_seed``.  With
    ``traces`` each run writes ``trace_T<T>_s<seed>.csv`` there.  Returns
    (problem, seeds, directory, tasks).
    """
    for kind in kinds:
        READERS["estimator"](kind)
    if len(set(kinds)) < len(kinds):
        raise ConfigError(f"estimator kinds repeat: {','.join(kinds)}")
    try:
        prob = _problem(cfg.problem, cfg.problem_seed)
    except (ValueError, MemoryError) as exc:
        # A valid key can still overflow, as quad:4:2:1e200 does, or ask for
        # more memory than the process can map.
        raise ConfigError(f"key 'problem' = {cfg.problem!r}: {exc}") from None
    seeds = cfg.seeds
    if isinstance(seeds, int):
        seeds = np.random.SeedSequence(master_seed).generate_state(seeds, dtype=np.uint64).tolist()
    hps = [_hyperparams_for(cfg, prob, T) for T in cfg.T]
    out = Path(output_dir or "runs")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write output directory {str(out)!r}: {exc}") from None
    tasks = [
        {
            "problem": cfg.problem,
            "problem_seed": cfg.problem_seed,
            "psi": cfg.psi,
            "estimator": kind,
            "hp": hp,
            "seed": seed,
            "diagnostics": cfg.diagnostics,
            "trace_path": str(out / f"trace_T{hp.T}_s{seed}.csv") if traces else None,
        }
        for hp in hps
        for seed in seeds
        for kind in kinds
    ]
    return prob, seeds, out, tasks


def _blas() -> str:
    """Name, version and configuration of the BLAS numpy was built with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration')})"


def _write_meta(path: Path, cfg: ExperimentConfig, seeds: list[int], master_seed: int) -> None:
    # Trace bytes rest on numpy's id draws and row-wise reductions, and the
    # nonconvex kernels' products on the BLAS, which picks its kernels per
    # CPU, so the environment that wrote them is part of what reproduces them.
    lines = [
        f"vrprox_version = {__version__}",
        f"numpy_version = {np.__version__}",
        f"python_version = {platform.python_version()}",
        f"blas = {_blas()}",
        f"master_seed = {master_seed}",
        "seeds = " + ",".join(str(s) for s in seeds),
        "config:",
    ]
    lines.extend("  " + line for line in cfg.source_text.splitlines())
    path.write_text("\n".join(lines) + "\n")


def run_experiment(
    cfg: ExperimentConfig,
    output_dir=None,
    master_seed: int = 0,
    jobs: int = 1,
) -> ExperimentResult:
    """Run the full (T, seed) grid of an experiment and write its files.

    Returns exit code 0 when every run finished, 2 when any run diverged
    and 4 when any run raised; such runs are counted in the summary's status
    column, and every file is written all the same.  Every input is resolved
    before the output directory is created.
    """
    prob, seeds, out, tasks = _plan(cfg, [cfg.estimator], output_dir, master_seed, traces=True)
    psi = parse_psi(cfg.psi)
    rows = _run_tasks(tasks, jobs)

    summary_lines = [SUMMARY_HEADER]
    summary_rows = []
    for T in cfg.T:
        t_rows = [r for r in rows if r["T"] == T]
        ok = [r for r in t_rows if r["status"] == "ok"]
        means = [r["mean_gms"] for r in ok if r["mean_gms"] is not None]
        mean = float(np.mean(means)) if means else None
        # Fewer than two finished runs give no spread: stderr stays empty.
        stderr = float(np.std(means, ddof=1) / np.sqrt(len(means))) if len(means) > 1 else None
        # The a-priori bound is the auto schedule's; a manual eta, beta and
        # b_tilde carry no such guarantee.
        bound = stationarity_bound_rhs(prob, psi, T) if cfg.schedule == "auto" else None
        calls = ok[0]["oracle_calls"] if ok else None
        record = {
            "T": T,
            "seeds": len(t_rows),
            "mean_grad_map_sq": mean,
            "stderr": stderr,
            "bound_rhs": bound,
            "oracle_calls": calls,
            "status": _summary_status(t_rows),
        }
        summary_rows.append(record)
        summary_lines.append(",".join(map(_fmt, record.values())))
    (out / "summary.csv").write_text("\n".join(summary_lines) + "\n")
    _write_meta(out / "run_meta.txt", cfg, seeds, master_seed)
    return _result(out, summary_rows, rows)


def compare_experiment(
    cfg: ExperimentConfig,
    kinds=KINDS,
    output_dir=None,
    master_seed: int = 0,
    jobs: int = 1,
) -> ExperimentResult:
    """Run the same seeds across estimator kinds and emit one joined CSV.

    Every kind sees identical (problem, schedule, seed) triples, which makes
    the oracle-call columns directly comparable (two evaluations per step for
    the same-sample recursion versus three for the hybrid).  Exit codes are
    :func:`run_experiment`'s; a run that raised has status ``error(<type>)``.

    The shared schedule is the momentum one, so ``sgd`` runs eta ~ T^{-1/3},
    not plain SGD's eta ~ T^{-1/2}: it stalls at its variance floor (local
    log-log slopes near -0.34), and its rows are not SGD at its best.
    ``hybrid_sarah`` runs the hybrid estimator inside this paper's one-step
    update, not Tran-Dinh et al.'s two-step-size method, so ``compare``
    measures the gradient the same-sample recursion saves per step, not the
    second step size this paper drops.
    """
    if isinstance(kinds, str):
        raise ConfigError(f"kinds must be a sequence of estimator kinds, not the string {kinds!r}")
    kinds = list(kinds)
    if not kinds:
        raise ConfigError(f"no estimator kind to compare; valid kinds: {', '.join(KINDS)}")
    _, seeds, out, tasks = _plan(cfg, kinds, output_dir, master_seed, traces=False)
    rows = _run_tasks(tasks, jobs)

    lines = [COMPARE_HEADER]
    for row in rows:
        lines.append(",".join(_fmt(row[key]) for key in COMPARE_FIELDS))
    (out / "compare.csv").write_text("\n".join(lines) + "\n")
    _write_meta(out / "run_meta.txt", cfg, seeds, master_seed)
    return _result(out, rows, rows)

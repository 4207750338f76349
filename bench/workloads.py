"""The three benchmark workloads: inputs from a seed, one timed pass, checks.

Each workload has ``setup()`` (import, config parse, problem construction:
what ``setup_s`` times), ``run_pass(k)`` (the work whose wall time is
``wall_s``, including the checks of its outputs) and ``cleanup(k)``.  A pass
returns a :class:`PassResult` counting what it attempted and what failed:
diverged runs plus failed output checks.

``rate_sweep``: the acceptance criterion-5 sweep in one process through the
library: quad:100:20:1.0, psi = zero, momentum_sarah, diagnostics on,
T in {100, 1000, 10000} x 20 seeds (60 runs, 222,000 iterations).  Its cost is
per-iteration overhead at small p.  Loads optimizer (loop, guard, diagnostics
record), estimators (same-sample update), oracle (sample_gradient,
draw_sample_ids, full_gradient, full_value) and prox (identity prox,
psi_value).  Bypasses experiment, the process pool, problems.from_key
rebuilds, CSV IO, config, cli, validation and suite.  Checks: rate slope
<= -0.5, the T=1000 seed mean <= stationarity bound + 3 stderr, every
oracle_calls == b_tilde + 2T, and the hand-written loop (floor.py) agreeing
with vrprox.run to 1e-9.

``cli_run_sigmoid``: ``vrprox run --jobs 2`` through ``cli.main`` on
``sigmoid_run.cfg`` (sigmoid:1000:50, l1:0.01, hybrid_sarah,
T = 300,1000,3000, 8 seeds, schedule auto, diagnostics on; 24 trace CSVs).
Loads cli, config, experiment (process pool, trace CSV formatting and
writes), problems.from_key (rebuilt per task, with its empirical sigma^2),
optimizer with n = 1000 diagnostics, estimators (the hybrid's three
evaluations over two samples), oracle and prox (L1 soft-threshold).
Bypasses validation and suite.  Checks: exit 0, every summary status ok,
oracle_calls == b_tilde + 3T, 24 trace files of T+2 lines, summary.csv
byte-identical across the passes of one invocation.

``validate``: full ``vrprox validate`` through ``cli.main`` (16 checks).  The
only workload that loads validation (variance-recursion checks, schedule
margins) and suite (prox properties, finite differences, smoothness); about
half its time is optimizer.run through the bound and rate checks.  Bypasses
the process pool and config files.  Check: exit 0 and 16 rows PASS.

Seed mapping: rate_sweep uses problem seed s and run seeds 20s..20s+19 (s = 0
is the acceptance sweep); cli_run_sigmoid uses problem_seed = master seed = s.
validate always runs the suite's default seed 0: the suite fixes its own
inputs, and some other suite seeds fail its decay_exponent check at the
suite's threshold, which a timing benchmark must not turn into random
failures.
"""

from __future__ import annotations

import contextlib
import io
import re
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
from floor import floor_mean_grad_map_sq

BENCH_DIR = Path(__file__).resolve().parent


def import_vrprox(root: Path):
    """Import vrprox from ``root/src``, refusing any other copy."""
    src = (root / "src").resolve()
    if not (src / "vrprox" / "__init__.py").is_file():
        raise SystemExit(f"no vrprox sources under {src}")
    sys.path.insert(0, str(src))
    import vrprox

    if Path(vrprox.__file__).resolve().parent != src / "vrprox":
        raise SystemExit(f"imported vrprox from {vrprox.__file__}, expected {src}")
    return vrprox


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    trace_bytes: int = 0

    def runs(self, count: int, diverged: int = 0) -> None:
        self.attempted += count
        self.failed += diverged
        if diverged:
            self.failures.append(f"{diverged} of {count} runs diverged")

    def expect(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def _counts(runs, evals_per_step: int) -> dict:
    """Exact traced counts for (b_tilde, T, number of runs) groups."""
    return {
        "oracle.oracle_calls": sum(n * (b + evals_per_step * T) for b, T, n in runs),
        "optimizer.iterations": sum(n * T for _, T, n in runs),
        "optimizer.diag_full_gradients": sum(n * (T + 1) for _, T, n in runs),
    }


class RateSweep:
    name = "rate_sweep"
    KEY = "quad:100:20:1.0"
    HORIZONS = (100, 1000, 10_000)
    SEEDS_PER_T = 20
    FLOOR_T = 1000

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root, self.seed, self.workdir = root, seed, workdir

    def setup(self) -> None:
        self.vp = vp = import_vrprox(self.root)
        self.prob = vp.from_key(self.KEY, self.seed)
        self.psi = vp.Zero()
        self.hps = {T: vp.schedule_from_T(T, self.prob.lipschitz_L) for T in self.HORIZONS}
        self.run_seeds = [self.SEEDS_PER_T * self.seed + k for k in range(self.SEEDS_PER_T)]

    def run_pass(self, k: int) -> PassResult:
        vp = self.vp
        from vrprox.experiment import stationarity_bound_rhs

        res = PassResult()
        self.means = {}
        diverged = dict.fromkeys(self.hps, 0)
        # Seeds outer, horizons inner: the runs of each horizon are spread
        # over the whole pass, so their times sample every state the host
        # goes through during it.
        for s in self.run_seeds:
            for T, hp in self.hps.items():
                try:
                    tr = vp.run(self.prob, self.psi, hp, rng=s, diagnostics=True,
                                kind=vp.MOMENTUM_SARAH)
                except vp.DivergenceError:
                    diverged[T] += 1
                    continue
                res.expect(f"T={T} seed={s}: oracle_calls {tr.oracle_calls} != b_tilde+2T",
                           tr.oracle_calls == hp.b_tilde + 2 * T)
                self.means[(T, s)] = vp.mean_grad_map_sq(tr)
        summary = []
        for T in self.hps:
            means = [self.means[(T, s)] for s in self.run_seeds if (T, s) in self.means]
            res.runs(len(self.run_seeds), diverged[T])
            summary.append((T, float(np.mean(means)) if means else float("nan")))
            if T == 1000 and len(means) > 1:
                bound = stationarity_bound_rhs(self.prob, self.psi, T)
                se = float(np.std(means, ddof=1) / np.sqrt(len(means)))
                res.expect("T=1000 seed mean above bound + 3 stderr",
                           float(np.mean(means)) <= bound + 3.0 * se)
        slope = vp.rate_slope(summary) if all(np.isfinite(m) for _, m in summary) else 0.0
        res.expect(f"rate slope {slope:.4f} > -0.5", slope <= -0.5)
        return res

    def floor_check(self, seeds) -> tuple[PassResult, list[float]]:
        """Run the hand-written loop on the T=FLOOR_T runs of the last pass.

        Returns the agreement checks and the loop's seconds per iteration,
        one figure per seed.
        """
        hp = self.hps[self.FLOOR_T]
        meta = self.prob.meta
        res = PassResult()
        per_iter = []
        for s in seeds:
            t0 = perf_counter()
            got = floor_mean_grad_map_sq(meta["centers"], meta["cbar"], self.prob.sigma_bound, hp, s)
            per_iter.append((perf_counter() - t0) / hp.T)
            want = self.means.get((self.FLOOR_T, s))
            res.expect(f"floor loop disagrees with vrprox.run at seed {s}",
                       want is not None and abs(got - want) <= 1e-9 * abs(want))
        return res, per_iter

    def expected_counts(self) -> dict:
        return _counts([(hp.b_tilde, T, len(self.run_seeds)) for T, hp in self.hps.items()], 2)

    def cleanup(self, k: int) -> None:
        pass


class CliRunSigmoid:
    name = "cli_run_sigmoid"
    CONFIG = BENCH_DIR / "sigmoid_run.cfg"
    JOBS = 2

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root, self.seed, self.workdir = root, seed, workdir

    def setup(self) -> None:
        vp = import_vrprox(self.root)
        from vrprox import cli, config, problems

        self.cli = cli
        text = re.sub(r"(?m)^problem_seed\s*=.*$", f"problem_seed = {self.seed}",
                      self.CONFIG.read_text())
        self.config_path = self.workdir / "run.cfg"
        self.config_path.write_text(text)
        self.cfg = config.parse_config(text)
        prob = problems.from_key(self.cfg.problem, self.cfg.problem_seed)
        self.b_tilde = {T: vp.schedule_from_T(T, prob.lipschitz_L).b_tilde for T in self.cfg.T}
        self.n_seeds = self.cfg.seeds
        self.summary_bytes = None

    def out(self, k: int) -> Path:
        return self.workdir / f"run{k}"

    def run_pass(self, k: int) -> PassResult:
        out = self.out(k)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.cli.main(["run", "--config", str(self.config_path), "--output", str(out),
                                "--jobs", str(self.JOBS), "--master-seed", str(self.seed)])
        res = PassResult()
        res.expect(f"vrprox run exited {rc}", rc == 0)
        if not (out / "summary.csv").is_file():
            res.expect("no summary.csv written", False)
            return res
        lines = (out / "summary.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        res.expect("summary.csv rows do not match the horizons",
                   [int(r["T"]) for r in rows] == list(self.cfg.T))
        for r in rows:
            T = int(r["T"])
            diverged = 0 if r["status"] == "ok" else int(r["status"].split(":")[-1])
            res.runs(int(r["seeds"]), diverged)
            res.expect(f"T={T}: status {r['status']}", r["status"] == "ok")
            res.expect(f"T={T}: oracle_calls {r['oracle_calls']} != b_tilde+3T",
                       r["oracle_calls"] == str(self.b_tilde[T] + 3 * T))
        traces = sorted(out.glob("trace_T*_s*.csv"))
        res.expect(f"{len(traces)} trace files, expected {len(self.cfg.T) * self.n_seeds}",
                   len(traces) == len(self.cfg.T) * self.n_seeds)
        for path in traces:
            T = int(re.match(r"trace_T(\d+)_s", path.name).group(1))
            with path.open("rb") as fh:
                n_lines = sum(1 for _ in fh)
            res.expect(f"{path.name} has {n_lines} lines, expected T+2", n_lines == T + 2)
            res.trace_bytes += path.stat().st_size
        summary = (out / "summary.csv").read_bytes()
        if self.summary_bytes is None:
            self.summary_bytes = summary
        res.expect("summary.csv differs from the first pass", summary == self.summary_bytes)
        return res

    def expected_counts(self) -> dict:
        return _counts([(bt, T, self.n_seeds) for T, bt in self.b_tilde.items()], 3)

    def cleanup(self, k: int) -> None:
        shutil.rmtree(self.out(k), ignore_errors=True)


class Validate:
    name = "validate"
    SUITE_SEED = 0
    CHECKS = 16
    ROW = re.compile(r"^(\S+)\s+(PASS|FAIL)\s")

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root, self.seed, self.workdir = root, seed, workdir

    def setup(self) -> None:
        import_vrprox(self.root)
        from vrprox import cli

        self.cli = cli

    def run_pass(self, k: int) -> PassResult:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(["validate", "--seed", str(self.SUITE_SEED)])
        rows = [m.groups() for m in map(self.ROW.match, buf.getvalue().splitlines()) if m]
        res = PassResult()
        res.expect(f"vrprox validate exited {rc}", rc == 0)
        res.expect(f"{len(rows)} check rows, expected {self.CHECKS}", len(rows) == self.CHECKS)
        for check, status in rows:
            res.expect(f"{check} {status}", status == "PASS")
        return res

    def expected_counts(self) -> dict:
        return {}

    def cleanup(self, k: int) -> None:
        pass


WORKLOADS = {w.name: w for w in (RateSweep, CliRunSigmoid, Validate)}

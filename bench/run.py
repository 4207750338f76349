"""vrprox benchmark: one workload, timed end to end or traced layer by layer.

    python3 bench/run.py --workload rate_sweep --seed 0 --seconds 40 --trace 0

Run from a checkout of the repository; vrprox is imported from its ``src``.
The workload's inputs come from ``--seed``.  A run takes about ``--seconds``
in all, set-up included, and repeats timed passes of the workload (at least
one).

Times are scaled to a quiet host.  The benchmark runs on a few cores of a
shared machine whose speed changes by up to 1.8x within seconds and can stay
low for minutes, so raw times measure the neighbours.  A fixed reference
loop (``floor.reference_loop``, about 12 ms) runs before and after each pass
and, outside the timed spans, before each optimizer run and suite check,
in the benchmark process and in pool workers alike.  A span's time is
multiplied by ``REFERENCE_S`` over the mean time of the loops from the last
one before it to the first one after it: it reads as if the host ran the
loop in ``REFERENCE_S``.  The raw loop times are in the environment block.

With ``--trace 0`` it reports the end-to-end metrics:

- ``wall_s``: one pass without the loops: the sum of its steps (the
  benchmark process's outermost optimizer runs and suite checks), each at
  the median over the run of its kind (span name and horizon T), plus the
  median over passes of the rest (the whole pass when the runs are in pool
  workers);
- ``setup_s``: median of fresh-interpreter set-ups (import, config parse,
  problem construction), not scaled: their time does not follow the loop's;
- ``iters_per_s``: optimizer iterations in one pass over ``wall_s``;
- ``run_us_per_iter_p50`` and ``_p80``: over every optimizer run of every
  pass, run time over T;
- ``peak_rss_mb``: peak RSS of the benchmark process plus its pool workers.

With ``--trace 1`` it times untraced passes, then one pass with a span around
every cross-module call (see tracing.py) and reports the per-layer metrics
(layers.py, unscaled) with the tracing overhead.

Every pass checks its outputs (workloads.py).  Earlier lines of standard
output show every metric with its unit, the failures and the environment; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Scratch files go to ``bench/_work`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy
from floor import REFERENCE_S, reference_loop
from layers import layer_metrics
from tracing import REFERENCE_SPAN, RUN_SPAN, Tracer, is_step
from workloads import WORKLOADS, PassResult, import_vrprox

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 11
MAX_PASSES = 200
TRACED_COST = 1.5  # a traced pass over an untraced one, with margin


def environment() -> dict:
    """What a result must be read against; results from different
    environments are not comparable."""
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": None,
        "src_sha256": hashlib.sha256(b"".join(
            p.read_bytes() for p in sorted((ROOT / "src" / "vrprox").glob("*.py"))
        )).hexdigest()[:16],
        "llc": None,
        "loadavg_start": os.getloadavg(),
    }
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        env["git_sha"] = got.stdout.strip() or None
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    levels = []
    for index in caches.glob("index*"):
        try:
            levels.append((int((index / "level").read_text()),
                           (index / "size").read_text().strip()))
        except OSError:
            continue
    if levels:
        level, size = max(levels)
        env["llc"] = f"L{level} {size}"
    return env


def setup_seconds(name: str, seed: int, workdir: Path) -> list[float]:
    """Fresh-interpreter set-ups, unscaled: set-up is bound by imports, whose
    time does not follow the reference loop's."""
    times = []
    for _ in range(SETUP_REPEATS):
        got = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(ROOT), name, str(seed),
             str(workdir)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(got.stdout.strip().splitlines()[-1]))
    return times


class HostScale:
    """Scale factors for spans timed between reference loops (see the module
    docstring), from the loops' start and end readings in order."""

    def __init__(self, starts, ends):
        self.starts = numpy.asarray(starts, dtype=float)
        self.durs = numpy.asarray(ends, dtype=float) - self.starts
        self.mean = REFERENCE_S / float(self.durs.mean())

    def at(self, start: float, end: float) -> float:
        """The factor for a span from ``start`` to ``end``: from the loops
        from the last one that started before it to the first one that
        started after it."""
        last = len(self.durs) - 1
        before = min(max(int(numpy.searchsorted(self.starts, start, "right")) - 1, 0), last)
        after = min(int(numpy.searchsorted(self.starts, end, "left")), last)
        return REFERENCE_S / float(self.durs[before:after + 1].mean())


class Bench:
    def __init__(self, workload, vrprox, workdir: Path):
        self.wl = workload
        self.vrprox = vrprox
        self.workdir = workdir
        self.passes: list[dict] = []
        self.host: list[float] = []  # raw reference loop times, seconds
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run_pass(self, traced: bool) -> dict:
        """One timed pass of the workload; returns its figures and spans.

        Reference loops run before and after the pass and, untraced, before
        each step span (optimizer run, suite check) in the benchmark process
        and in pool workers.  The steps are the benchmark process's
        outermost step spans without the loops inside them, keyed by span
        name and value (the horizon T of a run); the rest is the pass's wall
        time outside its steps and the loops.
        """
        k = len(self.passes)
        tracer = Tracer(self.vrprox, self.workdir / f"spool{k}", only=None if traced else is_step,
                        reference=None if traced else reference_loop)
        tracer.install()
        try:
            first = reference_loop()
            t0 = perf_counter()
            res = self.wl.run_pass(k)
            t1 = perf_counter()
            last = reference_loop()
        finally:
            tracer.uninstall()
        tab = tracer.table()
        self.wl.cleanup(k)
        self.count(res)
        inside = tab.ids(REFERENCE_SPAN)
        inside = inside[numpy.argsort(tab.start[inside])]
        starts = numpy.concatenate(([first[0]], tab.start[inside], [last[0]]))
        ends = numpy.concatenate(([first[1]], tab.end[inside], [last[1]]))
        self.host.extend(ends - starts)
        scale = HostScale(starts, ends)
        # The benchmark process's loops add to the pass's wall time; the
        # workers' run in parallel, ``JOBS`` at a time.
        main = tab.proc[inside] == 0
        wall = (t1 - t0 - float(tab.dur[inside[main]].sum())
                - float(tab.dur[inside[~main]].sum()) / getattr(self.wl, "JOBS", 1))
        runs = tab.ids(RUN_SPAN)
        roots = numpy.setdiff1d(numpy.flatnonzero((tab.proc == 0) & (tab.parent < 0)), inside)
        nested = inside[tab.parent[inside] >= 0]
        net = tab.dur - numpy.bincount(tab.parent[nested], weights=tab.dur[nested],
                                       minlength=tab.dur.size)
        steps = [((int(tab.name[i]), float(tab.val[i])), float(net[i])) for i in roots]
        main_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        p = {
            "traced": traced,
            "wall": wall,
            "scaled_wall": wall * scale.mean,
            "iterations": float(tab.val[runs].sum()),
            "us_per_iter": [tab.dur[i] / tab.val[i] * 1e6 * scale.at(tab.start[i], tab.end[i])
                            for i in runs],
            "horizons": list(tab.val[runs]),
            "rss_mb": (main_kb + sum(tab.worker_rss_kb)) / 1024.0,
            "trace_bytes": res.trace_bytes,
            "steps": [(kind, d * scale.at(tab.start[i], tab.end[i]))
                      for i, (kind, d) in zip(roots, steps)],
            "rest": (wall - sum(d for _, d in steps)) * scale.mean,
            "spans": tab if traced else None,
        }
        self.passes.append(p)
        return p

    def count(self, res) -> None:
        self.attempted += res.attempted
        self.failed += res.failed
        self.failures.extend(res.failures)

    def untraced_until(self, deadline: float, reserve: float = 0.0) -> list[dict]:
        """Passes until the next one, plus ``reserve`` passes' time, would end
        after ``deadline`` (a perf_counter reading); at least one."""
        done = []
        while len(done) < MAX_PASSES:
            done.append(self.run_pass(traced=False))
            typical = statistics.median(p["wall"] for p in done)
            if perf_counter() + typical * (1.0 + reserve) > deadline:
                break
        return done


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def pass_wall(passes: list[dict]) -> float:
    """One pass's scaled wall time: its steps, each at the median of the
    run's steps of the same kind, plus the median of the rest over passes.
    Every pass has the same steps."""
    by_kind: dict = {}
    for p in passes:
        for kind, dur in p["steps"]:
            by_kind.setdefault(kind, []).append(dur)
    steps = sum(statistics.median(by_kind[kind]) for kind, _ in passes[0]["steps"])
    return steps + statistics.median(p["rest"] for p in passes)


def end_to_end(passes: list[dict], setup: list[float]) -> dict:
    lat = [v for p in passes for v in p["us_per_iter"]]
    wall = pass_wall(passes)
    return {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "iters_per_s": (passes[0]["iterations"] / wall, "1/s"),
        "run_us_per_iter_p50": (percentile(lat, 50), "us"),
        "run_us_per_iter_p80": (percentile(lat, 80), "us"),
        "peak_rss_mb": (max(p["rss_mb"] for p in passes), "MB"),
    }


def per_layer(bench: Bench, untraced: list[dict], traced: dict) -> dict:
    wl = bench.wl
    m = layer_metrics(traced["spans"], traced["wall"], getattr(wl, "JOBS", 1))
    m["experiment.trace_bytes"] = (float(traced["trace_bytes"]), "B")
    m["trace.overhead_frac"] = (
        traced["scaled_wall"] / statistics.median(p["scaled_wall"] for p in untraced) - 1.0,
        "frac")
    floor_us = ratio = 0.0
    if hasattr(wl, "floor_check"):
        before = reference_loop()
        res, floor_s = wl.floor_check(wl.run_seeds)
        after = reference_loop()
        bench.count(res)
        floor_us = statistics.median(floor_s) * 1e6 * HostScale(*zip(before, after)).mean
        lib = [v for p in untraced for v, T in zip(p["us_per_iter"], p["horizons"])
               if T == wl.FLOOR_T]
        ratio = statistics.median(lib) / floor_us
    m["optimizer.floor_us_per_iter"] = (floor_us, "us")
    m["optimizer.overhead_ratio"] = (ratio, "ratio")
    return m


def exact_count_checks(bench: Bench, m: dict) -> None:
    """Counts the traced pass must reproduce exactly, where the workload
    fixes them."""
    res = PassResult()
    for name, want in bench.wl.expected_counts().items():
        res.expect(f"traced {name} {m[name][0]:.0f} != {want}", m[name][0] == want)
    bench.count(res)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = perf_counter() + args.seconds
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    vrprox = import_vrprox(ROOT)
    env = environment()
    workdir = BENCH_DIR / "_work" / f"{args.workload}-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True)
    tempfile.tempdir = str(workdir / "tmp")
    try:
        wl = WORKLOADS[args.workload](ROOT, args.seed, workdir)
        wl.setup()
        bench = Bench(wl, vrprox, workdir)
        if args.trace:
            untraced = bench.untraced_until(deadline, reserve=TRACED_COST)
            metrics = per_layer(bench, untraced, bench.run_pass(traced=True))
            exact_count_checks(bench, metrics)
        else:
            setup = setup_seconds(args.workload, args.seed, workdir)
            metrics = end_to_end(bench.untraced_until(deadline), setup)
            if hasattr(wl, "floor_check"):
                bench.count(wl.floor_check(wl.run_seeds[:1])[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    env["loadavg_end"] = os.getloadavg()
    env["reference_ms"] = {
        "scaled_to": REFERENCE_S * 1e3,
        "median": statistics.median(bench.host) * 1e3,
        "min": min(bench.host) * 1e3,
        "max": max(bench.host) * 1e3,
        "loops": len(bench.host),
    }

    fail_frac = bench.failed / bench.attempted
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_frac = {fail_frac:.6g} ({bench.failed} of {bench.attempted})")
    print(f"passes = {len(bench.passes)}, run samples = "
          f"{sum(len(p['us_per_iter']) for p in bench.passes if not p['traced'])}")
    for failure in bench.failures:
        print(f"FAILED: {failure}")
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans around the calls vrprox modules make into each other.

A :class:`Tracer` wraps, for the length of one workload pass, the names each
vrprox module imported from a neighbouring vrprox module
(``vrprox.optimizer.prox``, ``vrprox.estimators.sample_gradient``,
``vrprox.experiment.run``, ...), the package-level re-exports the benchmark
itself calls (``vrprox.run``), ``vrprox.problems.from_key`` (reached as a
module attribute), the experiment's per-task entry
``vrprox.experiment._single_run`` and the suite's checks
(``vrprox.suite._check_*``, which ``run_suite`` calls through its module).
Every call through a wrapper records one span: the callee's name as
``<module>.<function>``, start, end, the span that was open when it began,
and one number taken from the arguments (the horizon T of an
``optimizer.run``, the n*p*8 bytes a ``full_gradient`` computes, the rows of
a ``minibatch_gradient``, a hash of the key and seed of a ``from_key``).
The end-to-end runs wrap only the steps (:func:`is_step`) and record a
reference loop before each as a ``bench.reference`` span.

Spans are kept in flat arrays in memory.  A process pool forks after the
wrappers are installed, so its workers inherit them: a multiprocessing
after-fork hook empties the inherited arrays in the child, and the child
writes its own spans (and its peak RSS) to the spool directory when it
exits.  ``table()`` merges the parent's spans with every worker's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import resource
import zlib
from array import array
from multiprocessing import util as mp_util
from pathlib import Path
from time import perf_counter

import numpy as np

RUN_SPAN = "optimizer.run"
TASK_ATTR = ("vrprox.experiment", "_single_run")
CHECK_PREFIX = "suite._check_"
REFERENCE_SPAN = "bench.reference"


def is_step(name: str) -> bool:
    """Span names the end-to-end runs record: one span per optimizer run and
    one per suite check, the steps ``wall_s`` is built from (the reference
    loops around them are recorded too, see :class:`Tracer`)."""
    return name == RUN_SPAN or name.startswith(CHECK_PREFIX)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _horizon(args, kwargs):
    return float(_arg(args, kwargs, 2, "hp").T)


def _full_gradient_bytes(args, kwargs):
    prob = _arg(args, kwargs, 0, "prob")
    return float(prob.num_components * prob.dim * 8) if prob.num_components else 0.0


def _batch_rows(args, kwargs):
    return float(np.size(_arg(args, kwargs, 2, "ids")))


def _key_hash(args, kwargs):
    seed = kwargs.get("seed", args[1] if len(args) > 1 else 0)
    return float(zlib.crc32(f"{_arg(args, kwargs, 0, 'key')}|{seed}".encode()))


ANNOTATE = {
    RUN_SPAN: _horizon,
    "oracle.full_gradient": _full_gradient_bytes,
    "oracle.minibatch_gradient": _batch_rows,
    "problems.from_key": _key_hash,
}


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def discover_sites(vrprox) -> list[tuple]:
    """Every (module, attribute, function) where a vrprox module holds a
    function defined in another vrprox module, plus the two extra boundaries
    named in the module docstring."""
    modules = [vrprox] + [
        importlib.import_module(f"{vrprox.__name__}.{info.name}")
        for info in pkgutil.iter_modules(vrprox.__path__)
        if not info.name.startswith("_")
    ]
    sites = []
    for mod in modules:
        for attr, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ != mod.__name__
                and obj.__module__.startswith(vrprox.__name__ + ".")
            ):
                sites.append((mod, attr, obj))
    problems = importlib.import_module(f"{vrprox.__name__}.problems")
    sites.append((problems, "from_key", problems.from_key))
    experiment = importlib.import_module(TASK_ATTR[0])
    if hasattr(experiment, TASK_ATTR[1]):
        sites.append((experiment, TASK_ATTR[1], getattr(experiment, TASK_ATTR[1])))
    suite = importlib.import_module(f"{vrprox.__name__}.suite")
    sites.extend(
        (suite, attr, obj) for attr, obj in vars(suite).items()
        if inspect.isfunction(obj) and span_name(obj).startswith(CHECK_PREFIX)
    )
    return sites


class SpanTable:
    """Merged spans of one pass as numpy arrays (one row per span).

    ``parent`` indexes rows of the same table (-1 for a root); ``proc`` is 0
    for the benchmark process and 1.. for each worker.
    """

    def __init__(self, names, name, parent, start, end, val, proc, worker_rss_kb):
        self.names = names
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.val = val
        self.proc = proc
        self.worker_rss_kb = worker_rss_kb
        self.dur = end - start
        self.self_time = self._self_times()

    def _self_times(self) -> np.ndarray:
        """Duration minus the part of it that child spans cover.

        Children in the same process never overlap, so their durations add;
        a span with children in worker processes (which run in parallel)
        subtracts the union of its children's intervals instead.
        """
        n = self.dur.size
        has_parent = self.parent >= 0
        same = np.zeros(n, dtype=bool)
        same[has_parent] = self.proc[self.parent[has_parent]] == self.proc[has_parent]
        covered = np.bincount(self.parent[same], weights=self.dur[same], minlength=n)
        self_time = self.dur - covered
        for p in np.unique(self.parent[has_parent & ~same]):
            kids = np.flatnonzero(self.parent == p)
            lo = np.maximum(self.start[kids], self.start[p])
            hi = np.minimum(self.end[kids], self.end[p])
            order = np.argsort(lo)
            union, reach = 0.0, self.start[p]
            for a, b in zip(lo[order], hi[order]):
                a = max(a, reach)
                if b > a:
                    union += b - a
                    reach = b
            self_time[p] = self.dur[p] - union
        return self_time

    def ids(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(self.name == self.names.index(name))

    def where(self, predicate) -> np.ndarray:
        """Rows whose span name satisfies ``predicate``."""
        wanted = [i for i, nm in enumerate(self.names) if predicate(nm)]
        return np.flatnonzero(np.isin(self.name, wanted))


class Tracer:
    """Installs span-recording wrappers on a set of sites and removes them."""

    def __init__(self, vrprox, spool: Path, only=None, reference=None):
        """``only``, a predicate on span names, restricts the wrapped sites
        (the end-to-end runs wrap only :func:`is_step` sites).
        ``reference``, if given, is a timed loop returning its (start, end):
        it runs before each wrapped call, in the benchmark process and in
        pool workers, and is recorded as a :data:`REFERENCE_SPAN` span."""
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        self.sites = [
            s for s in discover_sites(vrprox) if only is None or only(span_name(s[2]))
        ]
        self.names: list[str] = sorted({span_name(fn) for _, _, fn in self.sites})
        if reference is not None:
            self.names.append(REFERENCE_SPAN)
        self._ids = {nm: i for i, nm in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.val = array("d")
        self.stack = [-1]
        self.external_parent = -1
        self.reference = reference
        self._saved: list[tuple] = []

    def _wrap(self, fn):
        nid = self._ids[span_name(fn)]
        annotate = ANNOTATE.get(span_name(fn))
        names, parents, starts, ends, vals = self.name, self.parent, self.start, self.end, self.val
        stack = self.stack
        clock = perf_counter
        reference = self.reference_span if self.reference is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if reference is not None:
                reference()
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            vals.append(annotate(args, kwargs) if annotate else 0.0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def reference_span(self) -> None:
        """Run the reference loop and record it as a span."""
        start, end = self.reference()
        self.name.append(self._ids[REFERENCE_SPAN])
        self.parent.append(self.stack[-1])
        self.start.append(start)
        self.end.append(end)
        self.val.append(0.0)

    def install(self) -> None:
        for mod, attr, fn in self.sites:
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn))
        mp_util.register_after_fork(self, Tracer._adopt_child)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _adopt_child(self) -> None:
        # In a worker that multiprocessing just forked: drop the parent's
        # spans, remember which parent span the worker's root spans belong
        # to, and write the worker's own spans when it exits.
        if not self._saved:
            return
        self.external_parent = self.stack[-1]
        for arr in (self.name, self.parent, self.start, self.end, self.val):
            del arr[:]
        del self.stack[1:]
        mp_util.Finalize(None, self._flush, exitpriority=100)

    def _flush(self) -> None:
        np.savez(
            self.spool / f"worker_{os.getpid()}.npz",
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            val=np.frombuffer(self.val),
            external_parent=np.int64(self.external_parent),
            rss_kb=np.int64(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
        )

    def table(self) -> SpanTable:
        """The parent's spans followed by each worker's, with worker parents
        remapped into the merged row numbers."""
        parts = [(
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int64),
            np.frombuffer(self.start),
            np.frombuffer(self.end),
            np.frombuffer(self.val),
        )]
        rss = []
        base = parts[0][0].size
        for path in sorted(self.spool.glob("worker_*.npz")):
            with np.load(path) as w:
                parent = w["parent"].copy()
                roots = parent < 0
                parent[~roots] += base
                parent[roots] = int(w["external_parent"])
                parts.append((w["name"], parent, w["start"], w["end"], w["val"]))
                rss.append(int(w["rss_kb"]))
                base += parent.size
        proc = np.concatenate([np.full(p[0].size, k, dtype=np.int16) for k, p in enumerate(parts)])
        cols = parts[0] if len(parts) == 1 else [np.concatenate(c) for c in zip(*parts)]
        return SpanTable(self.names, *cols, proc, rss)

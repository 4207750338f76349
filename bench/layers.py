"""Per-layer metrics from the spans of one traced pass.

A layer is a vrprox module; a span belongs to the layer of the function it
wraps (``oracle.sample_gradient`` is in ``oracle``).  ``<layer>.self_frac`` is
the layer's self time (span time not covered by child spans) over the traced
pass's wall time; worker spans run in parallel, so on ``cli_run_sigmoid`` the
shares can add up to more than 1.  Metrics of a layer the workload does not
load read 0.
"""

from __future__ import annotations

import numpy as np

ORACLE_FNS = ("sample_gradient", "draw_sample_ids", "full_gradient", "full_value",
              "minibatch_gradient")
VALIDATION_FNS = ("check_variance_recursion_step", "check_variance_recursion_unrolled",
                  "check_schedule_constraint")
DIAGNOSTICS = ("oracle.full_gradient", "oracle.full_value", "prox.psi_value")


def _ratio(num: float, den: float) -> float:
    return float(num / den) if den else 0.0


def layer_metrics(tab, wall: float, jobs: int) -> dict:
    """Name -> (value, unit) for every per-layer metric the spans give."""
    runs = tab.ids("optimizer.run")
    iters = float(tab.val[runs].sum())
    run_time = float(tab.dur[runs].sum())

    def calls(name):
        return tab.ids(name).size

    def total(name):
        return float(tab.dur[tab.ids(name)].sum())

    def layer_self(layer):
        return float(tab.self_time[tab.where(lambda nm: nm.startswith(layer + "."))].sum())

    m = {}
    in_run = np.isin(tab.parent, runs)
    diag = in_run & np.isin(tab.name, [tab.names.index(n) for n in DIAGNOSTICS if n in tab.names])
    m["optimizer.run.us_per_iter"] = (_ratio(run_time, iters) * 1e6, "us")
    m["optimizer.run.self_us_per_iter"] = (
        _ratio(float(tab.self_time[runs].sum()), iters) * 1e6, "us")
    m["optimizer.self_frac"] = (_ratio(layer_self("optimizer"), wall), "frac")
    m["optimizer.diag_frac"] = (_ratio(float(tab.dur[diag].sum()), run_time), "frac")
    m["optimizer.iterations"] = (iters, "count")
    m["optimizer.diag_full_gradients"] = (
        float(np.count_nonzero(in_run[tab.ids("oracle.full_gradient")])), "count")

    updates = tab.where(lambda nm: nm.startswith("estimators.update_"))
    m["estimators.update.self_us_per_call"] = (
        _ratio(float(tab.self_time[updates].sum()), updates.size) * 1e6, "us")
    m["estimators.init_estimator.us_per_call"] = (
        _ratio(total("estimators.init_estimator"), calls("estimators.init_estimator")) * 1e6,
        "us")
    m["estimators.self_frac"] = (_ratio(layer_self("estimators"), wall), "frac")

    for fn in ORACLE_FNS:
        name = f"oracle.{fn}"
        m[f"{name}.calls_per_iter"] = (_ratio(calls(name), iters), "count/iter")
        m[f"{name}.us_per_call"] = (_ratio(total(name), calls(name)) * 1e6, "us")
    m["oracle.self_frac"] = (_ratio(layer_self("oracle"), wall), "frac")
    m["oracle.full_gradient.bytes_computed"] = (
        float(tab.val[tab.ids("oracle.full_gradient")].sum()), "B")
    m["oracle.oracle_calls"] = (
        float(calls("oracle.sample_gradient") + tab.val[tab.ids("oracle.minibatch_gradient")].sum()),
        "count")

    m["prox.prox.calls_per_iter"] = (_ratio(calls("prox.prox"), iters), "count/iter")
    m["prox.prox.us_per_call"] = (_ratio(total("prox.prox"), calls("prox.prox")) * 1e6, "us")
    m["prox.self_frac"] = (_ratio(layer_self("prox"), wall), "frac")

    builds = tab.ids("problems.from_key")
    m["problems.from_key.calls"] = (float(builds.size), "count")
    m["problems.from_key.ms_per_call"] = (_ratio(total("problems.from_key"), builds.size) * 1e3,
                                          "ms")
    m["problems.rebuilds_per_key"] = (_ratio(builds.size, np.unique(tab.val[builds]).size),
                                      "ratio")

    experiments = tab.ids("experiment.run_experiment")
    worker_roots = (tab.proc > 0) & ((tab.parent < 0) | np.isin(tab.parent, experiments))
    m["experiment.run_experiment.s"] = (total("experiment.run_experiment"), "s")
    m["experiment.self_frac"] = (_ratio(layer_self("experiment"), wall), "frac")
    m["experiment.worker_busy_frac"] = (
        _ratio(float(tab.dur[worker_roots].sum()), jobs * total("experiment.run_experiment")),
        "frac")

    for fn in VALIDATION_FNS:
        name = f"validation.{fn}"
        m[f"{name}.calls"] = (float(calls(name)), "count")
        m[f"{name}.ms_per_call"] = (_ratio(total(name), calls(name)) * 1e3, "ms")
    m["validation.self_frac"] = (_ratio(layer_self("validation"), wall), "frac")
    m["suite.run_suite.s"] = (total("suite.run_suite"), "s")
    m["suite.self_frac"] = (_ratio(layer_self("suite"), wall), "frac")
    return m

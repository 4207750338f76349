"""Planted faults: each one must fail the ``vrprox validate`` rows that name it.

Each fault is a monkeypatch of the attribute the code calls, and each test
calls the named rows' own ``suite._check_*`` functions at full scale with
suite seed 0, as ``run_suite(quick=False, seed=0)`` would, not the whole
suite.  The rows a fault fails are those of the planted-fault table in
ROADMAP item 16.
"""

import importlib
from dataclasses import replace

import pytest

from vrprox import optimizer, suite
from vrprox.estimators import _recursion
from vrprox.prox import L1

# The module: the package's name ``prox`` is the function.
prox = importlib.import_module("vrprox.prox")

ROWS = {
    "stationarity_bound": lambda: suite._check_stationarity_bound(False, 0),
    "decay_exponent": lambda: suite._check_rate(False, 0),
    "oracle_accounting": lambda: suite._check_oracle_accounting(0),
    "sigma2_enumeration": lambda: suite._check_sigma_consistency(0),
    "prox_toolkit": lambda: suite._check_prox_properties(False, 0),
}


def _classic_momentum(monkeypatch):
    # xi at x_t passed as g_prev, in run only: v_t = beta g + (1 - beta) v_{t-1}.
    monkeypatch.setattr(optimizer, "_recursion", lambda v, g_curr, g_prev, g_zeta, weights:
                        _recursion(v, g_curr, g_curr, g_zeta, weights))


def _initial_batch_of_one(monkeypatch):
    init = optimizer.init_estimator
    monkeypatch.setattr(optimizer, "init_estimator",
                        lambda prob, x0, b_tilde, rng: init(prob, x0, 1, rng))


def _quad_sigma2_halved(monkeypatch):
    make = suite.make_quadratic

    def halved(*args, **kwargs):
        prob = make(*args, **kwargs)
        return replace(prob, sigma_bound=prob.sigma_bound / 2)

    monkeypatch.setattr(suite, "make_quadratic", halved)


def _l1_threshold_doubled(monkeypatch):
    # The soft threshold tau * lam of an L1 prox, doubled through its weight.
    operator = prox.prox_operator
    monkeypatch.setattr(prox, "prox_operator", lambda psi, tau: operator(
        L1(lam=2 * psi.lam) if isinstance(psi, L1) else psi, tau))


FAULTS = {
    "classic_momentum": (_classic_momentum, ("stationarity_bound", "decay_exponent")),
    "initial_batch_of_one": (_initial_batch_of_one,
                             ("stationarity_bound", "decay_exponent", "oracle_accounting")),
    "quad_sigma2_halved": (_quad_sigma2_halved, ("sigma2_enumeration",)),
    "l1_threshold_doubled": (_l1_threshold_doubled, ("prox_toolkit",)),
}


def test_every_row_passes_with_no_fault_planted():
    rows = {name: row() for name, row in ROWS.items()}
    assert {name: (r["check"], r["passed"]) for name, r in rows.items()} == {
        name: (name, True) for name in ROWS}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_a_planted_fault_fails_its_rows(monkeypatch, fault):
    plant, failing = FAULTS[fault]
    plant(monkeypatch)
    rows = {name: ROWS[name]() for name in failing}
    assert {name: (r["check"], r["passed"]) for name, r in rows.items()} == {
        name: (name, False) for name in failing}

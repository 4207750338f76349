"""Hand-written reference loop for the rate_sweep workload.

The same-sample recursion

    v_t = g_i(x_t) + (1 - beta) (v_{t-1} - g_i(x_{t-1})),   x_{t+1} = x_t - eta v_t

on the quadratic family (g_i(x) = x - c_i) with the zero regularizer, as plain
single-threaded numpy with diagnostics on.  It draws from the generator in
exactly the order ``vrprox.run`` does (initial batch, output index, one id per
step), so its averaged squared gradient mapping matches the library's on the
same seed; its time per iteration is the floor the library's is compared to.
"""

from __future__ import annotations

from time import perf_counter
from types import SimpleNamespace

import numpy as np

REFERENCE_S = 0.012
"""Seconds :func:`reference_loop` takes on a quiet host (a 2-vCPU Xeon VM,
Python 3.11, numpy 2.4): the speed the benchmark's timings are scaled to."""


def floor_mean_grad_map_sq(centers, cbar, sigma2, hp, seed) -> float:
    """Run T steps from x_0 = 0 and return mean_t ||G(x_t)||^2 (t = 0..T)."""
    n, p = centers.shape
    T, eta, keep = hp.T, hp.eta, 1.0 - hp.beta
    rng = np.random.Generator(np.random.PCG64(seed))
    if hp.b_tilde == 1:
        ids = rng.integers(0, n, size=1)
    else:
        ids = np.sort(rng.choice(n, size=hp.b_tilde, replace=False))
    rng.integers(0, T + 1)  # the output index, which diagnostics do not need
    x = np.zeros(p)
    v = (x - centers[ids]).mean(axis=0)

    # Only grad_map_sq is returned; the other diagnostics are filled in
    # because vrprox.run computes them too, and the floor must do the same work.
    grad_map_sq = np.empty(T + 1)
    obj = np.empty(T + 1)
    est_err_sq = np.empty(T + 1)
    step_sq = np.empty(T + 1)
    x_prev = x
    for t in range(T + 1):
        if t > 0:
            c = centers[rng.integers(0, n, size=1)[0]]
            v = (x - c) + keep * (v - (x_prev - c))
        g = x - cbar
        gg = g @ g
        grad_map_sq[t] = gg
        obj[t] = 0.5 * gg + 0.5 * sigma2
        d = v - g
        est_err_sq[t] = d @ d
        x_prev, x = x, x - eta * v
        d = x - x_prev
        step_sq[t] = d @ d
    return float(grad_map_sq.mean())


_REF_CENTERS = np.random.default_rng(0).normal(size=(100, 20))
_REF_HP = SimpleNamespace(T=1000, eta=0.05, beta=0.1, b_tilde=10)


def reference_loop() -> tuple[float, float]:
    """Time one fixed run of the loop above (100 x 20 centers, T = 1000) on
    inputs of its own; returns its (start, end) perf_counter readings.

    It reads the host's current speed: the same vrprox run takes 49 to 90 ms
    as the shared host changes state, and this loop, run next to it, takes
    longer in the same proportion (their ratio stayed within 3.87 to 4.05
    across 20-second windows while the vrprox run's median moved from 58 to
    86 ms).
    """
    t0 = perf_counter()
    floor_mean_grad_map_sq(_REF_CENTERS, _REF_CENTERS.mean(axis=0), 1.0, _REF_HP, 0)
    return t0, perf_counter()

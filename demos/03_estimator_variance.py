#!/usr/bin/env python3
"""Why the direction recursion reduces variance.

The estimator v_t = grad f_xi(x_t) + (1-beta) [v_{t-1} - grad f_xi(x_{t-1})]
trades a little bias for a lot of variance: its conditional mean-square error
contracts by (1-beta)^2 each step and only re-injects noise through the
2 beta^2 sigma^2 term.  We check the one-step bound by exact enumeration on a
finite sum, then take the exact expected error along a frozen trajectory
(the recursion is linear and its draws are independent, so it unrolls in
closed form) to watch the tracking error settle near its 2 beta sigma^2 floor.
"""

import numpy as np

from vrprox import (
    check_variance_recursion_step,
    check_variance_recursion_unrolled,
    full_gradient,
    make_quadratic,
)

prob = make_quadratic(n=50, p=10, spread=1.0, seed=0)
rng = np.random.default_rng(1)
print(f"problem: {prob.name}, sigma^2 = {prob.sigma_bound:.4f}\n")

# One step: enumerate all 50 samples -- the conditional expectation exactly.
x_prev = rng.normal(0, 1, prob.dim)
x_curr = x_prev + rng.normal(0, 0.3, prob.dim)
v_prev = full_gradient(prob, x_prev) + rng.normal(0, 0.5, prob.dim)
print("one-step tracking error bound (exact enumeration):")
print(f"{'beta':>6}  {'E||v_t - grad f||^2':>20}  {'bound':>10}")
for beta in (0.05, 0.2, 0.5, 0.9):
    rep = check_variance_recursion_step(prob, x_prev, x_curr, v_prev, beta)
    print(f"{beta:6.2f}  {rep.lhs:20.6f}  {rep.rhs:10.6f}")

# Many steps along a frozen 10-point path, the expectation in closed form.
print("\nunrolled bound along a frozen random walk (exact expectation):")
steps = rng.normal(0, 0.2, (9, prob.dim))
traj = np.vstack([rng.normal(0, 1, prob.dim), steps]).cumsum(axis=0)
print(f"{'beta':>6}  {'expected error':>14}  {'bound':>10}  {'noise floor 2*beta*sigma^2':>26}")
for beta in (0.05, 0.2, 0.5):
    rep = check_variance_recursion_unrolled(prob, traj, v0=8, beta=beta)
    floor = 2 * beta * prob.sigma_bound
    print(f"{beta:6.2f}  {rep.lhs:14.6f}  {rep.rhs:10.6f}  {floor:26.6f}")

print("\nsmaller beta tracks harder (lower floor) but forgets the past more slowly;")
print("the schedule picks beta ~ (T+1)^{-2/3} to balance the two at horizon T.")

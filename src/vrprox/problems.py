"""Synthetic finite-sum problem generators with certified constants.

Three families, all deterministic in their seed:

* ``make_quadratic``        -- f_i(x) = 0.5 ||x - c_i||^2.  Everything is
  exact: L = 1 (sample gradients are x - c_i, so gradient differences are
  x - y for every sample), sigma^2 = mean_i ||c_i - cbar||^2 at every x, and
  min f = f(cbar) = sigma^2 / 2.
* ``make_nonconvex_sigmoid`` -- binary-classification loss
  f_i(x) = s(-y_i <a_i, x>) with s the logistic sigmoid.  Smooth, bounded and
  nonconvex in x.  Certified L = max|s''| * max_i ||a_i||^2 with
  max|s''| = 1/(6 sqrt(3)) ~= 0.09623 (the logistic curvature bound).
* ``make_robust_regression`` -- f_i(x) = r_i^2 / (1 + r_i^2) with residual
  r_i = <a_i, x> - b_i, a smooth redescending loss.  Certified
  L = 2 * max_i ||a_i||^2 since |phi''(r)| = |2(1 - 3r^2)/(1 + r^2)^3| <= 2.

The two nonconvex families differ only in a scalar loss of a_i^T x: each
generates its data and hands three one-line formulas to ``_linear_model``,
which builds the closures, the certified L, sigma^2 (from the loss's slope
bound) and f_lower = 0 (both losses are >= 0), and a one-entry link memo.
The sigmoid family hands it the rows -y_i a_i in place of a_i: negation is
exact, so every margin, gradient and mean has the bits of the unfolded form,
and no call multiplies by a label.  Its instances hold that n x p matrix
beside the data ``A`` kept in ``meta``.
"""

from __future__ import annotations

import numpy as np

from .oracle import (
    ProblemInstance,
    _check_count,
    _check_positive_finite,
    _finite_array,
    _generator,
    _operand,
)

# max |s''| and max |s'| = max |s (1 - s)| (at u = 0) for the logistic
# sigmoid s(u) = 1 / (1 + exp(-u)).
SIGMOID_CURVATURE_BOUND = 1.0 / (6.0 * np.sqrt(3.0))
SIGMOID_SLOPE_BOUND = 0.25

# max |phi''| (at r = 0) and max |phi'| = max |2r / (1 + r^2)^2| (at
# r = 1/sqrt(3)) for phi(r) = r^2 / (1 + r^2).
REDESCENDING_CURVATURE_BOUND = 2.0
REDESCENDING_SLOPE_BOUND = 3.0 * np.sqrt(3.0) / 8.0

# The array kernels' scalar operands (see oracle._operand).
_ONE = _operand(1.0)


def _check_sizes(n, p) -> None:
    _check_count("n", n)
    _check_count("p", p)


def _ball_points(rng, count: int, dim: int, radius: float) -> np.ndarray:
    """Uniform points in the ball of the given radius."""
    directions = rng.standard_normal((count, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = radius * rng.random(count) ** (1.0 / dim)
    return directions * radii[:, None]


def make_quadratic(
    n: int, p: int, spread: float = 1.0, seed: int = 0, centers: np.ndarray | None = None
) -> ProblemInstance:
    """Finite sum of quadratics f_i(x) = 0.5 ||x - c_i||^2.

    Centers are uniform in the ball of radius ``spread`` unless given
    explicitly.  All constants are exact: L = 1, sigma^2 is the center scatter
    (independent of x), and f* = sigma^2 / 2 at x = cbar.
    """
    _check_sizes(n, p)
    if centers is None:
        _check_positive_finite("spread", spread)
        centers = _ball_points(_generator(seed), n, p, spread)
    else:
        _generator(seed)  # the seed goes into meta: refuse a bad one by name here too
        centers = _finite_array("centers", centers, (n, p))
    # An overflowing scatter gives inf, which ProblemInstance refuses by name.
    with np.errstate(over="ignore"):
        cbar = centers.mean(axis=0)
        sigma2 = float(np.mean(np.sum((centers - cbar) ** 2, axis=1)))
    rows = list(centers)
    half_sigma2 = 0.5 * sigma2

    def grad_rows(x, ids):
        return x - (centers[ids] if isinstance(ids, np.ndarray) else rows[ids])

    def value_sample(x, i):
        d = x - rows[i]
        return 0.5 * float(d @ d)

    def mean_grad(x):
        return x - cbar

    def mean_value(x):
        d = x - cbar
        return 0.5 * float(d.dot(d)) + half_sigma2

    return ProblemInstance(
        name=f"quadratic(n={n},p={p})",
        dim=p,
        num_components=n,
        grad_rows=grad_rows,
        value_sample=value_sample,
        lipschitz_L=1.0,
        sigma_bound=sigma2,
        f_lower=half_sigma2,
        mean_grad=mean_grad,
        mean_value=mean_value,
        # Centers above a tenth of the float range give the largest float.
        sampling_radius=min(max(10.0 * float(np.max(np.abs(centers))), 1.0), np.finfo(float).max),
        meta={"family": "quad", "n": n, "p": p, "seed": seed, "centers": centers, "cbar": cbar},
    )


def _sigmoid(u):
    """Logistic sigmoid, stable: with e = exp(-|u|) it is 1 / (1 + e) for
    u >= 0 and e / (1 + e) otherwise, so exp never overflows.  A ``float``
    (numpy float64 included) takes that branch; an array stays branch-free,
    with ``minimum(u, -u)`` as the -|u| that keeps a NaN's own bits, and one
    division of the selected numerator.  That numerator is
    ``maximum(e, u >= 0)``: 1 where u >= 0 since e <= 1, e elsewhere since
    e >= +0, and e's own NaN.  The array path works in place on the
    temporaries it allocates and never writes into ``u``."""
    if isinstance(u, float):
        if u >= 0:
            return 1.0 / (1.0 + np.exp(-u))
        e = np.exp(u)
        return e / (1.0 + e)
    e = np.negative(u)
    np.minimum(u, e, out=e)
    np.exp(e, out=e)
    s = np.maximum(e, u >= 0)
    e += _ONE
    s /= e
    return s


def _sigmoid_slope(s):
    """s (1 - s), the sigmoid's derivative at its value s; an array result
    is the one temporary ``1 - s``, scaled in place."""
    if isinstance(s, float):
        return (1.0 - s) * s
    slope = _ONE - s
    slope *= s
    return slope


def _linear_model(family: str, A: np.ndarray, curvature: float, s_max: float, link, slope,
                  loss, meta: dict) -> ProblemInstance:
    """The finite sum f_i(x) = loss(link(a_i^T x, i)) over the rows a_i of ``A``.

    ``link(z, i)`` takes z = a_i^T x for one id (a float) or for an id array
    or ``slice(None)`` (an array); ``slope(l)`` is d f_i / dz at link value
    l, so grad f_i = slope * a_i.  L = curvature * max_i ||a_i||^2 is
    certified when |d^2 f_i / dz^2| <= curvature, and sigma^2 <= E||grad f_i||^2
    <= s_max^2 * mean_i ||a_i||^2 when |slope| <= s_max; the loss is >= 0.

    One id's margin is ``row.dot(x)``; an id array's, ``np.vecdot`` of its rows
    with a point or a stack, has its bits, and the mean closures' ``A.dot(x)``
    and ``A.T.dot(w)`` have those of ``@`` (tests/test_numpy_contract.py).

    The mean gradient and value share a one-entry memo of the link over all
    n samples, keyed by the point's float64 bytes: the diagnostics ask for
    both at one point, and the second then costs a sum instead of a second
    ``A.dot(x)``.  A point changed in place, or -0.0 for 0.0, is a miss, which
    costs time, never a different result.  Key and value are stored and read
    as one tuple, so one point's key is never paired with another's link.
    """
    n, p = A.shape
    n_operand = _operand(n)
    row_sq = np.sum(A * A, axis=1)
    rows = list(A)
    memo = (None, None)

    def link_all(x):
        nonlocal memo
        key = x.tobytes()
        cached_key, value = memo
        if key != cached_key:
            value = link(A.dot(x), slice(None))
            value.flags.writeable = False
            memo = (key, value)
        return value

    def grad_rows(x, ids):
        if isinstance(ids, np.ndarray):
            a = A[ids]
            return slope(link(np.vecdot(a, x), ids))[:, None] * a
        row = rows[ids]
        return slope(link(row.dot(x), ids)) * row

    def value_sample(x, i):
        return float(loss(link(rows[i].dot(x), i)))

    def mean_grad(x):
        g = A.T.dot(slope(link_all(x)))
        g /= n_operand
        return g

    def mean_value(x):
        return float(loss(link_all(x)).sum() / n)

    return ProblemInstance(
        name=f"{family}(n={n},p={p})",
        dim=p,
        num_components=n,
        grad_rows=grad_rows,
        value_sample=value_sample,
        lipschitz_L=float(curvature * np.max(row_sq)),
        sigma_bound=float(s_max**2 * np.mean(row_sq)),
        f_lower=0.0,
        mean_grad=mean_grad,
        mean_value=mean_value,
        meta={"family": family, "n": n, "p": p, "A": A, **meta},
    )


def make_nonconvex_sigmoid(n: int, p: int, seed: int = 0) -> ProblemInstance:
    """Nonconvex binary-classification loss f_i(x) = s(-y_i <a_i, x>).

    Features a_i have ||a_i|| <= 1; labels come from a planted direction with
    flip noise.  Certified L = max|s''| * max_i ||a_i||^2 and
    sigma^2 <= max|s'|^2 * mean_i ||a_i||^2.  The kernels run on the
    sign-folded rows -y_i a_i, whose norms are the a_i's: the margin is
    their dot product with x, the link s(z) and the slope s (1 - s).
    ``meta`` keeps the data ``A`` and ``y``.
    """
    _check_sizes(n, p)
    rng = _generator(seed)
    A = _ball_points(rng, n, p, 1.0)
    w_true = rng.standard_normal(p)
    y = np.where(A @ w_true + 0.1 * rng.standard_normal(n) >= 0, 1.0, -1.0)
    return _linear_model(
        "sigmoid", A * -y[:, None], SIGMOID_CURVATURE_BOUND, SIGMOID_SLOPE_BOUND,
        link=lambda z, i: _sigmoid(z),
        slope=_sigmoid_slope,
        loss=lambda s: s,
        meta={"seed": seed, "A": A, "y": y},
    )


def make_robust_regression(n: int, p: int, seed: int = 0) -> ProblemInstance:
    """Redescending robust regression f_i(x) = r_i^2 / (1 + r_i^2).

    Targets follow a planted model with Gaussian noise plus a 10% fraction of
    gross outliers (the regime this loss is built for).  Certified
    L = 2 * max_i ||a_i||^2 and sigma^2 <= max|phi'|^2 * mean_i ||a_i||^2.
    """
    _check_sizes(n, p)
    rng = _generator(seed)
    A = _ball_points(rng, n, p, 1.0)
    w_true = rng.standard_normal(p)
    b = A @ w_true + 0.1 * rng.standard_normal(n)
    outliers = rng.random(n) < 0.1
    b = np.where(outliers, b + rng.choice([-5.0, 5.0], size=n), b)
    return _linear_model(
        "robust", A, REDESCENDING_CURVATURE_BOUND, REDESCENDING_SLOPE_BOUND,
        link=lambda z, i: z - b[i],
        # (1 + r^2)^2 as a product: ** on an int id's numpy scalar is libm pow.
        slope=lambda r: 2.0 * r / ((q := 1.0 + r * r) * q),
        loss=lambda r: r * r / (1.0 + r * r),
        meta={"seed": seed, "b": b},
    )


def parse_key(key: str) -> dict:
    """Validate a problem config key and return its fields.

    Accepted forms: ``quad:<n>:<p>:<spread>``, ``sigmoid:<n>:<p>``,
    ``robust:<n>:<p>``.
    """
    try:
        if not isinstance(key, str):
            raise ValueError("not a string")
        parts = key.strip().split(":")
        family = parts[0]
        if (family, len(parts)) not in (("quad", 4), ("sigmoid", 3), ("robust", 3)):
            raise ValueError("unrecognized form")
        fields = {"family": family, "n": int(parts[1]), "p": int(parts[2])}
        if family == "quad":
            fields["spread"] = float(parts[3])
        _check_sizes(fields["n"], fields["p"])
        if not 0.0 < fields.get("spread", 1.0) < np.inf:
            raise ValueError("spread must be positive and finite")
    except ValueError as exc:
        raise ValueError(
            f"bad problem key {key!r} ({exc}); expected "
            "quad:<n>:<p>:<spread> | sigmoid:<n>:<p> | robust:<n>:<p>"
        ) from None
    return fields


def from_key(key: str, seed: int = 0) -> ProblemInstance:
    """Build a problem from a config key (see :func:`parse_key` for forms)."""
    fields = parse_key(key)
    if fields["family"] == "quad":
        return make_quadratic(fields["n"], fields["p"], fields["spread"], seed=seed)
    if fields["family"] == "sigmoid":
        return make_nonconvex_sigmoid(fields["n"], fields["p"], seed=seed)
    return make_robust_regression(fields["n"], fields["p"], seed=seed)

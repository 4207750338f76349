"""Closed-form proximal operators for the supported convex regularizers.

The proximal operator of a proper, closed, convex function ``psi`` with step
``tau > 0`` is

    prox_{tau * psi}(z) = argmin_u { psi(u) + 1/(2 tau) * ||u - z||^2 },

the workhorse step of proximal gradient methods.  Every regularizer here is
separable (or a separable indicator), so its prox has an exact componentwise
closed form:

* ``Zero``          -- psi = 0, prox is the identity.
* ``L1``            -- psi(x) = lam * ||x||_1, prox is soft-thresholding.
* ``BoxIndicator``  -- psi = indicator of {lo <= x <= hi}, prox is clamping
                       (independent of tau).
* ``ElasticNet``    -- psi(x) = lam1 * ||x||_1 + (lam2 / 2) * ||x||^2,
                       prox is soft-thresholding followed by shrinkage
                       1 / (1 + tau * lam2).

``psi_value`` evaluates the regularizer itself.  An indicator is IEEE +inf
outside its set, so F = f + psi is +inf there by plain arithmetic: f is
never NaN or -inf at a finite point.

Both ``prox`` and ``psi_value`` work row-wise: a point of dimension p gives a
point (``psi_value``: a float), an array of shape (..., p) gives one result
per row, with the same bits as the per-row calls.

``prox_operator`` resolves the prox's closed form once, for a loop that has
already validated its inputs; ``prox`` is the same closed form behind its
input checks.  ``psi_value`` is the one evaluator of psi, checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .oracle import _check_positive_finite, _finite_array, _is_real, _operand

# Points within this distance of a box face still count as feasible; prox
# outputs are boundary-exact only up to rounding.
BOX_MEMBERSHIP_TOL = 1e-12

_ZERO = _operand(0.0)


@dataclass(frozen=True)
class Zero:
    """The zero regularizer (plain smooth minimization)."""


@dataclass(frozen=True)
class L1:
    """psi(x) = lam * ||x||_1 with lam >= 0."""

    lam: float

    def __post_init__(self):
        if not (_is_real(self.lam) and np.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"L1 weight lam must be finite and >= 0, got {self.lam!r}")


@dataclass(frozen=True)
class BoxIndicator:
    """Indicator of the box {x : lo <= x <= hi} (componentwise).

    ``lo`` and ``hi`` may be scalars (every coordinate shares the bound) or
    vectors matching the dimension of the points the regularizer is applied to.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = _finite_array("box bound lo", self.lo)
        hi = _finite_array("box bound hi", self.hi)
        if lo.shape != hi.shape:
            raise ValueError(f"box bounds shapes differ: {lo.shape} vs {hi.shape}")
        if np.any(lo > hi):
            raise ValueError("box requires lo <= hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def _check_dim(self, z: np.ndarray) -> None:
        if self.lo.ndim > 0 and z.shape[-1] != self.lo.shape[-1]:
            raise ValueError(
                f"box bounds have dimension {self.lo.shape[-1]}, "
                f"input has dimension {z.shape[-1]}"
            )


@dataclass(frozen=True)
class ElasticNet:
    """psi(x) = lam1 * ||x||_1 + (lam2 / 2) * ||x||^2 with lam1, lam2 >= 0."""

    lam1: float
    lam2: float

    def __post_init__(self):
        for name in ("lam1", "lam2"):
            v = getattr(self, name)
            if not (_is_real(v) and np.isfinite(v) and v >= 0):
                raise ValueError(f"elastic-net weight {name} must be finite and >= 0, got {v!r}")


PsiSpec = Zero | L1 | BoxIndicator | ElasticNet


def _soft_threshold(z: np.ndarray, thresh: np.ndarray) -> np.ndarray:
    """sign(z) * max(|z| - thresh, 0), computed in place in the new array
    ``|z|``; ``z`` is left as it is.  Ties |z_i| == thresh map to exactly 0.
    ``thresh`` is a 0-d float64 array, as are the kernel's other scalars; the
    product keeps sign(z) first, so a NaN input keeps its sign."""
    out = np.abs(z)
    out -= thresh
    np.maximum(out, _ZERO, out=out)
    np.multiply(np.sign(z), out, out)
    return out


def prox_operator(psi: PsiSpec, tau: float) -> Callable[[np.ndarray], np.ndarray]:
    """Resolve z -> prox_{tau * psi}(z) once, for repeated use with one step.

    The operator does no input checks (:func:`prox` is the checked entry
    point); a box's bounds must match the dimension of the points.  The
    identity of ``Zero`` returns its input itself; the others return a new
    array and leave their input as it is.  Zero, L1 and ElasticNet
    map a non-finite input to a non-finite output; the box clamps an
    infinite entry onto its face.  The threshold and shrink factor are
    resolved here as 0-d float64 operands, once per operator.
    """
    _check_positive_finite("prox step tau", tau)
    if isinstance(psi, Zero):
        return lambda z: z
    if isinstance(psi, L1):
        thresh = _operand(tau * psi.lam)
        return lambda z: _soft_threshold(z, thresh)
    if isinstance(psi, BoxIndicator):
        lo, hi = psi.lo, psi.hi
        return lambda z: np.clip(z, lo, hi)
    if isinstance(psi, ElasticNet):
        thresh, shrink = _operand(tau * psi.lam1), _operand(1.0 + tau * psi.lam2)

        def enet(z):
            out = _soft_threshold(z, thresh)
            out /= shrink
            return out

        return enet
    raise TypeError(f"unknown regularizer {type(psi).__name__}")


def prox(psi: PsiSpec, z: np.ndarray, tau: float) -> np.ndarray:
    """Evaluate prox_{tau * psi}(z).

    ``z`` is a point of dimension p, or an array of shape (..., p) to which the
    operator is applied row-wise (all supported regularizers are separable).
    The result is always a new array.
    """
    z = _finite_array("prox input", z).copy()
    operator = prox_operator(psi, tau)
    if isinstance(psi, BoxIndicator):
        psi._check_dim(z)
    if z.ndim == 0:
        # A scalar is a point of dimension 1; the in-place kernels need an array.
        return operator(z.reshape(1))[0]
    return operator(z)


def psi_value(psi: PsiSpec, x: np.ndarray) -> float | np.ndarray:
    """Evaluate psi(x); +inf outside an indicator's set.

    ``x`` is a point of dimension p, which gives a float, or an array of shape
    (..., p), which gives an array of shape (...) holding psi of each row,
    as :func:`prox` works row-wise.  Each row's value has the same bits as
    ``psi_value`` of that row alone: the rows are summed as C-contiguous.
    """
    x = np.ascontiguousarray(_finite_array("psi_value input", x))
    if isinstance(psi, Zero):
        values = np.zeros(x.shape[:-1])
    elif isinstance(psi, L1):
        values = psi.lam * np.abs(x).sum(axis=-1)
    elif isinstance(psi, BoxIndicator):
        psi._check_dim(x)
        inside = (x >= psi.lo - BOX_MEMBERSHIP_TOL) & (x <= psi.hi + BOX_MEMBERSHIP_TOL)
        values = np.where(inside.all(axis=-1), 0.0, math.inf)
    elif isinstance(psi, ElasticNet):
        values = psi.lam1 * np.abs(x).sum(axis=-1) + 0.5 * psi.lam2 * (x * x).sum(axis=-1)
    else:
        raise TypeError(f"unknown regularizer {type(psi).__name__}")
    # A point of dimension p gives a float, a stack its array of row values.
    return float(values) if x.ndim == 1 else values


def parse_psi(key: str) -> PsiSpec:
    """Build a regularizer from a config key.

    Accepted forms: ``zero``, ``l1:<lam>``, ``box:<lo>:<hi>``,
    ``enet:<lam1>:<lam2>``.
    """
    expected = "expected zero | l1:<lam> | box:<lo>:<hi> | enet:<l1>:<l2>"
    if not isinstance(key, str):
        raise ValueError(f"bad regularizer key {key!r} (not a string); {expected}")
    parts = key.strip().split(":")
    name = parts[0]
    try:
        if name == "zero" and len(parts) == 1:
            return Zero()
        if name == "l1" and len(parts) == 2:
            return L1(lam=float(parts[1]))
        if name == "box" and len(parts) == 3:
            return BoxIndicator(lo=float(parts[1]), hi=float(parts[2]))
        if name == "enet" and len(parts) == 3:
            return ElasticNet(lam1=float(parts[1]), lam2=float(parts[2]))
    except ValueError as exc:
        raise ValueError(f"bad regularizer key {key!r}: {exc}") from exc
    raise ValueError(f"bad regularizer key {key!r}; {expected}")

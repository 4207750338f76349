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

``psi_value`` evaluates the regularizer itself.  Indicator functions take the
extended value +inf outside their set; ``PSI_INFINITY`` is the marker for
that case and callers reporting objectives should test ``is_psi_infinite``
instead of doing arithmetic with it.

``prox_operator`` and ``psi_evaluator`` resolve the closed forms once, for a
loop that has already validated its inputs; ``prox`` and ``psi_value`` are
the same closed forms behind their input checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Extended-value marker: psi(x) = +infinity (x outside an indicator's set).
PSI_INFINITY = math.inf

# Points within this distance of a box face still count as feasible; prox
# outputs are boundary-exact only up to rounding.
BOX_MEMBERSHIP_TOL = 1e-12


def is_psi_infinite(value: float) -> bool:
    """True when ``value`` is the extended-value marker returned by psi_value."""
    return math.isinf(value)


@dataclass(frozen=True)
class Zero:
    """The zero regularizer (plain smooth minimization)."""


@dataclass(frozen=True)
class L1:
    """psi(x) = lam * ||x||_1 with lam >= 0."""

    lam: float

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"L1 weight must be finite and >= 0, got {self.lam}")


@dataclass(frozen=True)
class BoxIndicator:
    """Indicator of the box {x : lo <= x <= hi} (componentwise).

    ``lo`` and ``hi`` may be scalars (every coordinate shares the bound) or
    vectors matching the dimension of the points the regularizer is applied to.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("box bounds must be finite")
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
            if not (np.isfinite(v) and v >= 0):
                raise ValueError(f"elastic-net weight {name} must be finite and >= 0, got {v}")


PsiSpec = Zero | L1 | BoxIndicator | ElasticNet


def _soft_threshold(z: np.ndarray, thresh: float) -> np.ndarray:
    # Ties |z_i| == thresh map to exactly 0 (max(0, 0) below).
    return np.sign(z) * np.maximum(np.abs(z) - thresh, 0.0)


def prox_operator(psi: PsiSpec, tau: float) -> Callable[[np.ndarray], np.ndarray]:
    """Resolve z -> prox_{tau * psi}(z) once, for repeated use with one step.

    The operator does no input checks (:func:`prox` is the checked entry
    point); a box's bounds must match the dimension of the points.  The
    identity of ``Zero`` returns its input itself.  Zero, L1 and ElasticNet
    map a non-finite input to a non-finite output; the box clamps an
    infinite entry onto its face.
    """
    if not (np.isscalar(tau) or np.ndim(tau) == 0) or not (tau > 0 and np.isfinite(tau)):
        raise ValueError(f"prox step tau must be a finite positive scalar, got {tau}")
    if isinstance(psi, Zero):
        return lambda z: z
    if isinstance(psi, L1):
        thresh = tau * psi.lam
        return lambda z: _soft_threshold(z, thresh)
    if isinstance(psi, BoxIndicator):
        lo, hi = psi.lo, psi.hi
        return lambda z: np.clip(z, lo, hi)
    if isinstance(psi, ElasticNet):
        thresh, shrink = tau * psi.lam1, 1.0 + tau * psi.lam2
        return lambda z: _soft_threshold(z, thresh) / shrink
    raise TypeError(f"unknown regularizer {type(psi).__name__}")


def prox(psi: PsiSpec, z: np.ndarray, tau: float) -> np.ndarray:
    """Evaluate prox_{tau * psi}(z).

    ``z`` is a point of dimension p, or an array of shape (..., p) to which the
    operator is applied row-wise (all supported regularizers are separable).
    The result is always a new array.
    """
    z = np.array(z, dtype=float)
    if not np.isfinite(z).all():
        raise ValueError("prox input must be finite")
    operator = prox_operator(psi, tau)
    if isinstance(psi, BoxIndicator):
        psi._check_dim(z)
    return operator(z)


def psi_evaluator(psi: PsiSpec) -> Callable[[np.ndarray], float]:
    """Resolve x -> psi(x) once, for repeated use; no input checks
    (:func:`psi_value` is the checked entry point)."""
    if isinstance(psi, Zero):
        return lambda x: 0.0
    if isinstance(psi, L1):
        lam = psi.lam
        return lambda x: float(lam * np.sum(np.abs(x)))
    if isinstance(psi, BoxIndicator):
        lo, hi = psi.lo - BOX_MEMBERSHIP_TOL, psi.hi + BOX_MEMBERSHIP_TOL
        return lambda x: 0.0 if np.all(x >= lo) and np.all(x <= hi) else PSI_INFINITY
    if isinstance(psi, ElasticNet):
        lam1, lam2 = psi.lam1, psi.lam2
        return lambda x: float(lam1 * np.sum(np.abs(x)) + 0.5 * lam2 * np.sum(x * x))
    raise TypeError(f"unknown regularizer {type(psi).__name__}")


def psi_value(psi: PsiSpec, x: np.ndarray) -> float:
    """Evaluate psi(x); returns PSI_INFINITY outside an indicator's set."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("psi_value input must be finite")
    evaluate = psi_evaluator(psi)
    if isinstance(psi, BoxIndicator):
        psi._check_dim(x)
    return evaluate(x)


def add_psi(f_value: float, psi_val: float) -> float:
    """F(x) = f(x) + psi(x) with the extended-value marker handled explicitly."""
    if is_psi_infinite(psi_val):
        return PSI_INFINITY
    return f_value + psi_val


def parse_psi(key: str) -> PsiSpec:
    """Build a regularizer from a config key.

    Accepted forms: ``zero``, ``l1:<lam>``, ``box:<lo>:<hi>``,
    ``enet:<lam1>:<lam2>``.
    """
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
    raise ValueError(
        f"bad regularizer key {key!r}; expected zero | l1:<lam> | box:<lo>:<hi> | enet:<l1>:<l2>"
    )

"""Experiment configs: plain key=value documents, one key per line.

Example::

    # quadratic sweep
    problem      = quad:100:20:1.0
    problem_seed = 7
    psi          = zero
    estimator    = momentum_sarah
    T            = 100,1000
    seeds        = 20          # a bare integer is a seed COUNT
    schedule     = auto
    diagnostics  = on

Required keys: ``problem``, ``estimator``, ``T``, ``seeds``.  Defaults:
``psi=zero``, ``schedule=auto``, ``diagnostics=on``, ``problem_seed=0``.
``seeds`` is either a count (expanded deterministically from the master seed)
or an explicit comma list; write a trailing comma (``seeds = 7,``) for a
single explicit seed, and a count is at most ``MAX_SEED_COUNT``.  A horizon
is at most ``optimizer.MAX_HORIZON`` = 2**53 - 1.  A manual schedule needs
``eta``, ``beta`` and ``b_tilde``.  Every run starts at x0 = 0, so ``psi``
must be finite there: a box must contain the origin.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import problems
from .estimators import KINDS
from .optimizer import MAX_HORIZON, HyperParams
from .prox import parse_psi, psi_value


class ConfigError(ValueError):
    """Malformed experiment config; the message names the key and line."""


# Largest seed count: a count expands to that many seeds and runs up front.
MAX_SEED_COUNT = 10_000

REQUIRED_KEYS = ("problem", "estimator", "T", "seeds")
KNOWN_KEYS = REQUIRED_KEYS + (
    "problem_seed",
    "psi",
    "schedule",
    "eta",
    "beta",
    "b_tilde",
    "diagnostics",
)


@dataclass
class ExperimentConfig:
    problem: str
    estimator: str
    T: list[int]
    seeds: list[int] | int  # explicit seeds, or a count to expand
    problem_seed: int = 0
    psi: str = "zero"
    schedule: str = "auto"
    eta: float | None = None
    beta: float | None = None
    b_tilde: int | None = None
    diagnostics: bool = True
    source_text: str = field(default="", repr=False)


def _parse_int(raw: str, key: str, lineno: int, minimum: int, maximum: float = math.inf) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"line {lineno}: key {key!r} needs an integer, got {raw!r}") from None
    if value < minimum:
        raise ConfigError(f"line {lineno}: key {key!r} must be >= {minimum}, got {value}")
    if value > maximum:
        raise ConfigError(f"line {lineno}: key {key!r} must be <= {maximum}, got {value}")
    return value


def _parse_float(raw: str, key: str, lineno: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"line {lineno}: key {key!r} needs a number, got {raw!r}") from None


def _check_distinct(items: list[int], key: str, lineno: int) -> None:
    """A repeated horizon or seed would run the same runs twice and count
    them as independent in ``summary.csv``."""
    repeated = sorted(v for v, count in Counter(items).items() if count > 1)
    if repeated:
        listed = ", ".join(str(v) for v in repeated)
        raise ConfigError(f"line {lineno}: key {key!r} repeats {listed}")


def check_initial_batch(b_tilde: int, problem: str, name: str = "b_tilde") -> None:
    """The initial batch is drawn without replacement, so it needs b_tilde <= n."""
    n = problems.parse_key(problem)["n"]
    if b_tilde > n:
        raise ConfigError(f"{name} = {b_tilde} exceeds the {n} components of problem {problem!r}")


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config document; raises ConfigError with the line."""
    values: dict = {}
    lines_seen: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw_line.strip()!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(
                f"line {lineno}: key {key!r} already set on line {lines_seen[key]}"
            )
        if not raw:
            raise ConfigError(f"line {lineno}: key {key!r} has no value")
        lines_seen[key] = lineno

        if key == "problem":
            try:
                problems.parse_key(raw)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from None
            values[key] = raw
        elif key == "psi":
            try:
                psi = parse_psi(raw)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from None
            # A config's bounds are scalars, so one coordinate stands for any
            # dimension.
            if math.isinf(psi_value(psi, np.zeros(1))):
                raise ConfigError(
                    f"line {lineno}: key 'psi' = {raw!r} is infinite at the start point x0 = 0"
                )
            values[key] = raw
        elif key == "estimator":
            if raw not in KINDS:
                raise ConfigError(
                    f"line {lineno}: unknown estimator {raw!r}; "
                    f"valid kinds: {', '.join(KINDS)}"
                )
            values[key] = raw
        elif key == "T":
            parts = [p.strip() for p in raw.split(",") if p.strip()]
            values[key] = [_parse_int(p, key, lineno, minimum=1, maximum=MAX_HORIZON) for p in parts]
            if not values[key]:
                raise ConfigError(f"line {lineno}: key 'T' has no value")
            _check_distinct(values[key], key, lineno)
        elif key == "seeds":
            if "," in raw:
                parts = [p.strip() for p in raw.split(",") if p.strip()]
                values[key] = [_parse_int(p, key, lineno, minimum=0) for p in parts]
                if not values[key]:
                    raise ConfigError(f"line {lineno}: key 'seeds' has no value")
                _check_distinct(values[key], key, lineno)
            else:
                values[key] = _parse_int(raw, key, lineno, minimum=1, maximum=MAX_SEED_COUNT)
        elif key == "problem_seed":
            values[key] = _parse_int(raw, key, lineno, minimum=0)
        elif key == "schedule":
            if raw not in ("auto", "manual"):
                raise ConfigError(f"line {lineno}: schedule must be auto or manual, got {raw!r}")
            values[key] = raw
        elif key in ("eta", "beta"):
            values[key] = _parse_float(raw, key, lineno)
        elif key == "b_tilde":
            values[key] = _parse_int(raw, key, lineno, minimum=1)
        elif key == "diagnostics":
            if raw not in ("on", "off"):
                raise ConfigError(f"line {lineno}: diagnostics must be on or off, got {raw!r}")
            values[key] = raw == "on"

    for key in REQUIRED_KEYS:
        if key not in values:
            raise ConfigError(f"missing required key {key!r}")

    cfg = ExperimentConfig(source_text=text, **values)
    if cfg.schedule == "manual":
        if cfg.eta is None or cfg.beta is None or cfg.b_tilde is None:
            raise ConfigError("manual schedule requires eta, beta, b_tilde")
        try:
            HyperParams(eta=cfg.eta, beta=cfg.beta, b_tilde=cfg.b_tilde, T=cfg.T[0])
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        check_initial_batch(cfg.b_tilde, cfg.problem)
    else:
        for key in ("eta", "beta", "b_tilde"):
            if getattr(cfg, key) is not None:
                raise ConfigError(f"key {key!r} is only valid with schedule = manual")
    return cfg

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
single explicit seed.  A manual schedule needs ``eta``, ``beta`` and
``b_tilde``; the auto schedule needs a problem with certified L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import problems
from .estimators import KINDS
from .prox import parse_psi


class ConfigError(ValueError):
    """Malformed experiment config; the message names the key and line."""


REQUIRED_KEYS = ("problem", "estimator", "T", "seeds")
KNOWN_KEYS = REQUIRED_KEYS + (
    "problem_seed",
    "psi",
    "schedule",
    "eta",
    "beta",
    "b_tilde",
    "diagnostics",
    "output_dir",
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
    output_dir: str | None = None
    source_text: str = field(default="", repr=False)


def _parse_int(raw: str, key: str, lineno: int, minimum: int | None = None) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"line {lineno}: key {key!r} needs an integer, got {raw!r}") from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"line {lineno}: key {key!r} must be >= {minimum}, got {value}")
    return value


def _parse_float(raw: str, key: str, lineno: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"line {lineno}: key {key!r} needs a number, got {raw!r}") from None


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
                parse_psi(raw)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from None
            values[key] = raw
        elif key == "estimator":
            if raw not in KINDS:
                raise ConfigError(
                    f"line {lineno}: unknown estimator {raw!r}; "
                    f"valid kinds: {', '.join(KINDS)}"
                )
            values[key] = raw
        elif key == "T":
            parts = [p for p in raw.split(",") if p.strip()]
            values[key] = [_parse_int(p.strip(), key, lineno, minimum=1) for p in parts]
            if not values[key]:
                raise ConfigError(f"line {lineno}: key 'T' has no value")
        elif key == "seeds":
            if "," in raw:
                parts = [p.strip() for p in raw.split(",") if p.strip()]
                values[key] = [_parse_int(p, key, lineno, minimum=0) for p in parts]
                if not values[key]:
                    raise ConfigError(f"line {lineno}: key 'seeds' has no value")
            else:
                values[key] = _parse_int(raw, key, lineno, minimum=1)
        elif key == "problem_seed":
            values[key] = _parse_int(raw, key, lineno, minimum=0)
        elif key == "schedule":
            if raw not in ("auto", "manual"):
                raise ConfigError(f"line {lineno}: schedule must be auto or manual, got {raw!r}")
            values[key] = raw
        elif key == "eta":
            values[key] = _parse_float(raw, key, lineno)
        elif key == "beta":
            values[key] = _parse_float(raw, key, lineno)
        elif key == "b_tilde":
            values[key] = _parse_int(raw, key, lineno, minimum=1)
        elif key == "diagnostics":
            if raw not in ("on", "off"):
                raise ConfigError(f"line {lineno}: diagnostics must be on or off, got {raw!r}")
            values[key] = raw == "on"
        elif key == "output_dir":
            values[key] = raw

    for key in REQUIRED_KEYS:
        if key not in values:
            raise ConfigError(f"missing required key {key!r}")

    cfg = ExperimentConfig(source_text=text, **values)
    if cfg.schedule == "manual":
        if cfg.eta is None or cfg.beta is None or cfg.b_tilde is None:
            raise ConfigError("manual schedule requires eta, beta, b_tilde")
        if not (cfg.eta > 0 and math.isfinite(cfg.eta)):
            raise ConfigError(f"eta must be positive and finite, got {cfg.eta}")
        if not 0.0 <= cfg.beta <= 1.0:
            raise ConfigError(f"beta must lie in [0, 1], got {cfg.beta}")
        check_initial_batch(cfg.b_tilde, cfg.problem)
    else:
        for key in ("eta", "beta", "b_tilde"):
            if getattr(cfg, key) is not None:
                raise ConfigError(f"key {key!r} is only valid with schedule = manual")
    return cfg

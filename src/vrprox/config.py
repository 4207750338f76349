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

``READERS`` holds one reader per key: it takes the value's text and returns
the typed value, or raises a ValueError, and ``parse_config`` puts the line
number in front of its message.  A config is made only from its text, so
no config skips them.  The CLI's integer flags parse through ``read_int``, and
``experiment`` checks ``compare``'s estimator kinds with the table's reader.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import partial

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


def read_int(raw: str, minimum: int, maximum: float = math.inf, key: str = "") -> int:
    """An integer in [minimum, maximum]; the message names ``key`` if one is given."""
    name = f"key {key!r} " if key else ""
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"{name}needs an integer, got {raw!r}") from None
    if value < minimum:
        raise ConfigError(f"{name}must be >= {minimum}, got {value}")
    if value > maximum:
        raise ConfigError(f"{name}must be <= {maximum}, got {value}")
    return value


def _distinct_ints(raw: str, key: str, minimum: int, maximum: float = math.inf) -> list[int]:
    """A comma list of distinct integers: a repeated horizon or seed would run
    the same runs twice and count them as independent in ``summary.csv``."""
    items = [read_int(p.strip(), minimum, maximum, key) for p in raw.split(",") if p.strip()]
    if not items:
        raise ConfigError(f"key {key!r} has no value")
    repeated = sorted(v for v, count in Counter(items).items() if count > 1)
    if repeated:
        raise ConfigError(f"key {key!r} repeats {', '.join(str(v) for v in repeated)}")
    return items


def _number(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"key {key!r} needs a number, got {raw!r}") from None


def _choice(raw: str, key: str, choices: dict):
    if raw not in choices:
        raise ConfigError(f"{key} must be {' or '.join(choices)}, got {raw!r}")
    return choices[raw]


def _read_problem(raw: str) -> str:
    problems.parse_key(raw)
    return raw


def _read_psi(raw: str) -> str:
    """A regularizer key whose psi is finite at the start point x0 = 0."""
    # A config's bounds are scalars, so one coordinate stands for any
    # dimension.
    if math.isinf(psi_value(parse_psi(raw), np.zeros(1))):
        raise ConfigError(f"key 'psi' = {raw!r} is infinite at the start point x0 = 0")
    return raw


def _read_estimator(raw: str) -> str:
    if raw not in KINDS:
        raise ConfigError(f"unknown estimator {raw!r}; valid kinds: {', '.join(KINDS)}")
    return raw


# One reader per key: it takes the value's text and returns the typed value,
# or raises a ValueError (ConfigError is one) whose message follows "line N: ".
READERS = {
    "problem": _read_problem,
    "estimator": _read_estimator,
    "T": partial(_distinct_ints, key="T", minimum=1, maximum=MAX_HORIZON),
    # A comma makes a seed list; a bare integer is a count.
    "seeds": lambda raw: (_distinct_ints(raw, "seeds", minimum=0) if "," in raw
                          else read_int(raw, minimum=1, maximum=MAX_SEED_COUNT, key="seeds")),
    "problem_seed": partial(read_int, minimum=0, key="problem_seed"),
    "psi": _read_psi,
    "schedule": partial(_choice, key="schedule", choices={"auto": "auto", "manual": "manual"}),
    "eta": partial(_number, key="eta"),
    "beta": partial(_number, key="beta"),
    "b_tilde": partial(read_int, minimum=1, key="b_tilde"),
    "diagnostics": partial(_choice, key="diagnostics", choices={"on": True, "off": False}),
}


def check_initial_batch(b_tilde: int, problem: str, name: str = "b_tilde") -> None:
    """The initial batch is drawn without replacement, so it needs b_tilde <= n."""
    n = problems.parse_key(problem)["n"]
    if b_tilde > n:
        raise ConfigError(f"{name} = {b_tilde} exceeds the {n} components of problem {problem!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed config text and nothing else.

    ``ExperimentConfig(text)`` is ``parse_config(text)``: every field but
    ``source_text`` is read from the text, so ``run_meta.txt``, which records
    the text, records the config that ran.  Passing another field is a
    ``TypeError``, and ``replace()`` on one is a ``ValueError``.
    """

    source_text: str = field(repr=False)
    problem: str = field(init=False)
    estimator: str = field(init=False)
    T: list[int] = field(init=False)
    seeds: list[int] | int = field(init=False)  # explicit seeds, or a count to expand
    problem_seed: int = field(init=False, default=0)
    psi: str = field(init=False, default="zero")
    schedule: str = field(init=False, default="auto")
    eta: float | None = field(init=False, default=None)
    beta: float | None = field(init=False, default=None)
    b_tilde: int | None = field(init=False, default=None)
    diagnostics: bool = field(init=False, default=True)

    def __post_init__(self):
        lines_seen: dict = {}
        for lineno, raw_line in enumerate(self.source_text.splitlines(), start=1):
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                if "=" not in line:
                    raise ConfigError(f"expected key = value, got {raw_line.strip()!r}")
                key, _, raw = (part.strip() for part in line.partition("="))
                if key not in READERS:
                    raise ConfigError(f"unknown key {key!r}")
                if key in lines_seen:
                    raise ConfigError(f"key {key!r} already set on line {lines_seen[key]}")
                if not raw:
                    raise ConfigError(f"key {key!r} has no value")
                object.__setattr__(self, key, READERS[key](raw))
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from None
            lines_seen[key] = lineno

        for key in REQUIRED_KEYS:
            if key not in lines_seen:
                raise ConfigError(f"missing required key {key!r}")

        if self.schedule == "manual":
            if self.eta is None or self.beta is None or self.b_tilde is None:
                raise ConfigError("manual schedule requires eta, beta, b_tilde")
            try:
                HyperParams(eta=self.eta, beta=self.beta, b_tilde=self.b_tilde, T=self.T[0])
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
            check_initial_batch(self.b_tilde, self.problem)
        else:
            for key in ("eta", "beta", "b_tilde"):
                if key in lines_seen:
                    raise ConfigError(f"key {key!r} is only valid with schedule = manual")


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config document; raises ConfigError with the line."""
    return ExperimentConfig(text)

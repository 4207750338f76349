"""Digest the command-line outputs of a vrprox checkout.

Usage::

    python3 tools/output_digests.py <repo root> <out.txt>

Runs a fixed list of ``vrprox`` commands with ``<repo root>/src`` first on
``PYTHONPATH``, each in its own temporary directory, and writes one line
``<sha256>  <command>/<name>`` per output file, per stdout and per exit code
(the sha256 of its decimal text), sorted by name.  ``run`` and ``compare``
write to ``--output out``.  ``run_meta.txt`` is left out: it
records the Python and numpy versions.  One copy of this script digests any
checkout, so a byte-identity check is::

    git archive <parent> | tar -x -C /tmp/parent
    python3 tools/output_digests.py /tmp/parent parent.txt
    python3 tools/output_digests.py . change.txt
    diff parent.txt change.txt

The configs are copied from the checkout this script lives in, so both
sides of a comparison run on the same inputs; nothing is written under either
checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
CONFIGS = [
    REPO / "demos" / "configs" / "quad_sweep.cfg",
    REPO / "bench" / "sigmoid_run.cfg",
    REPO / "demos" / "configs" / "robust_run.cfg",
]


def commands() -> list[str]:
    """The fixed command list, each the argument string of one ``vrprox`` call."""
    cmds = []
    for cfg in (path.name for path in CONFIGS):
        for sub in ("run", "compare"):
            for jobs in (1, 2):
                cmds.append(f"{sub} --config {cfg} --jobs {jobs}")
    for seed in (0, 1, 2):
        cmds.append(f"validate --seed {seed}")
        cmds.append(f"validate --quick --seed {seed}")
    cmds.append("schedule --T 1000 --L 1")
    return cmds


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def vrprox_env(root: Path) -> dict:
    """The environment that imports vrprox from ``<root>/src``; exits if
    vrprox would come from anywhere else."""
    src = (root / "src").resolve()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    found = subprocess.run(
        [sys.executable, "-c", "import vrprox; print(vrprox.__file__)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(found).resolve().is_relative_to(src):
        raise SystemExit(f"vrprox resolves to {found}, not under {src}")
    return env


def _run(command: str, env: dict) -> list[str]:
    """The digest lines of one command, run in a fresh temporary directory."""
    with tempfile.TemporaryDirectory(prefix="vrprox-digest-") as tmp:
        work = Path(tmp)
        for path in CONFIGS:
            (work / path.name).write_bytes(path.read_bytes())
        output = ["--output", "out"] if command.startswith(("run ", "compare ")) else []
        proc = subprocess.run(
            [sys.executable, "-m", "vrprox", *command.split(), *output],
            cwd=work, env=env, capture_output=True,
        )
        lines = [
            f"{_sha256(proc.stdout)}  {command}/stdout",
            f"{_sha256(str(proc.returncode).encode())}  {command}/exit_code",
        ]
        out = work / "out"
        if out.is_dir():
            lines += [
                f"{_sha256(p.read_bytes())}  {command}/{p.name}"
                for p in sorted(out.iterdir())
                if p.name != "run_meta.txt"
            ]
        return lines


def digest(root: Path) -> list[str]:
    """The digest lines of every command, sorted by name."""
    env = vrprox_env(root)
    lines = []
    for command in commands():
        lines += _run(command, env)
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", type=Path, help="checkout whose src/ provides vrprox")
    parser.add_argument("out", type=Path, help="digest file to write")
    args = parser.parse_args(argv)
    lines = digest(args.root.resolve())
    args.out.write_text("".join(line + "\n" for line in lines))
    print(f"{len(lines)} digests -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

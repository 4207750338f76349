import hashlib
import importlib.util
from pathlib import Path

from vrprox.cli import main

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("output_digests", ROOT / "tools" / "output_digests.py")
output_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digests)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_output_digests_of_one_command(capsys):
    assert main(["schedule", "--T", "1000", "--L", "1"]) == 0
    stdout = capsys.readouterr().out.encode()
    lines = output_digests._run("schedule --T 1000 --L 1", output_digests.vrprox_env(ROOT))
    assert lines == [
        f"{_sha256(stdout)}  schedule --T 1000 --L 1/stdout",
        f"{_sha256(b'0')}  schedule --T 1000 --L 1/exit_code",
    ]


def test_output_digests_list_every_written_file():
    # T = 50,200 and 3 seeds: summary.csv and 6 traces; run_meta.txt is left out.
    command = "run --config robust_run.cfg --jobs 1"
    assert command in output_digests.commands()
    lines = output_digests._run(command, output_digests.vrprox_env(ROOT))
    names = [line.split("  ", 1)[1].rsplit("/", 1)[1] for line in lines]
    assert names[:3] == ["stdout", "exit_code", "summary.csv"]
    assert len(names) == 9 and all(name.startswith("trace_T") for name in names[3:])

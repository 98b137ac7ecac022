"""The scripts under scripts/ run end to end against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize(
    "argv, line",
    [
        (["reproduce_worked_examples.py"], "moduli dimension at (c=5, n=3): 35"),
        (["generator_survey.py", "--seeds", "2"], "  (c=6, n=5): attempt 1, rank 36, verified=True, terms=1"),
    ],
    ids=["worked examples", "generator survey"],
)
def test_script_runs(argv, line):
    proc = run_script(*argv)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()

"""The runnable experiments in scripts/ keep up with the package API."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_splitting_experiments_runs():
    done = subprocess.run(
        [sys.executable, "scripts/splitting_experiments.py"], cwd=ROOT,
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr

"""The runnable experiments in scripts/ and the benchmark harness in bench/
keep up with the package API."""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
# the full stdout of scripts/splitting_experiments.py, committed by hand;
# the tests only read it
GOLDEN = ROOT / "tests" / "golden" / "splitting_experiments.txt"


@pytest.mark.parametrize("script", ["splitting_experiments.py",
                                    "convergence_study.py"])
def test_script_runs(script):
    """Each script exits 0; the splitting experiment prints its golden
    output byte for byte."""
    done = subprocess.run(
        [sys.executable, f"scripts/{script}"], cwd=ROOT,
        capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    if script == "splitting_experiments.py":
        assert done.stdout == GOLDEN.read_bytes()


@pytest.mark.parametrize("workload",
                         ["exact-cli", "float-cli", "float-quadrature"])
def test_bench_workload_runs(workload):
    """One set-up and one pass of each workload, every output correct."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         "0", "--seconds", "0", "--trace", "0"], cwd=ROOT,
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["attempted"] > 0
    assert result["correct"] is True
    assert result["failed"] == 0


def test_bench_traced_run():
    """A traced run wraps package functions and methods by name, so it
    fails when one of them is renamed or deleted."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "float-cli", "--seed",
         "0", "--seconds", "0", "--trace", "1"], cwd=ROOT,
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr

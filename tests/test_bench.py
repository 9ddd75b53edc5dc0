"""The benchmark's workloads run clean: one set-up, the references and one
pass of each workload in ``bench/workloads.py``, in process, with no
operation failed or wrong.  A change that would break a benchmark run or
its output checks fails here first.  ``bench/run.py`` is not called, since
it writes its working directory into the checkout."""

import importlib.util
import pathlib
import sys

import pytest

WORKLOADS_FILE = (pathlib.Path(__file__).resolve().parents[1] / "bench"
                  / "workloads.py")


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # its dataclasses look it up there
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WORKLOADS


WORKLOADS = _load_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_pass_is_clean(tmp_path, name):
    workload = WORKLOADS[name]
    inputs = workload.setup(0, str(tmp_path))
    workload.references(inputs)
    ops = [call() for _, _, call in workload.operations(inputs, 0)]
    bad = [(op.kind, op.label, op.detail) for op in ops
           if op.failed or op.wrong]
    assert ops and not bad

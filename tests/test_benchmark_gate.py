"""The benchmark's own output check passes on this checkout.

For each chain workload of ``perfbench/workloads.py``, one round of its
operations runs in-process through ``cli.main`` in a temporary directory, and
the workload's ``check`` (the goldens at the benchmark's tolerances) must
report no failed operation. ``dense-n10`` is left to the benchmark, because
its independent oracle takes about 10 s to build. Nothing under
``perfbench/`` is changed.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from annealgap import cli

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    """``perfbench/workloads.py`` as a module, without putting its directory on sys.path."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["chain-analyze", "chain-sweep"])
def test_workload_outputs_pass_the_benchmark_check(name, tmp_path, monkeypatch):
    workload = load_workloads().WORKLOADS[name]()
    workload.prepare(tmp_path, 0)
    monkeypatch.chdir(tmp_path)
    ops = workload.round(random.Random(0))
    assert ops
    for op in ops:
        attempted, failed, errors = workload.check(tmp_path, op, cli.main(op.args))
        assert attempted == workload.operations
        assert failed == 0, errors

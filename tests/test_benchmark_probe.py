"""The benchmark's set-up probe runs against this checkout's package.

``perfbench/setup_probe.py`` imports ``annealgap`` from ``src/`` and builds its
first H(s) through ``hamiltonian_at(...).matrix``, so removing that function or
``DenseOperator`` fails here, not only when the benchmark runs. The probe
either generates the chain itself or loads a saved problem file, converting a
QUBO first; both branches run here.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from annealgap import MisChainSpec, mis_chain, save_problem
from conftest import random_ising

PROBE = Path(__file__).resolve().parent.parent / "perfbench" / "setup_probe.py"


def run_probe(source: str) -> None:
    result = subprocess.run(
        [sys.executable, str(PROBE), source],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_setup_probe_runs_on_the_chain():
    run_probe("chain:0.04")


@pytest.mark.parametrize(
    "problem",
    [
        pytest.param(mis_chain(MisChainSpec(0.04)), id="qubo-chain"),
        pytest.param(random_ising(np.random.default_rng(10), 10), id="ising-n10"),
    ],
)
def test_setup_probe_runs_on_a_problem_file(problem, tmp_path):
    path = tmp_path / "problem.json"
    save_problem(problem, path)
    run_probe(str(path))

"""The benchmark's set-up probe runs against this checkout's package.

``perfbench/setup_probe.py`` imports ``annealgap`` from ``src/`` and builds its
first H(s) through ``hamiltonian_at(...).matrix``, so removing that function or
``DenseOperator`` fails here, not only when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

PROBE = Path(__file__).resolve().parent.parent / "perfbench" / "setup_probe.py"


def test_setup_probe_runs_on_the_chain():
    result = subprocess.run(
        [sys.executable, str(PROBE), "chain:0.04"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr

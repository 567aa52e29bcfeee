"""Set-up probe: what a fresh interpreter does before its first useful result.

    python3 perfbench/setup_probe.py PROBLEM.json
    python3 perfbench/setup_probe.py chain:DELTA_B

Imports ``annealgap`` and ``annealgap.cli``, loads the problem file (or
generates the chain instance, as ``sweep`` does), builds the stoquastic
schedule, and makes the first H(s) and the first eigensolve. The benchmark
times the whole process from outside.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import annealgap  # noqa: E402
import annealgap.cli  # noqa: E402,F401


def main(source: str) -> int:
    if source.startswith("chain:"):
        spec = annealgap.MisChainSpec(float(source.removeprefix("chain:")))
        problem = annealgap.mis_chain(spec)
    else:
        problem = annealgap.load_problem(source)
    if isinstance(problem, annealgap.QuboProblem):
        problem = annealgap.qubo_to_ising(problem)
    sched = annealgap.ScheduleSpec(problem=problem)
    levels = np.linalg.eigvalsh(annealgap.hamiltonian_at(sched, 0.5).matrix)
    return 0 if levels[1] > levels[0] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

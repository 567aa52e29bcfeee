"""Capture the reference outputs that ``run.py`` compares every run against.

    python3 perfbench/capture_golden.py

Runs each workload's invocations once (``dense-n10`` at its default seed)
and stores ``report.json`` and ``summary.csv`` as they are and the large
``gaps.csv`` and ``overlaps.csv`` gzip-compressed, under ``golden/<workload>``.
Run it only at a commit whose outputs are the reference; see README.md for
the commit the checked-in goldens come from.
"""

from __future__ import annotations

import gzip
import random
import shutil
import subprocess
import sys

from run import ROOT, child_env
from workloads import DENSE_DEFAULT_SEED, GOLDEN, WORKLOADS


def main() -> int:
    env = child_env()
    for name, cls in WORKLOADS.items():
        workload = cls()
        work = ROOT / ".perfbench_work" / f"golden-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        workload.prepare(work, DENSE_DEFAULT_SEED)
        dest = GOLDEN / name
        dest.mkdir(parents=True, exist_ok=True)
        for op in workload.round(random.Random(DENSE_DEFAULT_SEED)):
            argv = [sys.executable, "-m", "annealgap.cli", *op.args]
            if subprocess.run(argv, cwd=work, env=env).returncode != 0:
                print(f"error: {name} {op.label} failed", file=sys.stderr)
                return 1
            for out in op.outputs:
                if out.endswith(("gaps.csv", "overlaps.csv")):
                    with open(dest / f"{out}.gz", "wb") as raw, gzip.GzipFile(
                        filename="", mode="wb", fileobj=raw, mtime=0
                    ) as gz:
                        gz.write((work / out).read_bytes())
                else:
                    shutil.copyfile(work / out, dest / out)
        print(f"captured {name} into {dest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

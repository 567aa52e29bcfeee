"""Outside-in benchmark of the ``annealgap`` command line.

    python3 perfbench/run.py --workload chain-analyze --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``chain-analyze``,
``chain-sweep`` and ``dense-n10``. Each round runs the workload's CLI
invocations one after another in fresh child processes, and rounds repeat
until ``--seconds`` of round time have been measured. Every invocation's
outputs are checked against goldens or an oracle before the next one starts;
checking is not timed.

``--trace 0`` measures untraced rounds and prints the end-to-end metrics:
set-up time (median of fresh-interpreter probes), and per round the wall
time, the CPU time (user + sys of the children) and the largest peak RSS,
each as the median over rounds, plus the share of operations that passed.

``--trace 1`` alternates untraced and traced rounds. A traced round runs each
invocation under the span tracer (``child.py``, ``tracer.py``), which records
spans around every package function and eigensolve; the per-layer metrics
are medians over the traced rounds. ``trace.overhead_s`` is computed per
traced round from the tracer's own cost: its installation, the spans times
the cost of one wrapper call (measured on a no-op in this process), and
writing the spans out. The traced minus the untraced median round wall time
is printed as well, but with a few rounds per run it is mostly noise.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Lines before it start with ``#``
and carry the environment and the sample details. Scratch files go to
``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import merge, span_cost, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 7
COUNT_UNITS = ("count", "B")
COUNT_SUFFIXES = ("_calls", ".cells", ".cells_failed", ".spans")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run_process(argv: list[str], cwd: Path, env: dict) -> tuple[float, float, float, int]:
    """Wall seconds, CPU seconds, ``ru_maxrss`` in MB and exit code of one child.

    On Linux ``ru_maxrss`` is at least this process's own high-water mark, so
    ``child.py`` reports the child's peak RSS itself.
    """
    with open(cwd / "stderr.log", "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = out.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "MKL_NUM_THREADS": os.environ.get("MKL_NUM_THREADS"),
        "blas": blas,
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "python": platform.python_version(),
        "cpu": cpu,
        "commit": commit,
    }


class Runner:
    def __init__(self, workload, work: Path, seed: int):
        self.workload = workload
        self.work = work
        self.env = child_env()
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.op_counts: dict[str, dict] = {}
        self.span_cost = 0.0

    def setup_probe(self) -> float:
        argv = [sys.executable, str(HERE / "setup_probe.py"), self.workload.setup_source()]
        wall, _, _, rc = run_process(argv, self.work, self.env)
        if rc != 0:
            raise SystemExit(f"set-up probe exited {rc}; see {self.work / 'stderr.log'}")
        return wall

    def round(self, index: int, traced: bool) -> dict:
        """Run one round; returns wall, cpu, rss and, when traced, layer totals."""
        wall = cpu = rss = 0.0
        parts = []
        points = 0
        for i, op in enumerate(self.workload.round(self.rng)):
            for name in op.outputs:
                (self.work / name).unlink(missing_ok=True)
            spans_path = self.work / "spans.json"
            rss_path = self.work / "rss.txt"
            rss_path.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "child.py"), str(rss_path),
                    str(spans_path) if traced else "-", f"r{index}.o{i}", *op.args]
            op_wall, op_cpu, op_rss, rc = run_process(argv, self.work, self.env)
            if rss_path.exists():
                op_rss = int(rss_path.read_text()) / 1024.0
            wall, cpu, rss = wall + op_wall, cpu + op_cpu, max(rss, op_rss)
            attempted, failed, errors = self.workload.check(self.work, op, rc)
            self.attempted += attempted
            self.failed += failed
            self.errors += errors
            if traced and spans_path.exists():
                spans = json.loads(spans_path.read_text())
                spans_path.unlink()
                part = summarize(spans, op.workers)
                root, dump = spans[0], spans[-1]
                # Interpreter start and exit happen outside the root span;
                # writing the spans out is tracing overhead, not start-up.
                part["cli.startup_s"] += op_wall - (root[3] - root[2]) - (dump[3] - dump[2])
                part["cli.bytes_written"] = sum(
                    (self.work / name).stat().st_size
                    for name in op.outputs
                    if (self.work / name).exists()
                )
                self.op_counts.setdefault(op.label, counts_of(part))
                parts.append(part)
                points += op.points
        out = {"wall": wall, "cpu": cpu, "rss": rss}
        if traced:
            layers = merge(parts)
            solves = sum(layers.get(k, 0) for k in (
                "spectral.eigh_calls", "spectral.eigvalsh_calls", "overlaps.eigh_calls"))
            layers["spectral.solves_per_point"] = solves / points if points else 0.0
            capacity = layers.get("cli.sweep_capacity_s", 0.0)
            layers["cli.parallel_efficiency"] = (
                layers.get("cli.cell_busy_s", 0.0) / capacity if capacity else 0.0
            )
            layers["trace.wall_s"] = wall
            layers["trace.overhead_s"] = (
                layers.get("trace.install_s", 0.0)
                + layers.get("trace.dump_s", 0.0)
                + layers["trace.spans"] * self.span_cost
            )
            out["layers"] = layers
        return out


def counts_of(layers: dict) -> dict:
    return {k: int(v) for k, v in sorted(layers.items()) if k.endswith(COUNT_SUFFIXES)}


def describe(name: str, values: list[float], unit: str) -> str:
    """Median, quartiles and the tail the sample count allows."""
    n = len(values)
    text = f"# {name}: median {statistics.median(values):.6g} {unit} over {n} samples"
    if n >= 2:
        q = statistics.quantiles(values, n=4)
        text += f", quartiles {q[0]:.6g}..{q[2]:.6g}, max {max(values):.6g}"
    # The highest percentile with at least ten samples beyond it.
    tails = [p for p in (99, 90, 75) if n * (100 - p) / 100 >= 10]
    if tails:
        p = tails[0]
        text += f", p{p} {statistics.quantiles(values, n=100)[p - 1]:.6g}"
    else:
        text += "; too few samples for a tail percentile"
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "annealgap" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no annealgap source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    workload = WORKLOADS[args.workload]()
    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    start = time.perf_counter()
    workload.prepare(work, args.seed)
    print(f"# {workload.name} seed {args.seed}: inputs ready in {time.perf_counter() - start:.2f} s")
    if workload.note:
        print(f"# {workload.note}")

    runner = Runner(workload, work, args.seed)
    if args.trace:
        runner.span_cost = span_cost()
    runner.setup_probe()  # warm-up: bytecode compile and file cache, not timed
    # Set-up probes are spread over the run (two first, one after each round,
    # the rest at the end): a shared host's speed can drift over tens of seconds.
    setups = [] if args.trace else [runner.setup_probe() for _ in range(2)]

    plain, traced = [], []
    measured = 0.0
    while measured < args.seconds or not plain or (args.trace and not traced):
        plain.append(runner.round(len(plain) + len(traced), traced=False))
        measured += plain[-1]["wall"]
        if args.trace:
            traced.append(runner.round(len(plain) + len(traced), traced=True))
            measured += traced[-1]["wall"]
        else:
            setups.append(runner.setup_probe())
    while not args.trace and len(setups) < SETUP_PROBES:
        setups.append(runner.setup_probe())

    samples: dict[str, list[float]] = {}
    if args.trace:
        for key in {k for r in traced for k in r["layers"]}:
            samples[key] = [r["layers"].get(key, 0.0) for r in traced]
        plain_walls = [r["wall"] for r in plain]
        print(f"# trace: one wrapper call costs {runner.span_cost * 1e6:.3f} us; "
              f"traced minus untraced median round wall "
              f"{statistics.median(samples['trace.wall_s']) - statistics.median(plain_walls):.4g} s, "
              f"untraced rounds range {max(plain_walls) - min(plain_walls):.4g} s")
        for label, counts in sorted(runner.op_counts.items()):
            print(f"# counts {label}: " + " ".join(f"{k}={v}" for k, v in counts.items()))
        for key in sorted(samples):
            if key.endswith(COUNT_SUFFIXES) and len(set(samples[key])) > 1:
                print(f"# WARNING {key} differs between traced rounds: {samples[key]}")
    else:
        samples = {
            "setup_s": setups,
            "wall_s": [r["wall"] for r in plain],
            "cpu_s": [r["cpu"] for r in plain],
            "peak_rss_mb": [r["rss"] for r in plain],
            "ok_ops_frac": [1.0 - runner.failed / runner.attempted],
        }

    metrics = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        values = samples.get(name, [0.0])
        value = statistics.median(values)
        if unit in COUNT_UNITS:
            value = int(round(value))
        metrics[name] = {"value": value, "unit": unit}
        if len(values) > 1 or unit == "s":
            print(describe(name, values, unit))

    for message in runner.errors[:20]:
        print(f"mismatch: {message}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0 and not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark over several seeds and record medians, quartiles and spreads.

    python3 perfbench/baseline.py --out perfbench/results/NAME.json

Every workload of ``BENCHMARK.json`` runs for its ``run_seconds``. Ten
untraced runs (seeds 1..10) give every end-to-end metric as the median of the
per-run values, with the quartiles and the spread (quartile distance over
median, from ``statistics.quantiles(values, n=4)``), which ``BENCHMARK.json``
bounds. Two traced runs (seeds 1, 2) give the per-layer breakdown; the counts
of every traced run must agree exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from run import HERE, ROOT, environment

RUNS = 10
TRACED_RUNS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"env": environment(), "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        started = time.perf_counter()
        runs = [run_once(workload, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        end_to_end = {
            name: spread([r["metrics"][name]["value"] for r in runs]) for name in bounds
        }
        traced = [run_once(workload, seed, seconds, 1) for seed in range(1, TRACED_RUNS + 1)]
        per_layer = {}
        for entry in spec["per_layer"]:
            values = [r["metrics"][entry["name"]]["value"] for r in traced]
            if entry["unit"] == "count" and len(set(values)) > 1:
                print(f"{workload}: {entry['name']} differs between traced runs: {values}")
            per_layer[entry["name"]] = {"unit": entry["unit"], "values": values}
        record["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs + traced),
            "attempted": sum(r["attempted"] for r in runs + traced),
            "failed": sum(r["failed"] for r in runs + traced),
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "elapsed_s": time.perf_counter() - started,
        }
        print(f"{workload}: {time.perf_counter() - started:.0f} s", flush=True)
        for name, s in end_to_end.items():
            flag = "" if name == "setup_s" or s["spread"] <= bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {name:12s} median {s['median']:.6g}  spread {s['spread']:.4f}"
                  f"  (bound {bounds[name]}){flag}", flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

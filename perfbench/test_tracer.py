"""Self-test of the benchmark: exact tracer counts, metric names, dense oracle.

    python3 perfbench/test_tracer.py          # or: python3 -m pytest perfbench

The counts are those of the seed commit's stoquastic chain ``analyze`` at
grid 2001: 2018 ``eigvalsh`` (2001 scan + 17 golden-section), 4023 ``eigh``
(2022 in ``epsilon`` + 2001 in ``overlap_trace``) and 6041 ``hamiltonian_at``.
A change to the program that alters them must update this test with it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, child_env, run_process  # noqa: E402
from tracer import summarize  # noqa: E402
from workloads import CHAIN_004, DENSE_DEFAULT_SEED, GOLDEN, DenseN10, _golden_text  # noqa: E402

SELF_TIME_KEYS = (
    "problems.load_s", "eltip.transform_s", "operators.build_s",
    "operators.hamiltonian_s", "operators.derivative_s", "spectral.gap_trace_s",
    "spectral.refine_s", "spectral.fit_s", "spectral.epsilon_s", "spectral.eig_s",
    "overlaps.trace_s", "overlaps.eig_s", "cli.self_s", "cli.startup_s", "trace.install_s",
)


def _scratch(name: str) -> Path:
    path = ROOT / ".perfbench_work" / "selftest" / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def test_stoquastic_chain_counts_and_accounting():
    work = _scratch("counts")
    (work / "chain004.json").write_text(json.dumps(CHAIN_004))
    argv = [sys.executable, str(HERE / "child.py"), str(work / "rss.txt"),
            str(work / "spans.json"), "t0", "analyze", "--problem", "chain004.json",
            "--driver", "stoq", "--grid", "2001", "--out", "stoq_"]
    wall, _, _, rc = run_process(argv, work, child_env())
    assert rc == 0
    spans = json.loads((work / "spans.json").read_text())
    m = summarize(spans)
    assert m["spectral.eigvalsh_calls"] == 2018
    assert m["spectral.eigh_calls"] == 2022
    assert m["overlaps.eigh_calls"] == 2001
    assert "overlaps.eigvalsh_calls" not in m
    assert m["operators.hamiltonian_calls"] == 6041
    assert m["operators.derivative_calls"] == 1
    assert "cli.cells" not in m
    # 6041 H(s), one dH/ds and the 2 cached operators (problem, transverse), all 32 x 32.
    assert m["operators.matrix_bytes"] == (6041 + 1 + 2) * 8 * 32 * 32
    # Self times of all spans (the root's is the import time) add up to the
    # process lifetime minus interpreter start/exit and the span encoding.
    root, dump = spans[0], spans[-1]
    total = sum(m.get(k, 0.0) for k in SELF_TIME_KEYS)
    assert abs(total - (root[3] - root[2])) < 1e-6 * len(spans)
    assert total + (dump[3] - dump[2]) < wall


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_smoke_run_emits_every_declared_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "chain-analyze",
             "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
            capture_output=True, text=True, check=True,
        )
        result = _last_json(out.stdout)
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            d["name"]: d["unit"] for d in declared
        }
        if trace:
            assert result["metrics"]["spectral.eigvalsh_calls"]["value"] == 3 * 2018
            assert result["metrics"]["operators.hamiltonian_calls"]["value"] == 3 * 6041


def test_benchmark_refuses_a_tree_without_the_program():
    bare = _scratch("bare")
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain-analyze", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""


def test_dense_default_seed_golden_passes_the_oracle_check():
    """The seed commit's dense-n10 outputs agree with the independent oracle."""
    work = _scratch("dense")
    workload = DenseN10()
    workload.prepare(work, DENSE_DEFAULT_SEED)
    op = workload.round(None)[0]
    for name in op.outputs:
        golden = GOLDEN / "dense-n10" / name
        text = golden.read_text() if golden.exists() else _golden_text(Path(f"{golden}.gz"))
        (work / name).write_text(text)
    assert workload.check(work, op, 0) == (1, 0, [])
    # A level off by 1e-8, beyond the 1e-9 tolerance, or a NaN level (the
    # program writes NaN as "nan") fails the operation.
    gaps = work / "dense_gaps.csv"
    pristine = gaps.read_text()
    for column, corrupt in ((1, lambda x: repr(float(x) + 1e-8)), (2, lambda x: "nan"),
                            (0, lambda x: "nan")):
        lines = pristine.splitlines()
        cells = lines[5].split(",")
        cells[column] = corrupt(cells[column])
        lines[5] = ",".join(cells)
        gaps.write_text("\n".join(lines) + "\n")
        attempted, failed, errors = workload.check(work, op, 0)
        assert (attempted, failed) == (1, 1) and "dense_gaps.csv" in errors[0], errors
    # At s = 0 the first excited level is degenerate, so epsilon may also be
    # any value the start point's element can reach, and nothing else.
    lo, hi = workload.reference.epsilon_from_start
    for value in (workload.reference.epsilon, lo, (lo + hi) / 2, hi):
        assert workload._check_epsilon(value) == [], value
    for value in (lo - 1e-6, hi + 1e-6):
        assert workload._check_epsilon(value), value


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")

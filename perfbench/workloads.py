"""The three workloads: their inputs, their operations and their output checks.

Every workload runs the ``annealgap`` command line in child processes with
the working directory set to the workload's scratch directory, so reports
record relative problem paths. An operation is one ``analyze`` invocation or
one ``sweep`` cell; ``check`` returns how many operations an invocation
attempted and how many failed. An operation fails when its process exits
non-zero, when a sweep row carries an error, or when an output falls outside
the tolerance of its reference:

- levels, gaps and overlaps: ``ATOL`` = 1e-9 absolute. ``eigh`` and
  ``eigvalsh`` already disagree by up to 2.3e-14 on the chain, so byte
  equality would fail a correct change of eigensolver;
- ``s_star``: within the run's ``s_tol`` (1e-6);
- ``t_approx`` and ``ratio_vs_stoq``: the relative error that ``ATOL`` on
  ``delta_min`` implies;
- flags, provenance and CSV headers: exact.

The chain workloads compare against goldens captured from the seed commit
(``golden/``, written by ``capture_golden.py``). ``dense-n10`` draws a new
instance per seed, so its reference comes from an independent dense oracle in
this file, and the default seed is also compared against its golden.
"""

from __future__ import annotations

import csv
import gzip
import io
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"

ATOL = 1e-9
S_TOL = 1e-6
CHAIN_GRID = 2001
DENSE_GRID = 21
DENSE_DEFAULT_SEED = 0
LEVELS = 6

#: The delta_b = 0.04 weighted-path chain (README "Problem file schema").
CHAIN_004 = {
    "form": "qubo",
    "n": 5,
    "quadratic": [[0, 1, 6.08], [1, 2, 6.08], [2, 3, 6.08], [3, 4, 6.08]],
    "linear": [-4.0, -5.96, -4.0, -6.0, -4.0],
    "offset": 0.0,
}

ANALYZE_VARIANTS = {
    "stoq": ["--driver", "stoq"],
    "nonstoq": ["--driver", "nonstoq"],
    "k0": ["--k", "0"],
}

SWEEP_DELTA_BS = "0.01,0.04"
SWEEP_WORKERS = 1
SWEEP_CELLS = 14


@dataclass
class Op:
    """One CLI invocation: its arguments, the files it writes, its size."""

    label: str
    args: list[str]
    outputs: list[str]
    points: int  # grid points x schedules, the base of solves_per_point
    workers: int = 1


# --------------------------------------------------------------------------
# Comparisons


def _read_csv(text: str) -> tuple[list[str], np.ndarray]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], np.array(rows[1:], dtype=float).reshape(len(rows) - 1, -1)


def compare_table(path: Path, header: list[str], ref: np.ndarray) -> list[str]:
    """Header exact, first column (s) to 1e-12, every other column to ATOL."""
    got_header, got = _read_csv(path.read_text(encoding="utf-8"))
    if got_header != header:
        return [f"{path.name}: header {got_header} != {header}"]
    if got.shape != ref.shape:
        return [f"{path.name}: shape {got.shape} != {ref.shape}"]
    # Written as "not <=" so that a NaN cell fails the check.
    errors = []
    if not np.all(np.abs(got[:, 0] - ref[:, 0]) <= 1e-12):
        errors.append(f"{path.name}: grid differs")
    diff = np.abs(got[:, 1:] - ref[:, 1:])
    if not np.all(diff <= ATOL):
        worst = float(np.max(diff))
        errors.append(f"{path.name}: max abs error {worst:.3e} > {ATOL:g}")
    return errors


def _close(name: str, got, want, atol: float, rtol: float = 0.0) -> list[str]:
    if got is None or want is None:
        return [] if got is want else [f"{name}: {got!r} != {want!r}"]
    if abs(got - want) <= atol + rtol * abs(want):
        return []
    return [f"{name}: {got!r} != {want!r} (atol {atol:g}, rtol {rtol:g})"]


def _t_rtol(delta_min: float) -> float:
    """Relative error of delta^-2 implied by ATOL on delta."""
    return 2.0 * ATOL / delta_min + 1e-11


EXACT_REPORT_KEYS = (
    "driver", "grid", "interior", "k", "lambda_path", "levels", "normalizer",
    "problem", "problem_form", "s_tol",
)


def compare_report(path: Path, want: dict) -> list[str]:
    got = json.loads(path.read_text(encoding="utf-8"))
    if sorted(got) != sorted(want):
        return [f"{path.name}: keys {sorted(got)} != {sorted(want)}"]
    errors = []
    for key in EXACT_REPORT_KEYS:
        if got[key] != want[key]:
            errors.append(f"{key} {got[key]!r} != {want[key]!r}")
    errors += _close("s_star", got["s_star"], want["s_star"], S_TOL)
    errors += _close("delta_min", got["delta_min"], want["delta_min"], ATOL)
    errors += _close("epsilon", got["epsilon"], want["epsilon"], ATOL)
    errors += _close(
        "t_approx", got["t_approx"], want["t_approx"], 0.0, _t_rtol(want["delta_min"])
    )
    gh, wh = got["hyperbola"], want["hyperbola"]
    if (gh is None) != (wh is None):
        errors.append(f"hyperbola {gh!r} != {wh!r}")
    elif wh is not None:
        for key in ("A", "B", "E_center", "residual"):
            errors += _close(f"hyperbola.{key}", gh[key], wh[key], ATOL, 1e-6)
    return [f"{path.name}: {e}" for e in errors]


def _golden_text(path: Path) -> str:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return fh.read()


def compare_to_golden(work: Path, prefix: str, golden_dir: Path) -> list[str]:
    """Compare ``<prefix>gaps.csv``, ``overlaps.csv`` and ``report.json``."""
    errors = []
    for name in ("gaps.csv", "overlaps.csv"):
        header, ref = _read_csv(_golden_text(golden_dir / f"{prefix}{name}.gz"))
        errors += compare_table(work / f"{prefix}{name}", header, ref)
    want = json.loads((golden_dir / f"{prefix}report.json").read_text(encoding="utf-8"))
    errors += compare_report(work / f"{prefix}report.json", want)
    return errors


def compare_summary(path: Path, golden: Path) -> tuple[int, list[str]]:
    """Failed sweep cells and messages; a cell fails on an error or a mismatch."""
    with open(golden, encoding="utf-8") as fh:
        want = list(csv.DictReader(fh))
    with open(path, encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != list(want[0]):
            return len(want), [f"summary header {reader.fieldnames}"]
        got = {(r["delta_b"], r["method"]): r for r in reader}
    stoq_dmin = {w["delta_b"]: float(w["delta_min"]) for w in want if w["method"] == "stoquastic"}
    failed, errors = 0, []
    for w in want:
        key = (w["delta_b"], w["method"])
        g = got.get(key)
        if g is None:
            cell = ["missing row"]
        elif g["error"]:
            cell = [f"error {g['error']!r}"]
        else:
            dmin = float(w["delta_min"])
            cell = (
                _close("s_star", float(g["s_star"]), float(w["s_star"]), S_TOL)
                + _close("delta_min", float(g["delta_min"]), dmin, ATOL)
                + _close("t_approx", float(g["t_approx"]), float(w["t_approx"]), 0.0, _t_rtol(dmin))
                + _close("epsilon", float(g["epsilon"]), float(w["epsilon"]), ATOL)
                + _close(
                    "ratio_vs_stoq",
                    float(g["ratio_vs_stoq"]),
                    float(w["ratio_vs_stoq"]),
                    0.0,
                    _t_rtol(dmin) + _t_rtol(stoq_dmin[w["delta_b"]]),
                )
                + ([] if g["interior"] == w["interior"] else [f"interior {g['interior']}"])
            )
            cell = [f"{key}: {e}" for e in cell]
        failed += bool(cell)
        errors += cell
    return failed, errors


# --------------------------------------------------------------------------
# Workloads


class Workload:
    name = ""
    note = ""
    #: Operations per invocation: one per ``analyze``, one per sweep cell.
    operations = 1

    def prepare(self, work: Path, seed: int) -> None:
        """Write the inputs into ``work`` and load the references."""

    def setup_source(self) -> str:
        """Argument of ``setup_probe.py`` for this workload."""
        raise NotImplementedError

    def round(self, rng: random.Random) -> list[Op]:
        raise NotImplementedError

    def compare(self, work: Path, op: Op) -> tuple[int, list[str]]:
        """Failed operations and messages for the outputs of a clean exit."""
        raise NotImplementedError

    def check(self, work: Path, op: Op, returncode: int) -> tuple[int, int, list[str]]:
        """Operations attempted, operations failed, and why."""
        n = self.operations
        if returncode != 0:
            return n, n, [f"{op.label}: exit {returncode}"]
        try:
            failed, errors = self.compare(work, op)
        except (OSError, ValueError, TypeError, KeyError, IndexError, csv.Error) as exc:
            return n, n, [f"{op.label}: unreadable output: {exc!r}"]
        return n, failed, errors


class ChainAnalyze(Workload):
    name = "chain-analyze"

    def prepare(self, work, seed):
        (work / "chain004.json").write_text(json.dumps(CHAIN_004, indent=2) + "\n")

    def setup_source(self):
        return "chain004.json"

    def round(self, rng):
        labels = list(ANALYZE_VARIANTS)
        rng.shuffle(labels)
        return [
            Op(
                label,
                ["analyze", "--problem", "chain004.json", *ANALYZE_VARIANTS[label],
                 "--grid", str(CHAIN_GRID), "--out", f"{label}_"],
                [f"{label}_gaps.csv", f"{label}_overlaps.csv", f"{label}_report.json"],
                CHAIN_GRID,
            )
            for label in labels
        ]

    def compare(self, work, op):
        errors = compare_to_golden(work, f"{op.label}_", GOLDEN / self.name)
        return int(bool(errors)), errors


class ChainSweep(Workload):
    name = "chain-sweep"
    operations = SWEEP_CELLS

    def setup_source(self):
        return "chain:0.01"

    def round(self, rng):
        return [
            Op(
                "sweep",
                ["sweep", "--delta-b", SWEEP_DELTA_BS, "--grid", str(CHAIN_GRID),
                 "--workers", str(SWEEP_WORKERS), "--out", "summary.csv"],
                ["summary.csv"],
                CHAIN_GRID * SWEEP_CELLS,
                SWEEP_WORKERS,
            )
        ]

    def compare(self, work, op):
        return compare_summary(work / "summary.csv", GOLDEN / self.name / "summary.csv")


class DenseN10(Workload):
    name = "dense-n10"

    def __init__(self):
        self.reference: DenseReference | None = None
        self.seed = DENSE_DEFAULT_SEED
        self._gap_cache: dict[float, float] = {}

    def prepare(self, work, seed):
        self.seed = seed
        problem, self.reference = generate_dense(seed)
        self.note = f"dense instance: draw {self.reference.attempts} of seed {seed} accepted"
        (work / "dense.json").write_text(json.dumps(problem, indent=2) + "\n")

    def setup_source(self):
        return "dense.json"

    def round(self, rng):
        return [
            Op(
                "dense",
                ["analyze", "--problem", "dense.json", "--grid", str(DENSE_GRID),
                 "--out", "dense_"],
                ["dense_gaps.csv", "dense_overlaps.csv", "dense_report.json"],
                DENSE_GRID,
            )
        ]

    def compare(self, work, op):
        ref = self.reference
        grid = ref.grid[:, None]
        errors = compare_table(
            work / "dense_gaps.csv",
            ["s"] + [f"E{k}" for k in range(LEVELS)] + ["gap"],
            np.hstack([grid, ref.levels, ref.gap[:, None]]),
        )
        errors += compare_table(
            work / "dense_overlaps.csv",
            ["s"] + [f"a{k}" for k in range(LEVELS)],
            np.hstack([grid, ref.weights]),
        )
        errors += self._check_report(json.loads((work / "dense_report.json").read_text()))
        if self.seed == DENSE_DEFAULT_SEED:
            errors += compare_to_golden(work, "dense_", GOLDEN / self.name)
        return int(bool(errors)), errors

    def _check_report(self, got: dict) -> list[str]:
        ref = self.reference
        s_star, dmin = got["s_star"], got["delta_min"]
        want = {
            "driver": "stoquastic", "grid": DENSE_GRID, "interior": False, "k": None,
            "lambda_path": None, "levels": LEVELS, "normalizer": None,
            "problem": "dense.json", "problem_form": "ising", "s_tol": S_TOL,
            "hyperbola": None,
        }
        errors = [f"{k}: {got.get(k)!r} != {v!r}" for k, v in want.items() if got.get(k) != v]
        i = int(np.argmin(ref.gap))
        lo, hi = ref.grid[max(i - 1, 0)], ref.grid[min(i + 1, DENSE_GRID - 1)]
        if not lo - S_TOL <= s_star <= hi + S_TOL:
            errors.append(f"s_star {s_star} outside the bracket [{lo}, {hi}]")
        if dmin > ref.gap.min() + ATOL:
            errors.append(f"delta_min {dmin} above the grid minimum {ref.gap.min()}")
        if s_star not in self._gap_cache:
            self._gap_cache[s_star] = ref.gap_at(s_star)
        errors += _close("delta_min vs gap(s_star)", dmin, self._gap_cache[s_star], ATOL)
        errors += _close("t_approx", got["t_approx"], dmin ** -2, 0.0, _t_rtol(dmin))
        errors += self._check_epsilon(got["epsilon"])
        return [f"dense_report.json: {e}" for e in errors]

    def _check_epsilon(self, got: float) -> list[str]:
        errors = _close("epsilon", got, self.reference.epsilon, ATOL)
        span = self.reference.epsilon_from_start
        if not errors or span is None:
            return errors
        if span[0] - ATOL <= got <= span[1] + ATOL:
            return []
        return [f"{errors[0]}, nor in [{span[0]!r}, {span[1]!r}] (arg-max at s = 0)"]


WORKLOADS = {w.name: w for w in (ChainAnalyze, ChainSweep, DenseN10)}


# --------------------------------------------------------------------------
# dense-n10 generator and independent dense oracle


@dataclass
class DenseReference:
    """Oracle values for H(s) = (1-s) sum_i X_i + s H_P on the analyze grid."""

    diag: np.ndarray
    driver: np.ndarray
    grid: np.ndarray = field(default_factory=lambda: np.linspace(0.0, 1.0, DENSE_GRID))
    levels: np.ndarray | None = None
    gap: np.ndarray | None = None
    weights: np.ndarray | None = None
    epsilon: float = 0.0
    #: Range epsilon takes when the program's value at s = 0 is its grid
    #: maximum (see ``_epsilon``); None when that cannot happen.
    epsilon_from_start: tuple[float, float] | None = None
    attempts: int = 1

    def hamiltonian(self, s: float) -> np.ndarray:
        h = (1.0 - s) * self.driver
        h[np.diag_indices_from(h)] += s * self.diag
        return h

    def gap_at(self, s: float) -> float:
        w, _ = _lowest(self.hamiltonian(s), 2)
        return float(w[1] - w[0])

    def element(self, s: float) -> tuple[np.ndarray, np.ndarray, float]:
        """Lowest levels, their eigenvectors and |<E1| dH/ds |E0>|, dH/ds = H_P - H_B."""
        w, v = _lowest(self.hamiltonian(s), LEVELS)
        dh_v0 = self.diag * v[:, 0] - self.driver @ v[:, 0]
        return w, v, float(abs(v[:, 1] @ dh_v0))

    def start_element_bound(self) -> float:
        """Largest |<E1| dH/ds |E0>| over the first excited level at s = 0.

        There H(0) is the transverse driver, whose first excited level is
        n-fold degenerate, so the element depends on which eigenvector of that
        level the solver returns; every choice gives a value in [0, bound].
        """
        n = self.diag.size.bit_length() - 1
        w, v = _lowest(self.hamiltonian(0.0), n + 2)
        level = np.abs(w - w[1]) <= 1e-9 * max(1.0, abs(w[1]))
        level[0] = False
        if level[-1]:
            raise RuntimeError("first excited level at s = 0 wider than expected")
        dh_v0 = self.diag * v[:, 0] - self.driver @ v[:, 0]
        return float(np.linalg.norm(v[:, level].T @ dh_v0))


def _lowest(h: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest eigenpairs: LAPACK dsyevr through scipy when installed
    (a different driver from the program's, and 2-3x faster at dim 1024)."""
    try:
        from scipy.linalg import eigh
    except ImportError:
        w, v = np.linalg.eigh(h)
        return w[:k], v[:, :k]
    return eigh(h, subset_by_index=[0, k - 1], driver="evr")


def _draw_problem(rng: np.random.Generator, n: int = 10) -> dict:
    """Edge density 0.4, |J| in [0.5, 1.5] with random sign, h ~ U[-1, 1]."""
    quadratic = []
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < 0.4:
            quadratic.append([i, j, float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5))])
    linear = [float(x) for x in rng.uniform(-1.0, 1.0, n)]
    return {"form": "ising", "n": n, "quadratic": quadratic, "linear": linear, "offset": 0.0}


def _operators(problem: dict) -> tuple[np.ndarray, np.ndarray]:
    """Problem diagonal and transverse driver, built from the coefficients."""
    n = problem["n"]
    m = np.arange(1 << n)
    sigma = 1.0 - 2.0 * ((m[:, None] >> np.arange(n)[None, :]) & 1)
    diag = np.full(1 << n, float(problem["offset"]))
    for i, j, value in problem["quadratic"]:
        diag += value * sigma[:, i] * sigma[:, j]
    diag += sigma @ np.asarray(problem["linear"])
    driver = np.zeros((1 << n, 1 << n))
    for i in range(n):
        driver[m, m ^ (1 << i)] = 1.0
    return diag, driver


def _admissible(ref: DenseReference) -> dict[int, tuple] | None:
    """Grid eigenpairs when the gap minimum sits at a schedule end, else None.

    ``analyze`` fits a hyperbola to any significant interior anti-crossing,
    and the fit needs five trace points within +-0.05 of it; a 21-point grid
    (step 0.05) never has them, so such instances exit 3 by design. The
    generator keeps instances whose gap is smallest at s = 0 or s = 1, where
    analyze reports interior=false, and also rejects a dip of more than 0.5%
    between the last two grid points, where the refinement could find one.
    """
    final = np.sort(ref.diag)
    floor = min(2.0, float(final[1] - final[0]))
    solved = {}
    # Interior dips of these instances sit mostly at s = 0.4..0.9: try there first.
    for k in sorted(range(1, DENSE_GRID - 1), key=lambda k: abs(k - 14)):
        solved[k] = ref.element(float(ref.grid[k]))
        if solved[k][0][1] - solved[k][0][0] <= floor:
            return None
    for s in (0.96, 0.97, 0.98, 0.99):
        if ref.gap_at(s) < 0.995 * floor:
            return None
    return solved


def generate_dense(seed: int, max_attempts: int = 200) -> tuple[dict, DenseReference]:
    """The seed's instance and its oracle reference.

    Instances are drawn from ``numpy.random.default_rng(seed)`` in sequence;
    the first one ``_admissible`` accepts is the workload's input.
    """
    rng = np.random.default_rng(seed)
    for attempt in range(1, max_attempts + 1):
        problem = _draw_problem(rng)
        ref = DenseReference(*_operators(problem), attempts=attempt)
        solved = _admissible(ref)
        if solved is not None:
            break
    else:
        raise RuntimeError(f"seed {seed}: no admissible instance in {max_attempts} draws")
    for k in (0, DENSE_GRID - 1):
        solved[k] = ref.element(float(ref.grid[k]))
    order = np.argsort(ref.diag, kind="stable")[:LEVELS]
    ref.levels = np.array([solved[k][0][:LEVELS] for k in range(DENSE_GRID)])
    ref.gap = ref.levels[:, 1] - ref.levels[:, 0]
    ref.weights = np.array([solved[k][1][order, 0] ** 2 for k in range(DENSE_GRID)])
    _epsilon(ref, [solved[k][2] for k in range(1, DENSE_GRID)])
    if not math.isfinite(ref.epsilon):
        raise RuntimeError(f"seed {seed}: non-finite oracle epsilon")
    return problem, ref


def _epsilon(ref: DenseReference, elements: list[float]) -> None:
    """Set the epsilon values the program may report, given the grid elements
    at s > 0.

    ``spectral.epsilon`` takes the largest element on the grid and refines
    once around its arg-max. Its element at s = 0 is some g in [0, U]
    (``start_element_bound``). While g is below the largest element M at
    s > 0, the arg-max and thus the result do not depend on g: that result is
    ``ref.epsilon``. When g >= M the arg-max is s = 0, and the result is
    max(g, r0), r0 the largest refined element in (0, grid step]; those
    results fill ``ref.epsilon_from_start``.
    """
    def element(s: float) -> float:
        # A refinement bracket that reaches s = 0 meets g < M there, which
        # never sets the maximum.
        return ref.element(s)[2] if s > 0.0 else 0.0

    def refined(i: int) -> float:
        lo, hi = ref.grid[max(i - 1, 0)], ref.grid[min(i + 1, DENSE_GRID - 1)]
        return max(element(float(s)) for s in np.linspace(lo, hi, 21))

    i = 1 + int(np.argmax(elements))
    largest = float(elements[i - 1])
    ref.epsilon = max(largest, refined(i))
    bound = ref.start_element_bound()
    if bound >= largest:
        r0 = refined(0)
        ref.epsilon_from_start = (max(largest, r0), max(bound, r0))

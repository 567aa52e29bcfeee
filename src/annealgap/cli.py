"""Command-line front end: conversions, transforms, spectrum reports, sweeps.

Exit codes: 0 success, 2 input error (files, formats, arguments), 3 numerical
failure (eigensolver, degeneracies, fits). All emitted CSV and JSON numbers
are formatted to 12 significant digits so identical inputs produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

from .eltip import back_map, transform
from .operators import NONSTOQUASTIC, STOQUASTIC, ScheduleSpec
from .overlaps import overlap_trace
from .problems import (
    IsingProblem,
    MisChainSpec,
    ProblemFormatError,
    Q_FORM,
    SIGMA_FORM,
    SpinAssignment,
    form_of,
    ising_to_qubo,
    load_problem,
    mis_chain,
    qubo_to_ising,
    save_problem,
)
from .spectral import (
    DegenerateLevelsError,
    EigensolverError,
    FitWindowError,
    anticrossing_report,
    epsilon,
    gap_trace,
    min_gap,
    t_approx,
)

DRIVER_TOKENS = {"stoq": STOQUASTIC, "nonstoq": NONSTOQUASTIC}

SWEEP_DELTA_BS = (0.01, 0.02, 0.04, 0.06, 0.08)
SWEEP_METHODS = (
    "stoquastic",
    "nonstoquastic",
    "eltip-k0",
    "eltip-k1",
    "eltip-k2",
    "eltip-k3",
    "eltip-k4",
)

SUMMARY_HEADER = (
    "delta_b,method,s_star,delta_min,t_approx,epsilon,interior,ratio_vs_stoq,error"
)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _round12(x: float) -> float:
    return float(_fmt(x))


def _positive_finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _delta_b_list(text: str) -> list[float]:
    """Comma-separated final gaps, each finite and >= 0; repeats are dropped."""
    values = set()
    for tok in text.split(","):
        try:
            value = float(tok)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a number, got {tok!r}") from None
        if not 0.0 <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {tok.strip()}")
        values.add(value + 0.0)  # -0.0 becomes 0.0
    return sorted(values)


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _as_ising(problem) -> IsingProblem:
    return problem if isinstance(problem, IsingProblem) else qubo_to_ising(problem)


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_convert(args) -> int:
    problem = load_problem(args.problem)
    if args.to == "qubo":
        out = problem if form_of(problem) == "qubo" else ising_to_qubo(problem)
    else:
        out = _as_ising(problem)
    save_problem(out, args.out)
    print(f"offset delta: {_fmt(out.offset - problem.offset)}")
    return 0


def cmd_transform(args) -> int:
    problem = _as_ising(load_problem(args.problem))
    save_problem(transform(problem, args.k), args.out)
    print(f"wrote pivot-{args.k} transformed problem to {args.out}")
    return 0


def cmd_backmap(args) -> int:
    try:
        values = tuple(int(tok) for tok in args.assignment.split(","))
        assignment = SpinAssignment(values, Q_FORM if args.form == "q" else SIGMA_FORM)
    except ValueError as exc:
        raise ProblemFormatError(f"bad assignment {args.assignment!r}: {exc}") from exc
    mapped = back_map(assignment, args.k)
    q = mapped.to_q().values
    sigma = mapped.to_sigma().values
    print("q:     " + ",".join(str(v) for v in q))
    print("sigma: " + ",".join(f"{v:+d}" for v in sigma))
    return 0


def cmd_analyze(args) -> int:
    problem = load_problem(args.problem)
    ising = _as_ising(problem)
    if args.k is not None:
        ising = transform(ising, args.k)
    driver = DRIVER_TOKENS[args.driver]
    sched = ScheduleSpec(problem=ising, driver=driver)
    k_max = min(5, (1 << ising.n) - 1)
    trace = gap_trace(sched, args.grid, args.levels)
    report = anticrossing_report(trace, s_tol=args.s_tol)
    overlaps = overlap_trace(trace, k_max=k_max)

    level_count = trace.levels.shape[1]
    gap_rows = (
        [_fmt(trace.grid[i])]
        + [_fmt(v) for v in trace.levels[i]]
        + [_fmt(trace.gap[i])]
        for i in range(len(trace.grid))
    )
    _write_csv(
        f"{args.out}gaps.csv",
        ["s"] + [f"E{k}" for k in range(level_count)] + ["gap"],
        gap_rows,
    )
    overlap_rows = (
        [_fmt(overlaps.grid[i])] + [_fmt(v) for v in overlaps.weights[i]]
        for i in range(len(overlaps.grid))
    )
    _write_csv(
        f"{args.out}overlaps.csv",
        ["s"] + [f"a{k}" for k in range(k_max + 1)],
        overlap_rows,
    )
    doc = {
        "s_star": _round12(report.s_star),
        "delta_min": _round12(report.delta_min),
        "t_approx": _round12(report.t_approx),
        "epsilon": _round12(report.epsilon),
        "interior": report.interior,
        "hyperbola": None
        if report.hyperbola is None
        else {
            "A": _round12(report.hyperbola.a),
            "B": _round12(report.hyperbola.b),
            "E_center": _round12(report.hyperbola.e_center),
            "residual": _round12(report.hyperbola.residual),
        },
        "problem": str(args.problem),
        "problem_form": form_of(problem),
        "k": args.k,
        "driver": driver,
        "lambda_path": "linear" if driver == NONSTOQUASTIC else None,
        "normalizer": ising.n if driver == NONSTOQUASTIC else None,
        "grid": args.grid,
        "s_tol": args.s_tol,
        "levels": level_count,
    }
    with open(f"{args.out}report.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"s_star={_fmt(report.s_star)} delta_min={_fmt(report.delta_min)} "
        f"t_approx={_fmt(report.t_approx)} interior={str(report.interior).lower()}"
    )
    return 0


def _sweep_cell(delta_b: float, method: str, grid: int, s_tol: float) -> dict:
    ising = qubo_to_ising(mis_chain(MisChainSpec(delta_b)))
    if method == "stoquastic":
        sched = ScheduleSpec(problem=ising, driver=STOQUASTIC)
    elif method == "nonstoquastic":
        sched = ScheduleSpec(problem=ising, driver=NONSTOQUASTIC)
    else:
        pivot = int(method.removeprefix("eltip-k"))
        sched = ScheduleSpec(problem=transform(ising, pivot), driver=STOQUASTIC)
    trace = gap_trace(sched, grid)
    located = min_gap(trace, s_tol=s_tol)
    return {
        "delta_b": delta_b,
        "method": method,
        "s_star": located.s_star,
        "delta_min": located.delta_min,
        "t_approx": t_approx(located.delta_min),
        "epsilon": epsilon(trace),
        "interior": located.interior,
        "error": "",
    }


def cmd_sweep(args) -> int:
    methods = [tok.strip() for tok in args.methods.split(",")]
    for method in methods:
        if method not in SWEEP_METHODS:
            raise ProblemFormatError(
                f"unknown method {method!r}; choose from {', '.join(SWEEP_METHODS)}"
            )
    methods = [m for m in SWEEP_METHODS if m in methods]

    cells = [(db, method) for db in args.delta_b for method in methods]

    def run_cell(cell):
        db, method = cell
        try:
            return _sweep_cell(db, method, args.grid, args.s_tol)
        except Exception as exc:
            return {
                "delta_b": db,
                "method": method,
                "error": f"{type(exc).__name__}: {exc}",
            }

    if args.workers > 1:
        with ThreadPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(run_cell, cells))
    else:
        results = [run_cell(cell) for cell in cells]

    stoq_times = {
        row["delta_b"]: row["t_approx"]
        for row in results
        if row["method"] == "stoquastic" and not row["error"]
    }
    rows = []
    for row in results:
        if row["error"]:
            rows.append(
                [_fmt(row["delta_b"]), row["method"], "", "", "", "", "", "", row["error"]]
            )
            continue
        base = stoq_times.get(row["delta_b"])
        ratio = _fmt(base / row["t_approx"]) if base is not None else ""
        rows.append(
            [
                _fmt(row["delta_b"]),
                row["method"],
                _fmt(row["s_star"]),
                _fmt(row["delta_min"]),
                _fmt(row["t_approx"]),
                _fmt(row["epsilon"]),
                str(row["interior"]).lower(),
                ratio,
                "",
            ]
        )
    _write_csv(args.out, SUMMARY_HEADER.split(","), rows)
    failed = sum(1 for row in results if row["error"])
    print(f"wrote {len(rows)} rows to {args.out}" + (f" ({failed} failed)" if failed else ""))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="annealgap",
        description="Spectral-gap analysis of annealing schedules for Ising/QUBO problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert a problem file between QUBO and Ising forms")
    p.add_argument("--problem", required=True, help="input problem file")
    p.add_argument("--to", required=True, choices=["qubo", "ising"], help="target form")
    p.add_argument("--out", required=True, help="output problem file")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("transform", help="apply the coefficient-exchange transform")
    p.add_argument("--problem", required=True, help="input problem file (QUBO converts first)")
    p.add_argument("--k", required=True, type=int, help="pivot spin index")
    p.add_argument("--out", required=True, help="output Ising problem file")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("analyze", help="gap trace, overlaps, and min-gap report")
    p.add_argument("--problem", required=True, help="input problem file")
    p.add_argument("--driver", default="stoq", choices=sorted(DRIVER_TOKENS))
    p.add_argument("--grid", type=_int_at_least(2), default=2001, help="grid points (default 2001)")
    p.add_argument("--s-tol", type=_positive_finite, default=1e-6, help="refinement tolerance")
    p.add_argument(
        "--levels", type=_int_at_least(2), default=6, help="levels kept in gaps.csv (at most 2^n)"
    )
    p.add_argument("--k", type=int, default=None, help="apply pivot-k transform first")
    p.add_argument("--out", required=True, help="output prefix for gaps.csv, overlaps.csv, report.json")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="chain-instance sweep over final gaps and methods")
    p.add_argument(
        "--delta-b",
        type=_delta_b_list,
        default=",".join(str(db) for db in SWEEP_DELTA_BS),
        help="comma-separated final gaps (default 0.01,0.02,0.04,0.06,0.08)",
    )
    p.add_argument(
        "--methods",
        default=",".join(SWEEP_METHODS),
        help="comma-separated subset of: " + ",".join(SWEEP_METHODS),
    )
    p.add_argument("--grid", type=_int_at_least(2), default=2001)
    p.add_argument("--s-tol", type=_positive_finite, default=1e-6)
    p.add_argument("--workers", type=_int_at_least(1), default=1, help="concurrent sweep cells")
    p.add_argument("--out", required=True, help="summary CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("backmap", help="map a transformed-problem solution back")
    p.add_argument(
        "--assignment",
        required=True,
        help="comma-separated values; use --assignment=-1,... for sigma form",
    )
    p.add_argument("--form", default="q", choices=["q", "sigma"])
    p.add_argument("--k", required=True, type=int, help="pivot spin of the transform")
    p.set_defaults(func=cmd_backmap)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EigensolverError, DegenerateLevelsError, FitWindowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ProblemFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: conversions, transforms, spectrum reports, sweeps.

Exit codes: 0 success, 2 input error (files, formats, arguments), 3 numerical
failure (eigensolver, degeneracies). A hyperbola fit whose window holds too
few grid points is left out of the report, and a fit whose residual exceeds
10% of the minimum gap stays in it; either gets a note on stderr. All
emitted CSV and JSON numbers are formatted to 12 significant digits so
identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

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
    epsilon,
    fit_hyperbola,
    gap_trace,
    min_gap,
    t_approx,
)

DRIVER_TOKENS = {"stoq": STOQUASTIC, "nonstoq": NONSTOQUASTIC}

SWEEP_DELTA_BS = (0.01, 0.02, 0.04, 0.06, 0.08)
#: Sweep methods in output order: name -> (driver, ELTIP pivot or None).
SWEEP_METHODS = {
    "stoquastic": (STOQUASTIC, None),
    "nonstoquastic": (NONSTOQUASTIC, None),
    **{f"eltip-k{k}": (STOQUASTIC, k) for k in range(5)},
}

SUMMARY_HEADER = (
    "delta_b,method,s_star,delta_min,t_approx,epsilon,interior,ratio_vs_stoq,error"
)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _round12(x: float) -> float:
    return float(_fmt(x))


def _checked(convert, ok, rule: str):
    """An argparse type: ``convert`` the text, then require ``ok`` of the value."""
    noun = "an integer" if convert is int else "a number"

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text.strip()}")
        return value

    return parse


_positive_finite = _checked(float, lambda x: 0.0 < x < math.inf, "must be positive and finite")
_final_gap = _checked(float, lambda x: 0.0 <= x < math.inf, "must be finite and >= 0")


def _int_at_least(low: int):
    return _checked(int, lambda x: x >= low, f"must be at least {low}")


def _delta_b_list(text: str) -> list[float]:
    """Comma-separated final gaps, each finite and >= 0; repeats are dropped."""
    return sorted({_final_gap(tok) + 0.0 for tok in text.split(",")})  # -0.0 becomes 0.0


def _as_ising(problem) -> IsingProblem:
    return problem if isinstance(problem, IsingProblem) else qubo_to_ising(problem)


def _schedule(ising: IsingProblem, driver: str, pivot) -> ScheduleSpec:
    """The schedule of ``ising`` under ``driver``, after the pivot transform when one is given."""
    if pivot is not None:
        ising = transform(ising, pivot)
    return ScheduleSpec(problem=ising, driver=driver)


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_table(path, header: list[str], table) -> None:
    """A numeric 2-D array as CSV, each row formatted by one ``%.12g`` template.

    ``%.12g`` renders a float exactly as ``_fmt`` does. Rows are converted one
    at a time: the whole table as Python floats at once raises the peak RSS.
    """
    row_format = ",".join(["%.12g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        fh.writelines(row_format % tuple(row.tolist()) for row in table)


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
    driver = DRIVER_TOKENS[args.driver]
    sched = _schedule(_as_ising(problem), driver, args.k)
    k_max = min(5, (1 << sched.n) - 1)
    trace = gap_trace(sched, args.grid, args.levels)
    located = min_gap(trace, s_tol=args.s_tol)
    eps = epsilon(trace)
    fit = None
    if located.interior:
        with warnings.catch_warnings(record=True) as misfits:  # a misfit is reported, not raised
            warnings.simplefilter("always")
            try:
                fit = fit_hyperbola(trace, located.s_star, located.delta_min)
            except FitWindowError as exc:  # a coarse grid: the report goes out without the fit
                print(f"note: no hyperbola fit: {exc}", file=sys.stderr)
        for misfit in misfits:
            print(f"note: {misfit.message}", file=sys.stderr)
    t_est = t_approx(located.delta_min)
    overlaps = overlap_trace(trace, k_max=k_max)

    level_count = trace.levels.shape[1]
    _write_table(
        f"{args.out}gaps.csv",
        ["s"] + [f"E{k}" for k in range(level_count)] + ["gap"],
        np.column_stack([trace.grid, trace.levels, trace.gap]),
    )
    _write_table(
        f"{args.out}overlaps.csv",
        ["s"] + [f"a{k}" for k in range(k_max + 1)],
        np.column_stack([overlaps.grid, overlaps.weights]),
    )
    doc = {
        "s_star": _round12(located.s_star),
        "delta_min": _round12(located.delta_min),
        "t_approx": _round12(t_est),
        "epsilon": _round12(eps),
        "interior": located.interior,
        "hyperbola": None if fit is None else {
            "A": _round12(fit.a),
            "B": _round12(fit.b),
            "E_center": _round12(fit.e_center),
            "residual": _round12(fit.residual),
        },
        "problem": str(args.problem),
        "problem_form": form_of(problem),
        "k": args.k,
        "driver": driver,
        "lambda_path": "linear" if driver == NONSTOQUASTIC else None,
        "normalizer": sched.n if driver == NONSTOQUASTIC else None,
        "grid": args.grid,
        "s_tol": args.s_tol,
        "levels": level_count,
    }
    with open(f"{args.out}report.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"s_star={_fmt(located.s_star)} delta_min={_fmt(located.delta_min)} "
        f"t_approx={_fmt(t_est)} interior={str(located.interior).lower()}"
    )
    return 0


def _sweep_cell(delta_b: float, method: str, grid: int, s_tol: float) -> tuple:
    """Minimum gap, time estimate and epsilon of one chain instance under one method.

    Raises whatever fails; ``t_approx`` comes before ``epsilon``, so a
    non-positive minimum gap is reported as such.
    """
    ising = qubo_to_ising(mis_chain(MisChainSpec(delta_b)))
    trace = gap_trace(_schedule(ising, *SWEEP_METHODS[method]), grid, levels=2)
    located = min_gap(trace, s_tol=s_tol)
    return located, t_approx(located.delta_min), epsilon(trace)


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
        """The cell's results, or its error as text."""
        try:
            return _sweep_cell(*cell, args.grid, args.s_tol)
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"

    with ThreadPoolExecutor(max_workers=args.workers) as pool:
        results = list(pool.map(run_cell, cells))

    done = [(cell, result) for cell, result in zip(cells, results) if not isinstance(result, str)]
    stoq_times = {db: t_est for (db, method), (_, t_est, _) in done if method == "stoquastic"}
    rows = []
    for (db, method), result in zip(cells, results):
        if isinstance(result, str):
            rows.append([_fmt(db), method] + [""] * 6 + [result])
            continue
        located, t_est, eps = result
        base = stoq_times.get(db)
        numbers = (located.s_star, located.delta_min, t_est, eps)
        rows.append(
            [_fmt(db), method, *map(_fmt, numbers), str(located.interior).lower(),
             "" if base is None else _fmt(base / t_est), ""]
        )
    _write_csv(args.out, SUMMARY_HEADER.split(","), rows)
    failed = len(results) - len(done)
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
    except (EigensolverError, DegenerateLevelsError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ProblemFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

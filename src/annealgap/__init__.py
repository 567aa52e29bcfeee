"""Spectral-gap analysis of quantum annealing schedules for Ising/QUBO problems."""

from . import _blas  # noqa: F401  # first: it may load numpy's OpenBLAS on one thread
from .eltip import back_map, compose_swap, swap_labels, transform
from .operators import (
    DEFAULT_SPIN_CAP,
    NONSTOQUASTIC,
    STOQUASTIC,
    DenseOperator,
    ScheduleSpec,
    hamiltonian_at,
    problem_diagonal,
)
from .overlaps import OverlapTrace, overlap_trace
from .problems import (
    IsingProblem,
    MisChainSpec,
    ProblemFormatError,
    QuboProblem,
    SpinAssignment,
    ising_to_qubo,
    load_problem,
    mis_chain,
    qubo_to_ising,
    save_problem,
)
from .spectral import (
    AntiCrossing,
    DegenerateLevelsError,
    EigensolverError,
    FitWindowError,
    HyperbolaFit,
    MinGapResult,
    SpectralTrace,
    detect_anticrossing,
    epsilon,
    fit_hyperbola,
    gap_trace,
    min_gap,
    t_approx,
)

__all__ = [
    "DEFAULT_SPIN_CAP",
    "NONSTOQUASTIC",
    "STOQUASTIC",
    "AntiCrossing",
    "DegenerateLevelsError",
    "DenseOperator",
    "EigensolverError",
    "FitWindowError",
    "HyperbolaFit",
    "IsingProblem",
    "MinGapResult",
    "MisChainSpec",
    "OverlapTrace",
    "ProblemFormatError",
    "QuboProblem",
    "ScheduleSpec",
    "SpectralTrace",
    "SpinAssignment",
    "back_map",
    "compose_swap",
    "detect_anticrossing",
    "epsilon",
    "fit_hyperbola",
    "gap_trace",
    "hamiltonian_at",
    "ising_to_qubo",
    "load_problem",
    "min_gap",
    "mis_chain",
    "overlap_trace",
    "problem_diagonal",
    "qubo_to_ising",
    "save_problem",
    "swap_labels",
    "t_approx",
    "transform",
]

__version__ = "0.1.0"

"""Decomposition of the instantaneous ground state in the final eigenbasis.

The final Hamiltonian is diagonal in the computational basis, so its
eigenstates are basis states and the squared overlaps are squared ground-state
amplitudes; eigenvector phase never enters. States are ordered by final energy
ascending, read from the H_P diagonal the schedule caches, with ties broken by
basis index ascending, which keeps weights of degenerate final levels
individually well defined and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import _integer
from .spectral import EigensolverError, SpectralTrace, _check_nondegenerate

#: Normalization of the tracked ground state must hold to this tolerance.
NORMALIZATION_TOL = 1e-10


@dataclass(frozen=True)
class OverlapTrace:
    """Squared overlaps a_k(s) of the instantaneous ground state with the
    k lowest final eigenstates, plus the full-basis norm per grid point."""

    grid: np.ndarray
    weights: np.ndarray
    labels: np.ndarray
    norm: np.ndarray


def overlap_trace(trace: SpectralTrace, k_max: int = 5) -> OverlapTrace:
    """Track a_k(s) = |<E_k(1)|E_0(s)>|^2 for k = 0..k_max on the trace's grid.

    Reads the ground-state weights that ``gap_trace`` recorded, so it solves
    no eigenproblem. The full-basis sum of squared overlaps is recorded per
    point and checked against 1; a degenerate instantaneous ground state is
    reported as an error with the offending s, since its overlaps are
    basis-dependent.
    """
    sched = trace.schedule
    dim = 1 << sched.n
    if not 0 <= _integer(k_max, "k_max") < dim:
        raise ValueError(f"k_max must lie in [0, {dim - 1}], got {k_max}")
    energies = sched.problem_diagonal
    order = np.argsort(energies, kind="stable")
    _check_nondegenerate(
        trace,
        "instantaneous ground state is degenerate at s={s}; "
        "overlaps over a degenerate subspace are basis-dependent",
    )
    amplitudes_sq = trace.ground_weights
    norms = amplitudes_sq.sum(axis=1)
    if np.any(np.abs(norms - 1.0) > NORMALIZATION_TOL):
        worst = float(np.abs(norms - 1.0).max())
        raise EigensolverError(
            f"ground-state normalization off by {worst:.3e} (> {NORMALIZATION_TOL})"
        )
    return OverlapTrace(
        grid=trace.grid,
        weights=amplitudes_sq[:, order[: k_max + 1]],
        labels=energies[order[: k_max + 1]],
        norm=norms,
    )

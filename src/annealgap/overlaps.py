"""Decomposition of the instantaneous ground state in the final eigenbasis.

The final Hamiltonian is diagonal in the computational basis, so its
eigenstates are basis states and the squared overlaps are squared ground-state
amplitudes; eigenvector phase never enters. States are ordered by final energy
ascending with ties broken by basis index ascending, which keeps weights of
degenerate final levels individually well defined and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .operators import ScheduleSpec, problem_diagonal
from .problems import IsingProblem, SpinAssignment
from .spectral import (
    EigensolverError,
    SpectralTrace,
    _check_nondegenerate,
    _reuse_or_scan,
)

#: Normalization of the tracked ground state must hold to this tolerance.
NORMALIZATION_TOL = 1e-10


@dataclass(frozen=True)
class FinalBasis:
    """Computational basis states ordered by final energy, ties by index."""

    order: np.ndarray
    energies: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "order", np.asarray(self.order, dtype=int))
        object.__setattr__(self, "energies", np.asarray(self.energies, dtype=float))

    @property
    def n(self) -> int:
        return self.order.size.bit_length() - 1

    def assignment(self, k: int) -> SpinAssignment:
        """q-form assignment of the k-th final eigenstate (k=0 is the ground state)."""
        return SpinAssignment.from_basis_index(int(self.order[k]), self.n)


def final_basis(p: IsingProblem) -> FinalBasis:
    """Order all 2^n basis states by problem energy ascending, then by index."""
    diag = problem_diagonal(p)
    order = np.argsort(diag, kind="stable")
    return FinalBasis(order=order, energies=diag[order])


@dataclass(frozen=True)
class OverlapTrace:
    """Squared overlaps a_k(s) of the instantaneous ground state with the
    k lowest final eigenstates, plus the full-basis norm per grid point."""

    grid: np.ndarray
    weights: np.ndarray
    labels: np.ndarray
    norm: np.ndarray

    def __post_init__(self):
        if self.weights.shape != (len(self.grid), len(self.labels)):
            raise ValueError("weights shape must be (grid points, tracked states)")


def overlap_trace(
    sched: ScheduleSpec,
    grid_points: int = 2001,
    k_max: int = 5,
    trace: Optional[SpectralTrace] = None,
) -> OverlapTrace:
    """Track a_k(s) = |<E_k(1)|E_0(s)>|^2 for k = 0..k_max on a uniform grid.

    The full-basis sum of squared overlaps is recorded per point and checked
    against 1; a degenerate instantaneous ground state is reported as an error
    with the offending s, since its overlaps are basis-dependent. Pass a
    ``trace`` scanned from an equal schedule to reuse its grid scan.
    """
    dim = 1 << sched.n
    if not 0 <= k_max < dim:
        raise ValueError(f"k_max must lie in [0, {dim - 1}], got {k_max}")
    basis = final_basis(sched.problem)
    trace = _reuse_or_scan(sched, trace, grid_points)
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
        weights=amplitudes_sq[:, basis.order[: k_max + 1]],
        labels=basis.energies[: k_max + 1],
        norm=norms,
    )

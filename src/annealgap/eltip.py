"""Eigenvalue-preserving landscape transforms of Ising problems.

For a pivot spin k, the transform exchanges the roles of the couplings to k
and the fields on the other spins:

    J'_ij = J_ij          (i, j != k)
    h'_i  = J_ik          (i != k)
    J'_ik = h_i           (i != k)
    h'_k  = h_k

The transformed problem has exactly the same multiset of 2^n energies
(including degeneracies); only which assignment carries which energy changes.
The operator picture is conjugation by a fan of controlled spin flips with k
as control, which is its own inverse, so the transform is an involution.
Classical solutions map back without re-solving: when spin k of a transformed
solution sits in the control-on branch (sigma_k = -1), every other spin is
flipped; otherwise the assignment is unchanged.
"""

from __future__ import annotations

from .problems import IsingProblem, ProblemFormatError, SpinAssignment, SIGMA_FORM, _integer, _ising


def _spin(index: int, n: int, what: str) -> int:
    """``index`` as one of n spins, 0 <= index < n; ``what`` names the argument."""
    i = _integer(index, what)
    if not 0 <= i < n:
        raise ProblemFormatError(f"{what}={i} out of range for n={n}")
    return i


def _two_spins(i: int, j: int, n: int) -> tuple[int, int]:
    """Spins i and j of an n-spin problem, which must differ."""
    i, j = _spin(i, n, "spin i"), _spin(j, n, "spin j")
    if i == j:
        raise ProblemFormatError("swap requires two distinct spins")
    return i, j


def transform(p: IsingProblem, k: int) -> IsingProblem:
    """Exchange couplings-to-k with fields on spins other than k."""
    _ising(p, "transform")
    k = _spin(k, p.n, "pivot spin k")
    couplings: dict[tuple[int, int], float] = {}
    fields = [0.0] * p.n
    fields[k] = p.h[k]
    for (i, j), value in p.J.items():
        if i != k and j != k:
            couplings[(i, j)] = value
        else:
            other = j if i == k else i
            fields[other] = value
    for i, hi in enumerate(p.h):
        if i != k and hi != 0.0:
            couplings[(i, k)] = hi
    return IsingProblem(n=p.n, J=couplings, h=fields, offset=p.offset)


def back_map(a: SpinAssignment, k: int) -> SpinAssignment:
    """Map a solution of the k-transformed problem back to the original problem.

    Operates in sigma-form; q-form input is converted (and the result is
    returned in the caller's form). Involution: applying it twice is identity.
    """
    k = _spin(k, a.n, "pivot spin k")
    sigma = a.to_sigma().values
    if sigma[k] == -1:
        sigma = tuple(-s if i != k else s for i, s in enumerate(sigma))
    mapped = SpinAssignment(sigma, SIGMA_FORM)
    return mapped if a.form == SIGMA_FORM else mapped.to_q()


def swap_labels(p: IsingProblem, i: int, j: int) -> IsingProblem:
    """Relabel spins i and j in all coefficients."""
    _ising(p, "swap_labels")
    i, j = _two_spins(i, j, p.n)
    perm = list(range(p.n))
    perm[i], perm[j] = j, i
    couplings = {(perm[a], perm[b]): v for (a, b), v in p.J.items()}
    fields = [0.0] * p.n
    for a, value in enumerate(p.h):
        fields[perm[a]] = value
    return IsingProblem(n=p.n, J=couplings, h=fields, offset=p.offset)


def compose_swap(p: IsingProblem, i: int, j: int) -> IsingProblem:
    """Triple transform pivoting j, i, j; equals :func:`swap_labels` (i, j).

    The composition law means chains of transforms never produce anything new
    beyond a single pivot plus relabeling.
    """
    _ising(p, "compose_swap")
    i, j = _two_spins(i, j, p.n)
    return transform(transform(transform(p, j), i), j)

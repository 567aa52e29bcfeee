"""Ising and QUBO problem containers, conversions, and the MIS chain generator.

Both representations describe the same classical energy function

    Ising:  E(sigma) = sum_{i<j} J_ij sigma_i sigma_j + sum_i h_i sigma_i + offset
    QUBO:   E(q)     = sum_{i<j} Q_ij q_i q_j       + sum_i b_i q_i     + offset

with sigma_i in {-1, +1}, q_i in {0, 1} and the exact dictionary
q_i = (1 + sigma_i) / 2. Conversions carry the constant term in ``offset``
so that total energies agree assignment by assignment.

Bit convention used throughout the package: computational basis index m has
bit i equal to 0 for sigma_i = +1 (q_i = 1) and 1 for sigma_i = -1 (q_i = 0).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from numbers import Integral, Real
from typing import Iterable, Mapping, Sequence

import numpy as np


class ProblemFormatError(ValueError):
    """Raised for malformed problems or problem files."""


Q_FORM = "q"
SIGMA_FORM = "sigma"

#: Path edges of the 5-vertex chain used by the MIS instance family.
MIS_CHAIN_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4))


def _normalize_quadratic(
    n: int, entries: Mapping[tuple[int, int], float], what: str
) -> dict[tuple[int, int], float]:
    """Validate and canonicalize a quadratic coefficient map.

    Keys are normalized to i < j, exact zeros are dropped; anything but a
    mapping, keys other than (i, j) pairs, non-integer indices,
    self-couplings and duplicate (i, j)/(j, i) pairs are rejected.
    """
    if not isinstance(entries, Mapping):
        raise ProblemFormatError(
            f"{what} entries must map (i, j) pairs to values, got {type(entries).__name__}"
        )
    out: dict[tuple[int, int], float] = {}
    for key, value in entries.items():
        if not (isinstance(key, tuple) and len(key) == 2):
            raise ProblemFormatError(f"{what} key {key!r} must be an (i, j) pair")
        i, j = (_integer(index, f"{what} index in {key!r}") for index in key)
        if i == j:
            raise ProblemFormatError(f"self-coupling ({i},{j}) is not allowed")
        if not (0 <= i < n and 0 <= j < n):
            raise ProblemFormatError(f"{what} index ({i},{j}) out of range for n={n}")
        if i > j:
            i, j = j, i
        if (i, j) in out:
            raise ProblemFormatError(f"duplicate {what} entry for pair ({i},{j})")
        value = _finite(value, f"{what} ({i},{j})")
        if value != 0.0:
            out[(i, j)] = value
    return out


def _sequence(values: object, what: str) -> tuple:
    """``values`` as a tuple in their order: a sequence or a 1-D array.

    Mappings, sets, scalars and other iterables are rejected, naming the field:
    a mapping would yield its keys, a set an arbitrary order.
    """
    if isinstance(values, Sequence) or isinstance(values, np.ndarray) and values.ndim == 1:
        return tuple(values)
    raise ProblemFormatError(f"{what} must be a sequence of numbers, got {values!r}")


def _check_linear(n: int, values: Iterable[float], what: str) -> tuple[float, ...]:
    """``values`` as n finite floats; an empty or missing (None) vector is all zeros."""
    values = () if values is None else _sequence(values, what)
    vec = tuple(_finite(v, f"{what}[{i}]") for i, v in enumerate(values)) or (0.0,) * n
    if len(vec) != n:
        raise ProblemFormatError(f"{what} must have length n={n}, got {len(vec)}")
    return vec


def _integer(value: int, what: str) -> int:
    """``value`` as an int, naming the field when it is rejected.

    Integers, numpy ones among them, are accepted; booleans, floats and
    strings are not, so nothing is truncated.
    """
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ProblemFormatError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _ising(p: "IsingProblem", what: str) -> None:
    """Reject anything but an IsingProblem, naming the function that needs it."""
    if not isinstance(p, IsingProblem):
        raise TypeError(
            f"{what} needs an IsingProblem, got {type(p).__name__}; "
            "convert a QUBO with qubo_to_ising first"
        )


def _count(n: int, what: str) -> int:
    """A positive integer size, naming the field when it is rejected."""
    n = _integer(n, what)
    if n < 1:
        raise ProblemFormatError(f"{what} must be >= 1, got {n}")
    return n


def _finite(value: float, what: str) -> float:
    """``value`` as a float, naming the field when it is rejected.

    Real numbers, numpy scalars among them, are accepted; strings, booleans,
    None, complex numbers, NaN, infinities and integers beyond the float
    range are not.
    """
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ProblemFormatError(f"{what} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        raise ProblemFormatError(
            f"{what} must be finite, got a number too large for a float"
        ) from None
    if not math.isfinite(x):
        raise ProblemFormatError(f"{what} must be finite, got {x}")
    return x


def _converted(value: float, conversion: str, source: str) -> float:
    """A coefficient that ``conversion`` computed from ``source``; raises
    ProblemFormatError naming both when the value left the float range."""
    if not math.isfinite(value):
        raise ProblemFormatError(f"{conversion}: {source} overflows the float range when converted")
    return value


def _energy(n: int, quadratic, linear, offset: float, values) -> float:
    """The energy of ``values``: offset, quadratic terms in dict order, then linear
    terms. A value may be a number or an array with one entry per assignment.

    Raises ProblemFormatError when finite coefficients sum beyond the float range.
    """
    if len(values) != n:
        raise ProblemFormatError(f"assignment length {len(values)} does not match n={n}")
    with np.errstate(over="ignore", invalid="ignore"):
        e = offset
        for (i, j), value in quadratic.items():
            e = e + value * values[i] * values[j]
        for i, value in enumerate(linear):
            e = e + value * values[i]
    if not np.isfinite(e).all():
        raise ProblemFormatError("the problem's energies overflow the float range")
    return e


@dataclass(frozen=True)
class IsingProblem:
    """Ising energy function over spins sigma_i in {-1, +1}.

    Parameters
    ----------
    n : int
        Number of spins.
    J : dict[(int, int), float]
        Pair couplings, keyed i < j after normalization.
    h : tuple[float, ...]
        Per-spin longitudinal fields, length n.
    offset : float
        Constant energy term carried through conversions.
    """

    n: int
    J: dict[tuple[int, int], float] = field(default_factory=dict)
    h: tuple[float, ...] = ()
    offset: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "n", _count(self.n, "spin count"))
        object.__setattr__(self, "J", _normalize_quadratic(self.n, self.J, "coupling"))
        object.__setattr__(self, "h", _check_linear(self.n, self.h, "h"))
        object.__setattr__(self, "offset", _finite(self.offset, "offset"))

    def energy(self, assignment: "SpinAssignment") -> float:
        """Total energy of one assignment (auto-converts q-form input)."""
        return _energy(self.n, self.J, self.h, self.offset, assignment.to_sigma().values)


@dataclass(frozen=True)
class QuboProblem:
    """QUBO energy function over binary variables q_i in {0, 1}.

    Same structural rules as :class:`IsingProblem`: quadratic map keyed i < j,
    dense linear vector, explicit constant offset.
    """

    n: int
    Q: dict[tuple[int, int], float] = field(default_factory=dict)
    b: tuple[float, ...] = ()
    offset: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "n", _count(self.n, "variable count"))
        object.__setattr__(self, "Q", _normalize_quadratic(self.n, self.Q, "quadratic"))
        object.__setattr__(self, "b", _check_linear(self.n, self.b, "b"))
        object.__setattr__(self, "offset", _finite(self.offset, "offset"))

    def energy(self, assignment: "SpinAssignment") -> float:
        """Total energy of one assignment (auto-converts sigma-form input)."""
        return _energy(self.n, self.Q, self.b, self.offset, assignment.to_q().values)


@dataclass(frozen=True)
class SpinAssignment:
    """One classical candidate solution, in q-form ({0,1}) or sigma-form ({-1,+1})."""

    values: tuple[int, ...]
    form: str = Q_FORM

    def __post_init__(self):
        if self.form not in (Q_FORM, SIGMA_FORM):
            raise ProblemFormatError(f"unknown assignment form {self.form!r}")
        allowed = {0, 1} if self.form == Q_FORM else {-1, 1}
        values = _sequence(self.values, "assignment values")
        if not values:
            raise ProblemFormatError("assignment values must hold at least one value")
        # Checked before int(), which would truncate 0.5 to 0 and -1.5 to -1.
        if not all(v in allowed for v in values):
            raise ProblemFormatError(
                f"{self.form}-form assignment must take values in {sorted(allowed)}, "
                f"got {values!r}"
            )
        object.__setattr__(self, "values", tuple(int(v) for v in values))

    @property
    def n(self) -> int:
        return len(self.values)

    def to_sigma(self) -> "SpinAssignment":
        if self.form == SIGMA_FORM:
            return self
        return SpinAssignment(tuple(2 * q - 1 for q in self.values), SIGMA_FORM)

    def to_q(self) -> "SpinAssignment":
        if self.form == Q_FORM:
            return self
        return SpinAssignment(tuple((s + 1) // 2 for s in self.values), Q_FORM)

    @classmethod
    def from_basis_index(cls, m: int, n: int) -> "SpinAssignment":
        """Assignment encoded by computational basis index m (bit i = 0 means q_i = 1)."""
        m, n = _integer(m, "basis index m"), _count(n, "spin count n")
        if not 0 <= m < (1 << n):
            raise ProblemFormatError(f"basis index {m} out of range for n={n}")
        return cls(tuple(1 - ((m >> i) & 1) for i in range(n)), Q_FORM)

    @property
    def basis_index(self) -> int:
        q = self.to_q().values
        return sum((1 - qi) << i for i, qi in enumerate(q))


@dataclass(frozen=True)
class MisChainSpec:
    """Five-vertex weighted-path independent-set instance with a tunable final gap.

    ``delta_b`` splits the two degenerate optima of the balanced chain so that
    the two lowest problem energies differ by exactly ``delta_b``. The edge
    weight is uniform; changing it reshapes the rest of the landscape without
    changing which sets are independent.
    """

    delta_b: float
    coupling: float = 6.08

    def __post_init__(self):
        object.__setattr__(self, "delta_b", _finite(self.delta_b, "delta_b"))
        if self.delta_b < 0:
            raise ProblemFormatError(f"delta_b must be >= 0, got {self.delta_b}")
        object.__setattr__(self, "coupling", _finite(self.coupling, "coupling"))

    @property
    def weights(self) -> tuple[float, ...]:
        return (-4.0, -6.0 + self.delta_b, -4.0, -6.0, -4.0)


def mis_chain(spec: MisChainSpec) -> QuboProblem:
    """Build the 5-variable path-graph QUBO for one chain instance."""
    quadratic = {edge: spec.coupling for edge in MIS_CHAIN_EDGES}
    return QuboProblem(n=5, Q=quadratic, b=spec.weights, offset=0.0)


def qubo_to_ising(p: QuboProblem) -> IsingProblem:
    """Exact change of variables q -> sigma.

    J_ij = Q_ij / 4, h_i = b_i / 2 + (1/4) sum_{j != i} Q_ij, and the offset
    absorbs the constant so total energies match assignment by assignment.
    Raises ProblemFormatError naming the input whose converted value overflows.
    """
    couplings = {key: value / 4.0 for key, value in p.Q.items()}
    row_sums = [0.0] * p.n
    for (i, j), value in p.Q.items():
        row_sums[i] += value
        row_sums[j] += value
    fields = tuple(
        _converted(p.b[i] / 2.0 + row_sums[i] / 4.0, "qubo_to_ising",
                   f"b[{i}] = {p.b[i]!r} with the quadratic entries of variable {i}")
        for i in range(p.n)
    )
    offset = _converted(p.offset + sum(p.b) / 2.0 + sum(p.Q.values()) / 4.0, "qubo_to_ising",
                        f"offset = {p.offset!r} with the sums of b and of the quadratic entries")
    return IsingProblem(n=p.n, J=couplings, h=fields, offset=offset)


def ising_to_qubo(p: IsingProblem) -> QuboProblem:
    """Exact inverse of :func:`qubo_to_ising` up to offset bookkeeping.

    Q_ij = 4 J_ij, b_i = 2 h_i - 2 sum_{j != i} J_ij, and the offset gains
    sum_{i<j} J_ij - sum_i h_i. Raises ProblemFormatError naming the input
    whose converted value overflows.
    """
    quadratic = {
        (i, j): _converted(4.0 * value, "ising_to_qubo", f"coupling ({i},{j}) = {value!r}")
        for (i, j), value in p.J.items()
    }
    row_sums = [0.0] * p.n
    for (i, j), value in p.J.items():
        row_sums[i] += value
        row_sums[j] += value
    linear = tuple(
        _converted(2.0 * p.h[i] - 2.0 * row_sums[i], "ising_to_qubo",
                   f"h[{i}] = {p.h[i]!r} with the couplings of spin {i}")
        for i in range(p.n)
    )
    offset = _converted(p.offset + sum(p.J.values()) - sum(p.h), "ising_to_qubo",
                        f"offset = {p.offset!r} with the sums of the couplings and of h")
    return QuboProblem(n=p.n, Q=quadratic, b=linear, offset=offset)


#: File-format tag -> container; both take (n, quadratic, linear, offset) in that order.
_FORM_TAGS = {"qubo": QuboProblem, "ising": IsingProblem}


def form_of(problem) -> str:
    """File-format tag of a problem instance ('qubo' or 'ising')."""
    for tag, cls in _FORM_TAGS.items():
        if isinstance(problem, cls):
            return tag
    raise ProblemFormatError(f"not a problem instance: {type(problem).__name__}")


def save_problem(problem, path) -> None:
    """Write a problem as JSON: form tag, n, sparse quadratic, dense linear, offset."""
    form = form_of(problem)
    n, quad, linear, offset = (getattr(problem, f.name) for f in fields(problem))
    doc = {
        "form": form,
        "n": n,
        "quadratic": [[i, j, value] for (i, j), value in sorted(quad.items())],
        "linear": list(linear),
        "offset": offset,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_problem(path):
    """Read a problem file back; returns QuboProblem or IsingProblem by form tag."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError as exc:
            raise ProblemFormatError(f"{path}: not UTF-8 text ({exc})") from exc
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"{path}: not valid JSON ({exc})") from exc
    try:
        form = doc["form"]
        n = doc["n"]
        entries = doc["quadratic"]
        linear = doc["linear"]
        offset = doc.get("offset", 0.0)
    except (KeyError, TypeError) as exc:
        raise ProblemFormatError(f"{path}: missing or malformed field ({exc})") from exc
    if not isinstance(form, str) or form not in _FORM_TAGS:
        raise ProblemFormatError(f"{path}: unknown form tag {form!r}")
    if type(n) is not int or n < 1:  # a JSON integer; bools and floats are refused
        raise ProblemFormatError(f"{path}: n must be a positive integer, got {n!r}")
    if not isinstance(linear, list) or len(linear) != n:
        raise ProblemFormatError(f"{path}: linear must be a list of n={n} numbers")
    if not isinstance(entries, list):
        raise ProblemFormatError(f"{path}: quadratic must be a list of [i, j, value] entries")
    quad: dict[tuple[int, int], float] = {}
    for entry in entries:
        try:
            i, j, value = entry
            # JSON numbers as ``json`` parses them; strings, booleans and null are not.
            if type(i) is not int or type(j) is not int or type(value) not in (int, float):
                raise TypeError
        except (TypeError, ValueError) as exc:
            raise ProblemFormatError(
                f"{path}: bad quadratic entry {entry!r}; expected [i, j, value] "
                "with integer indices and a numeric value"
            ) from exc
        if (i, j) in quad:  # a reversed repeat is caught when the problem is built
            raise ProblemFormatError(f"{path}: duplicate quadratic entry for pair {(i, j)}")
        quad[(i, j)] = value
    try:
        return _FORM_TAGS[form](n, quad, linear, offset)
    except ProblemFormatError as exc:
        raise ProblemFormatError(f"{path}: {exc}") from exc

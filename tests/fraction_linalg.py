"""Fraction RREF linear algebra: the independent oracle for the integer layer.

A subspace of Q^n is represented by the reduced row echelon basis of its
row space.  RREF is a canonical form, so two subspaces are equal exactly
when their bases agree entrywise.  The package computes with primitive
integer rows (``arrideals.linalg``); ``subspace_from_int_rows`` converts
those to this form so every integer result can be checked against plain
Fraction elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from arrideals.linalg import to_fraction


@dataclass(frozen=True)
class QMatrix:
    """Immutable rectangular matrix with Fraction entries."""

    entries: tuple[tuple[Fraction, ...], ...]
    cols: int

    def __post_init__(self) -> None:
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence], cols: int | None = None) -> "QMatrix":
        ent = tuple(tuple(to_fraction(x) for x in row) for row in rows)
        if cols is None:
            if not ent:
                raise ValueError("empty matrix needs an explicit column count")
            cols = len(ent[0])
        return cls(ent, cols)


@dataclass(frozen=True)
class Subspace:
    """Row space of a matrix, stored as its canonical RREF basis.

    Invariants: basis rows are nonzero, pivots strictly increase, every
    pivot entry is 1 and every pivot column is zero elsewhere.  They are
    checked at construction, so a Subspace can only hold a genuine RREF.
    """

    ambient_dim: int
    basis: QMatrix

    def __post_init__(self) -> None:
        if self.basis.cols != self.ambient_dim:
            raise ValueError("basis width differs from ambient dimension")
        last = -1
        for row in self.basis.entries:
            p = _first_nonzero(row)
            if p is None or p <= last:
                raise ValueError("basis is not in reduced row echelon form")
            if row[p] != 1:
                raise ValueError("pivot entry is not 1")
            for other in self.basis.entries:
                if other is not row and other[p] != 0:
                    raise ValueError("pivot column is not clear")
            last = p

    @property
    def rank(self) -> int:
        return self.basis.rows

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(_first_nonzero(row) for row in self.basis.entries)


def _first_nonzero(row: Sequence) -> int | None:
    for i, a in enumerate(row):
        if a:
            return i
    return None


def rref(m: QMatrix) -> Subspace:
    """Canonical RREF of the row space of ``m``.

    Row-equivalent matrices give entrywise-equal results; the empty matrix
    gives the rank-0 subspace.
    """
    basis: list[list[Fraction]] = []  # fully reduced, pivots ascending
    pivots: list[int] = []
    for row in m.entries:
        v = list(row)
        for r, p in zip(basis, pivots):
            c = v[p]
            if c:
                v = [a - c * b for a, b in zip(v, r)]
        p = _first_nonzero(v)
        if p is None:
            continue
        inv = v[p]
        v = [a / inv for a in v]
        for r in basis:
            c = r[p]
            if c:
                r[:] = [a - c * b for a, b in zip(r, v)]
        k = 0
        while k < len(pivots) and pivots[k] < p:
            k += 1
        basis.insert(k, v)
        pivots.insert(k, p)
    return Subspace(m.cols, QMatrix(tuple(tuple(r) for r in basis), m.cols))


def reduce_against(vec: Sequence, rows: Sequence[Sequence],
                   pivots: Sequence[int]) -> list[Fraction]:
    """``vec`` minus, row by row in order, the multiple of the row that
    clears its entry at the row's pivot."""
    v = [Fraction(a) for a in vec]
    for row, p in zip(rows, pivots):
        c = v[p] / row[p]
        if c:
            v = [a - c * b for a, b in zip(v, row)]
    return v


def span(vectors: Iterable[Sequence], ambient_dim: int) -> Subspace:
    """Subspace spanned by the given vectors."""
    return rref(QMatrix.from_rows(vectors, ambient_dim))


def span_contains(s: Subspace, v: Sequence) -> bool:
    """Whether ``v`` is a rational combination of the basis rows."""
    if len(v) != s.ambient_dim:
        raise ValueError(
            f"vector has length {len(v)}, ambient dimension is {s.ambient_dim}"
        )
    w = [to_fraction(x) for x in v]
    for row, p in zip(s.basis.entries, s.pivots):
        c = w[p]
        if c:
            w = [a - c * b for a, b in zip(w, row)]
    return all(a == 0 for a in w)


def span_sum(a: Subspace, b: Subspace) -> Subspace:
    """Sum of two subspaces (RREF of the stacked bases)."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return rref(QMatrix(a.basis.entries + b.basis.entries, a.ambient_dim))


def span_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection of two subspaces via the Zassenhaus block trick.

    Row reduce [A|A ; B|0]: the RREF rows whose left half vanishes carry
    the intersection in their right halves, and those right halves are
    already in RREF.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimensions differ")
    n = a.ambient_dim
    zero = (Fraction(0),) * n
    stacked = [row + row for row in a.basis.entries]
    stacked += [row + zero for row in b.basis.entries]
    reduced = rref(QMatrix(tuple(stacked), 2 * n))
    rows = [
        row[n:]
        for row, p in zip(reduced.basis.entries, reduced.pivots)
        if p >= n
    ]
    return Subspace(n, QMatrix(tuple(rows), n))


def subspace_from_int_rows(rows: Sequence[Sequence[int]], width: int) -> Subspace:
    """Convert canonical integer rows (see ``int_canonical``) to a Subspace.

    The Subspace constructor re-checks the RREF invariants, so this also
    certifies that the integer rows were in canonical form.
    """
    out = []
    for row in rows:
        p = _first_nonzero(row)
        pv = row[p]
        out.append(tuple(Fraction(a, pv) for a in row))
    return Subspace(width, QMatrix(tuple(out), width))

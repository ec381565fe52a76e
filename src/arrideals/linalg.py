"""Exact linear algebra over the rationals, on primitive integer rows.

Every vector is scaled to a primitive integer vector (``primitive_vector``)
and all row-space arithmetic is fraction-free: reduction multiplies by the
pivot instead of dividing.  The arithmetic is arbitrary-precision and never
touches floating point.  Fraction normalisation is avoided because big
intersection lattices and graded ideal pieces involve millions of row
operations.

An "echelon list" is a pair (rows, pivots) of parallel lists kept in
insertion order: every row was reduced against all earlier rows before
being appended, so it is zero at all earlier pivots.  Reducing a vector
against the rows *in stored order* is therefore sound.  Rows are primitive
integer vectors with positive pivot entry.

``_signed_primitive`` is the one normal form: a nonzero vector scaled to a
primitive integer vector with a positive pivot.  Hyperplane normals are
stored in it from parse on, and row insertion (``int_residual``) and the
covers of a flat (``int_eliminate``, one row, pivot column deleted) end in
it.  ``int_eliminate``, the lattice's inner step, reaches it with one
``math.gcd`` over the whole vector and one sign check.  It builds the class
tables of the lattice's ranks 1 … r − 3, from vectors of 4 or more
essential coordinates; the lattice module writes out the 3-vector step of
rank r − 2 itself.  ``int_reduce`` is the one elimination step against an
echelon list, which ``int_canonical`` reuses: it divides out the gcd of
the pivot entry and the entry it clears, so coefficients stay small on
non-unit pivots.  Each result is a positive
multiple of the plain pv·v − c·row, so nothing put in the normal form
depends on which multiple was taken.  An echelon row is zero before its
pivot p, so a step updates v[p:] only, and scales v[:p] by the reduced
pivot entry only when that is not 1.

``int_canonical`` turns an echelon list into the reduced row echelon basis
of its row space, rescaled to primitive integers.  That basis is unique for
the subspace, so two subspaces are equal exactly when their canonical rows
agree entrywise; this equality is what the rest of the package uses to
certify ideal identities.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence


def to_fraction(x) -> Fraction:
    """Exact conversion; floats are refused rather than laundered."""
    if isinstance(x, float):
        raise TypeError(f"floating point value {x!r} not allowed; use Fraction or int")
    return Fraction(x)


def _first_nonzero(row: Sequence) -> int | None:
    """Index of the first nonzero entry (the pivot), None for a zero row."""
    for i, a in enumerate(row):
        if a:
            return i
    return None


def _strip(v: list[int]) -> None:
    g = 0
    for a in v:
        g = gcd(g, a)
        if g == 1:
            return
    if g > 1:
        for i, a in enumerate(v):
            v[i] = a // g


def primitive_vector(values: Sequence) -> tuple[int, ...]:
    """Scale a rational vector by a positive rational to primitive integers."""
    fr = [x if isinstance(x, int) else to_fraction(x) for x in values]
    den = lcm(*(f.denominator for f in fr)) if fr else 1
    ints = [f.numerator * (den // f.denominator) for f in fr]
    _strip(ints)
    return tuple(ints)


def int_reduce(vec: Sequence[int], rows: Sequence[Sequence[int]],
               pivots: Sequence[int]) -> list[int]:
    """Fraction-free reduction of ``vec`` against an echelon list: each
    step clears the pivot p with v ← (pv/g)·v − (c/g)·row, where pv = row[p],
    c = v[p] and g = gcd(pv, c) > 0."""
    v = list(vec)
    for row, p in zip(rows, pivots):
        c = v[p]
        if not c:
            continue
        pv = row[p]
        if pv != 1:
            g = gcd(pv, c)
            pv, c = pv // g, c // g
        # the row is zero before its pivot: only v[p:] takes c·row
        if pv == 1:
            v[p:] = [a - c * b for a, b in zip(v[p:], row[p:])]
        else:
            v[:p] = [pv * a for a in v[:p]]
            v[p:] = [pv * a - c * b for a, b in zip(v[p:], row[p:])]
    return v


def _signed_primitive(v: list[int]) -> tuple[tuple[int, ...], int | None]:
    """``v`` scaled to a primitive vector with a positive pivot, and that
    pivot; a zero vector is returned as it is, with pivot None."""
    p = _first_nonzero(v)
    if p is None:
        return tuple(v), None
    if v[p] < 0:
        v = [-a for a in v]
    _strip(v)
    return tuple(v), p


def int_residual(vec: Sequence[int], rows: Sequence[Sequence[int]],
                 pivots: Sequence[int]) -> tuple[tuple[int, ...], int | None]:
    """``vec`` reduced against an echelon list, primitive with a positive pivot.

    The pivot is None when ``vec`` lies in the row space.  Proportional
    vectors have equal residuals.
    """
    return _signed_primitive(int_reduce(vec, rows, pivots))


def int_eliminate(vec: tuple[int, ...], row: Sequence[int], p: int) -> tuple[int, ...]:
    """``int_residual`` of ``vec`` against the one row ``row`` with pivot ``p``,
    with column ``p`` (zero after the reduction) deleted.

    ``vec`` must be primitive with a positive pivot, as residuals are; then a
    zero at ``p`` leaves nothing to reduce or normalize.
    """
    c = vec[p]
    if not c:
        return vec[:p] + vec[p + 1:]
    pv = row[p]
    if pv == 1:
        v = [a - c * b for a, b in zip(vec, row)]
    else:
        v = [pv * a - c * b for a, b in zip(vec, row)]
    del v[p]
    g = gcd(*v)  # 0 only for a zero vector, which is left as it is
    for a in v:
        if a:
            if a < 0:
                g = -g
            break
    if g and g != 1:
        v = [a // g for a in v]
    return tuple(v)


def int_insert(rows: list, pivots: list, vec: Sequence[int]) -> bool:
    """Append ``vec`` to an echelon list; False if it was already spanned."""
    v, p = int_residual(vec, rows, pivots)
    if p is None:
        return False
    rows.append(v)
    pivots.append(p)
    return True


def int_span(vectors: Iterable[Sequence[int]], width: int) -> tuple[list, list]:
    rows: list = []
    pivots: list = []
    for v in vectors:
        if len(v) != width:
            raise ValueError("vector width mismatch")
        int_insert(rows, pivots, v)
    return rows, pivots


def int_canonical(rows: Sequence[Sequence[int]],
                  pivots: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Canonical form of an echelon list: primitive-integer-scaled RREF.

    Unique for the row space, hence usable as a dictionary key.
    """
    order = sorted(range(len(rows)), key=lambda i: pivots[i])
    rs = [list(rows[i]) for i in order]
    ps = [pivots[i] for i in order]
    for i, p in enumerate(ps):
        if rs[i][p] < 0:
            rs[i] = [-a for a in rs[i]]
    # bottom up: the rows below j are reduced and zero at p_j, so each step
    # only scales row j's pivot entry by a positive factor
    for j in range(len(rs) - 2, -1, -1):
        rs[j] = int_reduce(rs[j], rs[j + 1:], ps[j + 1:])
    for r in rs:
        _strip(r)  # reduced rows, and inputs, need not be primitive
    return tuple(tuple(r) for r in rs)

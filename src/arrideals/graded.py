"""Homogeneous ideals represented degree by degree.

A graded ideal is truncated at a degree bound D: for each degree d ≤ D it
stores the subspace of the coefficient space of degree-d monomials spanned
by the ideal's degree-d elements.  Equality of two such truncations is a
partial certificate, "equal up to degree D", and that is exactly what it
is called everywhere.  Monomials of one degree are ordered graded-
lexicographically (largest exponent vector first), which fixes all bases.

Pieces are computed and stored as canonical primitive-integer row bases
(see linalg).  Every constructed ideal is checked for multiplicative closure: each piece times each variable must land in the
next piece.  Coefficients are rational, which is faithful for every
identity handled here since all inputs are rational.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, lcm
from typing import Mapping, Sequence

from .errors import InvariantError
from .lattice import Flat
from .linalg import (
    _first_nonzero,
    int_canonical,
    int_contains,
    int_insert,
    int_intersect,
    to_fraction,
)

Monomial = tuple[int, ...]  # exponent vector; degree = sum of entries


@lru_cache(maxsize=None)
def monomials(nvars: int, degree: int) -> tuple[Monomial, ...]:
    """Degree-d monomials in graded lex order (exponent tuples descending).

    Sorted variable multisets in lexicographic order are exactly the
    exponent vectors in descending order, so no recursion over the
    variables is needed.
    """
    if nvars < 1:
        raise ValueError("need at least one variable")
    if degree < 0:
        return ()
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        expo = [0] * nvars
        for var in combo:
            expo[var] += 1
        out.append(tuple(expo))
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(nvars: int, degree: int) -> dict[Monomial, int]:
    return {m: i for i, m in enumerate(monomials(nvars, degree))}


@lru_cache(maxsize=None)
def _shift_table(nvars: int, degree: int, var: int) -> tuple[int, ...]:
    """Position map for multiplying degree-d monomials by x_var."""
    idx = monomial_index(nvars, degree + 1)
    out = []
    for m in monomials(nvars, degree):
        shifted = list(m)
        shifted[var] += 1
        out.append(idx[tuple(shifted)])
    return tuple(out)


def _shift_row(row: Sequence[int], table: Sequence[int], width: int) -> list[int]:
    out = [0] * width
    for a, pos in zip(row, table):
        if a:
            out[pos] = a
    return out


class PolynomialParseError(ValueError):
    """Raised for malformed polynomial strings; carries the offending position."""


@dataclass(frozen=True)
class Polynomial:
    """Multivariate polynomial with Fraction coefficients.

    Terms are stored sorted in graded lex order, highest first, with no
    zero coefficients.
    """

    nvars: int
    terms: tuple[tuple[Monomial, Fraction], ...]

    @classmethod
    def from_terms(cls, nvars: int,
                   mapping: Mapping[Monomial, Fraction]) -> "Polynomial":
        clean = {}
        for mono, coef in mapping.items():
            mono = tuple(mono)
            if len(mono) != nvars or any(e < 0 for e in mono):
                raise ValueError(f"bad exponent vector {mono}")
            coef = to_fraction(coef)
            if coef:
                clean[mono] = coef
        ordered = sorted(clean.items(),
                         key=lambda t: (sum(t[0]), t[0]), reverse=True)
        return cls(nvars, tuple(ordered))

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, ())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(m) for m, _ in self.terms), default=-1)

    def homogeneous_parts(self) -> dict[int, dict[Monomial, Fraction]]:
        parts: dict[int, dict[Monomial, Fraction]] = {}
        for mono, coef in self.terms:
            parts.setdefault(sum(mono), {})[mono] = coef
        return parts

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        acc = dict(self.terms)
        for mono, coef in other.terms:
            acc[mono] = acc.get(mono, Fraction(0)) + coef
        return Polynomial.from_terms(self.nvars, acc)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        acc: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = tuple(a + b for a, b in zip(m1, m2))
                acc[m] = acc.get(m, Fraction(0)) + c1 * c2
        return Polynomial.from_terms(self.nvars, acc)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for mono, coef in self.terms:
            factors = [
                f"x{i}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(mono) if e
            ]
            if not factors:
                bits.append(str(coef))
            elif coef == 1:
                bits.append("*".join(factors))
            elif coef == -1:
                bits.append("-" + "*".join(factors))
            else:
                bits.append(f"{coef}*" + "*".join(factors))
        out = bits[0]
        for b in bits[1:]:
            out += " - " + b[1:] if b.startswith("-") else " + " + b
        return out


_TOKEN = re.compile(r"(?P<num>\d+(?:/\d+)?)|(?P<var>x\d+)|(?P<op>[-+*^])|(?P<ws>\s+)|(?P<bad>.)")


def parse_polynomial(text: str, nvars: int) -> Polynomial:
    """Parse terms joined by + or -.

    A term is an optional rational coefficient ("p" or "p/q"), an optional
    "*", then "*"-joined factors x<i> with an optional ^<k>.  Variables run
    x0..x{nvars-1}; whitespace is ignored.
    """
    tokens: list[tuple[str, str, int]] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise PolynomialParseError(
                f"unexpected character {m.group()!r} at position {m.start()}"
            )
        tokens.append((kind, m.group(), m.start()))

    acc: dict[Monomial, Fraction] = {}
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, "", len(text))

    def take():
        nonlocal pos
        tok = peek()
        pos += 1
        return tok

    def parse_term(sign: int) -> None:
        kind, value, at = peek()
        if kind == "op" and value in "+-":  # signed coefficient, e.g. "+ -2*x0"
            take()
            if value == "-":
                sign = -sign
            kind, value, at = peek()
        if kind is None:
            raise PolynomialParseError(f"expected a term at position {at}")
        coef = Fraction(sign)
        expo = [0] * nvars
        saw_factor = False
        if kind == "num":
            take()
            if "/" in value and int(value.split("/")[1]) == 0:
                raise PolynomialParseError(f"zero denominator at position {at}")
            coef *= Fraction(value)
            if peek()[:2] == ("op", "*"):
                take()
            elif peek()[0] != "var":
                # bare constant term
                acc[tuple(expo)] = acc.get(tuple(expo), Fraction(0)) + coef
                return
        while True:
            kind, value, at = peek()
            if kind != "var":
                if not saw_factor:
                    raise PolynomialParseError(f"expected a variable at position {at}")
                break
            take()
            index = int(value[1:])
            if index >= nvars:
                raise PolynomialParseError(
                    f"variable x{index} out of range (have x0..x{nvars - 1}) "
                    f"at position {at}"
                )
            power = 1
            if peek()[:2] == ("op", "^"):
                take()
                kind, value, at = peek()
                if kind != "num" or "/" in value:
                    raise PolynomialParseError(f"expected an integer exponent at position {at}")
                take()
                power = int(value)
            expo[index] += power
            saw_factor = True
            if peek()[:2] == ("op", "*"):
                take()
                continue
            break
        mono = tuple(expo)
        acc[mono] = acc.get(mono, Fraction(0)) + coef

    # leading sign
    sign = 1
    if peek()[:2] in (("op", "+"), ("op", "-")):
        sign = -1 if take()[1] == "-" else 1
    parse_term(sign)
    while pos < len(tokens):
        kind, value, at = take()
        if kind != "op" or value not in "+-":
            raise PolynomialParseError(f"expected + or - at position {at}")
        parse_term(-1 if value == "-" else 1)
    return Polynomial.from_terms(nvars, acc)


IntRows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class GradedIdeal:
    """Degreewise truncation of a homogeneous ideal up to ``degree_bound``.

    ``piece_rows[d]`` is the canonical integer basis of the degree-d piece in
    the coefficient space of degree-d monomials.  Construction verifies
    multiplicative closure.
    """

    nvars: int
    degree_bound: int
    piece_rows: tuple[IntRows, ...]

    def __post_init__(self) -> None:
        if len(self.piece_rows) != self.degree_bound + 1:
            raise InvariantError("piece count does not match the degree bound")
        for d, rows in enumerate(self.piece_rows):
            space = comb(self.nvars + d - 1, d)
            if not 0 <= len(rows) <= space:
                raise InvariantError(f"degree-{d} piece has impossible dimension")
            for r in rows:
                if len(r) != space:
                    raise InvariantError(f"degree-{d} piece has wrong width")
        self._check_multiplicative_closure()

    def _check_multiplicative_closure(self) -> None:
        for d in range(self.degree_bound):
            nxt = self.piece_rows[d + 1]
            pivots = [_first_nonzero(r) for r in nxt]
            width = comb(self.nvars + d, d + 1)
            for var in range(self.nvars):
                table = _shift_table(self.nvars, d, var)
                for row in self.piece_rows[d]:
                    shifted = _shift_row(row, table, width)
                    if not int_contains(nxt, pivots, shifted):
                        raise InvariantError(
                            f"degree-{d} piece times x{var} leaves the degree-{d + 1} piece"
                        )


def unit_ideal(nvars: int, bound: int) -> GradedIdeal:
    """Truncation of the whole polynomial ring."""
    pieces = []
    for d in range(bound + 1):
        space = comb(nvars + d - 1, d)
        pieces.append(tuple(
            tuple(1 if i == j else 0 for i in range(space)) for j in range(space)
        ))
    return GradedIdeal(nvars, bound, tuple(pieces))


def hilbert(gi: GradedIdeal) -> list[int]:
    """Dimension of each piece, degrees 0..degree_bound."""
    return [len(rows) for rows in gi.piece_rows]


def graded_power(flat: Flat, exponent: int, bound: int) -> GradedIdeal:
    """Truncation of I_W^e for the ideal of a linear flat W.

    Generated by the e-fold products of the flat's normal-space basis
    forms; for a linear flat this is everything vanishing to order ≥ e
    along it, because ordinary and symbolic powers of such ideals agree.
    """
    if exponent < 1:
        raise ValueError(f"exponent must be >= 1, got {exponent}")
    if bound < 0:
        raise ValueError(f"degree bound must be >= 0, got {bound}")
    if flat.rank == 0:
        raise ValueError("the ambient space has no proper ideal")
    return _power_of_forms(flat.basis_rows, flat.ambient_dim, exponent, bound)


@lru_cache(maxsize=None)
def _power_of_forms(forms: IntRows, nvars: int, exponent: int,
                    bound: int) -> GradedIdeal:
    pieces: list[IntRows] = [() for _ in range(bound + 1)]
    if exponent <= bound:
        rows: list = []
        pivots: list = []
        idx = monomial_index(nvars, exponent)
        for combo in combinations_with_replacement(range(len(forms)), exponent):
            poly: dict[Monomial, int] = {(0,) * nvars: 1}
            for g in combo:
                form = forms[g]
                nxt: dict[Monomial, int] = {}
                for mono, coef in poly.items():
                    for var, c in enumerate(form):
                        if c:
                            m = list(mono)
                            m[var] += 1
                            m = tuple(m)
                            nxt[m] = nxt.get(m, 0) + coef * c
                poly = {m: c for m, c in nxt.items() if c}
            vec = [0] * len(idx)
            for mono, coef in poly.items():
                vec[idx[mono]] = coef
            int_insert(rows, pivots, vec)
        pieces[exponent] = int_canonical(rows, pivots)
        for d in range(exponent + 1, bound + 1):
            width = comb(nvars + d - 1, d)
            rows, pivots = [], []
            for var in range(nvars):
                table = _shift_table(nvars, d - 1, var)
                for row in pieces[d - 1]:
                    int_insert(rows, pivots, _shift_row(row, table, width))
            pieces[d] = int_canonical(rows, pivots)
    return GradedIdeal(nvars, bound, tuple(pieces))


def graded_intersect(ideals: Sequence[GradedIdeal], bound: int,
                     nvars: int | None = None) -> GradedIdeal:
    """Degreewise intersection; the empty intersection is the unit ideal."""
    if not ideals:
        if nvars is None:
            raise ValueError("empty intersection needs an explicit variable count")
        return unit_ideal(nvars, bound)
    n = ideals[0].nvars
    for gi in ideals:
        if gi.nvars != n:
            raise ValueError("variable counts differ")
        if gi.degree_bound < bound:
            raise ValueError("an input is truncated below the requested bound")
    pieces: list[IntRows] = []
    for d in range(bound + 1):
        width = comb(n + d - 1, d)
        parts = sorted((gi.piece_rows[d] for gi in ideals), key=len)
        cur = parts[0]
        for nxt in parts[1:]:
            if not cur:
                break
            if cur == nxt:
                continue
            cur = int_intersect(cur, nxt, width)
        pieces.append(cur)
    return GradedIdeal(n, bound, tuple(pieces))


def graded_equal(a: GradedIdeal, b: GradedIdeal, bound: int) -> bool:
    """Whether the two truncations agree in every degree up to ``bound``."""
    if a.nvars != b.nvars:
        raise ValueError("variable counts differ")
    if a.degree_bound < bound or b.degree_bound < bound:
        raise ValueError("an input is truncated below the requested bound")
    return all(a.piece_rows[d] == b.piece_rows[d] for d in range(bound + 1))


def graded_contains(a: GradedIdeal, b: GradedIdeal, bound: int) -> bool:
    """Whether every piece of ``b`` lies inside the matching piece of ``a``."""
    if a.nvars != b.nvars:
        raise ValueError("variable counts differ")
    if a.degree_bound < bound or b.degree_bound < bound:
        raise ValueError("an input is truncated below the requested bound")
    for d in range(bound + 1):
        rows = a.piece_rows[d]
        pivots = [_first_nonzero(r) for r in rows]
        for v in b.piece_rows[d]:
            if not int_contains(rows, pivots, v):
                return False
    return True


def contains_polynomial(gi: GradedIdeal, poly: Polynomial) -> bool:
    """Whether every homogeneous component of ``poly`` lies in its piece."""
    if poly.nvars != gi.nvars:
        raise ValueError("variable counts differ")
    if poly.is_zero:
        return True
    if poly.degree > gi.degree_bound:
        raise ValueError(
            f"polynomial degree {poly.degree} exceeds the truncation bound {gi.degree_bound}"
        )
    for d, part in poly.homogeneous_parts().items():
        idx = monomial_index(gi.nvars, d)
        den = lcm(*(c.denominator for c in part.values()))
        vec = [0] * len(idx)
        for mono, coef in part.items():
            vec[idx[mono]] = int(coef * den)
        rows = gi.piece_rows[d]
        pivots = [_first_nonzero(r) for r in rows]
        if not int_contains(rows, pivots, vec):
            return False
    return True

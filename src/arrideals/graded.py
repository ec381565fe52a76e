"""Homogeneous ideals read degree by degree, each power in its own coordinates.

Every ideal here is an intersection of powers I_W^e of ideals of linear
flats W, read only in degrees d ≤ D for a degree bound D.  Agreement of
two such readings is a partial certificate, "equal up to degree D", and
that is exactly what it is called everywhere.  Monomials of one degree are
ordered graded-lexicographically (largest exponent vector first), which
fixes every coefficient vector.

A power of a flat's ideal is a monomial ideal in the flat's coordinates.
Let the canonical forms ℓ_1..ℓ_r of W have pivots p_i, M be the lcm of the
pivot entries and s_i = M/ℓ_i[p_i].  Put x_c = M·u_c on each free column c
and x_(p_i) = s_i·(v_i − Σ_c ℓ_i[c]·u_c), so that ℓ_i(x) = M·v_i.  This is
an invertible change of coordinates with integer coefficients, and in
(u, v) the ideal I_W is (v_1..v_r), so I_W^e = (v)^e: a form lies in it
exactly when its coefficients of v-degree below e are all 0.  In degree d
each such coefficient is a linear functional on coefficient vectors, so
they span the perp of (I_W^e)_d, and the functionals of all terms span the
perp of the degree-d piece of an intersection: the piece has dimension
width − rank, and a polynomial is in the intersection when every
coefficient of every term vanishes on each homogeneous component.  The
functional of the coefficient of v^β·u^γ, read on the degree-d monomials
in order, is the row of that coefficient in their expansions.  So ranks
and membership read one truncated expansion: membership expands the
polynomial (``_Power.vanishes``), and a row is the transpose of the
monomials' expansions (``_Power.rows``).  No
piece is ever built, nor is a perp kept: a term's rows in one degree are
read off one expansion of that degree's monomials as they are stacked.
The only caches are the per-degree monomial tables.

Many coefficients of a term are often spanned already.  Let I_U^(e_U) be
a power stacked before I_W^e, with closed(U) ⊆ closed(W) (W itself at a
lower exponent included).  Then I_U ⊆ I_W, so I_U^(e_U) ⊆ I_W^(e_U): every
coefficient of W's expansion of v-degree below e_U vanishes on it, and so
lies in U's perp, which the stack spans (by induction on the stacking
order, U's own left-out coefficients included).  So a term is
(forms, e, j0) and reads only its coefficients of v-degree j0 … e − 1, j0
the largest such e_U: no rank changes.  With j0 = 0 it reads all of them;
the multiplier module computes j0 from the flats' closed sets.

This module reads one power, ``_Power``, given as a term (forms, e, j0):
a flat's canonical rows, an exponent and the lowest v-degree of a
coefficient that is read.  The multiplier module reads a presentation:
it factors out the hyperplane powers, computes j0, stacks the rows and
reads piece dimensions off their ranks (its ``_Stack``), and decides
membership one power at a time.

Coefficients are rational, which is faithful for every identity handled
here since all inputs are rational.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, lcm
from typing import Iterator, Mapping, Sequence

from .linalg import _first_nonzero, to_fraction

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


class PolynomialParseError(ValueError):
    """Raised for malformed polynomial strings; carries the offending position."""


@dataclass(frozen=True)
class Polynomial:
    """Multivariate polynomial with rational coefficients: an ``int`` or a
    ``Fraction``, which compare and hash alike when equal.

    Terms are stored sorted in graded lex order, highest first, with no
    zero coefficients.
    """

    nvars: int
    terms: tuple[tuple[Monomial, int | Fraction], ...]

    @classmethod
    def from_terms(cls, nvars: int,
                   mapping: Mapping[Monomial, int | Fraction]) -> "Polynomial":
        clean = {}
        for mono, coef in mapping.items():
            mono = tuple(mono)
            if len(mono) != nvars or any(e < 0 for e in mono):
                raise ValueError(f"bad exponent vector {mono}")
            if not isinstance(coef, int):
                coef = to_fraction(coef)
            if coef:
                clean[mono] = coef
        ordered = sorted(clean.items(),
                         key=lambda t: (sum(t[0]), t[0]), reverse=True)
        return cls(nvars, tuple(ordered))


_TOKEN = re.compile(r"(?P<num>\d+(?:/\d+)?)|(?P<var>x\d+)|(?P<op>[-+*^])|(?P<ws>\s+)|(?P<bad>.)")


def parse_polynomial(text: str, nvars: int) -> Polynomial:
    """Parse terms joined by + or -.

    A term is an optional rational coefficient ("p" or "p/q"), an optional
    "*", then "*"-joined factors x<i> with an optional ^<k>.  Variables run
    x0..x{nvars-1}; whitespace is ignored.  Integer coefficients stay ``int``;
    only a "p/q" makes a ``Fraction``.
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

    acc: dict[Monomial, int | Fraction] = {}
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
        coef = sign
        expo = [0] * nvars
        if kind == "num":
            take()
            num, _, den = value.partition("/")
            if not den:
                coef *= int(num)
            elif int(den) == 0:
                raise PolynomialParseError(f"zero denominator at position {at}")
            else:
                coef = Fraction(sign * int(num), int(den))
            if peek()[:2] == ("op", "*"):
                take()
            elif peek()[0] != "var":
                # bare constant term
                acc[tuple(expo)] = acc.get(tuple(expo), 0) + coef
                return
        while True:  # at the first factor or after a "*": a variable must follow
            kind, value, at = peek()
            if kind != "var":
                raise PolynomialParseError(f"expected a variable at position {at}")
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
            if peek()[:2] != ("op", "*"):
                break
            take()
        mono = tuple(expo)
        acc[mono] = acc.get(mono, 0) + coef

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


# Most monomials of one degree a piece or membership test may span: C(15, 10),
# every degree up to the default cap 10 in six variables.  Memory grows with
# the square: hilbert on braid(7) at λ = 2/3, six essential variables, stacks
# a nearly full-rank perp of width 3003 at degree 10 in 121 MB max RSS (238 s
# on a 2-core machine, Python 3.11.7).  Membership stacks nothing, but it
# keeps the guard: the image of a degree-d monomial has up to the width's
# terms.
MAX_PIECE_WIDTH = 3003

# Most monomials of all degrees up to d together: C(16, 10), the most that
# MAX_PIECE_WIDTH admits up to the default cap (six variables, degree 10).
# In one or two variables every degree is narrow, but the work grows with
# the number of degrees, so the width limit alone admits minutes of work.
MAX_TOTAL_MONOMIALS = 8008


def _check_width(nvars: int, degree: int) -> None:
    """Refuse degree d, and so every higher one, if C(n+d−1, d) is too wide
    or the C(n+d, d) monomials of degrees 0..d are too many."""
    width = comb(nvars + degree - 1, degree)
    if width > MAX_PIECE_WIDTH:
        raise ValueError(f"degree {degree} in {nvars} variables has {width} "
                         f"monomials, more than the {MAX_PIECE_WIDTH} supported")
    total = comb(nvars + degree, degree)
    if total > MAX_TOTAL_MONOMIALS:
        raise ValueError(f"degrees 0 to {degree} in {nvars} variable{'s' * (nvars > 1)} "
                         f"have {total} monomials, more than the {MAX_TOTAL_MONOMIALS} "
                         f"supported")


def _times(a: dict[int, int], b: dict[int, int], cut: int) -> dict[int, int]:
    """The product of two packed polynomials, keys at or above ``cut`` dropped."""
    out: dict[int, int] = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            if k < cut:
                out[k] = out.get(k, 0) + ca * cb
    return out


class _Power:
    """A power I^e of the ideal of canonical ``forms``, read through its
    coefficients of v-degree j0 … e − 1 in the coordinates (u, v) of the
    forms (module docstring).

    A monomial in (u, v) is packed into one integer: digit c (in ``base``,
    which must exceed every degree read) is the exponent of the variable
    at column c, u_c on a free column and v_i on the pivot p_i, and digit
    n, the most significant, is the v-degree.  Products add keys without
    carry, and v-degree < e reads key < e·base^n.  Each monomial's image is
    a product of powers of the images of the variables, shared along
    common prefixes, and only its terms below v-degree e are ever formed;
    the powers are kept for every later read.  A monomial with fewer than
    j0 pivot variables has no term of v-degree j0 or more and is skipped.
    So is one with at least e factors x_p on pivots whose form has no free
    entry: each maps to s·v alone, and the lowest v-degree of a product is
    the sum of its factors', so nothing of that monomial's image is below e.
    """

    def __init__(self, forms: IntRows, exponent: int, j0: int, base: int) -> None:
        self.forms, self.exponent, self.j0 = forms, exponent, j0
        n = len(forms[0])
        self.pivots = [_first_nonzero(f) for f in forms]
        scale = lcm(*(f[p] for f, p in zip(forms, self.pivots)))
        unit = base ** n
        self.cut, self.low = exponent * unit, j0 * unit
        self.images = [{base ** c: scale} for c in range(n)]  # x_c = M·u_c, c free
        for f, p in zip(forms, self.pivots):  # x_p = s·(v − Σ_c f[c]·u_c), s = M/f[p]
            s = scale // f[p]
            self.images[p] = {base ** p + unit: s,
                              **{base ** c: -s * f[c] for c in range(p + 1, n) if f[c]}}
        self.powers = [[{0: 1}] for _ in range(n)]
        # the pivots of forms with no free entry: x_p = s·v alone
        self.bare = [p for p in self.pivots if len(self.images[p]) == 1]

    def expand(self, monos: Sequence[Monomial]) -> Iterator[tuple[int, dict[int, int]]]:
        """(i, the terms of v-degree below e of the image of ``monos[i]``) for
        each monomial with at least j0 pivot variables and a term below e, in
        order; only the keys from ``low`` on are coefficients that are read.
        Monomials with a common prefix must be adjacent, as in lexicographic
        order, either way."""
        images, powers, pivots, j0, cut = self.images, self.powers, self.pivots, self.j0, self.cut
        bare, e = self.bare, self.exponent
        n = len(images)
        stack, prev = [{0: 1}], (-1,) * n  # stack[c]: the product over the columns before c
        for i, mono in enumerate(monos):
            if j0 and sum([mono[p] for p in pivots]) < j0:
                continue
            if bare and sum([mono[p] for p in bare]) >= e:
                continue
            start = 0
            while mono[start] == prev[start]:
                start += 1
            del stack[start + 1:]
            for c in range(start, n):
                k = mono[c]
                column = powers[c]
                while len(column) <= k:
                    column.append(_times(column[-1], images[c], cut))
                stack.append(_times(stack[-1], column[k], cut) if k else stack[-1])
            prev = mono
            yield i, stack[-1]

    def rows(self, degree: int) -> Iterator[list[int]]:
        """One row per coefficient of v-degree j0 … e − 1 in degree ``degree``:
        its value on each degree-d monomial, in monomial order."""
        monos = monomials(len(self.images), degree)
        low = self.low
        coefficients: dict[int, dict[int, int]] = {}
        for i, image in self.expand(monos):
            for key, a in image.items():
                if key < low:
                    continue
                if key in coefficients:
                    coefficients[key][i] = a
                else:
                    coefficients[key] = {i: a}
        for entries in coefficients.values():
            row = [0] * len(monos)
            for i, a in entries.items():
                row[i] = a
            yield row

    def vanishes(self, monos: Sequence[Monomial], coefs: Sequence[int]) -> bool:
        """Whether every coefficient of v-degree j0 … e − 1 of
        Σ coefs[i]·monos[i] is 0, the monomials in lexicographic order."""
        low, out = self.low, {}
        for i, image in self.expand(monos):
            coef = coefs[i]
            for key, a in image.items():
                if key >= low:
                    out[key] = out.get(key, 0) + coef * a
        return not any(out.values())

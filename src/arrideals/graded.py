"""Homogeneous ideals read degree by degree through inverse systems.

Every ideal here is an intersection of powers I_W^e of ideals of linear
flats W, read only in degrees d ≤ D for a degree bound D.  Agreement of
two such readings is a partial certificate, "equal up to degree D", and
that is exactly what it is called everywhere.  Monomials of one degree are
ordered graded-lexicographically (largest exponent vector first), which
fixes every coefficient vector.

The apolarity pairing of x^a with y^b (y_i acting as ∂/∂x_i) is
a! = a_0!·a_1!··· when a = b and 0 otherwise.  For a linear flat, the
perp of (I_W^e)_d under it is Sym^(d−e+1)(W)·S_(e−1), the degree-(d−e+1)
forms in the points of W times all forms of degree e − 1 (Emsalem–
Iarrobino, "Inverse system of a symbolic power I", J. Algebra 1995).  With
every coefficient of y^a of those forms multiplied by a!, the pairing is
the plain dot product of coefficient vectors.  So the perp of the degree-d
piece of an intersection is spanned by the stacked inverse systems of all
its terms: the piece has dimension width − rank, and a polynomial is in
the intersection when every homogeneous component is orthogonal to them.
No piece is ever built, nor is an inverse system kept: its rows are built
as they are read.  The only caches are the per-degree monomial tables.

Many rows of a term are often spanned already.  A row of I_W^e in degree d
is a product of d − j points of W and j ≤ e − 1 pivot variables, so it
lies in Sym^(d−j)(W)·S_j.  Let I_U^(e_U) be a power stacked before it, with
closed(U) ⊆ closed(W) (W itself at a lower exponent included).  Then the
flat W lies in the flat U, and for j ≤ e_U − 1 (and d ≥ e_U: every degree
read is at least every exponent stacked) that space is
Sym^(d−e_U+1)(W)·Sym^(e_U−1−j)(W)·S_j ⊆ Sym^(d−e_U+1)(U)·S_(e_U−1), U's
perp, which the stack spans (by induction on the rank, U's own left-out
rows included).  So a term is (forms, e, j0) and yields only its rows with
j ≥ j0, j0 the largest such e_U: no rank changes.  With j0 = 0 it yields
every row; the multiplier module computes j0 from the flats' closed sets.

The stacked inverse systems live in one object, ``_Perps``: per degree an
echelon list, to which terms are added in order.  The multiplier module
reads piece dimensions off its ranks.  Its stacks never hold a principal
term, a hyperplane's power (ℓ)^e: it factors their product out of the
intersection (multiplier module docstring) and stacks the rest with
lowered exponents.  Both it and ``intersection_contains`` take a power
as a term (forms, e, j0): a flat's canonical rows, an exponent and the
fewest pivot variables of a row that is read.

Membership in an intersection, ``intersection_contains``, builds no row:
f ∈ I_W^e means that f vanishes to order e along W.  Let the canonical
forms ℓ_1..ℓ_r have pivots p_i, M be the lcm of the pivot entries and
s_i = M/ℓ_i[p_i].  Put x_c = M·u_c on each free column c and
x_(p_i) = s_i·(v_i − Σ_c ℓ_i[c]·u_c), so that ℓ_i(x) = M·v_i.  The
polynomial is expanded once per term in (u, v), with integer
coefficients and truncated at v-degree e, and it passes when every
coefficient of v-degree j0 … e − 1 is 0.  This is the row pairing,
coefficient for row: ∂x/∂u_c are the points of W (``int_kernel``'s
vectors) and ∂x/∂v_i = s_i·e_(p_i), so in a component of degree d the
coefficient of v^β·u^γ, |β| = j, is ∂_v^β ∂_u^γ f / (β!·γ!), which is
Π s_i^(β_i)/(β!·γ!) ≠ 0 times the pairing of f with the row
x_P^β·Π points^γ.  So each coefficient is zero exactly when its row
pairs to zero, and the rows with j < j0 that the rule above leaves out
are the coefficients of v-degree below j0.

Coefficients are rational, which is faithful for every identity handled
here since all inputs are rational.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, factorial, lcm, prod
from typing import Callable, Iterator, Mapping, Sequence

from .linalg import (
    _first_nonzero,
    int_insert,
    int_kernel,
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

    def homogeneous_parts(self) -> dict[int, dict[Monomial, Fraction]]:
        parts: dict[int, dict[Monomial, Fraction]] = {}
        for mono, coef in self.terms:
            parts.setdefault(sum(mono), {})[mono] = coef
        return parts


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


def _times_form(poly: dict[Monomial, int], form: Sequence[int]) -> dict[Monomial, int]:
    out: dict[Monomial, int] = {}
    for mono, coef in poly.items():
        for var, c in enumerate(form):
            if c:
                m = list(mono)
                m[var] += 1
                m = tuple(m)
                out[m] = out.get(m, 0) + coef * c
    return {m: c for m, c in out.items() if c}


def _products(forms: Sequence[Sequence[int]], nvars: int,
              k: int) -> list[dict[Monomial, int]]:
    """Every product of k of the linear forms, one per multiset of forms."""
    level = [(0, {(0,) * nvars: 1})]
    for _ in range(k):
        if not level:  # no forms: no product of positive degree
            break
        level = [(i, _times_form(poly, forms[i]))
                 for start, poly in level for i in range(start, len(forms))]
    return [poly for _, poly in level]


@lru_cache(maxsize=None)
def _factorial_weights(nvars: int, degree: int) -> tuple[int, ...]:
    """a! = a_0!·a_1!··· for each degree-d monomial x^a, in monomial order."""
    return tuple(prod(map(factorial, m)) for m in monomials(nvars, degree))


def _inverse_system(forms: IntRows, nvars: int, exponent: int, degree: int,
                    j0: int) -> Iterator[list[int]]:
    """Yield the rows with j ≥ ``j0`` pivot variables of a basis of the perp
    of (I^e)_d, I the ideal of canonical ``forms``.

    See the module docstring: the points of the flat (the integer kernel of
    ``forms``) together with the variables at the pivots of ``forms`` are a
    basis of the linear forms, and the perp has the basis of the monomials
    in them of degree d with j ≤ e − 1 pivot variables.  Coefficients
    carry the a! weight, so f lies in (I^e)_d iff f·g = 0 for every row g.
    With j0 = 0 every row is yielded; a larger j0 leaves out the rows that
    a stacked power already spans.
    """
    last = min(exponent - 1, degree)
    if j0 > last:
        return
    points = int_kernel(forms, nvars)
    if not points and degree >= exponent:  # each row has a point factor
        return
    pivots = [_first_nonzero(f) for f in forms]
    idx = monomial_index(nvars, degree)
    weights = _factorial_weights(nvars, degree)
    for j in range(j0, last + 1):
        prods = _products(points, nvars, degree - j)
        for extra in combinations_with_replacement(pivots, j):
            for poly in prods:
                vec = [0] * len(idx)
                for mono, coef in poly.items():
                    m = list(mono)
                    for p in extra:
                        m[p] += 1
                    pos = idx[tuple(m)]
                    vec[pos] = coef * weights[pos]
                yield vec


class _Perps:
    """The stacked inverse systems of some powers, one echelon list per
    degree 0..bound: in degree d, the perp of the intersection's piece.

    A power I^e has no piece below degree e, so every degree below the
    largest exponent added, ``low``, is the whole space and takes no rows.
    A degree whose rank reaches its width takes no more rows.  Nothing is
    allocated until ``add`` first leaves ``low`` at or below the bound;
    only then does the width guard run, so a bound below every exponent
    is neither refused nor built.
    """

    def __init__(self, nvars: int, bound: int) -> None:
        if bound < 0:
            raise ValueError(f"degree bound must be >= 0, got {bound}")
        self.nvars = nvars
        self.bound = bound
        self.widths: list[int] = []
        self.echelons: list[tuple[list, list]] = []
        self.low = 0

    def add(self, terms: Sequence[tuple[object, int, int]],
            rows: Callable[[object], IntRows] = lambda forms: forms) -> None:
        """Stack the inverse systems of the powers I^e, one per (forms, e, j0),
        in order: the rows with j ≥ j0 pivot variables (module docstring)
        of the ideal of the canonical forms ``rows(forms)``, read only for
        the terms that yield a row."""
        self.low = max(self.low, max((e for _, e, _ in terms), default=0))
        if self.low > self.bound:
            return
        terms = [(rows(forms), e, j0) for forms, e, j0 in terms if j0 < e]
        if not self.widths:
            _check_width(self.nvars, self.bound)
            self.widths = [comb(self.nvars + d - 1, d) for d in range(self.bound + 1)]
            self.echelons = [([], []) for _ in self.widths]
        for d in range(self.low, self.bound + 1):
            rows, pivots = self.echelons[d]
            stacked = (g for forms, e, j0 in terms
                       for g in _inverse_system(forms, self.nvars, e, d, j0))
            while len(rows) < self.widths[d] and (g := next(stacked, None)) is not None:
                int_insert(rows, pivots, g)

    def dims(self) -> list[int]:
        """Dimension of each piece of the intersection: width − rank."""
        if self.low > self.bound:
            return [0] * (self.bound + 1)
        return [0 if d < self.low else width - len(rows)
                for d, ((rows, _), width) in enumerate(zip(self.echelons, self.widths))]


# Most monomials of one degree a piece or membership test may span: C(15, 10),
# every degree up to the default cap 10 in six variables.  Memory grows with
# the square: hilbert on braid(7) at λ = 2/3, six essential variables, stacks
# a nearly full-rank perp of width 3003 at degree 10 in 117 MB max RSS (300 s
# on a 2-core machine, Python 3.11.7).  Membership stacks nothing, and each
# of its products has at most the width's terms, but it keeps the guard so
# that it refuses the same inputs with the same message.
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


def _expansion(forms: IntRows, exponent: int, j0: int,
               poly: Sequence[tuple[Monomial, int]], base: int) -> dict[int, int]:
    """The coefficients of v-degree j0 … e − 1 of a polynomial, given by its
    integer terms in lexicographic order, in the coordinates (u, v) of the
    canonical ``forms`` (module docstring).

    A monomial in (u, v) is packed into one integer: digit c (in ``base``,
    which must exceed the degree) is the exponent of the variable at column
    c, and digit n, the most significant, is the v-degree.  Products add
    keys without carry, and v-degree < e reads key < e·base^n.  Each
    monomial's image is a product of powers of the images of the variables,
    shared along common prefixes, and only its terms below v-degree e are
    ever formed; a monomial with fewer than j0 pivot variables has no term
    of v-degree j0 or more.
    """
    n = len(forms[0])
    pivots = [_first_nonzero(f) for f in forms]
    scale = lcm(*(f[p] for f, p in zip(forms, pivots)))
    unit = base ** n
    cut, low = exponent * unit, j0 * unit
    images = [{base ** c: scale} for c in range(n)]  # x_c = M·u_c on a free column
    for f, p in zip(forms, pivots):  # x_p = s·(v − Σ_c f[c]·u_c), s = M/f[p]
        s = scale // f[p]
        images[p] = {base ** p + unit: s, **{base ** c: -s * f[c] for c in range(p + 1, n) if f[c]}}
    powers: list[list[dict[int, int]]] = [[{0: 1}] for _ in range(n)]
    stack, prev = [{0: 1}], (-1,) * n  # stack[c]: the product over the columns before c
    out: dict[int, int] = {}
    for mono, coef in poly:
        if j0 and sum(mono[p] for p in pivots) < j0:
            continue
        start = 0
        while mono[start] == prev[start]:
            start += 1
        del stack[start + 1:]
        for c in range(start, n):
            k = mono[c]
            while len(powers[c]) <= k:
                powers[c].append(_times(powers[c][-1], images[c], cut))
            stack.append(_times(stack[-1], powers[c][k], cut) if k else stack[-1])
        for key, a in stack[-1].items():
            if key >= low:
                out[key] = out.get(key, 0) + coef * a
        prev = mono
    return out


def intersection_contains(terms: Sequence[tuple[IntRows, int, int]],
                          poly: Polynomial) -> bool:
    """Whether ``poly`` lies in the intersection of the powers I^e, one per
    (forms, e, j0) term with canonical forms, without realizing it.

    For each term, the polynomial is expanded once in the term's
    coordinates (u, v), truncated at v-degree e, and it passes when every
    coefficient of v-degree j0 … e − 1 is 0: each is a nonzero multiple of
    the pairing with one inverse-system row with j ≥ j0 pivot variables
    (the other rows lie in the span of the terms', module docstring).  The
    homogeneous components are expanded together, as their images have
    distinct degrees.  A nonzero component of degree below the largest e
    lies in no such intersection.  Nor does one below the degree of h, the
    product of the principal terms' powers (ℓ^e, one form): distinct
    canonical forms are non-proportional primes, so every element of the
    intersection is h times a form.  Both are answered before any
    expansion, and the expansions follow one width check.
    """
    if not terms:
        return True
    for forms, e, _ in terms:
        if e < 1 or not forms:
            raise ValueError(f"no proper power: {len(forms)} forms, exponent {e}")
        if any(len(f) != poly.nvars for f in forms):
            raise ValueError("variable counts differ")
    parts = poly.homogeneous_parts()
    if parts and min(parts) < max(e for _, e, _ in terms):
        return False
    _check_width(poly.nvars, max(parts, default=0))
    principal: dict[IntRows, int] = {}
    for forms, e, _ in terms:
        if len(forms) == 1:
            principal[forms] = max(e, principal.get(forms, 0))
    if parts and min(parts) < sum(principal.values()):
        return False
    den = lcm(*(c.denominator for _, c in poly.terms))
    ints = sorted((m, c.numerator * (den // c.denominator)) for m, c in poly.terms)
    base = max(parts, default=0) + 1
    return not any(j0 < e and any(_expansion(forms, e, j0, ints, base).values())
                   for forms, e, j0 in terms)

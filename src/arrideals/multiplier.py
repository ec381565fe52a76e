"""Multiplier ideals of central arrangements, via building sets.

For a building set G, the multiplier ideal of the arrangement ideal at
parameter λ ≥ 0 is the intersection over W ∈ G of I_W to the power
floor(λ·s(W)) − r(W) + 1, where r is the codimension of the flat and s the
total multiplicity of the hyperplanes containing it.  Terms whose exponent
drops to zero or below contribute the unit ideal and are omitted.  All λ
arithmetic is exact rational so floors at the jumps themselves are never
corrupted.

The numerical shadow of the underlying resolution is the table of
(discrepancy, vanishing order) = (r(W) − 1, s(W)) per building-set flat.
The log canonical threshold is min r(W)/s(W) over the minimal building set
(the smallest λ at which some exponent reaches one), and candidate
jumping numbers are the rationals m/s(W) where some floor increments.

Each exponent is a right-continuous step function of λ stepping only at
candidates, so the ideal is constant from one candidate to the next and is
the unit ideal below the first.  The exponent rule is read in two ways
only: ``presentation`` evaluates it at one λ (``support`` lists the flats
of those terms, since e ≥ 1 exactly when λ ≥ r/s), and one rise table
lists where each exponent reaches each value up to a bound: e_W reaches e
at (r + e − 1)/s.  The table's values are the candidates, and its entries
grouped by value are the terms ``verify_jumps`` stacks again.

``hilbert_function``, ``theorem_rows`` and ``verify_jumps`` need only piece
dimensions, and read them as ranks of stacked perps in one ``_Stack``
(each power's coefficients of low degree in its flat's coordinates,
graded module docstring), building no ideal:

- Hyperplane factor.  A hyperplane's term is principal, (ℓ_H)^(e_H), so
  an ideal J of (W, e) terms over any building set (each contains the
  hyperplanes) is h·J″ with h = Π ℓ_H^(e_H), of degree Σ e_H, and J″ the
  intersection of the other terms as (W, e − ord_W h), positive only:
  * ∩_H (ℓ_H^(e_H)) = (h), as the forms are pairwise non-proportional
    primes;
  * ord_W, the largest power of I_W holding a polynomial, is a
    valuation, since gr_(I_W) S is a polynomial ring; ord_W ℓ_H is 1 if
    H ∈ closed(W) and 0 otherwise, so ord_W h = Σ_(H ∈ closed(W)) e_H,
    and h·g ∈ I_W^e iff g ∈ I_W^(e − ord_W h);
  * multiplying by h is injective, so dim J_d = dim J″_(d − deg h).
  So only J″ is stacked, in degrees from its largest exponent ``low`` up
  to bound − deg h, and its dimensions get deg h leading zeros; when low
  is above bound − deg h (so when deg h is above the bound) every piece
  is 0.  This is how the pieces above λ = 1 are periodic: J(λ + 1) =
  f·J(λ).  Membership uses the same fact: J″ lies in the power of the
  maximal ideal to its largest exponent, so a component of degree below
  deg h plus that exponent is outside J, decided with no expansion.

- Essential coordinates.  Every I_W is generated by linear forms in N(W),
  inside the normal space N(top) of the top flat, of rank r.  A form u of
  N(top) is Σ u[p]·w/w[p] over top's reduced echelon rows w with pivot p,
  so its entries at those r pivot columns (``lattice.rows_in``) are its
  coordinates on the basis w/w[p].  The ideal J is J_ess·S for an ideal
  J_ess of the ring R in those r variables, and S = R[z] in n − r more.
  So J_d is the direct sum over k ≤ d of (J_ess)_k times the forms of
  degree d − k in z: H(d) = Σ_(k≤d) H_ess(k)·C(n−r−1+d−k, d−k), and two
  such ideals agree up to degree D iff their essential parts do.  Pieces
  are computed in r variables and lifted by n − r running sums (each new
  variable multiplies the Hilbert series by 1/(1 − t)); the width guard
  measures r variables.
- Jumps.  For c ≥ c′ every exponent at c is at least the one at c′, so
  J(c) ⊆ J(c′): two such ideals agree in degree d iff their pieces there
  have equal dimension, and a candidate shrinks the ideal up to degree D
  iff a piece dimension in some degree ≤ D drops below the previous
  candidate's.  Between two candidates where a hyperplane's exponent
  rises, h is fixed and J″ shrinks the same way, so its perps only grow:
  one ascending pass stacks a term again only when its exponent rises
  (the perp of I^e lies in that of I^(e+1)), and then only its new rows:
  the coefficients of v-degree at least e_old, fewer rows still if a
  smaller flat's exponent is higher (below).  Where a hyperplane's
  exponent rises, h grows and J″ need not shrink, so a fresh stack takes
  the whole presentation there.  Once every piece up to the bound is 0,
  every later piece is 0 as well, so every later candidate is answered
  with no stack.
- The theorem rows.  A building set G contains the minimal one, and both
  presentations use the same exponent for a flat, so the terms over G are
  those over gmin plus more: I_G ⊆ I_gmin.  Every hyperplane is
  irreducible, so both have the same h.  The gmin terms are stacked once
  and read; the other terms are stacked on top and read again, each with
  only the rows that no stacked power of a smaller flat spans (on
  braid(4) and braid(5), none).  By the containment, equal dimensions in
  a degree mean equal pieces.
- Each row once.  A term (W, e) of J″ yields only its coefficients of
  v-degree at least j0, j0 the largest exponent stacked before it on W
  or a flat below W; the others vanish on that flat's power, so they lie
  in the stack's span (graded module docstring).  ``_Stacked`` reads j0
  off per-exponent bitsets over a ``lattice.ClosedSetIndex`` of the
  stacked terms' flats, across the batches of one stack, and over a
  presentation's terms for ``membership``, which stops at the first term
  that fails.  A flat's rows are read only for a term that yields one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, chain
from math import comb, lcm
from typing import Sequence

from .graded import Polynomial, _check_width, _Power
from .lattice import ClosedSetIndex, Flat, IntersectionLattice, rows_in
from .linalg import int_insert, to_fraction


@dataclass(frozen=True)
class MultiplierIdealPresentation:
    """A multiplier ideal written as an intersection of flat-ideal powers."""

    lam: Fraction
    ambient_dim: int
    terms: tuple[tuple[Flat, int], ...]

    @property
    def is_unit(self) -> bool:
        return not self.terms


def _exponent(lam: Fraction, flat: Flat) -> int:
    scaled = lam * flat.mult
    return scaled.numerator // scaled.denominator - flat.rank + 1


def presentation(lat: IntersectionLattice, building: Sequence[Flat],
                 lam) -> MultiplierIdealPresentation:
    """Terms (W, floor(λ·s(W)) − r(W) + 1) over the building set's flats
    (``lat.irreducibles`` or ``lat.proper``), in its order, positive only."""
    lam = to_fraction(lam)
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    terms = []
    for W in building:
        e = _exponent(lam, W)
        if e >= 1:
            terms.append((W, e))
    return MultiplierIdealPresentation(lam, lat.arrangement.dim, tuple(terms))


DEGREE_CAP = 10


def uncapped_degree_bound(*presentations: MultiplierIdealPresentation) -> int:
    """2 plus the largest exponent total among the presentations."""
    return 2 + max((sum(e for _, e in p.terms) for p in presentations), default=0)


def lct(lat: IntersectionLattice) -> Fraction:
    """Log canonical threshold: min r(W)/s(W) over the minimal building set.

    This is the smallest λ at which some exponent floor(λ·s) − r + 1
    reaches 1, i.e. the first λ with a non-unit multiplier ideal.
    """
    return min(Fraction(W.rank, W.mult) for W in lat.irreducibles)


def support(lat: IntersectionLattice, lam) -> list[Flat]:
    """Minimal-building-set flats with λ ≥ r(W)/s(W), canonical order: the
    flats of the presentation's terms, as e ≥ 1 exactly when λ ≥ r/s."""
    return [W for W, _ in presentation(lat, lat.irreducibles, lam).terms]


def _rises(lat: IntersectionLattice, lam_max):
    """(c, W, e) for each minimal-building-set flat W, canonical order, and
    each exponent e = 1 .. e_W(lam_max): e_W reaches e at c = (r + e − 1)/s."""
    lam_max = to_fraction(lam_max)
    if lam_max <= 0:
        raise ValueError(f"lambda bound must be > 0, got {lam_max}")
    for W in lat.irreducibles:
        for e in range(1, _exponent(lam_max, W) + 1):
            yield Fraction(W.rank + e - 1, W.mult), W, e


def jump_candidates(lat: IntersectionLattice, lam_max) -> list[Fraction]:
    """All m/s(W) with W in the minimal building set, r(W) ≤ m, up to lam_max.

    Exponents in the presentation change only at these values, so every
    jumping number is among them.
    """
    return sorted({c for c, _, _ in _rises(lat, lam_max)})


def _lift(dims: list[int], extra: int) -> list[int]:
    """Piece dimensions of J·S from those of J, where S has ``extra`` more
    variables: each new variable multiplies the Hilbert series by
    1/(1 − t), a running sum."""
    for _ in range(extra):
        dims = list(accumulate(dims))
    return dims


class _Stacked(ClosedSetIndex):
    """The (W, e) terms stacked so far: their flats indexed in order, and
    ``at[e]``, the bitset of the terms with exponent e."""

    def __init__(self) -> None:
        super().__init__()
        self.at: dict[int, int] = {}

    def first_new_rows(self, terms):
        """(W, e, j0) for each (W, e) term in order, stacking it: j0 is the
        largest exponent stacked before it on a flat U with closed(U) ⊆
        closed(W), W itself included, so W's coefficients of v-degree
        below j0 lie in U's perp (graded module docstring)."""
        for W, e in terms:
            below = self.below(W)
            yield W, e, max((f for f, bits in self.at.items() if bits & below), default=0)
            self.at[e] = self.at.get(e, 0) | self.add(W)


def _reduced(powers: dict[int, int], terms):
    """(W, e − ord_W h) for each (W, e) term with a positive one, ord_W h
    the sum of ``powers[H]`` over the hyperplanes H in closed(W)."""
    for W, e in terms:
        e -= sum(powers.get(k, 0) for k in W.closed_set)
        if e > 0:
            yield W, e


class _Stack:
    """The piece dimensions, degrees 0..bound, of an ideal J given by
    (W, e) terms, read through J = h·J″ (module docstring): h is the
    product of the hyperplane terms' powers, and the perps of J″'s terms
    (W, e − ord_W h), positive only, are stacked each row once in the
    essential coordinates of the top flat, one echelon list per degree.
    Terms added later are on flats of rank at least 2 and reduced by the
    same h.

    Degrees below the largest reduced exponent, ``low``, are the whole
    space and take no rows, and a degree whose rank reaches its width
    takes no more.  Once low passes bound − deg h (``zero``), nothing more
    is read; no degree is allocated if that holds before a term is
    stacked.  The width guard measures the caller's bound when every
    exponent is at most it, so the same inputs are refused as by a stack
    of every term; otherwise the largest term makes the stack zero, by
    deg h on a hyperplane and by e − ord_W h ≥ e − deg h on another W."""

    def __init__(self, lat: IntersectionLattice, bound: int, terms) -> None:
        if bound < 0:
            raise ValueError(f"degree bound must be >= 0, got {bound}")
        top = lat.top
        if max((e for _, e in terms), default=0) <= bound:
            _check_width(top.rank, bound)
        self.powers = {W.closed_set[0]: e for W, e in terms if W.rank == 1}
        self.shift = sum(self.powers.values())
        self.bound = bound
        self.nvars = top.rank
        self.extra = lat.arrangement.dim - top.rank
        self.rows = partial(rows_in, top)
        self.stacked = _Stacked()
        self.low = 0
        self.echelons: list[tuple[list, list, int]] = []
        self.add([(W, e) for W, e in terms if W.rank > 1])

    @property
    def zero(self) -> bool:
        """Whether every piece is 0: J″ has none up to bound − deg h."""
        return self.low > self.bound - self.shift

    def add(self, terms) -> None:
        """Stack the terms reduced by h (``_reduced``) in order: the rows of
        their coefficients of v-degree j0 … e − 1, a flat's rows read only
        for a term that yields one.  A term's powers are built once and
        read in every degree.  A flat with no free column yields none:
        every image of a degree-d monomial has v-degree d ≥ e."""
        if self.zero:
            return
        taken = list(self.stacked.first_new_rows(_reduced(self.powers, terms)))
        self.low = max([self.low] + [e for _, e, _ in taken])
        if self.zero:
            return
        top = self.bound - self.shift
        if not self.echelons:
            self.echelons = [([], [], comb(self.nvars + d - 1, d)) for d in range(top + 1)]
        for forms, e, j0 in [(self.rows(W), e, j0) for W, e, j0 in taken if j0 < e]:
            if len(forms) == self.nvars:
                continue
            power = _Power(forms, e, j0, top + 1)
            for d in range(self.low, top + 1):
                rows, pivots, width = self.echelons[d]
                if len(rows) < width:
                    for g in power.rows(d):
                        int_insert(rows, pivots, g)
                        if len(rows) == width:
                            break

    def dims(self) -> list[int]:
        if self.zero:
            return [0] * (self.bound + 1)
        return [0] * self.shift + _lift(
            [0 if d < self.low else width - len(rows)
             for d, (rows, _, width) in enumerate(self.echelons)], self.extra)


def hilbert_function(lat: IntersectionLattice, pres: MultiplierIdealPresentation,
                     bound: int) -> list[int]:
    """Dimension of each piece of the presented ideal, degrees 0..bound,
    read off ranks in the top flat's essential coordinates with the
    hyperplane powers factored out (module docstring)."""
    return _Stack(lat, bound, pres.terms).dims()


def theorem_rows(lat: IntersectionLattice, pres_min: MultiplierIdealPresentation,
                 pres_full: MultiplierIdealPresentation,
                 bound: int) -> tuple[list[int], list[int]]:
    """Piece dimensions of two presentations at one λ, the second over a
    building set containing the first's, degrees 0..bound.

    The second ideal lies in the first (module docstring), so the pieces of
    one degree are equal exactly when their dimensions are.  The terms of
    the first are stacked once, then only the second's other terms, which
    lie on reducible flats and are reduced by the first's hyperplane
    powers.
    """
    stack = _Stack(lat, bound, pres_min.terms)
    first = stack.dims()
    seen = {W for W, _ in pres_min.terms}
    stack.add([(W, e) for W, e in pres_full.terms if W not in seen])
    return first, stack.dims()


def verify_jumps(lat: IntersectionLattice, lam_max,
                 bound: int) -> list[tuple[Fraction, bool]]:
    """Each candidate up to ``lam_max`` and whether the ideal shrinks there.

    One ascending pass stacks each term again when its exponent rises, and
    starts a fresh stack where a hyperplane's exponent rises, until deg h
    passes the bound; a candidate shrinks the ideal iff a piece dimension
    drops (module docstring).  A False answer certifies nothing beyond
    degree ``bound``.
    """
    if bound < 1:
        raise ValueError(f"degree bound must be >= 1, got {bound}")
    rises = _rises(lat, lam_max)
    first = next(rises, None)
    if first is None:
        return []
    stack = _Stack(lat, bound, [])  # the unit ideal below the first candidate
    risen: dict[Fraction, list] = {}
    exponents: dict[Flat, int] = {}  # canonical order, as _rises lists flats
    for c, W, e in chain([first], rises):
        risen.setdefault(c, []).append((W, e))
        exponents.setdefault(W, 0)
    before = stack.dims()
    answers = []
    cands = sorted(risen)
    for i, c in enumerate(cands):
        if stack.zero:  # J only shrinks from here: every later piece stays 0
            answers += [(later, False) for later in cands[i:]]
            break
        exponents.update(risen[c])
        if any(W.rank == 1 for W, _ in risen[c]):  # h grows, and J″ need not shrink
            stack = _Stack(lat, bound, [(W, e) for W, e in exponents.items() if e > 0])
        else:
            stack.add(risen[c])
        after = stack.dims()
        answers.append((c, before != after))
        before = after
    return answers


def membership(pres: MultiplierIdealPresentation, poly: Polynomial) -> bool:
    """Whether the polynomial lies in the presented ideal J = h·J″ (module
    docstring): no nonzero component has degree below deg h plus J″'s
    largest exponent, and for each term in turn its expansion in
    coordinates where the flat's forms are variables has no nonzero
    coefficient of v-degree j0 … e − 1 (``graded._Power.vanishes``)."""
    if poly.nvars != pres.ambient_dim:
        raise ValueError(
            f"variable count mismatch: polynomial has {poly.nvars}, "
            f"arrangement has {pres.ambient_dim}"
        )
    if pres.is_unit:
        return True
    powers = {W.closed_set[0]: e for W, e in pres.terms if W.rank == 1}
    lowest = sum(powers.values()) + max((e for _, e in _reduced(powers, pres.terms)),
                                        default=0)
    if poly.terms and sum(poly.terms[-1][0]) < lowest:  # terms run highest degree first
        return False
    top = sum(poly.terms[0][0]) if poly.terms else 0
    _check_width(poly.nvars, top)
    den = lcm(*(c.denominator for _, c in poly.terms))
    ints = sorted((m, c.numerator * (den // c.denominator)) for m, c in poly.terms)
    monos, coefs = [m for m, _ in ints], [c for _, c in ints]
    return all(_Power(W.basis_rows, e, j0, top + 1).vanishes(monos, coefs)
               for W, e, j0 in _Stacked().first_new_rows(pres.terms) if j0 < e)

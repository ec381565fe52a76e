"""Shared test oracles: brute-force enumerators, an independent
Fraction-arithmetic route for spans of polynomial coefficient vectors, and
the generator route for graded ideals.

``normal_space`` and ``pieces`` convert the package's canonical integer
rows to Fraction RREF subspaces (``fraction_linalg``) for comparison.
The package reads ideals through truncated expansions in each flat's
coordinates and never builds a piece; the tests build them here.  A
``GradedIdeal`` holds the canonical rows of each piece up to a degree
bound and checks multiplicative closure when built.  ``generator_power``
and ``zassenhaus_intersect`` build pieces from generators (products of
normal forms, shifted degree by degree) and intersect them pairwise with
``int_intersect``, sharing no code with the package's expansions;
``generator_presentation_ideal`` realizes a presentation that way.
``graded_equal``, ``graded_contains`` and ``contains_polynomial`` compare
realized truncations piece by piece.  ``fraction_rows_in`` and
``realized_jumps`` are independent routes for the essential coordinates
and for the jump sweep, and ``eager_lattice`` builds every flat at once
from the enumeration's records, the oracle for the flats a lattice builds
on first read; ``flat_with_closed`` looks a flat up by its closed set.
``minimal_containing`` is a pairwise frozenset scan, the oracle for the
closed-set index's maximal-below read (``maximal_below`` reads it over a
family of flats), and ``lattice_with_irreducibles`` a lattice whose
irreducible set is wrong.
``inverse_system`` builds each power's perp by apolarity (from the points
of ``int_kernel``), the oracle for the rows the package stacks;
``EveryRowStack`` stacks all of those rows with no factor taken out, the
oracle for the stack's piece dimensions, and ``pairs_to_zero`` pairs a
polynomial's components with them, the oracle for membership.
``power_contains`` reads one power's coefficients of a polynomial through
the package's expansion (``graded._Power.vanishes``).  ``poly_add``,
``poly_mul``, ``homogeneous_parts`` and ``format_polynomial`` are the
polynomial arithmetic, components and printing, and ``int_contains`` and
``monomial_index`` the span test and monomial positions, that only tests
need."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from dataclasses import replace
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb, factorial, gcd, lcm, prod

from arrideals.arrangement import Arrangement, Hyperplane
from arrideals.errors import InvariantError
from arrideals.graded import Polynomial, _Power, monomials
from arrideals.lattice import (
    ClosedSetIndex,
    Flat,
    IntersectionLattice,
    _flats_by_level,
    flat_sort_key,
)
from arrideals.multiplier import jump_candidates, presentation
from arrideals.linalg import (
    _first_nonzero,
    int_canonical,
    int_insert,
    int_reduce,
    primitive_vector,
)

from fraction_linalg import (
    Subspace,
    span,
    span_contains,
    span_intersect,
    subspace_from_int_rows,
)


def int_contains(rows, pivots, vec) -> bool:
    """Whether ``vec`` lies in the span of an echelon list."""
    return not any(int_reduce(vec, rows, pivots))


@lru_cache(maxsize=None)
def monomial_index(nvars: int, degree: int) -> dict:
    """Position of each degree-d monomial in ``graded.monomials`` order."""
    return {m: i for i, m in enumerate(monomials(nvars, degree))}


# --- Fraction views of integer data ---------------------------------------

def normal_space(flat: Flat) -> Subspace:
    """The flat's normal space as a Fraction RREF subspace."""
    return subspace_from_int_rows(flat.basis_rows, flat.ambient_dim)


def pieces(gi: GradedIdeal) -> tuple[Subspace, ...]:
    """Each graded piece as a Fraction RREF subspace of its coefficient space."""
    return tuple(
        subspace_from_int_rows(rows, comb(gi.nvars + d - 1, d))
        for d, rows in enumerate(gi.piece_rows)
    )


# --- the lattice by Fraction elimination ----------------------------------

def _primitive_row(row) -> tuple[int, ...]:
    """An RREF row (pivot 1) scaled to primitive integers."""
    den = lcm(*(a.denominator for a in row))
    ints = [int(a * den) for a in row]
    g = 0
    for a in ints:
        g = gcd(g, a)
    return tuple(a // g for a in ints)


def flat_with_closed(lat: IntersectionLattice, closed) -> Flat | None:
    """The flat of ``lat`` with closed set ``closed``, or None."""
    return next((f for f in lat.flats if f.closed_set == tuple(sorted(closed))), None)


def flat_key(flat: Flat) -> tuple:
    """A flat's data, its canonical rows included, as one comparable tuple."""
    return (flat.closed_set, flat.rank, flat.mult, flat.ambient_dim, flat.basis_rows)


def fraction_closure(arr: Arrangement, indices) -> tuple:
    """The ``flat_key`` of the flat cut out by the chosen hyperplanes, by
    Fraction RREF alone.

    Independent of ``arrideals.linalg``: the normal space is the Fraction
    span of the chosen normals, the closed set every hyperplane whose normal
    that span contains, and the rows its RREF scaled to primitive integers
    (the form ``int_canonical`` returns).
    """
    hps = arr.hyperplanes
    sub = span([hps[i].normal for i in indices], arr.dim)
    closed = tuple(j for j, h in enumerate(hps) if span_contains(sub, h.normal))
    return (closed, sub.rank, sum(hps[j].mult for j in closed), arr.dim,
            tuple(_primitive_row(r) for r in sub.basis.entries))


def fraction_rows_in(arr: Arrangement, W: Flat, U: Flat) -> tuple:
    """``lattice.rows_in(W, U)`` by Fraction elimination.

    The Fraction RREF of the normals of U's closed set, restricted to the
    pivot columns of the Fraction RREF of W's normals, each row scaled to
    primitive integers.  Reads neither ``basis_rows`` nor ``rows_in``.
    """
    def rref_of(flat):
        return span([arr.hyperplanes[j].normal for j in flat.closed_set], arr.dim)

    pivots = rref_of(W).pivots
    return tuple(_primitive_row([r[p] for p in pivots]) for r in rref_of(U).basis.entries)


def subset_closure_flats(arr: Arrangement) -> set[tuple]:
    """The ``flat_key`` of every flat, as the Fraction closure of every
    subset of hyperplanes."""
    nh = len(arr.hyperplanes)
    return {
        fraction_closure(arr, [i for i in range(nh) if bits >> i & 1])
        for bits in range(1 << nh)
    }


def eager_lattice(arr: Arrangement) -> tuple[tuple[Flat, ...], tuple[Flat, ...]]:
    """(flats, irreducibles) of ``arr``, every flat built at once from the
    enumeration's records and sorted: the oracle for the lattice's lazily
    built ``flats``."""
    normals = tuple(h.normal for h in arr.hyperplanes)
    irreducible, rest, top_irreducible = _flats_by_level(normals, arr.dim)
    full = (1 << len(normals)) - 1
    found = [(cmask, rank, True) for rank, masks in enumerate(irreducible) for cmask in masks]
    found += [(cmask, rank, False) for rank, masks in enumerate(rest) for cmask in masks]
    found.append((full, len(rest), top_irreducible))
    flats, irreducibles = [], []
    for cmask, rank, irr in found:
        closed = tuple(j for j in range(len(normals)) if cmask >> j & 1)
        flat = Flat(closed_set=closed, rank=rank,
                    mult=sum(arr.hyperplanes[j].mult for j in closed),
                    ambient_dim=arr.dim, normals=normals)
        flats.append(flat)
        if irr:
            irreducibles.append(flat)
    flats.sort(key=flat_sort_key)
    irreducibles.sort(key=flat_sort_key)
    return tuple(flats), tuple(irreducibles)


# --- set partitions -------------------------------------------------------

def set_partitions(n):
    """All partitions of range(n), blocks and block lists sorted."""
    if n == 0:
        yield ()
        return

    def rec(i, blocks):
        if i == n:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    for p in rec(0, []):
        yield tuple(sorted(p))


def bell_numbers(top):
    """Bell numbers 0..top by the Bell triangle."""
    out = [1]
    row = [1]
    for _ in range(top):
        nxt = [row[-1]]
        for a in row:
            nxt.append(nxt[-1] + a)
        out.append(nxt[0])
        row = nxt
    return out


def braid_pair_index(n):
    """Hyperplane index of each pair (i, j), i < j, in braid order."""
    idx = {}
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            idx[(i, j)] = k
            k += 1
    return idx


def partition_closed_set(partition, pair_index):
    """Closed set of the braid flat of a partition: all co-blocked pairs."""
    out = []
    for block in partition:
        for a, b in combinations(block, 2):
            out.append(pair_index[(a, b)])
    return tuple(sorted(out))


def is_modular_partition(partition):
    """Exactly one block of size greater than one."""
    return sum(1 for b in partition if len(b) > 1) == 1


# --- random corpus --------------------------------------------------------

def corpus_arrangements():
    """20 seeded random central arrangements: dim <= 4, <= 6 hyperplanes,
    multiplicities <= 3.  Deterministic across runs."""
    out = []
    for seed in range(20):
        rng = random.Random(1000 + seed)
        dim = rng.randint(2, 4)
        count = rng.randint(3, 6)
        normals = []
        seen = set()
        while len(normals) < count:
            v = tuple(rng.randint(-2, 2) for _ in range(dim))
            if not any(v):
                continue
            c = Hyperplane(v).normal
            if c in seen:
                continue
            seen.add(c)
            normals.append(v)
        mults = [rng.randint(1, 3) for _ in range(count)]
        out.append(Arrangement.from_normals(dim, normals, mults))
    return out


# --- definitional brute force for decompositions --------------------------

def brute_force_decompositions(lat: IntersectionLattice, target):
    """Every decomposition of ``target``, by exhaustive search from the
    definition, on the Fraction side.

    Candidates are subsets of the flats containing the target whose
    codimensions add up and whose normal spaces sum to the target's; a
    candidate passes when ``fraction_decomposition_obstruction`` finds no
    flat above the target where it fails.
    """
    dim = lat.arrangement.dim
    tset = set(target.closed_set)
    ups = [U for U in lat.proper if set(U.closed_set) <= tset]
    found = []
    for k in range(1, target.rank + 1):
        for parts in combinations(ups, k):
            if sum(U.rank for U in parts) != target.rank:
                continue
            rows = [r for U in parts for r in normal_space(U).basis.entries]
            if span(rows, dim) != normal_space(target):
                continue
            if fraction_decomposition_obstruction(lat, target, parts) is None:
                found.append(tuple(parts))
    return found


def fraction_decomposition_obstruction(lat: IntersectionLattice, target, parts):
    """First proper flat B ⊇ target where the compatibility condition of a
    decomposition fails, from the definition, on the Fraction side.

    For each proper B ⊇ target (canonical order) the normal spaces
    N(B) ∩ N(U_i) of the sums B + U_i must be normal spaces of flats, their
    dimensions must add up to rank B, and together they must span N(B).
    """
    dim = lat.arrangement.dim
    flat_spaces = [normal_space(F) for F in lat.flats]
    tset = set(target.closed_set)
    for B in lat.proper:
        if not set(B.closed_set) <= tset:
            continue
        nb = normal_space(B)
        sums = [span_intersect(nb, normal_space(U)) for U in parts]
        if (sum(s.rank for s in sums) != B.rank
                or any(s not in flat_spaces for s in sums)
                or span([r for s in sums for r in s.basis.entries], dim) != nb):
            return B
    return None


def fraction_building_set_obstruction(lat: IntersectionLattice, flats):
    """``building.building_set_obstruction`` from the definition.

    For each proper C (canonical order) the members of ``flats`` with the
    largest closed sets inside closed(C) must meet in C transversally
    (ranks add and normal spaces span N(C)) and pass
    ``fraction_decomposition_obstruction``.  Returns the first C that fails.
    """
    dim = lat.arrangement.dim
    for C in lat.proper:
        cset = set(C.closed_set)
        below = [U for U in flats if set(U.closed_set) <= cset]
        parts = [U for U in below
                 if not any(set(U.closed_set) < set(W.closed_set) for W in below)]
        rows = [r for U in parts for r in normal_space(U).basis.entries]
        if (not parts
                or sum(U.rank for U in parts) != C.rank
                or span(rows, dim) != normal_space(C)
                or fraction_decomposition_obstruction(lat, C, parts) is not None):
            return C
    return None


def minimal_containing(flats, target: Flat) -> list[Flat]:
    """The members of ``flats`` with closed sets inside the target's that
    no other such member's closed set strictly contains, canonical order:
    a frozenset scan of every pair, the oracle for
    ``lattice.ClosedSetIndex.maximal_below``."""
    tset = set(target.closed_set)
    cands = [(U, frozenset(U.closed_set)) for U in flats if tset.issuperset(U.closed_set)]
    out = [U for U, uset in cands if not any(wset > uset for _, wset in cands)]
    out.sort(key=flat_sort_key)
    return out


def maximal_below(flats, target: Flat) -> list[Flat]:
    """``lattice.ClosedSetIndex.maximal_below`` over ``flats`` indexed
    highest rank first, canonical order."""
    index = ClosedSetIndex()
    for U in sorted(flats, key=lambda U: -U.rank):
        index.add(U)
    return sorted(index.maximal_below(target), key=flat_sort_key)


def lattice_with_irreducibles(lat: IntersectionLattice, keep) -> IntersectionLattice:
    """``lat`` with wrong lattice data: only the flats ``keep`` are listed
    as irreducible.  The other irreducibles, the top flat aside, move to the
    records of the flats built on first read, so ``flats`` is unchanged."""
    records = [list(masks) for masks in lat._records]
    for W in lat.irreducibles:
        if W not in keep and W is not lat.top:
            records[W.rank].append(sum(1 << j for j in W.closed_set))
    return replace(lat, irreducibles=tuple(keep), _records=records)


def all_building_sets(lat: IntersectionLattice):
    """Every building set, by testing all 2^|L'| subsets against
    ``fraction_building_set_obstruction``.  Small lattices only."""
    proper = lat.proper
    assert len(proper) <= 12, "meant for tiny lattices"
    out = []
    for bits in range(1, 1 << len(proper)):
        subset = [proper[i] for i in range(len(proper)) if bits >> i & 1]
        if fraction_building_set_obstruction(lat, subset) is None:
            out.append(tuple(subset))
    return out


# --- polynomial arithmetic and printing ------------------------------------

def homogeneous_parts(poly: Polynomial) -> dict[int, dict[tuple[int, ...], int | Fraction]]:
    """The homogeneous components of ``poly``, by degree."""
    parts: dict[int, dict[tuple[int, ...], int | Fraction]] = {}
    for mono, coef in poly.terms:
        parts.setdefault(sum(mono), {})[mono] = coef
    return parts


def poly_add(a: Polynomial, b: Polynomial) -> Polynomial:
    acc = dict(a.terms)
    for mono, coef in b.terms:
        acc[mono] = acc.get(mono, 0) + coef
    return Polynomial.from_terms(a.nvars, acc)


def poly_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    acc = {}
    for m1, c1 in a.terms:
        for m2, c2 in b.terms:
            m = tuple(x + y for x, y in zip(m1, m2))
            acc[m] = acc.get(m, 0) + c1 * c2
    return Polynomial.from_terms(a.nvars, acc)


def format_polynomial(poly: Polynomial) -> str:
    """The terms in ``parse_polynomial`` syntax, e.g. "-x0^2 + 2/3*x0*x1 - 1"."""
    bits = []
    for mono, coef in poly.terms:
        factors = "*".join(f"x{i}" + (f"^{e}" if e > 1 else "")
                           for i, e in enumerate(mono) if e)
        if not factors:
            bits.append(str(coef))
        elif abs(coef) == 1:
            bits.append(("-" if coef < 0 else "") + factors)
        else:
            bits.append(f"{coef}*{factors}")
    out = bits[0] if bits else "0"
    for b in bits[1:]:
        out += " - " + b[1:] if b.startswith("-") else " + " + b
    return out


# --- independent graded pieces via Fraction spans --------------------------

def coefficient_vector(poly: Polynomial, degree: int):
    """Degree-`degree` coefficient vector of a homogeneous polynomial."""
    idx = monomial_index(poly.nvars, degree)
    vec = [Fraction(0)] * len(idx)
    for mono, coef in poly.terms:
        assert sum(mono) == degree
        vec[idx[mono]] = coef
    return vec


def span_of_polynomials(polys, nvars: int, degree: int) -> Subspace:
    rows = [coefficient_vector(p, degree) for p in polys]
    return span(rows, comb(nvars + degree - 1, degree))


def principal_power_piece(form: Polynomial, power: int, degree: int) -> Subspace:
    """Degree-`degree` piece of (form^power), by explicit multiplication."""
    n = form.nvars
    width = comb(n + degree - 1, degree)
    if power == 0:
        return span(
            [[Fraction(1 if i == j else 0) for i in range(width)] for j in range(width)],
            width,
        )
    if degree < power:  # the form is linear, so the power starts in degree `power`
        return span([], width)
    fk = form
    for _ in range(power - 1):
        fk = poly_mul(fk, form)
    prods = []
    for mono in monomials(n, degree - power):
        m = Polynomial.from_terms(n, {mono: Fraction(1)})
        prods.append(poly_mul(fk, m))
    return span_of_polynomials(prods, n, degree)


# --- realized truncations ---------------------------------------------------

IntRows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class GradedIdeal:
    """Degreewise truncation of a homogeneous ideal up to ``degree_bound``.

    ``piece_rows[d]`` is the canonical integer basis of the degree-d piece in
    the coefficient space of degree-d monomials.  Construction verifies
    multiplicative closure: each piece times each variable must land in the
    next piece.
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


def piece_dims(gi: GradedIdeal) -> list[int]:
    """Dimension of each piece, degrees 0..degree_bound."""
    return [len(rows) for rows in gi.piece_rows]


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


def _shift_row(row, table, width: int) -> list[int]:
    out = [0] * width
    for a, pos in zip(row, table):
        if a:
            out[pos] = a
    return out


def int_intersect(a_rows, b_rows, width: int) -> IntRows:
    """Canonical basis of the intersection of two integer row spaces
    (Zassenhaus: echelon the rows (a | a) and (b | 0); the rows with their
    pivot in the right half span the intersection)."""
    rows: list = []
    pivots: list = []
    zero = (0,) * width
    for r in a_rows:
        int_insert(rows, pivots, tuple(r) + tuple(r))
    for r in b_rows:
        int_insert(rows, pivots, tuple(r) + zero)
    inner = []
    inner_pivots = []
    for row, p in zip(rows, pivots):
        if p >= width:
            inner.append(row[width:])
            inner_pivots.append(p - width)
    return int_canonical(inner, inner_pivots)


# --- graded ideals from generators ------------------------------------------

def identity_rows(width: int):
    return tuple(tuple(1 if i == j else 0 for i in range(width)) for j in range(width))


@lru_cache(maxsize=None)
def _generator_power(forms, nvars: int, exponent: int, bound: int) -> GradedIdeal:
    pieces = [() for _ in range(bound + 1)]
    if exponent <= bound:
        rows: list = []
        pivots: list = []
        idx = monomial_index(nvars, exponent)
        for combo in combinations_with_replacement(range(len(forms)), exponent):
            poly = {(0,) * nvars: 1}
            for g in combo:
                nxt = {}
                for mono, coef in poly.items():
                    for var, c in enumerate(forms[g]):
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


def generator_power(flat: Flat, exponent: int, bound: int) -> GradedIdeal:
    """I_W^e from the e-fold products of the flat's normal forms, each piece
    the previous one times every variable."""
    return _generator_power(flat.basis_rows, flat.ambient_dim, exponent, bound)


def zassenhaus_intersect(ideals, bound: int, nvars: int) -> GradedIdeal:
    """Degreewise pairwise intersection; the empty one is the unit ideal."""
    pieces = []
    for d in range(bound + 1):
        width = comb(nvars + d - 1, d)
        parts = sorted((gi.piece_rows[d] for gi in ideals), key=len)
        if not parts:
            pieces.append(identity_rows(width))
            continue
        cur = parts[0]
        for nxt in parts[1:]:
            if not cur:
                break
            if cur != nxt:
                cur = int_intersect(cur, nxt, width)
        pieces.append(cur)
    return GradedIdeal(nvars, bound, tuple(pieces))


def generator_presentation_ideal(pres, bound: int) -> GradedIdeal:
    """The truncation of a presentation's ideal: the generator-built
    powers of its terms, intersected degree by degree."""
    return zassenhaus_intersect(
        [generator_power(W, e, bound) for W, e in pres.terms], bound, pres.ambient_dim)


def realized_jumps(lat: IntersectionLattice, lam_max, bound: int):
    """``multiplier.verify_jumps`` by realizing every candidate's ideal in
    all variables and comparing it with the ideal at the previous candidate
    (the unit ideal below the first)."""
    gmin = lat.irreducibles
    before = generator_presentation_ideal(presentation(lat, gmin, 0), bound)
    out = []
    for c in jump_candidates(lat, lam_max):
        at = generator_presentation_ideal(presentation(lat, gmin, c), bound)
        out.append((c, at.piece_rows != before.piece_rows))
        before = at
    return out


def lift_closed_form(dims, extra: int) -> list[int]:
    """``multiplier._lift`` by its closed form: the degree-d piece of J·S,
    S with ``extra`` more variables, is Σ_(k≤d) H(k)·C(extra−1+d−k, d−k)."""
    if not extra:
        return list(dims)
    return [sum(h * comb(extra - 1 + d - k, d - k) for k, h in enumerate(dims[:d + 1]))
            for d in range(len(dims))]


# --- comparisons of realized truncations -----------------------------------

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
    parts = homogeneous_parts(poly)
    degree = max(parts, default=-1)
    if degree > gi.degree_bound:
        raise ValueError(
            f"polynomial degree {degree} exceeds the truncation bound {gi.degree_bound}"
        )
    for d, part in parts.items():
        vec = primitive_vector([part.get(m, 0) for m in monomials(gi.nvars, d)])
        rows = gi.piece_rows[d]
        pivots = [_first_nonzero(r) for r in rows]
        if not int_contains(rows, pivots, vec):
            return False
    return True


def int_kernel(canonical, width: int) -> list[list[int]]:
    """Integer basis of the vectors orthogonal to every row, one per free column.

    ``canonical`` must be in reduced echelon form (``int_canonical``): each
    row is zero at the other rows' pivots.  The vector of free column j is
    L at j and −L·r[j]/r[p] at the pivot p of each row r, L the lcm of the
    pivot entries, and zero elsewhere.
    """
    pivots = [_first_nonzero(r) for r in canonical]
    scale = lcm(*(r[p] for r, p in zip(canonical, pivots)))
    out = []
    for j in sorted(set(range(width)).difference(pivots)):
        v = [0] * width
        v[j] = scale
        for r, p in zip(canonical, pivots):
            if r[j]:
                v[p] = -r[j] * scale // r[p]
        out.append(v)
    return out


def _times_form(poly: dict, form) -> dict:
    out: dict = {}
    for mono, coef in poly.items():
        for var, c in enumerate(form):
            if c:
                m = list(mono)
                m[var] += 1
                m = tuple(m)
                out[m] = out.get(m, 0) + coef * c
    return {m: c for m, c in out.items() if c}


def _form_products(forms, nvars: int, k: int) -> list[dict]:
    """Every product of k of the linear forms, one per multiset of forms."""
    level = [(0, {(0,) * nvars: 1})]
    for _ in range(k):
        if not level:  # no forms: no product of positive degree
            break
        level = [(i, _times_form(poly, forms[i]))
                 for start, poly in level for i in range(start, len(forms))]
    return [poly for _, poly in level]


def inverse_system(forms, nvars: int, exponent: int, degree: int, j0: int):
    """The rows with j ≥ ``j0`` pivot variables of a basis of the perp of
    (I^e)_d, I the ideal of canonical ``forms``, built by apolarity: the
    Emsalem–Iarrobino route for ``graded._Power.rows``, sharing no code
    with its expansion.

    The apolarity pairing of x^a with y^b (y_i acting as ∂/∂x_i) is
    a! = a_0!·a_1!··· when a = b and 0 otherwise.  For a linear flat, the
    perp of (I_W^e)_d under it is Sym^(d−e+1)(W)·S_(e−1), the
    degree-(d−e+1) forms in the points of W times all forms of degree
    e − 1 (Emsalem–Iarrobino, "Inverse system of a symbolic power I",
    J. Algebra 1995).  The points of W (``int_kernel``) together with the
    variables at the pivots of the forms are a basis of the linear forms,
    so the perp has the basis of the monomials in them of degree d with
    j ≤ e − 1 pivot variables.  Every coefficient of y^a carries the a!
    weight, so the pairing is the plain dot product: f lies in (I^e)_d iff
    f·g = 0 for every row g.

    The j0 rule, apolarity's way: such a row is a product of d − j points
    of W and j pivot variables, so it lies in Sym^(d−j)(W)·S_j.  Let
    I_U^(e_U) be a power stacked before it, with closed(U) ⊆ closed(W).
    Then the flat W lies in the flat U, and for j ≤ e_U − 1 (and d ≥ e_U)
    that space is Sym^(d−e_U+1)(W)·Sym^(e_U−1−j)(W)·S_j ⊆
    Sym^(d−e_U+1)(U)·S_(e_U−1), U's perp.  The row of the coefficient of
    v^β·u^γ that ``graded`` reads is Π s_i^(β_i)/(β!·γ!) times the row
    x_P^β·Π points^γ here, as ∂x/∂u_c are the points and
    ∂x/∂v_i = s_i·e_(p_i), so the two span the same perp row for row.
    """
    last = min(exponent - 1, degree)
    if j0 > last:
        return
    points = int_kernel(forms, nvars)
    if not points and degree >= exponent:  # each row has a point factor
        return
    pivots = [_first_nonzero(f) for f in forms]
    idx = monomial_index(nvars, degree)
    weights = [prod(map(factorial, m)) for m in monomials(nvars, degree)]
    for j in range(j0, last + 1):
        prods = _form_products(points, nvars, degree - j)
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


def pairs_to_zero(terms, poly: Polynomial) -> bool:
    """Whether every homogeneous component of ``poly`` pairs to zero with
    every inverse-system row with j ≥ j0 pivot variables of every
    (forms, e, j0) term in its degree: the row-pairing route for
    ``multiplier.membership``, sharing no code with its expansion."""
    for d, part in homogeneous_parts(poly).items():
        vec = primitive_vector([part.get(m, 0) for m in monomials(poly.nvars, d)])
        for forms, e, j0 in terms:
            for g in inverse_system(forms, poly.nvars, e, d, j0):
                if sum(a * b for a, b in zip(vec, g) if a):
                    return False
    return True


def power_contains(forms, exponent: int, j0: int, poly: Polynomial) -> bool:
    """Whether every coefficient of v-degree j0 … e − 1 of ``poly`` in the
    coordinates (u, v) of the canonical ``forms`` is 0: the power
    I^e when j0 = 0, read as ``multiplier.membership`` reads each of its
    terms (``graded._Power.vanishes``)."""
    terms = sorted(poly.terms)
    base = 1 + max((sum(m) for m, _ in terms), default=0)
    return _Power(forms, exponent, j0, base).vanishes([m for m, _ in terms],
                                                     [c for _, c in terms])


class EveryRowStack:
    """The perps of powers I^e of canonical forms in ``nvars`` variables,
    stacked in degrees 0..``bound`` with every inverse-system row (j0 = 0)
    and no hyperplane factor taken out: the unfactored reference for
    ``multiplier._Stack``, sharing no row code with ``graded._Power``."""

    def __init__(self, nvars: int, bound: int) -> None:
        self.nvars, self.low = nvars, 0
        self.echelons = [([], []) for _ in range(bound + 1)]

    def add(self, terms) -> None:
        """Stack the (forms, e) terms; below degree e, I^e has no piece."""
        for forms, e in terms:
            self.low = max(self.low, e)
            for d, (rows, pivots) in enumerate(self.echelons[e:], e):
                for g in inverse_system(forms, self.nvars, e, d, 0):
                    int_insert(rows, pivots, g)

    def dims(self) -> list[int]:
        return [0 if d < self.low else comb(self.nvars + d - 1, d) - len(rows)
                for d, (rows, _) in enumerate(self.echelons)]

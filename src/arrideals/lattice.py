"""Intersection lattices of central arrangements.

A flat is an intersection of hyperplanes.  It is identified by its closed
set: the indices of *all* hyperplanes containing it.  Geometrically a flat
is carried by its normal space (the span of those hyperplanes' normals);
rank is the codimension, mult is the total multiplicity of the closed set.

The lattice is built level by level from residual classes, in essential
coordinates: each normal is replaced by its entries at the r pivot columns
of an echelon list of all normals, in the normal form.  Those columns of
the echelon list form a triangular block with a nonzero diagonal, so the
map is injective on the span of the normals, and closed sets and ranks,
which only its linear dependences decide, are unchanged.  A flat X of
rank k has a class table: every normal outside its closed set, reduced
against X's rows (which leaves it zero at X's pivots), written in the r − k
coordinates that are not pivots of X, and scaled to a primitive integer
vector with a positive pivot; the table is keyed by that residual.  Two
hyperplanes lie in the same cover of X exactly when their residuals are
proportional, that is equal, so the table lists X's covers at once: a
cover's closed set is X's plus its class, with no closure scan.  The
residual is unique for the space: the pivot set of an echelon list is the
RREF's, and v + N(X) has exactly one vector that is zero at those pivots.
Dropping the pivot columns, where every residual is zero, loses nothing,
so two keys are equal exactly when the residuals are.  A cover
X ∨ g takes its table from X's: each other class residual ``red`` is
reduced against g's residual alone (``linalg.int_eliminate``), g's pivot
column is deleted, and classes merge when the results agree.  When
red is zero at g's pivot it is already reduced and normalized and is
reused with that column deleted.  The flats of rank r − 2, the last rank
expanded, take their tables from 3-vectors, so there the step is written
out for the two coordinates that remain (``_last_classes``): two 2×2
minors, their gcd and a sign, with no list or call per class.  A class
finds its pivot once, when its flat is expanded.  The closed set is the
dedup key across parents.
A flat's table is built only when the flat is expanded, from its parent's
table and its own class key.  Only the level entries of its new covers hold
it, and each entry is released when expanded, so the table is freed once
the last of those covers has built its own.  Past MAX_FLATS flats the
enumeration stops with a ValueError.
The top flat is not reached by expansion: the arrangement's rank r is read
off the span of all normals, the only flat of rank r is the one whose closed
set is every hyperplane, and the flats of rank r − 1, whose only cover it
is, are never expanded.

Enumeration builds no flat's canonical rows.  A flat computes them the
first time they are read, from the normals of its closed set; the package
reads them only for the terms of a presentation.  ``rows_in(W, U)``
restricts U's rows, for U ≤ W, to the r(W) pivot columns of W's rows:
every vector of N(W) has its pivot at one of them and is fixed by its
entries there.  With W the top flat these are the essential coordinates,
in which every flat ideal of the arrangement is generated.

A proper flat is irreducible when the linear matroid on its closed set is
connected; the irreducible flats form the minimal building set (see the
building module).  Irreducibility is read off the cover edges with no linear
algebra.  Every level entry carries its flat's components as closed masks,
and one closed mask -> rank dict covers the whole enumeration.  For a cover
C = X ∨ N of X, where N is the hyperplanes that C adds:

- exactly one component of C meets N.  Two components P and Q meeting N
  would each lose rank in X (closed(X) ∩ P is a flat missing P's part of
  N), and the ranks of C's components, cut down to closed(X), add to r(X),
  so r(X) ≤ r(C) − 2, against r(X) = r(C) − 1;
- a component K of X stays a component of C iff closed(C) ∖ K is a flat
  of rank r(C) − r(K).  If K splits off C, the ranks add and the rest of
  C, a union of components, is closed; conversely, a flat of that rank
  makes {K, closed(C) ∖ K} a decomposition of C, by the closed-set
  criterion in the building module's docstring;
- every other component of X joins N, and C is irreducible iff no
  component of X stays.

So a cover's components cost one dict lookup per component of its parent.
The top flat, never expanded, is decided the same way from one of its lower
covers.  The flats of rank r − 1 are never expanded either, so of them only
irreducibility is read: the lookups stop at the first component that stays,
and only the one lower cover the top flat is decided from gets its whole
tuple of components.  The components of any flat F are the maximal
irreducible flats whose closed sets lie in closed(F); a ``ClosedSetIndex``
of the irreducibles reads them (``maximal_below``) from closed sets alone.

The lattice keeps the enumeration's records, the closed masks of each rank.
It builds a ``Flat`` at once only for the irreducible flats and the top
flat: the minimal building set is all that ``lct``, ``building``, ``mi``,
``jumps``, ``hilbert`` and ``member`` read, with the top flat for the
essential coordinates.  The other flats are built the first time
``IntersectionLattice.flats`` is read (``proper`` reads it): the masks are
converted, the multiplicities summed and all flats sorted, with the objects
already built reused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd

from .arrangement import Arrangement
from .linalg import (
    _first_nonzero,
    _signed_primitive,
    int_canonical,
    int_eliminate,
    int_span,
    primitive_vector,
)


# Most flats a lattice may have: braid(11) has 678,570 (27 s, 400 MB max RSS
# on a 2-core machine).  Memory runs to about 1 KB per flat found, so
# braid(12), with 4,213,597 flats, is refused after 15 s at under 800 MB
# instead of growing until the process is killed.
MAX_FLATS = 700_000


@dataclass(frozen=True)
class Flat:
    """One element of the intersection lattice.

    ``normals`` are the arrangement's hyperplane normals, one tuple
    shared by every flat of a lattice; they take part in ``==``, so a flat
    of another arrangement with the same closed set is a different flat.
    """

    closed_set: tuple[int, ...]
    rank: int
    mult: int
    ambient_dim: int
    normals: tuple[tuple[int, ...], ...] = field(repr=False, hash=False)

    @cached_property
    def basis_rows(self) -> tuple[tuple[int, ...], ...]:
        """The canonical primitive-integer echelon basis of the normal space
        (see ``linalg.int_canonical``), computed on first read."""
        return int_canonical(*int_span((self.normals[j] for j in self.closed_set),
                                       self.ambient_dim))


def rows_in(W: Flat, U: Flat) -> tuple[tuple[int, ...], ...]:
    """U's canonical rows restricted to the pivot columns of ``W.basis_rows``.

    N(U) ⊆ N(W) when closed(U) ⊆ closed(W).  W's rows are reduced echelon,
    so U's pivots are among W's (pivots nest) and a vector u of N(W) is
    Σ u[p]·w/w[p] over W's rows w with pivot p: the restricted rows are
    reduced echelon, and each is made primitive."""
    if not set(U.closed_set) <= set(W.closed_set):
        raise ValueError(f"closed set {list(U.closed_set)} is not inside "
                         f"{list(W.closed_set)}")
    pivots = [_first_nonzero(w) for w in W.basis_rows]
    return tuple(primitive_vector([u[p] for p in pivots]) for u in U.basis_rows)


def flat_sort_key(flat: Flat) -> tuple[int, tuple[int, ...]]:
    """Canonical order: ascending rank, then lexicographic closed set."""
    return (flat.rank, flat.closed_set)


@dataclass(frozen=True)
class IntersectionLattice:
    """All flats of an arrangement, canonically ordered, ambient space first.

    Only the irreducible flats and the top flat are built with the lattice;
    ``_records[rank]`` holds the closed masks of the other flats of that
    rank, and ``flats`` builds those the first time it is read, reusing the
    built objects."""

    arrangement: Arrangement
    irreducibles: tuple[Flat, ...]  # the irreducible proper flats, in canonical order
    top: Flat  # the flat of every hyperplane, the last in canonical order
    _records: list[list[int]] = field(repr=False, compare=False)

    @cached_property
    def flats(self) -> tuple[Flat, ...]:
        flats = _build_flats(self.arrangement, self.top.normals, self._records)
        flats.extend(self.irreducibles)
        if self.irreducibles[-1] is not self.top:
            flats.append(self.top)
        flats.sort(key=flat_sort_key)
        return tuple(flats)

    @property
    def proper(self) -> tuple[Flat, ...]:
        """The lattice minus the ambient space."""
        return self.flats[1:]


def _mask_to_tuple(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _cover_components(comps: tuple[int, ...], closed: int, rank: int,
                      rank_of: dict[int, int]) -> tuple[int, ...]:
    """The components (closed masks) of the cover with closed mask ``closed``
    and rank ``rank`` of a flat with components ``comps``: those that split
    off the cover stay, the rest join its new hyperplanes in one component."""
    kept = []
    joined = closed
    for comp in comps:
        if rank_of.get(closed & ~comp) == rank - rank_of[comp]:
            kept.append(comp)
            joined &= ~comp
    return (*kept, joined)


def _last_classes(parent: dict, g: tuple[int, ...], cmask: int) -> dict:
    """The class table of a flat of rank r − 2 with closed mask ``cmask``
    and residual ``g`` in its parent's table ``parent``, whose keys are
    3-vectors: each key is ``int_eliminate(red, g, pg)``, written out for
    the two coordinates that remain."""
    pg = _first_nonzero(g)
    q, s = (1, 2) if pg == 0 else (0, 2) if pg == 1 else (0, 1)
    gp, gq, gs = g[pg], g[q], g[s]
    classes: dict = {}
    for red, group in parent.items():
        if group & cmask:
            continue
        c = red[pg]
        if c:
            a = gp * red[q] - c * gq
            b = gp * red[s] - c * gs
            d = gcd(a, b)  # not 0: distinct residuals are not proportional
            if a < 0 or not a and b < 0:
                d = -d
            key = (a // d, b // d)
        else:
            key = (red[q], red[s])
        classes[key] = classes.get(key, 0) | group
    return classes


def _flats_by_level(normals, dim: int) -> tuple[list[list[int]], list[list[int]], bool]:
    """The closed masks of the flats below the top flat, by rank, in
    discovery order: those of the irreducible flats and those of the others
    (the ambient space first), and whether the top flat is irreducible.

    Refuses with a ValueError once more than MAX_FLATS flats are found."""
    full = (1 << len(normals)) - 1
    pivots = int_span(normals, dim)[1]
    top = len(pivots)
    irreducible: list[list[int]] = [[]]
    rest = [[0]]
    count = 2  # the ambient space and the top flat
    rank_of = {0: 0, full: top}  # closed mask -> rank, of every flat found
    # residual -> hyperplanes: the normals in essential coordinates, which
    # are distinct and already residuals
    ambient = {_signed_primitive([nj[c] for c in pivots])[0]: 1 << j
               for j, nj in enumerate(normals)}
    # per flat of the current rank: its parent's class table, its own
    # residual key there, closed mask and components
    level: list = [(ambient, None, 0, ())]
    last_comps: tuple | None = None  # components of one flat of rank top - 1
    for rank in range(1, top):
        nxt = []
        irreducible.append([])
        rest.append([])
        for i, (parent, g, cmask, comps) in enumerate(level):
            level[i] = None
            if g is None:
                classes = parent
            elif len(g) == 3:
                classes = _last_classes(parent, g, cmask)
            else:
                pg = _first_nonzero(g)
                classes = {}
                for red, group in parent.items():
                    if group & cmask:
                        continue
                    key = int_eliminate(red, g, pg)
                    classes[key] = classes.get(key, 0) | group
            for key, group in classes.items():
                ccmask = cmask | group
                if ccmask in rank_of:
                    continue
                if count >= MAX_FLATS:
                    raise ValueError(f"the lattice has more than {MAX_FLATS} flats "
                                     f"(reached at rank {rank} of {top}), more than "
                                     f"supported")
                count += 1
                rank_of[ccmask] = rank
                if rank < top - 1:
                    child_comps = _cover_components(comps, ccmask, rank, rank_of)
                    nxt.append((classes, key, ccmask, child_comps))
                    stays = len(child_comps) > 1
                elif last_comps is None:  # the cover the top flat is decided from
                    last_comps = _cover_components(comps, ccmask, rank, rank_of)
                    stays = len(last_comps) > 1
                else:  # never expanded: stop at the first component that stays
                    stays = False
                    for comp in comps:
                        if rank_of.get(ccmask & ~comp) == rank - rank_of[comp]:
                            stays = True
                            break
                (rest if stays else irreducible)[rank].append(ccmask)
        level = nxt
    top_comps = _cover_components(last_comps or (), full, top, rank_of)
    return irreducible, rest, len(top_comps) == 1


def _build_flats(arr: Arrangement, normals: tuple[tuple[int, ...], ...],
                 by_rank: list[list[int]]) -> list[Flat]:
    """The flat of each closed mask of ``by_rank[rank]``, rank by rank."""
    mults = [h.mult for h in arr.hyperplanes]
    flats = []
    for rank, masks in enumerate(by_rank):
        for cmask in masks:
            closed = _mask_to_tuple(cmask)
            flats.append(Flat(closed_set=closed, rank=rank,
                              mult=sum(mults[j] for j in closed),
                              ambient_dim=arr.dim, normals=normals))
    return flats


def compute_lattice(arr: Arrangement) -> IntersectionLattice:
    """The intersection lattice of ``arr``: its irreducible flats and top
    flat are built here, the others when ``flats`` is first read."""
    normals = tuple(h.normal for h in arr.hyperplanes)
    irreducible, rest, top_irreducible = _flats_by_level(normals, arr.dim)
    built = _build_flats(arr, normals, [*irreducible, [(1 << len(normals)) - 1]])
    top = built[-1]
    if not top_irreducible:
        built.pop()
    built.sort(key=flat_sort_key)
    return IntersectionLattice(arr, tuple(built), top, rest)


class ClosedSetIndex:
    """Flats as bitsets over the order they were added: ``having[h]`` holds
    the members whose closed set has hyperplane h.  A member U lies below W,
    closed(U) ⊆ closed(W), iff it has no hyperplane outside closed(W), so
    the members below W take one bit operation per hyperplane, with no
    pairwise scan.  ``maximal_below`` needs the members added highest rank
    first: a strictly larger closed set has a strictly larger rank, so the
    lowest bit left is a member that no member left lies strictly above."""

    def __init__(self) -> None:
        self.flats: list[Flat] = []
        self.having: dict[int, int] = {}

    def add(self, flat: Flat) -> int:
        """Add ``flat`` as the next member; returns its bit."""
        bit = 1 << len(self.flats)
        self.flats.append(flat)
        for h in flat.closed_set:
            self.having[h] = self.having.get(h, 0) | bit
        return bit

    def _without(self, bits: int, hyperplanes) -> int:
        """The members of ``bits`` that have none of ``hyperplanes``."""
        having = 0
        for h in hyperplanes:
            having |= self.having.get(h, 0)
        return bits & ~having

    def below(self, W: Flat) -> int:
        """The bitset of the members below W."""
        return self._without((1 << len(self.flats)) - 1,
                             self.having.keys() - W.closed_set)

    def maximal_below(self, W: Flat) -> list[Flat]:
        """The maximal members below W, highest rank first: take the lowest
        bit left, then drop the members below it (those below W with no
        hyperplane of closed(W) outside it)."""
        closed = set(W.closed_set)
        bits, out = self.below(W), []
        while bits:
            U = self.flats[(bits & -bits).bit_length() - 1]
            out.append(U)
            bits &= ~self._without(bits, closed.difference(U.closed_set))
        return out

"""Decompositions of flats, irreducibility, and building sets.

A set of proper flats {U_1, ..., U_k} decomposes a proper flat C when
C = U_1 ∩ ... ∩ U_k transversally (codimensions add up) and, for every
proper flat B containing C, each subspace sum B + U_i is again a flat and
B = (B + U_1) ∩ ... ∩ (B + U_k), again transversally (De Concini and
Procesi).  In matroid terms: distinct proper flats U_i decompose C iff
their closed sets partition closed(C) and Σ rank U_i = rank C.

- (⇒) Take B = H_h, the hyperplane of some h ∈ closed(C).  Then B + U_i
  is H_h when h ∈ closed(U_i) and the whole space otherwise, so
  transversality at B puts h in exactly one part.  At B = C the ranks add.
- (⇐) Such a partition makes the matroid on closed(C) the direct sum of
  the parts, so for every flat B ⊇ C, N(B) ∩ N(U_i) is the span of
  closed(B) ∩ closed(U_i): a flat's normal space, and these spaces sum
  directly to N(B).  Every condition of the definition holds.

A subset G of the proper flats is a building set when for every proper
flat C the maximal elements of G below C (closed sets inside closed(C))
decompose C; a C in G is decomposed by itself alone.  The irreducible
flats (those with no non-trivial decomposition) always form one,
``lat.irreducibles``, contained in every other; ``lat.proper`` is the
full one.  A flat is irreducible iff the linear matroid on its closed set
is connected, and the components are exactly the finest decomposition.
The components of a flat F are the maximal irreducible flats whose closed
sets lie in closed(F): each component is an irreducible flat there, and an
irreducible flat U with closed(U) ⊆ closed(F) splits along the
components, so lies in one.  Each lattice finds its irreducible flats
once, along its cover edges (see the lattice module); the building-set
check re-derives every decomposition from closed sets and ranks alone.
"""

from __future__ import annotations

from typing import Sequence

from .lattice import ClosedSetIndex, Flat, IntersectionLattice


def _decomposes(target: Flat, parts: Sequence[Flat]) -> bool:
    """Whether ``parts``, distinct proper flats of the target's lattice,
    decompose ``target`` (see the module docstring): their closed sets
    partition the target's and ranks add."""
    return (sorted(j for U in parts for j in U.closed_set) == list(target.closed_set)
            and sum(U.rank for U in parts) == target.rank)


def building_set_obstruction(lat: IntersectionLattice,
                             flats: Sequence[Flat]) -> Flat | None:
    """First proper flat whose maximal members of ``flats`` below it fail
    to decompose it.  ``flats`` must be distinct proper flats of ``lat``, in
    any order; this is not checked.  They are indexed highest rank first,
    as ``ClosedSetIndex.maximal_below`` needs."""
    index = ClosedSetIndex()
    for U in sorted(flats, key=lambda U: -U.rank):
        index.add(U)
    members = {U.closed_set for U in flats}
    for C in lat.proper:
        if C.closed_set in members:
            continue
        parts = index.maximal_below(C)
        if not parts or not _decomposes(C, parts):
            return C
    return None

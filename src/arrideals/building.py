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
flat C the minimal elements of G containing C decompose C; a C in G is
decomposed by itself alone.  The irreducible flats (those with no
non-trivial decomposition) always form one, and it is contained in every
other.  A flat is irreducible iff the linear matroid on its closed set is
connected, and the components are exactly the finest decomposition.  The
components of a flat F are the maximal irreducible flats whose closed sets
lie in closed(F), ``minimal_containing(lat.irreducibles, F)``: each
component is an irreducible flat there, and an irreducible flat U with
closed(U) ⊆ closed(F) splits along the components, so lies in one.  Each
lattice finds its irreducible flats once, along its cover edges (see the
lattice module).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .lattice import Flat, IntersectionLattice, minimal_containing


@dataclass(frozen=True)
class BuildingSet:
    """A verified-by-construction family of proper flats."""

    flats: tuple[Flat, ...]

    def __len__(self) -> int:
        return len(self.flats)


def _decomposes(target: Flat, parts: Sequence[Flat]) -> bool:
    """Whether ``parts``, distinct proper flats of the target's lattice,
    decompose ``target`` (see the module docstring): their closed sets
    partition the target's and ranks add."""
    return (sorted(j for U in parts for j in U.closed_set) == list(target.closed_set)
            and sum(U.rank for U in parts) == target.rank)


def minimal_building_set(lat: IntersectionLattice) -> BuildingSet:
    """All irreducible proper flats, in canonical order (computed once per lattice)."""
    return BuildingSet(lat.irreducibles)


def full_building_set(lat: IntersectionLattice) -> BuildingSet:
    """The whole proper lattice as a building set."""
    return BuildingSet(lat.proper)


def building_set_obstruction(lat: IntersectionLattice,
                             flats: Sequence[Flat]) -> Flat | None:
    """First proper flat whose minimal covers in ``flats`` fail to decompose it.

    ``flats`` must be distinct proper flats of ``lat``, as the minimal and the
    full building set are; this is not checked.
    """
    members = {U.closed_set for U in flats}
    for C in lat.proper:
        if C.closed_set in members:
            continue
        parts = minimal_containing(flats, C)
        if not parts or not _decomposes(C, parts):
            return C
    return None

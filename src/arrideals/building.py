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
lie in closed(F): each component is an irreducible flat there, and an
irreducible flat U with closed(U) ⊆ closed(F) splits along the components,
so lies in one.  Each lattice finds its irreducible flats once, along its
cover edges (see the lattice module).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .lattice import (
    Flat,
    IntersectionLattice,
    flat_sort_key,
    minimal_containing,
)


@dataclass(frozen=True)
class BuildingSet:
    """A verified-by-construction family of proper flats."""

    flats: tuple[Flat, ...]

    def __len__(self) -> int:
        return len(self.flats)


def _require_proper_flat(lat: IntersectionLattice, flat: Flat, what: str) -> None:
    if flat.rank == 0:
        raise ValueError(f"{what} must not be the ambient space")
    if lat.flat_with_closed(flat.closed_set) != flat:
        raise ValueError(f"{what} is not a flat of this lattice")


def _require_distinct_proper_flats(lat: IntersectionLattice, flats: Sequence[Flat],
                                   what: str, group: str) -> None:
    seen = set()
    for f in flats:
        _require_proper_flat(lat, f, what)
        if f.closed_set in seen:
            raise ValueError(f"{group} must be distinct")
        seen.add(f.closed_set)


def is_decomposition(lat: IntersectionLattice, target: Flat,
                     parts: Sequence[Flat]) -> bool:
    """Whether ``parts`` is a decomposition of ``target`` (see the module
    docstring): their closed sets partition the target's and ranks add."""
    _require_proper_flat(lat, target, "target")
    if not parts:
        raise ValueError("parts must be non-empty")
    _require_distinct_proper_flats(lat, parts, "part", "parts")
    return _decomposes(target, parts)


def _decomposes(target: Flat, parts: Sequence[Flat]) -> bool:
    """The decomposition test on flats of one lattice, without input checks."""
    return (sorted(j for U in parts for j in U.closed_set) == list(target.closed_set)
            and sum(U.rank for U in parts) == target.rank)


def irreducible_decomposition(lat: IntersectionLattice, flat: Flat) -> list[Flat]:
    """The unique finest decomposition of ``flat`` into irreducible flats:
    the maximal irreducible flats whose closed sets lie in the flat's.

    Returns ``[flat]`` exactly when the flat is irreducible.
    """
    _require_proper_flat(lat, flat, "flat")
    return minimal_containing(lat.irreducibles, flat)


def minimal_building_set(lat: IntersectionLattice) -> BuildingSet:
    """All irreducible proper flats, in canonical order (computed once per lattice)."""
    return BuildingSet(lat.irreducibles)


def full_building_set(lat: IntersectionLattice) -> BuildingSet:
    """The whole proper lattice as a building set."""
    return BuildingSet(lat.proper)


def custom_building_set(lat: IntersectionLattice, flats: Sequence[Flat]) -> BuildingSet:
    """Wrap a user-chosen family after verifying the building property."""
    _require_distinct_proper_flats(lat, flats, "flat", "building set flats")
    ordered = tuple(sorted(flats, key=flat_sort_key))
    bad = building_set_obstruction(lat, ordered)
    if bad is not None:
        raise ValueError(
            f"not a building set: fails at flat with closed set {bad.closed_set}"
        )
    return BuildingSet(ordered)


def building_set_obstruction(lat: IntersectionLattice,
                             flats: Sequence[Flat]) -> Flat | None:
    """First proper flat whose minimal covers in ``flats`` fail to decompose it.

    ``flats`` must be distinct proper flats of ``lat``, as ``is_building_set``
    and ``custom_building_set`` check; they are not checked again per flat.
    """
    members = {U.closed_set for U in flats}
    for C in lat.proper:
        if C.closed_set in members:
            continue
        parts = minimal_containing(flats, C)
        if not parts or not _decomposes(C, parts):
            return C
    return None


def is_building_set(lat: IntersectionLattice, flats: Sequence[Flat]) -> bool:
    """Whether every proper flat is decomposed by its minimal covers in ``flats``."""
    _require_distinct_proper_flats(lat, flats, "flat", "building set flats")
    return building_set_obstruction(lat, flats) is None

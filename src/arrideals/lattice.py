"""Intersection lattices of central arrangements.

A flat is an intersection of hyperplanes.  It is identified by its closed
set: the indices of *all* hyperplanes containing it.  Geometrically a flat
is carried by its normal space (the span of those hyperplanes' normals);
rank is the codimension, mult is the total multiplicity of the closed set.

The lattice is built level by level.  Extending a flat of rank k by one
hyperplane outside its closed set always yields a flat of rank k+1, and two
extensions land in the same flat exactly when they have the same normal
space, so the canonical integer basis of that span doubles as the dedup
key.  Once a cover flat is known, every hyperplane inside its closed set
is marked off and never tried again from the same parent; this keeps the
work proportional to the number of cover edges rather than flats times
hyperplanes.

A proper flat is irreducible when the linear matroid on its closed set is
connected; the irreducible flats form the minimal building set (see the
building module).  The lattice computes them once and keeps them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Iterable, Sequence

from .arrangement import Arrangement
from .linalg import (
    _first_nonzero,
    _strip,
    int_canonical,
    int_contains,
    int_insert,
    int_reduce,
    primitive_vector,
)


@dataclass(frozen=True)
class Flat:
    """One element of the intersection lattice.

    ``basis_rows`` is the canonical primitive-integer echelon basis of the
    normal space (see ``linalg.int_canonical``).
    """

    closed_set: tuple[int, ...]
    rank: int
    mult: int
    ambient_dim: int
    basis_rows: tuple[tuple[int, ...], ...]


def flat_sort_key(flat: Flat) -> tuple[int, tuple[int, ...]]:
    """Canonical order: ascending rank, then lexicographic closed set."""
    return (flat.rank, flat.closed_set)


@dataclass(frozen=True)
class IntersectionLattice:
    """All flats of an arrangement, canonically ordered, ambient space first."""

    arrangement: Arrangement
    flats: tuple[Flat, ...]

    @cached_property
    def _by_closed(self) -> dict[tuple[int, ...], Flat]:
        return {f.closed_set: f for f in self.flats}

    @cached_property
    def int_normals(self) -> tuple[tuple[int, ...], ...]:
        """Primitive integer normals of the hyperplanes, in file order."""
        return _int_normals(self.arrangement)

    @cached_property
    def irreducibles(self) -> tuple[Flat, ...]:
        """The irreducible proper flats, in canonical order."""
        normals = self.int_normals
        return tuple(f for f in self.proper if _is_irreducible(normals, f))

    @property
    def ambient(self) -> Flat:
        return self.flats[0]

    @property
    def proper(self) -> tuple[Flat, ...]:
        """The lattice minus the ambient space."""
        return self.flats[1:]

    def flat_with_closed(self, closed: Iterable[int]) -> Flat | None:
        return self._by_closed.get(tuple(sorted(closed)))

    def hyperplane_flat(self, index: int) -> Flat:
        f = self._by_closed.get((index,))
        if f is None:
            raise ValueError(f"no hyperplane with index {index}")
        return f


def _int_normals(arr: Arrangement) -> tuple[tuple[int, ...], ...]:
    return tuple(primitive_vector(h.normal) for h in arr.hyperplanes)


def _support_mask(vec: Sequence[int]) -> int:
    m = 0
    for k, a in enumerate(vec):
        if a:
            m |= 1 << k
    return m


def _closed_mask(rows, pivots, base_mask: int, colmask: int,
                 normals, supports) -> int:
    """All hyperplanes whose normal lies in the row span.

    ``base_mask`` marks indices already known to be inside.  A normal with
    support outside the united support of the rows cannot be spanned, which
    filters most candidates without arithmetic.
    """
    mask = base_mask
    for j, nj in enumerate(normals):
        bit = 1 << j
        if mask & bit or supports[j] & ~colmask:
            continue
        if int_contains(rows, pivots, nj):
            mask |= bit
    return mask


def _mask_to_tuple(mask: int) -> tuple[int, ...]:
    out = []
    j = 0
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return tuple(out)


def closure(arr: Arrangement, indices: Iterable[int]) -> Flat:
    """The flat cut out by the chosen hyperplanes.

    The closed set is enlarged to every hyperplane whose normal lies in the
    span of the chosen ones; the empty set gives the ambient space.
    """
    normals = _int_normals(arr)
    nh = len(normals)
    idx = sorted(set(indices))
    for i in idx:
        if not 0 <= i < nh:
            raise ValueError(f"hyperplane index {i} out of range")
    rows: list = []
    pivots: list = []
    base = 0
    for i in idx:
        int_insert(rows, pivots, normals[i])
        base |= 1 << i
    colmask = 0
    for r in rows:
        colmask |= _support_mask(r)
    supports = tuple(_support_mask(v) for v in normals)
    mask = _closed_mask(rows, pivots, base, colmask, normals, supports)
    closed = _mask_to_tuple(mask)
    mult = sum(arr.hyperplanes[j].mult for j in closed)
    return Flat(
        closed_set=closed,
        rank=len(rows),
        mult=mult,
        ambient_dim=arr.dim,
        basis_rows=int_canonical(rows, pivots),
    )


def compute_lattice(arr: Arrangement) -> IntersectionLattice:
    """All intersections of hyperplanes of ``arr``, as a sorted lattice."""
    normals = _int_normals(arr)
    nh = len(normals)
    mults = tuple(h.mult for h in arr.hyperplanes)
    supports = tuple(_support_mask(v) for v in normals)
    full = (1 << nh) - 1

    # entry = (rows, pivots, closed_mask, colmask); key = canonical basis
    collected: list[tuple[tuple[tuple[int, ...], ...], int, int]] = []
    collected.append(((), 0, 0))  # ambient space: canonical rows, closed mask, rank
    level = [((), (), 0, 0)]
    rank = 0
    while level:
        rank += 1
        nxt: dict = {}
        for rows, pivots, cmask, colmask in level:
            done = cmask
            while done != full:
                e = ((~done & full) & -(~done & full)).bit_length() - 1
                red = int_reduce(normals[e], rows, pivots)
                p = _first_nonzero(red)
                if red[p] < 0:
                    red = [-a for a in red]
                _strip(red)
                child_rows = rows + (tuple(red),)
                child_pivots = pivots + (p,)
                key = int_canonical(child_rows, child_pivots)
                got = nxt.get(key)
                if got is None:
                    ccol = colmask | _support_mask(red)
                    ccmask = _closed_mask(
                        child_rows, child_pivots, cmask | (1 << e), ccol,
                        normals, supports,
                    )
                    got = (child_rows, child_pivots, ccmask, ccol)
                    nxt[key] = got
                done |= got[2]
        level = list(nxt.values())
        for key, (_, _, ccmask, _) in nxt.items():
            collected.append((key, ccmask, rank))

    flats = []
    for basis, cmask, rk in collected:
        closed = _mask_to_tuple(cmask)
        flats.append(Flat(
            closed_set=closed,
            rank=rk,
            mult=sum(mults[j] for j in closed),
            ambient_dim=arr.dim,
            basis_rows=basis,
        ))
    flats.sort(key=flat_sort_key)
    return IntersectionLattice(arr, tuple(flats))


def minimal_containing(lat: IntersectionLattice, flats: Sequence[Flat],
                       target: Flat) -> list[Flat]:
    """The containment-minimal elements of ``flats`` that contain ``target``."""
    if target.rank == 0:
        raise ValueError("target must be a proper flat")
    tset = set(target.closed_set)
    cands = [U for U in flats if set(U.closed_set) <= tset]
    out = [
        U for U in cands
        if not any(set(W.closed_set) > set(U.closed_set) for W in cands)
    ]
    out.sort(key=flat_sort_key)
    return out


def _matroid_components(normals, closed: Sequence[int]) -> list[tuple[int, ...]]:
    """Connected components of the linear matroid on the chosen normals.

    Elements are merged along fundamental circuits: each dependent normal is
    reduced against the running echelon basis while tracking an exact integer
    combination over the original elements; the support of a vanished
    combination is a circuit.
    """
    parent = {j: j for j in closed}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    rows: list = []
    pivots: list = []
    combos: list[dict[int, int]] = []
    for j in closed:
        v = list(normals[j])
        combo = {j: 1}
        for row, p, rc in zip(rows, pivots, combos):
            c = v[p]
            if not c:
                continue
            pv = row[p]
            v = [pv * a - c * b for a, b in zip(v, row)]
            combo = {
                k: coef
                for k in combo.keys() | rc.keys()
                if (coef := pv * combo.get(k, 0) - c * rc.get(k, 0))
            }
        p = _first_nonzero(v)
        if p is None:
            root = find(j)
            for k in combo:
                parent[find(k)] = root
        else:
            g = 0
            for a in v:
                g = gcd(g, a)
            for a in combo.values():
                g = gcd(g, a)
            if g > 1:
                v = [a // g for a in v]
                combo = {k: a // g for k, a in combo.items()}
            rows.append(tuple(v))
            pivots.append(p)
            combos.append(combo)

    groups: dict[int, list[int]] = {}
    for j in closed:
        groups.setdefault(find(j), []).append(j)
    return sorted(tuple(sorted(g)) for g in groups.values())


def _is_irreducible(normals, flat: Flat) -> bool:
    """Whether a proper flat's matroid is connected."""
    if flat.rank == 1:
        return True
    if len(flat.closed_set) == flat.rank:
        return False  # independent normals split into single hyperplanes
    return len(_matroid_components(normals, flat.closed_set)) == 1

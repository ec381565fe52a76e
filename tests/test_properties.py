"""Property tests on generated arrangements (needs ``hypothesis``)."""

from fractions import Fraction
from itertools import combinations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from arrideals.arrangement import Arrangement, canonical_normal
from arrideals.building import (
    full_building_set,
    irreducible_decomposition,
    minimal_building_set,
)
from arrideals.lattice import compute_lattice
from arrideals.multiplier import presentation, presentation_ideal

import helpers
from fraction_linalg import span


@st.composite
def arrangements(draw, dims=(1, 4), size=7, coef=3):
    """Distinct hyperplanes with integer coefficients, multiplicities 1-3."""
    dim = draw(st.integers(*dims))
    normal = st.tuples(*[st.integers(-coef, coef)] * dim).filter(any)
    normals = draw(st.lists(normal, min_size=1, max_size=size,
                            unique_by=canonical_normal))
    mults = draw(st.lists(st.integers(1, 3), min_size=len(normals),
                          max_size=len(normals)))
    return Arrangement.from_normals(dim, normals, mults)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(arrangements())
def test_lattice_equals_subset_closure_enumeration(arr):
    lat = compute_lattice(arr)
    assert set(lat.flats) == helpers.subset_closure_flats(arr)
    assert len(lat.flats) == len(set(lat.flats))


def circuits(arr: Arrangement) -> list[frozenset[int]]:
    """Minimal dependent sets of hyperplanes, by Fraction ranks of subsets."""
    normals = [h.normal for h in arr.hyperplanes]
    rank = {}
    for k in range(len(normals) + 1):
        for sub in combinations(range(len(normals)), k):
            rank[frozenset(sub)] = span([normals[i] for i in sub], arr.dim).rank
    return [s for s, r in rank.items()
            if r == len(s) - 1 and all(rank[s - {i}] == r for i in s)]


def circuit_components(closed, circs) -> list[tuple[int, ...]]:
    """Components of the matroid restricted to ``closed``: elements joined
    by a common circuit inside it, closed transitively."""
    block = {j: {j} for j in closed}
    for c in circs:
        if c <= set(closed):
            merged = set().union(*(block[j] for j in c))
            for j in merged:
                block[j] = merged
    return sorted({tuple(sorted(b)) for b in block.values()})


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(arrangements())
def test_irreducibles_match_circuit_oracle(arr):
    lat = compute_lattice(arr)
    circs = circuits(arr)
    comps = {f.closed_set: circuit_components(f.closed_set, circs) for f in lat.proper}
    assert [f.closed_set for f in lat.irreducibles] == [
        f.closed_set for f in lat.proper if len(comps[f.closed_set]) == 1]
    for f in lat.proper:
        parts = irreducible_decomposition(lat, f)
        assert sorted(U.closed_set for U in parts) == comps[f.closed_set]


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(arrangements(dims=(2, 3), size=5, coef=2),
       st.integers(1, 6), st.integers(2, 3), st.integers(2, 5))
def test_minimal_and_full_building_sets_give_one_ideal(arr, p, q, bound):
    """The paper's theorem: the presentation over any building set, here
    the minimal and the full one, is the same ideal."""
    lat = compute_lattice(arr)
    lam = Fraction(p, q)
    a = presentation_ideal(presentation(lat, minimal_building_set(lat), lam), bound)
    b = presentation_ideal(presentation(lat, full_building_set(lat), lam), bound)
    assert a.piece_rows == b.piece_rows

"""Property tests on generated arrangements (needs ``hypothesis``)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from arrideals.arrangement import Arrangement, canonical_normal
from arrideals.lattice import compute_lattice

import helpers


@st.composite
def arrangements(draw):
    """Dimension 1-4, 1-7 distinct hyperplanes, coefficients in [-3, 3]."""
    dim = draw(st.integers(1, 4))
    normal = st.tuples(*[st.integers(-3, 3)] * dim).filter(any)
    normals = draw(st.lists(normal, min_size=1, max_size=7,
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

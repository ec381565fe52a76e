from itertools import combinations

import pytest

from arrideals.arrangement import Arrangement, braid
from arrideals.lattice import closure, compute_lattice, minimal_containing

import helpers
from fraction_linalg import span, span_contains


def test_braid3_structure():
    lat = compute_lattice(braid(3))
    assert len(lat.flats) == 5
    assert lat.ambient.rank == 0 and lat.ambient.closed_set == ()
    assert [f.closed_set for f in lat.flats] == [
        (), (0,), (1,), (2,), (0, 1, 2),
    ]
    top = lat.flat_with_closed((0, 1, 2))
    assert top.rank == 2 and top.mult == 3


def test_single_hyperplane_any_mult():
    for m in (1, 2, 5):
        lat = compute_lattice(Arrangement.from_normals(2, [(1, -1)], [m]))
        assert len(lat.flats) == 2
        assert lat.flats[1].mult == m


def test_closure_examples():
    arr = braid(3)
    f = closure(arr, {0, 1})
    assert f.closed_set == (0, 1, 2) and f.rank == 2 and f.mult == 3
    v = closure(arr, set())
    assert v.rank == 0 and v.closed_set == () and v.mult == 0
    axes = Arrangement.from_normals(2, [(1, 0), (0, 1)])
    f = closure(axes, {0})
    assert f.closed_set == (0,) and f.rank == 1 and f.mult == 1
    with pytest.raises(ValueError):
        closure(arr, {99})


def test_closure_matches_lattice():
    arr = braid(4)
    lat = compute_lattice(arr)
    for f in lat.flats:
        assert closure(arr, f.closed_set) == f


@pytest.mark.parametrize("n", range(2, 9))
def test_braid_lattice_is_the_partition_lattice(n):
    lat = compute_lattice(braid(n))
    pair_index = helpers.braid_pair_index(n)
    expected = {
        helpers.partition_closed_set(p, pair_index)
        for p in helpers.set_partitions(n)
    }
    got = {f.closed_set for f in lat.flats}
    assert got == expected
    assert len(lat.flats) == helpers.bell_numbers(n)[n]


def test_canonical_order_and_hyperplane_flats(corpus_lattices):
    for lat in corpus_lattices:
        keys = [(f.rank, f.closed_set) for f in lat.flats]
        assert keys == sorted(keys)
        assert lat.flats[0].rank == 0
        for i in range(len(lat.arrangement.hyperplanes)):
            assert lat.hyperplane_flat(i).rank == 1


def test_rank_mult_bounds(corpus_lattices):
    for lat in corpus_lattices:
        for f in lat.proper:
            assert f.mult >= len(f.closed_set) >= f.rank >= 1


def test_containment_monotonicity(corpus_lattices):
    for lat in corpus_lattices:
        for f1, f2 in combinations(lat.flats, 2):
            if set(f2.closed_set) <= set(f1.closed_set):  # f1 ⊆ f2
                assert f1.rank >= f2.rank
                assert f1.mult >= f2.mult


def test_lattice_matches_subset_closure_enumeration(corpus_lattices):
    """Reference construction: close every subset of hyperplanes."""
    for lat in corpus_lattices:
        arr = lat.arrangement
        nh = len(arr.hyperplanes)
        expected = set()
        for bits in range(1 << nh):
            idx = [i for i in range(nh) if bits >> i & 1]
            expected.add(closure(arr, idx))
        assert set(lat.flats) == expected


def test_compute_lattice_is_deterministic(corpus):
    for arr in corpus[:5]:
        assert compute_lattice(arr) == compute_lattice(arr)


def test_lattice_closure_agreement_harder_fuzz():
    """Rational normals and awkward scalings against the reference build."""
    import random
    from fractions import Fraction

    from arrideals.arrangement import canonical_normal

    rng = random.Random(77)
    for _ in range(25):
        dim = rng.randint(2, 4)
        count = rng.randint(2, 6)
        normals = []
        seen = set()
        while len(normals) < count:
            v = tuple(
                Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                for _ in range(dim)
            )
            if not any(v):
                continue
            c = canonical_normal(v)
            if c in seen:
                continue
            seen.add(c)
            normals.append(v)
        arr = Arrangement.from_normals(dim, normals)
        lat = compute_lattice(arr)
        nh = count
        expected = set()
        for bits in range(1 << nh):
            expected.add(closure(arr, [i for i in range(nh) if bits >> i & 1]))
        assert set(lat.flats) == expected


def test_closed_under_intersection(corpus_lattices, braid_lattices):
    lats = list(corpus_lattices) + [braid_lattices[4]]
    for lat in lats:
        arr = lat.arrangement
        for f1, f2 in combinations(lat.flats, 2):
            joined = closure(arr, set(f1.closed_set) | set(f2.closed_set))
            assert lat.flat_with_closed(joined.closed_set) == joined


def test_normal_space_consistency(corpus_lattices, braid_lattices):
    for lat in corpus_lattices:
        arr = lat.arrangement
        for f in lat.flats:
            sub = helpers.normal_space(f)
            assert sub.rank == f.rank
            got = tuple(
                i for i, h in enumerate(arr.hyperplanes)
                if span_contains(sub, h.normal)
            )
            assert got == f.closed_set

    lat = braid_lattices[3]
    spaces = {helpers.normal_space(f): f for f in lat.flats}
    assert spaces[span([], 3)] == lat.ambient
    assert spaces[span([[1, -1, 0]], 3)] == lat.hyperplane_flat(0)
    # x0 - x1 and x0 - x2 span the triple point's normal space
    assert spaces[span([[1, -1, 0], [1, 0, -1]], 3)].closed_set == (0, 1, 2)
    # a line that is not a flat
    assert span([[1, 1, 1]], 3) not in spaces


def test_minimal_containing_examples(braid_lattices):
    lat = braid_lattices[3]
    top = lat.flat_with_closed((0, 1, 2))
    assert minimal_containing(lat, [top], top) == [top]
    hps = [lat.hyperplane_flat(i) for i in range(3)]
    assert minimal_containing(lat, hps, top) == hps
    with pytest.raises(ValueError):
        minimal_containing(lat, hps, lat.ambient)

    lat4 = braid_lattices[4]
    # x0=x1, x2=x3: pairs (0,1)->0 and (2,3)->5
    c = lat4.flat_with_closed((0, 5))
    from arrideals.building import minimal_building_set

    gmin = minimal_building_set(lat4)
    got = minimal_containing(lat4, gmin.flats, c)
    assert [f.closed_set for f in got] == [(0,), (5,)]


import random
from dataclasses import replace

import pytest

from arrideals.arrangement import Arrangement, braid
from arrideals.building import _decomposes, building_set_obstruction
from arrideals.lattice import compute_lattice, flat_sort_key

import helpers
from helpers import maximal_below
from fraction_linalg import span


def test_braid3_negative_example(braid_lattices):
    lat = braid_lattices[3]
    top = helpers.flat_with_closed(lat, (0, 1, 2))
    h01, h02, h12 = (helpers.flat_with_closed(lat, (i,)) for i in range(3))
    assert not _decomposes(top, [h01, h02])
    assert helpers.fraction_decomposition_obstruction(lat, top, [h01, h02]) == h12


def test_trivial_decomposition(braid_lattices, corpus_lattices):
    for lat in [braid_lattices[3], braid_lattices[4]] + list(corpus_lattices[:5]):
        for c in lat.proper:
            assert _decomposes(c, [c])


def test_braid5_block_decomposition():
    lat = compute_lattice(braid(5))
    c = helpers.flat_with_closed(lat, (0, 1, 4, 9))  # x0=x1=x2 and x3=x4
    w012 = helpers.flat_with_closed(lat, (0, 1, 4))
    w34 = helpers.flat_with_closed(lat, (9,))
    assert _decomposes(c, [w012, w34])
    assert maximal_below(lat.irreducibles, c) == [w34, w012]


def test_overlapping_parts_never_decompose():
    """The partition half of the test does not lean on the ranks: parts
    whose closed sets overlap and cover the target are refused also where
    the lattice data claims that their ranks add.  With true ranks an
    overlap always makes the sum too large."""
    lat = compute_lattice(braid(4))
    x012, x123 = (helpers.flat_with_closed(lat, c) for c in ((0, 1, 3), (3, 4, 5)))
    h03 = helpers.flat_with_closed(lat, (2,))
    assert not _decomposes(lat.top, [x012, x123, h03])
    # ranks 1 + 1 + 1 add to the top's 3; the shared hyperplane 3 refuses it
    assert not _decomposes(lat.top, [replace(x012, rank=1), replace(x123, rank=1), h03])


def test_parts_must_contain_the_target():
    """A part that does not contain the target is never a decomposition,
    even when every sum B + U_i passes (here U + C is the whole space)."""
    lat = compute_lattice(Arrangement.from_normals(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    line = helpers.flat_with_closed(lat, (0, 1))
    plane = helpers.flat_with_closed(lat, (2,))
    assert helpers.fraction_decomposition_obstruction(lat, line, [line, plane]) is None
    assert not _decomposes(line, [line, plane])
    assert _decomposes(line, [helpers.flat_with_closed(lat, (0,)),
                              helpers.flat_with_closed(lat, (1,))])


def test_decomposition_obstruction_matches_fraction_definition(corpus_lattices):
    """The closed-set partition and rank-sum test accepts exactly the
    transversal intersections with no obstruction found by Fraction
    intersections of normal spaces, on 4,000 seeded (target, parts) draws."""
    rng = random.Random(11)
    for lat in corpus_lattices:
        proper = lat.proper
        for _ in range(200):
            target = rng.choice(proper)
            parts = rng.sample(proper, rng.randint(1, min(3, len(proper))))
            expect = helpers.fraction_decomposition_obstruction(lat, target, parts)
            rows = [r for U in parts for r in helpers.normal_space(U).basis.entries]
            transversal = (sum(U.rank for U in parts) == target.rank
                           and span(rows, lat.arrangement.dim)
                           == helpers.normal_space(target))
            assert _decomposes(target, parts) == (transversal and expect is None)


def test_irreducible_single_blocks(braid_lattices):
    for n in (3, 4, 5):
        lat = braid_lattices[n]
        pair_index = helpers.braid_pair_index(n)
        full_block = helpers.partition_closed_set(
            (tuple(range(n)),), pair_index
        )
        diag = helpers.flat_with_closed(lat, full_block)
        assert diag in lat.irreducibles
        assert maximal_below(lat.irreducibles, diag) == [diag]


def test_coordinate_axes_origin_decomposes():
    axes = Arrangement.from_normals(2, [(1, 0), (0, 1)])
    lat = compute_lattice(axes)
    origin = helpers.flat_with_closed(lat, (0, 1))
    assert origin not in lat.irreducibles
    parts = maximal_below(lat.irreducibles, origin)
    assert [f.closed_set for f in parts] == [(0,), (1,)]


@pytest.mark.parametrize("arr,parts", [
    # braid(3) ⊕ braid(3): the top splits into the two triple points
    (Arrangement.from_normals(6, [(1, -1, 0, 0, 0, 0), (1, 0, -1, 0, 0, 0),
                                  (0, 1, -1, 0, 0, 0), (0, 0, 0, 1, -1, 0),
                                  (0, 0, 0, 1, 0, -1), (0, 0, 0, 0, 1, -1)]),
     [(0, 1, 2), (3, 4, 5)]),
    (Arrangement.from_normals(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
     [(0,), (1,), (2,)]),
    (Arrangement.from_normals(2, [(1, 1)]), [(0,)]),
    (Arrangement.from_normals(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]),
     [(0, 1, 2, 3)]),
    # two lines of three points in the plane: the rest of the top past
    # either line is closed, but the ranks do not add
    (Arrangement.from_normals(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0),
                                  (0, 0, 1), (1, 2, 1), (1, 2, 2)]),
     [(0, 1, 2, 3, 4, 5)]),
    # ... and the same below the top, found from one of its lines
    (Arrangement.from_normals(4, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0),
                                  (0, 0, 1, 0), (1, 2, 1, 0), (1, 2, 2, 0),
                                  (0, 0, 0, 1)]),
     [(6,), (0, 1, 2, 3, 4, 5)]),
])
def test_top_flat_irreducibility(arr, parts):
    """The top flat is never expanded by the enumeration; its components
    come from one of its lower covers, and theirs from the covers below."""
    lat = compute_lattice(arr)
    top = lat.flats[-1]
    assert top.closed_set == tuple(range(len(arr.hyperplanes)))
    assert (top in lat.irreducibles) == (len(parts) == 1)
    got = maximal_below(lat.irreducibles, top)
    assert [U.closed_set for U in got] == parts
    finest = max(helpers.brute_force_decompositions(lat, top), key=len)
    assert sorted(finest, key=flat_sort_key) == got


def test_hyperplanes_always_irreducible(corpus_lattices):
    for lat in corpus_lattices:
        gmin = lat.irreducibles
        closed = {f.closed_set for f in gmin}
        for i in range(len(lat.arrangement.hyperplanes)):
            assert (i,) in closed


def test_gmin_is_modular_partitions():
    for n in range(3, 8):
        lat = compute_lattice(braid(n))
        gmin = lat.irreducibles
        pair_index = helpers.braid_pair_index(n)
        expected = {
            helpers.partition_closed_set(p, pair_index)
            for p in helpers.set_partitions(n)
            if helpers.is_modular_partition(p)
        }
        assert {f.closed_set for f in gmin} == expected
        assert len(gmin) == 2 ** n - n - 1


def test_building_set_basics(braid_lattices):
    lat = braid_lattices[3]
    hps = [helpers.flat_with_closed(lat, (i,)) for i in range(3)]
    assert building_set_obstruction(lat, hps) == helpers.flat_with_closed(lat, (0, 1, 2))
    assert building_set_obstruction(lat, lat.irreducibles) is None
    assert building_set_obstruction(lat, lat.proper) is None


def test_building_set_obstruction_matches_fraction_definition(braid_lattices,
                                                              corpus_lattices):
    """The closed-set test finds the same failing flat as the Fraction
    definition, on seeded families drawn as the irreducibles plus random
    extras and as random subsets, passed in canonical and in shuffled
    order, on braid(3–6) and the corpus; both outcomes occur."""
    rng = random.Random(13)
    outcomes = set()
    lattices = [braid_lattices[n] for n in (3, 4, 5, 6)] + list(corpus_lattices)
    for lat in lattices:
        proper = lat.proper
        extras = [f for f in proper if f not in lat.irreducibles]
        for _ in range(10 if len(proper) < 60 else 2):
            grown = list(lat.irreducibles) + rng.sample(extras, rng.randint(0, len(extras)))
            drawn = rng.sample(proper, rng.randint(1, len(proper)))
            for flats in (grown, drawn):
                flats.sort(key=flat_sort_key)
                bad = building_set_obstruction(lat, flats)
                assert bad == helpers.fraction_building_set_obstruction(lat, flats)
                rng.shuffle(flats)
                assert building_set_obstruction(lat, flats) == bad
                outcomes.add(bad is None)
    assert outcomes == {True, False}


def test_brute_force_agreement_small():
    """The matroid route returns the unique finest passing decomposition."""
    cases = [
        braid(3),
        braid(4),
        Arrangement.from_normals(2, [(1, 0), (0, 1)]),
        Arrangement.from_normals(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        Arrangement.from_normals(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]),
    ]
    for arr in cases:
        lat = compute_lattice(arr)
        for c in lat.proper:
            passing = helpers.brute_force_decompositions(lat, c)
            got = tuple(maximal_below(lat.irreducibles, c))
            assert (c,) in passing  # the trivial decomposition always passes
            assert tuple(sorted(got, key=flat_sort_key)) in [
                tuple(sorted(p, key=flat_sort_key)) for p in passing
            ]
            best = max(len(p) for p in passing)
            finest = [p for p in passing if len(p) == best]
            assert len(finest) == 1
            assert set(finest[0]) == set(got)
            assert (c in lat.irreducibles) == (passing == [(c,)])


def test_enumerated_building_sets_contain_gmin():
    small = [
        braid(3),
        Arrangement.from_normals(2, [(1, 0), (0, 1), (1, -1)]),
        Arrangement.from_normals(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    ]
    for arr in small:
        lat = compute_lattice(arr)
        assert len(lat.proper) <= 10
        gmin = set(lat.irreducibles)
        sets = helpers.all_building_sets(lat)
        assert sets  # at least G_min and L' qualify
        for bs in sets:
            assert gmin <= set(bs)
        assert tuple(lat.irreducibles) in sets
        assert tuple(lat.proper) in sets

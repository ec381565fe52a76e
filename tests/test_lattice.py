import random
from fractions import Fraction
from itertools import combinations

import pytest

from arrideals import lattice
from arrideals.arrangement import Arrangement, Hyperplane, braid
from arrideals.lattice import compute_lattice
from arrideals.linalg import int_span, primitive_vector

import helpers
from fraction_linalg import span, span_contains


def test_braid3_structure():
    lat = compute_lattice(braid(3))
    assert len(lat.flats) == 5
    assert lat.flats[0].rank == 0 and lat.flats[0].closed_set == ()
    assert [f.closed_set for f in lat.flats] == [
        (), (0,), (1,), (2,), (0, 1, 2),
    ]
    top = helpers.flat_with_closed(lat, (0, 1, 2))
    assert top.rank == 2 and top.mult == 3


def test_single_hyperplane_any_mult():
    for m in (1, 2, 5):
        lat = compute_lattice(Arrangement.from_normals(2, [(1, -1)], [m]))
        assert len(lat.flats) == 2
        assert lat.flats[1].mult == m


def test_closure_matches_lattice():
    """Each flat is the Fraction closure of its closed set, a rank-2 flat
    also of its first two hyperplanes, and the empty set closes to the
    ambient space."""
    arr = braid(4)
    lat = compute_lattice(arr)
    for f in lat.flats:
        assert helpers.fraction_closure(arr, f.closed_set) == helpers.flat_key(f)
        if f.rank == 2:
            assert helpers.fraction_closure(arr, f.closed_set[:2]) == helpers.flat_key(f)
    assert helpers.fraction_closure(arr, ()) == helpers.flat_key(lat.flats[0])


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
            assert helpers.flat_with_closed(lat, (i,)).rank == 1


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
    """Reference construction: close every subset of hyperplanes by Fraction
    elimination; the lattice's flat with that closed set must agree with it
    subset by subset."""
    for lat in corpus_lattices:
        arr = lat.arrangement
        assert set(map(helpers.flat_key, lat.flats)) == helpers.subset_closure_flats(arr)
        nh = len(arr.hyperplanes)
        for bits in range(1 << nh):
            closed = helpers.fraction_closure(arr, [i for i in range(nh) if bits >> i & 1])
            assert helpers.flat_key(helpers.flat_with_closed(lat, closed[0])) == closed


def test_compute_lattice_is_deterministic(corpus):
    for arr in corpus[:5]:
        assert compute_lattice(arr) == compute_lattice(arr)


def _distinct_normals(count, draw):
    """``count`` normals from ``draw()``, nonzero and pairwise non-proportional."""
    normals = []
    seen = set()
    while len(normals) < count:
        v = draw()
        if not any(v):
            continue
        c = Hyperplane(tuple(v)).normal
        if c in seen:
            continue
        seen.add(c)
        normals.append(v)
    return normals


def test_lattice_closure_agreement_harder_fuzz():
    """Rational normals and awkward scalings against the reference build."""
    rng = random.Random(77)
    for _ in range(25):
        dim = rng.randint(2, 4)
        count = rng.randint(2, 6)
        normals = _distinct_normals(count, lambda: tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(dim)
        ))
        arr = Arrangement.from_normals(dim, normals)
        lat = compute_lattice(arr)
        assert set(map(helpers.flat_key, lat.flats)) == helpers.subset_closure_flats(arr)


@pytest.mark.parametrize("rank,count", [(2, 9), (3, 9)])
def test_lattice_of_normals_spanning_a_subspace(rank, count):
    """Normals in a rank-2 or rank-3 subspace of Q^5: the top flat has rank
    below the dimension and is reached without expanding the level under it."""
    rng = random.Random(500 + rank)
    basis = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(rank)]

    def draw():
        coeffs = [rng.randint(-3, 3) for _ in basis]
        return tuple(sum(c * b[k] for c, b in zip(coeffs, basis)) for k in range(5))

    normals = _distinct_normals(count, draw)
    arr = Arrangement.from_normals(5, normals, [rng.randint(1, 3) for _ in normals])
    lat = compute_lattice(arr)
    assert set(map(helpers.flat_key, lat.flats)) == helpers.subset_closure_flats(arr)
    top = lat.flats[-1]
    assert top.rank == rank and top.closed_set == tuple(range(count))
    assert [f.rank for f in lat.flats].count(rank) == 1


def test_lattice_of_generic_arrangement():
    """Seven generic hyperplanes in Q^4: every set of at most three is
    independent, so the rank-3 level (35 flats) is the largest."""
    rng = random.Random(4)
    normals = _distinct_normals(7, lambda: tuple(rng.randint(-9, 9) for _ in range(4)))
    arr = Arrangement.from_normals(4, normals)
    lat = compute_lattice(arr)
    assert set(map(helpers.flat_key, lat.flats)) == helpers.subset_closure_flats(arr)
    sizes = [[f.rank for f in lat.flats].count(k) for k in range(5)]
    assert sizes == [1, 7, 21, 35, 1]


def test_enumeration_carries_classes_and_rows_come_on_first_read(monkeypatch):
    """Classes are carried from parent to child, so each class residual is
    reduced against the one new row only, in the essential coordinates
    without the parent's pivots: r − k of them at rank k, so no vector is
    longer than r, and the 3-vectors of the last expanded rank are reduced
    inline, not by ``int_eliminate``.  Enumeration builds no canonical
    rows, and each flat builds its own once, the first time they are read."""
    rng = random.Random(55)
    normals = _distinct_normals(11, lambda: tuple(rng.randint(-2, 2) for _ in range(5)))
    canonical_calls = []
    steps = []
    int_canonical = lattice.int_canonical
    int_eliminate = lattice.int_eliminate

    def counting_int_canonical(rows, pivots):
        canonical_calls.append(len(rows))
        return int_canonical(rows, pivots)

    def counting_int_eliminate(vec, row, p):
        steps.append((vec, row, p))
        return int_eliminate(vec, row, p)

    monkeypatch.setattr(lattice, "int_canonical", counting_int_canonical)
    monkeypatch.setattr(lattice, "int_eliminate", counting_int_eliminate)
    for arr in (braid(6), Arrangement.from_normals(5, normals)):
        canonical_calls.clear()
        steps.clear()
        lat = compute_lattice(arr)
        assert canonical_calls == []
        # each reduction uses exactly one row: one integer vector as wide
        # as the residual, whose coordinates lose one pivot per rank
        assert steps
        for vec, row, p in steps:
            assert all(isinstance(a, int) for a in row)
            assert len(row) == len(vec) <= lat.top.rank and row[p] != 0
            assert len(vec) != 3
        assert min(len(vec) for vec, _, _ in steps) < lat.top.rank
        int_normals = [primitive_vector(h.normal) for h in arr.hyperplanes]
        for f in lat.flats:
            rows, pivots = int_span((int_normals[j] for j in f.closed_set), arr.dim)
            assert f.basis_rows == int_canonical(rows, pivots)
        assert canonical_calls == [f.rank for f in lat.flats]
        for f in lat.flats:
            f.basis_rows  # a second read
        assert len(canonical_calls) == len(lat.flats)


def test_flat_budget_refuses_large_lattices(monkeypatch):
    """Enumeration stops with a ValueError naming the budget as soon as one
    flat more than MAX_FLATS is found; a lattice of exactly that many passes."""
    assert len(compute_lattice(braid(5)).flats) == 52
    monkeypatch.setattr(lattice, "MAX_FLATS", 52)
    assert len(compute_lattice(braid(5)).flats) == 52
    monkeypatch.setattr(lattice, "MAX_FLATS", 51)
    with pytest.raises(ValueError, match="more than 51 flats"):
        compute_lattice(braid(5))
    monkeypatch.setattr(lattice, "MAX_FLATS", 10)
    with pytest.raises(ValueError, match=r"more than 10 flats \(reached at rank 1 of 4\)"):
        compute_lattice(braid(5))


def test_closed_under_intersection(corpus_lattices, braid_lattices):
    lats = list(corpus_lattices) + [braid_lattices[4]]
    for lat in lats:
        arr = lat.arrangement
        for f1, f2 in combinations(lat.flats, 2):
            joined = helpers.fraction_closure(
                arr, set(f1.closed_set) | set(f2.closed_set))
            assert helpers.flat_key(helpers.flat_with_closed(lat, joined[0])) == joined


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
    assert spaces[span([], 3)] == lat.flats[0]
    assert spaces[span([[1, -1, 0]], 3)] == helpers.flat_with_closed(lat, (0,))
    # x0 - x1 and x0 - x2 span the triple point's normal space
    assert spaces[span([[1, -1, 0], [1, 0, -1]], 3)].closed_set == (0, 1, 2)
    # a line that is not a flat
    assert span([[1, 1, 1]], 3) not in spaces


def test_minimal_containing_examples(braid_lattices):
    """The index's maximal-below read: a flat below itself, several maximal
    members, members added in rank order with the lowest bit taken first,
    and the ambient space, below which no proper flat lies."""
    lat = braid_lattices[3]
    top = helpers.flat_with_closed(lat, (0, 1, 2))
    index = lattice.ClosedSetIndex()
    assert index.add(top) == 1
    assert index.maximal_below(top) == [top]
    hps = [helpers.flat_with_closed(lat, (i,)) for i in range(3)]
    assert [index.add(h) for h in hps] == [2, 4, 8]
    assert index.maximal_below(top) == [top]
    assert index.below(hps[1]) == 4 and index.maximal_below(hps[1]) == [hps[1]]
    assert index.below(lat.flats[0]) == 0 and index.maximal_below(lat.flats[0]) == []
    assert helpers.maximal_below(hps, top) == hps == helpers.minimal_containing(hps, top)

    lat4 = braid_lattices[4]
    # x0=x1, x2=x3: pairs (0,1)->0 and (2,3)->5
    c = helpers.flat_with_closed(lat4, (0, 5))
    got = helpers.maximal_below(lat4.irreducibles, c)
    assert [f.closed_set for f in got] == [(0,), (5,)]



def test_rows_in_examples(braid_lattices):
    lat = braid_lattices[3]
    top = lat.flats[-1]
    # the top rows are x0 - x2 and x1 - x2: x0 - x1 is their difference
    assert top.basis_rows == ((1, 0, -1), (0, 1, -1))
    assert lattice.rows_in(top, helpers.flat_with_closed(lat, (0,))) == ((1, -1),)
    assert lattice.rows_in(top, top) == ((1, 0), (0, 1))
    assert lattice.rows_in(top, lat.flats[0]) == ()
    # non-unit pivots: the top rows 6x0 - x2 and 3x1 + x2, pivots 0 and 1;
    # each normal restricted to those columns and made primitive
    arr = Arrangement.from_normals(3, [(2, 1, 0), (0, 3, 1), (2, 4, 1)])
    lat = compute_lattice(arr)
    top = lat.flats[-1]
    assert top.basis_rows == ((6, 0, -1), (0, 3, 1))
    got = [lattice.rows_in(top, helpers.flat_with_closed(lat, (j,))) for j in range(3)]
    assert got == [((2, 1),), ((0, 1),), ((1, 2),)]
    assert got == [helpers.fraction_rows_in(arr, top, helpers.flat_with_closed(lat, (j,)))
                   for j in range(3)]


def test_rows_in_matches_fraction_route(corpus_lattices, braid_lattices):
    """Every pair U ≤ W agrees with Fraction elimination; every other pair
    is refused."""
    for lat in [*corpus_lattices, braid_lattices[4]]:
        arr = lat.arrangement
        for W in lat.flats:
            for U in lat.flats:
                if set(U.closed_set) <= set(W.closed_set):
                    got = lattice.rows_in(W, U)
                    assert got == helpers.fraction_rows_in(arr, W, U)
                    assert len(got) == U.rank
                else:
                    with pytest.raises(ValueError, match="is not inside"):
                        lattice.rows_in(W, U)

"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line for its criterion (run pytest with
-s to see them live).  All comparisons are exact; the only tolerances are
runtime budgets.

The n = 20 braid counts are far outside enumeration range (the lattice has
about 5.2e13 flats), so criterion 2 validates the closed forms (lattice
size = Bell number, minimal building set size = 2^n - n - 1) by exhaustive
enumeration for every n <= 10 and then evaluates the n = 20 size ratio
(~2.03e-8) from those closed forms instead of by enumeration.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from arrideals.arrangement import Arrangement, braid
from arrideals.building import _decomposes, building_set_obstruction
from arrideals.lattice import compute_lattice, flat_sort_key
from arrideals.multiplier import (
    jump_candidates,
    lct,
    presentation,
    verify_jumps,
)

import helpers
from helpers import generator_presentation_ideal, graded_contains, graded_equal


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


@pytest.fixture(scope="module")
def braid_data():
    """Lattices and minimal building sets for braid(3..10), with timing."""
    out = {}
    for n in range(3, 11):
        t0 = time.time()
        lat = compute_lattice(braid(n))
        gmin = lat.irreducibles
        out[n] = (lat, gmin, time.time() - t0)
    return out


def test_criterion_1_braid_counts(braid_data):
    with criterion("criterion 1: braid counts (115975 flats / 1013 irreducibles at n=10)"):
        lat10, gmin10, elapsed = braid_data[10]
        assert len(lat10.flats) == 115975
        assert len(gmin10) == 1013
        assert elapsed < 600, f"braid(10) took {elapsed:.0f}s"
        bells = helpers.bell_numbers(10)
        for n in range(3, 9):
            enumerated = sum(1 for _ in helpers.set_partitions(n))
            assert enumerated == bells[n]
            assert len(braid_data[n][0].flats) == enumerated
        assert [len(braid_data[n][0].flats) for n in range(3, 9)] == [
            5, 15, 52, 203, 877, 4140,
        ]
        for n in range(3, 11):
            assert len(braid_data[n][1]) == 2 ** n - n - 1


def test_criterion_2_closed_form_substitute():
    with criterion("criterion 2: closed forms validated by enumeration for n <= 10"):
        bells = helpers.bell_numbers(20)
        for n in range(1, 11):
            total = 0
            modular = 0
            for p in helpers.set_partitions(n):
                total += 1
                if helpers.is_modular_partition(p):
                    modular += 1
            assert total == bells[n]
            assert modular == 2 ** n - n - 1
        ratio = (2 ** 20 - 20 - 1) / bells[20]
        assert bells[20] == 51724158235372
        assert abs(ratio - 2.03e-8) < 5e-11  # ~2.03e-8 at n = 20


def test_criterion_3_decomposition_cases(braid_data):
    with criterion("criterion 3: decomposition example, negative and positive"):
        lat3 = braid_data[3][0]
        top = helpers.flat_with_closed(lat3, (0, 1, 2))
        parts = [helpers.flat_with_closed(lat3, (i,)) for i in (0, 1)]
        assert not _decomposes(top, parts)
        assert (helpers.fraction_decomposition_obstruction(lat3, top, parts)
                == helpers.flat_with_closed(lat3, (2,)))

        lat5 = braid_data[5][0]
        c = helpers.flat_with_closed(lat5, (0, 1, 4, 9))  # x0=x1=x2 and x3=x4
        w012 = helpers.flat_with_closed(lat5, (0, 1, 4))
        w34 = helpers.flat_with_closed(lat5, (9,))
        assert _decomposes(c, [w012, w34])
        assert helpers.maximal_below(lat5.irreducibles, c) == sorted(
            [w012, w34], key=flat_sort_key
        )


def _theorem_arrangements():
    generic = Arrangement.from_normals(
        3, [(1, t, t * t) for t in range(1, 6)]
    )
    axes3 = Arrangement.from_normals(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    return [braid(3), braid(4), axes3, generic]


def test_criterion_4_theorem_oracle_equivalence():
    label = "criterion 4: minimal vs full building set agree up to degree 6"
    with criterion(label):
        t0 = time.time()
        for arr in _theorem_arrangements():
            lat = compute_lattice(arr)
            gmin = lat.irreducibles
            full = lat.proper
            for lam in jump_candidates(lat, 1):
                a = generator_presentation_ideal(presentation(lat, gmin, lam), 6)
                b = generator_presentation_ideal(presentation(lat, full, lam), 6)
                assert graded_equal(a, b, 6), (arr.dim, lam)
        elapsed = time.time() - t0
        assert elapsed < 120, f"oracle equivalence took {elapsed:.0f}s"


def test_criterion_5_lct(braid_data):
    with criterion("criterion 5: log canonical thresholds with verified jumps"):
        for n in range(3, 7):
            lat = braid_data[n][0]
            assert lct(lat) == Fraction(2, n)
            assert verify_jumps(lat, Fraction(2, n), 4) == [(Fraction(2, n), True)]
        for m in range(1, 5):
            lat = compute_lattice(Arrangement.from_normals(1, [(1,)], [m]))
            assert lct(lat) == Fraction(1, m)
            assert verify_jumps(lat, Fraction(1, m), 4) == [(Fraction(1, m), True)]


def test_criterion_6_smooth_divisor():
    with criterion("criterion 6: one multiple hyperplane matches its principal ideal"):
        from arrideals.graded import Polynomial

        form = Polynomial.from_terms(2, {(1, 0): Fraction(1), (0, 1): Fraction(-1)})
        for m in (1, 2, 3):
            arr = Arrangement.from_normals(2, [(1, -1)], [m])
            lat = compute_lattice(arr)
            gmin = lat.irreducibles
            for lam in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4),
                        Fraction(1), Fraction(3, 2)):
                gi = generator_presentation_ideal(presentation(lat, gmin, lam), 6)
                k = int(lam * m)
                for d in range(7):
                    assert helpers.pieces(gi)[d] == helpers.principal_power_piece(form, k, d)


def test_criterion_7a_monotonicity(corpus, corpus_lattices):
    with criterion("criterion 7a: graded ideals shrink as lambda grows (20 arrangements)"):
        for lat in corpus_lattices:
            gmin = lat.irreducibles
            grid = [Fraction(0)] + jump_candidates(lat, Fraction(3, 2))
            prev = None
            for lam in grid:
                cur = generator_presentation_ideal(presentation(lat, gmin, lam), 3)
                if prev is not None:
                    assert graded_contains(prev, cur, 3)
                prev = cur


def test_criterion_7b_brute_force_agreement(corpus_lattices):
    with criterion("criterion 7b: matroid decomposition matches definitional search"):
        for lat in corpus_lattices:
            for c in lat.proper:
                passing = helpers.brute_force_decompositions(lat, c)
                got = helpers.maximal_below(lat.irreducibles, c)
                norm = tuple(sorted(got, key=flat_sort_key))
                assert (c,) in passing
                assert norm in [tuple(sorted(p, key=flat_sort_key)) for p in passing]
                best = max(len(p) for p in passing)
                finest = [p for p in passing if len(p) == best]
                assert len(finest) == 1 and set(finest[0]) == set(got)
                assert (len(got) == 1) == (passing == [(c,)])


def test_criterion_7c_building_sets_valid(corpus_lattices):
    with criterion("criterion 7c: minimal and full families are building sets"):
        for lat in corpus_lattices:
            assert building_set_obstruction(lat, lat.irreducibles) is None
            assert building_set_obstruction(lat, lat.proper) is None


def test_criterion_7d_gmin_minimality(corpus_lattices):
    with criterion("criterion 7d: every building set contains the irreducibles"):
        small = [lat for lat in corpus_lattices if len(lat.proper) <= 10]
        small.append(compute_lattice(braid(3)))
        small.append(compute_lattice(
            Arrangement.from_normals(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        ))
        checked = 0
        for lat in small:
            gmin = set(lat.irreducibles)
            for bs in helpers.all_building_sets(lat):
                assert gmin <= set(bs)
                checked += 1
        assert checked > 0


def test_criterion_8_braid3_jumping_numbers(braid_data):
    with criterion("criterion 8: jumping numbers of braid(3) on (0, 1]"):
        lat = braid_data[3][0]
        candidates = jump_candidates(lat, 1)
        assert candidates == [Fraction(2, 3), Fraction(1)]
        verified = [c for c, jump in verify_jumps(lat, 1, 4) if jump]
        assert verified == [Fraction(2, 3), Fraction(1)]
        # no candidate up to 1/2, and the ideal there is still the unit ideal
        assert verify_jumps(lat, Fraction(1, 2), 4) == []
        gmin = braid_data[3][1]
        half, zero = (generator_presentation_ideal(presentation(lat, gmin, lam), 4)
                      for lam in (Fraction(1, 2), 0))
        assert graded_equal(half, zero, 4)

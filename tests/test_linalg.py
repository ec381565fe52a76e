import random
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest

from arrideals.linalg import (
    int_canonical,
    int_eliminate,
    int_insert,
    int_reduce,
    int_residual,
    int_span,
    primitive_vector,
)

from fraction_linalg import (
    QMatrix,
    Subspace,
    reduce_against,
    rref,
    span,
    span_contains,
    span_intersect,
    span_sum,
    subspace_from_int_rows,
)
from helpers import int_intersect


def fr(rows):
    return QMatrix.from_rows(rows)


def test_rref_example():
    s = rref(fr([[1, -1, 0], [0, 1, -1], [1, 0, -1]]))
    assert s.rank == 2
    assert s.basis.entries == (
        (Fraction(1), Fraction(0), Fraction(-1)),
        (Fraction(0), Fraction(1), Fraction(-1)),
    )


def test_rref_is_canonical_under_row_permutation():
    rows = [[1, -1, 0], [0, 1, -1], [1, 0, -1]]
    results = {rref(fr(list(p))) for p in permutations(rows)}
    assert len(results) == 1


def test_rref_zero_row():
    s = rref(fr([[0, 0, 0]]))
    assert s.rank == 0
    assert s.basis.entries == ()


def test_rref_identity():
    s = rref(fr([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert s.rank == 3
    assert s.basis.entries == rref(fr([[3, 0, 0], [1, 5, 0], [2, 2, 7]])).basis.entries


def test_span_contains():
    s = span([[1, 0, -1], [0, 1, -1]], 3)
    assert span_contains(s, [1, -1, 0])  # row1 - row2
    assert span_contains(s, [0, 0, 0])
    assert not span_contains(span([[1, 0, 0]], 3), [0, 1, 0])
    with pytest.raises(ValueError):
        span_contains(s, [1, 0])


def test_span_sum():
    a = span([[1, 0, 0]], 3)
    b = span([[0, 1, 0]], 3)
    assert span_sum(a, b).rank == 2
    s = span([[1, -1, 0], [0, 1, -1]], 3)
    assert span_sum(s, s) == s
    assert span_sum(span([[1, -1, 0]], 3), span([[0, 1, -1]], 3)) == rref(
        fr([[1, 0, -1], [0, 1, -1]])
    )
    with pytest.raises(ValueError):
        span_sum(a, span([[1, 0]], 2))


def test_span_intersect():
    a = span([[1, 0, 0], [0, 1, 0]], 3)
    b = span([[0, 1, 0], [0, 0, 1]], 3)
    assert span_intersect(a, b) == span([[0, 1, 0]], 3)
    s = span([[1, -1, 0], [0, 1, -1]], 3)
    assert span_intersect(s, s) == s
    got = span_intersect(s, span([[1, 0, -1]], 3))
    assert got == span([[1, 0, -1]], 3)
    assert got.rank == 2 + 1 - span_sum(s, span([[1, 0, -1]], 3)).rank


def _random_subspace(rng, dim):
    rows = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(rng.randint(0, dim))]
    return span(rows, dim)


def test_rank_formula_randomized():
    rng = random.Random(7)
    for _ in range(150):
        dim = rng.randint(1, 5)
        a = _random_subspace(rng, dim)
        b = _random_subspace(rng, dim)
        assert a.rank + b.rank == span_sum(a, b).rank + span_intersect(a, b).rank


def test_contains_is_sum_stability():
    rng = random.Random(8)
    for _ in range(80):
        dim = rng.randint(1, 4)
        s = _random_subspace(rng, dim)
        v = [rng.randint(-3, 3) for _ in range(dim)]
        assert span_contains(s, v) == (span_sum(s, span([v], dim)) == s)


def test_subspace_rejects_non_rref():
    with pytest.raises(ValueError):
        Subspace(2, fr([[2, 0]]))  # pivot not 1
    with pytest.raises(ValueError):
        Subspace(3, fr([[0, 1, 0], [1, 0, 0]]))  # pivots not increasing
    with pytest.raises(ValueError):
        Subspace(3, fr([[1, 1, 0], [0, 1, 0]]))  # pivot column not clear


def test_primitive_vector():
    assert primitive_vector([Fraction(1, 2), Fraction(-1, 3)]) == (3, -2)
    assert primitive_vector([2, 4, -6]) == (1, 2, -3)
    assert primitive_vector([0, 0]) == (0, 0)


def test_int_residual_example():
    rows, pivots = int_span([(2, 4, 0), (0, 3, 3)], 3)
    assert int_residual((1, 2, 0), rows, pivots) == ((0, 0, 0), None)
    assert int_residual((-2, -6, -2), rows, pivots) == ((0, 0, 0), None)
    assert int_residual((0, 0, -6), rows, pivots) == ((0, 0, 1), 2)
    assert int_residual((0, -4, 6), [], []) == ((0, 2, -3), 1)


def test_int_reduce_divides_out_the_gcd():
    # pv = 6, c = 3, gcd 3: 2*(3, 0) - 1*(6, 1), not 6*(3, 0) - 3*(6, 1)
    assert int_reduce((3, 0), [(6, 1)], [0]) == [0, -1]
    # coprime entries: 3*(0, 2) - 2*(0, 3) = 0
    assert int_reduce((0, 2), [(0, 3)], [1]) == [0, 0]
    # a unit pivot takes no factor, and a zero at a pivot takes no step
    assert int_reduce((4, 2, 0), [(1, 1, 0), (0, 0, 3)], [0, 2]) == [0, -2, 0]


def test_int_reduce_matches_the_fraction_reduction():
    """On seeded echelon lists whose rows are rescaled by non-unit and
    negative factors, int_reduce gives a nonzero multiple of the Fraction
    reduction (``fraction_linalg.reduce_against``), positive when every
    step's pivot entry is: steps with a non-unit pivot entry, a negative
    one, one that the gcd makes a unit (the entries before it are not
    scaled) and one that stays non-unit (they are) all occur."""
    rng = random.Random(31)
    seen = {"non-unit": 0, "negative": 0, "unit after gcd": 0, "scaled": 0}
    for _ in range(400):
        dim = rng.randint(1, 7)
        rows, pivots = int_span([[rng.randint(-4, 4) for _ in range(dim)]
                                 for _ in range(rng.randint(0, dim))], dim)
        rows = [[rng.choice([-3, -2, -1, 1, 1, 2, 4]) * a for a in r] for r in rows]
        vec = [rng.randint(-6, 6) for _ in range(dim)]
        got = int_reduce(vec, rows, pivots)
        want = reduce_against(vec, rows, pivots)
        assert all(got[p] == 0 for p in pivots)
        q = next((i for i, a in enumerate(want) if a), None)
        if q is None:
            assert not any(got)
            continue
        k = Fraction(got[q]) / want[q]
        assert [k * a for a in want] == got
        v = list(vec)
        for row, p in zip(rows, pivots):
            c, pv = v[p], row[p]
            v = int_reduce(v, [row], [p])
            if c:
                seen["non-unit"] += abs(pv) > 1
                seen["negative"] += pv < 0
                seen["unit after gcd"] += pv != 1 and pv // gcd(pv, c) == 1
                seen["scaled"] += pv // gcd(pv, c) != 1 and any(v[:p])
        if all(row[p] > 0 for row, p in zip(rows, pivots)):
            assert k > 0
    assert min(seen.values()) >= 20, seen


def test_int_eliminate_example():
    # non-unit pivot 2; 2*(3, 1, 4) - 3*(2, 0, -2) = (0, 2, 14), column 0
    # deleted, stripped of its content 2
    assert int_eliminate((3, 1, 4), (2, 0, -2), 0) == (1, 7)
    # a negative pivot: -(1, 2, 0) - 2*(0, -1, 1) = (-1, 0, -2) is negated
    assert int_eliminate((1, 2, 0), (0, -1, 1), 1) == (1, 2)
    assert int_eliminate((0, 1, 1), (0, -1, 1), 1) == (0, 1)
    # zero at the pivot: the vector is reused with the column deleted
    assert int_eliminate((1, 0, -5), (0, 3, 1), 1) == (1, -5)


def test_int_eliminate_is_int_residual_against_one_row():
    """On seeded residuals, the one-row step is int_residual against that
    row with the (now zero) pivot column deleted.  The draws cover unit,
    non-unit and negative pivot entries, a zero at the pivot (the vector is
    reused as it is) and results with a common factor before stripping."""
    rng = random.Random(29)
    seen = {"non-unit": 0, "negative": 0, "zero": 0, "stripped": 0}
    for _ in range(600):
        dim = rng.randint(1, 7)
        p = rng.randrange(dim)
        row = [0] * p + [rng.choice([-6, -3, -2, -1, 1, 1, 2, 4, 5])]
        row += [rng.randint(-4, 4) for _ in range(dim - p - 1)]
        vec, _ = int_residual([rng.randint(-5, 5) for _ in range(dim)], [], [])
        if rng.random() < 0.25:
            vec, _ = int_residual(vec[:p] + (0,) + vec[p + 1:], [], [])
        if not any(vec):
            continue
        res, q = int_residual(vec, [row], [p])
        assert res[p] == 0
        got = int_eliminate(vec, row, p)
        assert got == res[:p] + res[p + 1:]
        if q is not None:
            assert got[q - (q > p)] > 0 and gcd(*got) == 1
        seen["non-unit"] += abs(row[p]) > 1 and vec[p] != 0
        seen["negative"] += row[p] < 0 and vec[p] != 0
        seen["zero"] += vec[p] == 0
        unstripped = [row[p] * a - vec[p] * b for a, b in zip(vec, row)]
        seen["stripped"] += vec[p] != 0 and any(unstripped) and gcd(*unstripped) > 1
    assert min(seen.values()) >= 20, seen


def test_int_residual_normalizes_and_matches_insert():
    """Zero residuals have no pivot; others are primitive with a positive
    pivot, zero at the earlier pivots, the same for any nonzero multiple of
    the vector, and exactly the row int_insert appends."""
    rng = random.Random(13)
    for _ in range(200):
        dim = rng.randint(1, 6)
        rows, pivots = int_span(
            [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(rng.randint(0, dim))],
            dim)
        vec = [rng.randint(-5, 5) for _ in range(dim)]
        res, p = int_residual(vec, rows, pivots)
        k = rng.choice([-6, -1, 2, 7])
        assert int_residual([k * a for a in vec], rows, pivots) == (res, p)
        before = list(rows)
        if p is None:
            assert not any(res)
            assert not int_insert(rows, pivots, vec) and rows == before
            continue
        assert res[p] > 0 and not any(res[:p])
        assert all(res[q] == 0 for q in pivots)
        assert gcd(*res) == 1
        assert int_insert(rows, pivots, vec)
        assert (rows[-1], pivots[-1]) == (res, p) and rows[:-1] == before


def _non_unit_chain(rng, dim):
    """dim − 1 rows with non-unit pivots 0..dim−2, then two integer
    combinations of them and one vector outside their span, all dense:
    each of the last three reduces through a chain of non-unit steps."""
    tri = [[0] * i + [rng.choice([2, 3, 5, 6, 7])]
           + [rng.choice([-9, -7, -4, -1, 1, 3, 8]) for _ in range(dim - i - 1)]
           for i in range(dim - 1)]
    combos = [[sum(rng.randint(1, 9) * r[j] for r in tri) for j in range(dim)]
              for _ in range(2)]
    return tri + combos + [[rng.randint(1, 9) for _ in range(dim)]]


def _non_unit_steps(vec, rows, pivots):
    """How many steps of int_reduce(vec, rows, pivots) clear a nonzero entry
    against a pivot entry other than 1."""
    return sum(row[p] != 1 and int_reduce(vec, rows[:k], pivots[:k])[p] != 0
               for k, (row, p) in enumerate(zip(rows, pivots)))


def test_int_layer_agrees_with_fraction_layer():
    rng = random.Random(9)
    for _ in range(120):
        dim = rng.randint(1, 5)
        vecs = [[rng.randint(-4, 4) for _ in range(dim)]
                for _ in range(rng.randint(0, dim + 1))]
        rows, pivots = int_span(vecs, dim)
        got = subspace_from_int_rows(int_canonical(rows, pivots), dim)
        assert got == span(vecs, dim)
    # long chains of non-unit steps, in reduction and in int_canonical
    for _ in range(20):
        dim = rng.randint(10, 12)
        vecs = _non_unit_chain(rng, dim)
        rows, pivots = int_span(vecs, dim)
        assert min(_non_unit_steps(v, rows[:dim - 1], pivots[:dim - 1])
                   for v in vecs[dim - 1:]) >= 8
        got = subspace_from_int_rows(int_canonical(rows, pivots), dim)
        assert got == span(vecs, dim)


def test_int_intersect_agrees_with_fraction_layer():
    """The generator route's Zassenhaus intersection (test helper) against
    the Fraction layer."""
    rng = random.Random(10)
    for _ in range(100):
        dim = rng.randint(1, 5)
        a = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(rng.randint(0, dim))]
        b = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(rng.randint(0, dim))]
        ar, ap = int_span(a, dim)
        br, bp = int_span(b, dim)
        got = subspace_from_int_rows(
            int_intersect(int_canonical(ar, ap), int_canonical(br, bp), dim), dim
        )
        assert got == span_intersect(span(a, dim), span(b, dim))


def test_int_layer_with_huge_entries():
    """Entries near 2^120, where every step multiplies large numbers, stay
    exact."""
    rng = random.Random(11)
    big = 1 << 120
    for _ in range(25):
        dim = rng.randint(2, 5)
        vecs = [
            [rng.randint(-big, big) for _ in range(dim)]
            for _ in range(rng.randint(1, dim + 1))
        ]
        rows, pivots = int_span(vecs, dim)
        got = subspace_from_int_rows(int_canonical(rows, pivots), dim)
        assert got == span(vecs, dim)


def test_int_layer_with_rational_input():
    rng = random.Random(12)
    for _ in range(60):
        dim = rng.randint(1, 4)
        vecs = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 9)) for _ in range(dim)]
            for _ in range(rng.randint(1, dim + 1))
        ]
        ints = [primitive_vector(v) for v in vecs]
        rows, pivots = int_span(ints, dim)
        got = subspace_from_int_rows(int_canonical(rows, pivots), dim)
        assert got == span(vecs, dim)

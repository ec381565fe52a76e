from fractions import Fraction
from math import comb

import pytest

from arrideals import graded, multiplier
from arrideals.arrangement import Arrangement, braid
from arrideals.errors import InvariantError
from arrideals.graded import (
    MAX_PIECE_WIDTH,
    MAX_TOTAL_MONOMIALS,
    Polynomial,
    PolynomialParseError,
    _check_width,
    monomials,
    parse_polynomial,
)
from arrideals.lattice import compute_lattice
from arrideals.multiplier import DEGREE_CAP, hilbert_function, presentation

import helpers
from helpers import (
    GradedIdeal,
    contains_polynomial,
    generator_power,
    graded_contains,
    graded_equal,
    monomial_index,
    piece_dims,
    zassenhaus_intersect,
)


def axes(n):
    normals = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    return Arrangement.from_normals(n, normals)


def stacked_dims(lat, terms, bound):
    """Piece dimensions of the intersection of the powers I_W^e, one per
    (W, e) of the lattice, from the ranks of the production stack."""
    return multiplier._Stack(lat, bound, terms).dims()


def power_dims(lat, flat, exponent, bound):
    return stacked_dims(lat, [(flat, exponent)], bound)


def generator_intersection(terms, nvars, bound):
    return zassenhaus_intersect([generator_power(W, e, bound) for W, e in terms],
                                bound, nvars)


def test_monomial_order():
    assert monomials(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert monomials(3, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert len(monomials(4, 6)) == comb(4 + 6 - 1, 6)
    idx = monomial_index(3, 2)
    assert idx[(2, 0, 0)] == 0 and idx[(0, 0, 2)] == len(idx) - 1


def test_width_guard_admits_every_degree_up_to_the_cap():
    """The limit on all monomials of degrees 0..D refuses no (r, D) with
    D <= DEGREE_CAP that the per-degree width limit admits: it is the
    largest such total, reached in six variables at degree 10."""
    totals = {}
    for r in range(1, MAX_PIECE_WIDTH + 2):
        for d in range(DEGREE_CAP + 1):
            if comb(r + d - 1, d) <= MAX_PIECE_WIDTH:
                _check_width(r, d)
                totals[r, d] = comb(r + d, d)
    assert max(totals.values()) == MAX_TOTAL_MONOMIALS == totals[6, 10]
    with pytest.raises(ValueError, match="8009 monomials"):
        _check_width(1, 8008)
    _check_width(1, 8007)


def test_perps_build_no_degree_below_the_exponent():
    """A _Stack whose exponent is above its bound allocates no degree and
    refuses nothing, however wide the bound: it is zero, every piece 0.
    The width guard measures the bound when every exponent is at most it,
    the unit ideal included, and a negative bound is refused at once."""
    lat = compute_lattice(axes(2))
    origin = helpers.flat_with_closed(lat, (0, 1))
    stack = multiplier._Stack(lat, 10**6, [(origin, 10**7)])
    assert stack.zero and stack.echelons == []
    assert stack.dims() == [0] * (10**6 + 1)
    lat8 = compute_lattice(axes(8))  # degree 100 in 8 variables: far over the limit
    plane = helpers.flat_with_closed(lat8, (0, 1))
    wide = multiplier._Stack(lat8, 100, [(plane, 101)])
    wide.add([])
    assert wide.echelons == [] and wide.dims() == [0] * 101
    with pytest.raises(ValueError, match="monomials"):
        multiplier._Stack(lat8, 100, [(plane, 100)])
    with pytest.raises(ValueError, match="monomials"):
        multiplier._Stack(lat8, 100, [])  # the unit ideal builds degree 0 on
    with pytest.raises(ValueError, match="degree bound must be >= 0"):
        multiplier._Stack(lat, -1, [])
    unit = multiplier._Stack(lat, 3, [])
    unit.add([])
    assert unit.dims() == [1, 2, 3, 4]


def test_flat_with_no_free_column_yields_no_row(monkeypatch):
    """A flat with no free column, such as the origin, has x_p = s·v_p for
    every variable, so every image of a degree-d monomial has v-degree d:
    at d ≥ e, every degree a stack reads, its power yields no row and no
    monomial is expanded, and the piece is the whole degree.  A flat with
    a free column is expanded.  On one hyperplane at degree 40 the
    Hilbert function is read without any expansion."""
    expanded = []
    expand = graded._Power.expand

    def recording_expand(power, monos):
        expanded.append(power.forms)
        return expand(power, monos)

    monkeypatch.setattr(graded._Power, "expand", recording_expand)
    for n, e, bound in ((1, 3, 40), (2, 2, 10), (3, 1, 8), (3, 4, 8)):
        lat = compute_lattice(axes(n))
        origin = helpers.flat_with_closed(lat, range(n))
        assert stacked_dims(lat, [(origin, e)], bound) == (
            [0] * e + [comb(n + d - 1, d) for d in range(e, bound + 1)])
    assert expanded == []
    line = compute_lattice(Arrangement.from_normals(3, [(1, 0, 0)]))
    pres = presentation(line, line.irreducibles, 1)
    assert hilbert_function(line, pres, 40) == [comb(d + 2, 2) - comb(d + 1, 1)
                                                for d in range(41)]
    assert expanded == []
    lat = compute_lattice(axes(3))
    assert stacked_dims(lat, [(helpers.flat_with_closed(lat, (0, 1)), 2)], 3) == [0, 0, 3, 7]
    assert set(expanded) == {((1, 0, 0), (0, 1, 0))}


def test_power_of_origin():
    lat = compute_lattice(axes(2))
    origin = helpers.flat_with_closed(lat, (0, 1))
    assert power_dims(lat, origin, 2, 2) == [0, 0, 3]
    assert power_dims(lat, origin, 1, 3) == [0, 2, 3, 4]


def test_power_of_hyperplane():
    lat = compute_lattice(axes(2))
    h = helpers.flat_with_closed(lat, (0,))
    assert power_dims(lat, h, 1, 2) == [0, 1, 2]


def test_power_of_braid_diagonal():
    lat = compute_lattice(braid(3))
    top = helpers.flat_with_closed(lat, (0, 1, 2))
    assert power_dims(lat, top, 1, 2) == [0, 2, 5]
    for text, inside in (("x0 - x1", True), ("x1 - x2", True), ("x0", False)):
        poly = parse_polynomial(text, 3)
        assert helpers.power_contains(top.basis_rows, 1, 0, poly) == inside
        assert contains_polynomial(generator_power(top, 1, 2), poly) == inside
    # the integer pieces are canonical: they convert to genuine RREF subspaces
    sq = generator_power(top, 2, 4)
    for d, piece in enumerate(helpers.pieces(sq)):
        assert piece.ambient_dim == comb(3 + d - 1, d)
        assert piece.rank == power_dims(lat, top, 2, 4)[d]


def test_intersect_examples():
    """Stacked dimensions of intersections against the generator route."""
    lat = compute_lattice(axes(2))
    x, y = helpers.flat_with_closed(lat, (0,)), helpers.flat_with_closed(lat, (1,))
    assert stacked_dims(lat, [(x, 1), (y, 1)], 2) == [0, 0, 1]
    assert piece_dims(generator_intersection([(x, 1), (y, 1)], 2, 2)) == [0, 0, 1]
    assert stacked_dims(lat, [(x, 1)], 2) == piece_dims(generator_power(x, 1, 2))

    b3 = compute_lattice(braid(3))
    planes = [(helpers.flat_with_closed(b3, (i,)), 1) for i in range(3)]
    assert stacked_dims(b3, planes, 3) == [0, 0, 0, 1]
    assert piece_dims(generator_intersection(planes, 3, 3)) == [0, 0, 0, 1]

    empty = generator_intersection([], 2, 2)
    assert empty.piece_rows == tuple(
        helpers.identity_rows(comb(2 + d - 1, d)) for d in range(3))


def test_unit_ideal_dims():
    assert stacked_dims(compute_lattice(axes(2)), [], 2) == [1, 2, 3]
    assert stacked_dims(compute_lattice(axes(3)), [], 3) == [1, 3, 6, 10]


def test_intersect_algebra():
    """Stacking is independent of the order of the terms, agrees with
    intersecting step by step on the generator route, and a repeated term
    changes nothing."""
    lat = compute_lattice(braid(3))
    a = (helpers.flat_with_closed(lat, (0,)), 1)
    b = (helpers.flat_with_closed(lat, (1,)), 2)
    c = (helpers.flat_with_closed(lat, (0, 1, 2)), 1)
    assert stacked_dims(lat, [a, b], 3) == stacked_dims(lat, [b, a], 3)
    nested = zassenhaus_intersect(
        [generator_intersection([a, b], 3, 3), generator_power(*c, 3)], 3, 3)
    assert graded_equal(generator_intersection([a, b, c], 3, 3), nested, 3)
    assert stacked_dims(lat, [a, b, c], 3) == piece_dims(nested)
    assert stacked_dims(lat, [a, a], 3) == power_dims(lat, *a, 3)


def test_graded_equal_and_contains():
    lat = compute_lattice(axes(2))
    x, y = helpers.flat_with_closed(lat, (0,)), helpers.flat_with_closed(lat, (1,))
    gx = generator_power(x, 1, 2)
    gy = generator_power(y, 1, 2)
    assert graded_equal(gx, gx, 2)
    assert not graded_equal(gx, gy, 1)
    both = generator_intersection([(x, 1), (y, 1)], 2, 2)
    assert graded_contains(gx, both, 2)
    assert not graded_contains(both, gx, 2)
    with pytest.raises(ValueError):
        graded_equal(gx, generator_intersection([], 3, 2), 2)
    with pytest.raises(ValueError):
        graded_equal(gx, gy, 5)


def test_power_antitone_in_exponent():
    """I^e2 ⊆ I^e1 for e2 > e1: stacking both powers gives the smaller
    one, whose pieces are strictly smaller somewhere up to degree 4."""
    lat = compute_lattice(braid(3))
    top = helpers.flat_with_closed(lat, (0, 1, 2))
    for e1, e2 in [(1, 2), (2, 3), (1, 3)]:
        big, small = power_dims(lat, top, e1, 4), power_dims(lat, top, e2, 4)
        assert stacked_dims(lat, [(top, e1), (top, e2)], 4) == small
        assert all(s <= b for s, b in zip(small, big)) and small != big
        assert graded_contains(generator_power(top, e1, 4), generator_power(top, e2, 4), 4)


def test_coordinate_subspace_closed_form():
    """Triple route: combinatorial count, stacked ranks, and the generator
    route against Fraction spans."""

    def count(nv, deg):
        if nv == 0:
            return 1 if deg == 0 else 0
        return comb(nv + deg - 1, deg)

    for n in (2, 3):
        lat = compute_lattice(axes(n))
        for k in range(1, n + 1):
            flat = helpers.flat_with_closed(lat, range(k))
            for e in (1, 2, 3):
                gi = generator_power(flat, e, 6)
                got = power_dims(lat, flat, e, 6)
                for d in range(7):
                    expected = sum(
                        count(k, j) * count(n - k, d - j)
                        for j in range(e, d + 1)
                    )
                    assert got[d] == expected
                    if d <= 4:  # Fraction-arithmetic route
                        gens = [
                            Polynomial.from_terms(
                                n, {tuple(1 if t == i else 0 for t in range(n)): Fraction(1)}
                            )
                            for i in range(k)
                        ]
                        prods = []
                        stack = [(Polynomial.from_terms(n, {(0,) * n: Fraction(1)}), 0, e)]
                        while stack:
                            poly, start, left = stack.pop()
                            if left == 0:
                                prods.append(poly)
                                continue
                            for i in range(start, k):
                                stack.append((helpers.poly_mul(poly, gens[i]), i, left - 1))
                        if d >= e:
                            vecs = []
                            for m in monomials(n, d - e):
                                mono = Polynomial.from_terms(n, {m: Fraction(1)})
                                vecs.extend(helpers.poly_mul(p, mono) for p in prods)
                            sub = helpers.span_of_polynomials(vecs, n, d)
                        else:
                            sub = helpers.span_of_polynomials([], n, d)
                        assert helpers.pieces(gi)[d] == sub


def test_power_pieces_match_fraction_route_on_random_flats():
    """Generator-built pieces, and stacked dimensions, against explicit
    products spanned with Fraction RREF."""
    import random

    rng = random.Random(21)
    arrs = helpers.corpus_arrangements()[:6]
    for arr in arrs:
        lat = compute_lattice(arr)
        n = arr.dim
        flats = [f for f in lat.proper if f.rank >= 1]
        for _ in range(3):
            flat = rng.choice(flats)
            e = rng.randint(1, 2)
            bound = 4
            gi = generator_power(flat, e, bound)
            got = power_dims(lat, flat, e, bound)
            gens = [
                Polynomial.from_terms(
                    n, {tuple(1 if t == i else 0 for t in range(n)): Fraction(c)
                        for i, c in enumerate(row) if c}
                )
                for row in flat.basis_rows
            ]
            prods = [Polynomial.from_terms(n, {(0,) * n: Fraction(1)})]
            for _ in range(e):
                prods = [helpers.poly_mul(p, g) for p in prods for g in gens]
            for d in range(bound + 1):
                if d < e:
                    assert got[d] == len(gi.piece_rows[d]) == 0
                    continue
                vecs = []
                for m in monomials(n, d - e):
                    mono = Polynomial.from_terms(n, {m: Fraction(1)})
                    vecs.extend(helpers.poly_mul(p, mono) for p in prods)
                sub = helpers.span_of_polynomials(vecs, n, d)
                assert helpers.pieces(gi)[d] == sub and got[d] == sub.rank


def test_power_dimension_closed_form(corpus_lattices):
    """dim (I_W^e)_d = C(n+d-1,d) - sum_(k<e) C(r+k-1,k)*C(n-r+d-k-1,d-k):
    the perp has the degree-d monomials with at most e - 1 of their factors
    in a complement of the flat's points."""
    import random

    def forms(m, j):  # dimension of the degree-j forms in m variables
        if j < 0:
            return 0
        return comb(m + j - 1, j) if m else int(j == 0)

    rng = random.Random(11)
    bound = 6
    non_unit = full_rank = 0
    for lat in corpus_lattices:
        n = lat.arrangement.dim
        skew = [f for f in lat.proper
                if any(abs(a) > 1 for row in f.basis_rows for a in row)]
        chosen = rng.sample(skew, min(2, len(skew)))
        chosen += [f for f in lat.proper if f.rank == n]
        for flat in chosen:
            r = flat.rank
            non_unit += flat in skew
            full_rank += r == n
            for e in (1, 2, 3):
                expected = [
                    forms(n, d) - sum(forms(r, k) * forms(n - r, d - k) for k in range(e))
                    for d in range(bound + 1)
                ]
                assert power_dims(lat, flat, e, bound) == expected, (n, r, e)
    assert non_unit >= 10 and full_rank >= 5


def test_power_contains_matches_pieces():
    """A polynomial is in I_W^e exactly when its components are in the pieces."""
    import random

    rng = random.Random(5)
    lat = compute_lattice(braid(4))
    for closed in ((0,), (0, 1, 3), tuple(range(6))):
        flat = helpers.flat_with_closed(lat, closed)
        for e in (1, 2, 3):
            gi = generator_power(flat, e, 5)
            for _ in range(6):
                d = rng.randint(e, 5)
                rows = gi.piece_rows[d]
                inside = {m: Fraction(c) for m, c in zip(monomials(4, d), rng.choice(rows))
                          if c} if rows else {}
                low = {monomials(4, d - 1)[0]: Fraction(rng.randint(1, 5), 3)}
                for terms, expect in ((inside, True), ({**inside, **low}, False)):
                    poly = Polynomial.from_terms(4, terms)
                    assert helpers.power_contains(flat.basis_rows, e, 0, poly) == expect
                    assert contains_polynomial(gi, poly) == expect


@pytest.fixture
def skipped_images(monkeypatch):
    """Wraps ``_Power.expand`` to assert that it yields no empty image, and
    returns a list that gets, per expansion read to its end, the number of
    monomials with at least j0 pivot variables that it skipped.  A pivot
    whose form has no free entry maps to s·v alone, and the lowest v-degree
    of an image is its number of such factors, so a monomial with at least
    e of them has no term below v-degree e and must be skipped."""
    expand = graded._Power.expand
    skipped = []

    def checking_expand(power, monos):
        read = sum(1 for m in monos if sum(m[p] for p in power.pivots) >= power.j0)
        for i, image in expand(power, monos):
            assert image, (power.forms, power.exponent, monos[i])
            read -= 1
            yield i, image
        skipped.append(read)

    monkeypatch.setattr(graded._Power, "expand", checking_expand)
    return skipped


def test_expansion_matches_row_pairing(braid_lattices, corpus_lattices, skipped_images):
    """``graded._Power.vanishes`` on one (forms, e, j0) term
    (``helpers.power_contains``) answers as pairing each component with
    the inverse-system rows with j ≥ j0 pivot variables
    (``helpers.pairs_to_zero``), for e = 1..4 and every j0 ≤ e − 1,
    on flats of braid(3-6) and of the corpus, non-unit pivots among them.
    A product of j of the forms and d − j free-column variables has
    v-degree exactly j, so it is inside exactly when j < j0 or j ≥ e: the
    cases j = j0 − 1, j0, e − 1 and e tell an off-by-one in the truncation
    or in the j0 cut.  Sums with a component of another degree, and
    Fraction coefficients, are compared with the oracle too.  No monomial
    that truncation removes completely is expanded."""
    import random

    rng = random.Random(24)
    flats = [W for n in (3, 4, 5, 6) for W in rng.sample(braid_lattices[n].flats[1:], 3)]
    flats += [W for lat in corpus_lattices for W in rng.sample(lat.flats[1:], 2)]
    assert any(r[next(c for c, a in enumerate(r) if a)] > 1
               for W in flats for r in W.basis_rows)
    answers = set()
    for flat in flats:
        forms = flat.basis_rows
        n = len(forms[0])
        pivots = {next(c for c, a in enumerate(r) if a) for r in forms}
        free = [c for c in range(n) if c not in pivots]
        unit = [tuple(int(k == c) for k in range(n)) for c in range(n)]
        linear = [Polynomial.from_terms(n, {unit[c]: a for c, a in enumerate(r)})
                  for r in forms]

        def product(j, d):
            poly = Polynomial.from_terms(n, {(0,) * n: Fraction(rng.choice((-7, -2, 1, 3, 5)),
                                                                rng.randint(1, 4))})
            for _ in range(j):
                poly = helpers.poly_mul(poly, rng.choice(linear))
            for _ in range(d - j):
                poly = helpers.poly_mul(poly, Polynomial.from_terms(n, {unit[rng.choice(free)]: 1}))
            return poly

        for e in range(1, 5):
            for j0 in range(e):
                for j in sorted({j0 - 1, j0, e - 1, e} - {-1}):
                    d = e + rng.randint(0, 1)
                    if not free and j < d:  # the origin: every product has v-degree d
                        continue
                    term = [(forms, e, j0)]
                    single = product(j, d)
                    assert helpers.power_contains(forms, e, j0, single) == (j < j0 or j >= e)
                    assert helpers.pairs_to_zero(term, single) == (j < j0 or j >= e)
                    mixed = helpers.poly_add(single, product(min(rng.randint(0, e + 1), d + 1)
                                                             if free else d + 1, d + 1))
                    got = helpers.power_contains(forms, e, j0, mixed)
                    assert got == helpers.pairs_to_zero(term, mixed), (flat, e, j0, mixed)
                    answers.add((j < j0 or j >= e, got))
    assert answers == {(True, True), (True, False), (False, False)}
    assert max(skipped_images) > 0


def test_rows_span_the_apolarity_perp(braid_lattices, corpus_lattices, skipped_images):
    """The rows a power stacks (``_Power.rows``, the coefficients of
    v-degree j0 … e − 1 of the expanded monomials) span the same space as
    the inverse-system rows with j ≥ j0 pivot variables built by
    apolarity (``helpers.inverse_system``): the two sets and their union
    have one rank.  On sampled flats of braid(3-6) and of the corpus, in
    the essential coordinates a stack uses, non-unit pivots among them,
    for e = 1..4, every j0 ≤ e − 1 and every degree up to 6.  A truncation
    at e ± 1 or a j0 cut off by one changes the rank of one set only.  No
    monomial that truncation removes completely is expanded."""
    import random

    from arrideals.lattice import rows_in
    from arrideals.linalg import int_span

    rng = random.Random(25)
    cases = [(lat, W) for n in (3, 4, 5, 6)
             for lat in [braid_lattices[n]] for W in rng.sample(lat.flats[1:-1], 2)]
    cases += [(lat, rng.choice(lat.flats[1:])) for lat in corpus_lattices]
    flats = [rows_in(lat.flats[-1], W) for lat, W in cases]
    assert any(r[next(c for c, a in enumerate(r) if a)] > 1 for forms in flats for r in forms)
    compared = 0
    for forms in flats:
        n = len(forms[0])
        for e in range(1, 5):
            for j0 in range(e):
                power = graded._Power(forms, e, j0, 7)
                for d in range(7):
                    width = comb(n + d - 1, d)
                    ours = list(power.rows(d))
                    theirs = list(helpers.inverse_system(forms, n, e, d, j0))
                    rank = len(int_span(ours, width)[0])
                    assert rank == len(int_span(theirs, width)[0]), (forms, e, j0, d)
                    assert rank == len(int_span(ours + theirs, width)[0]), (forms, e, j0, d)
                    compared += rank > 0
    assert compared > 500
    assert max(skipped_images) > 0


def test_multiplicative_closure_is_validated():
    lat = compute_lattice(axes(2))
    gx = generator_power(helpers.flat_with_closed(lat, (0,)), 1, 2)
    # a piece list that is not closed under multiplication: (x) in degree 1
    # but zero in degree 2
    with pytest.raises(InvariantError):
        GradedIdeal(2, 2, (gx.piece_rows[0], gx.piece_rows[1], ()))
    with pytest.raises(InvariantError):
        GradedIdeal(2, 2, (gx.piece_rows[0], gx.piece_rows[1]))


def test_polynomial_basics():
    p = parse_polynomial("x0 - x1", 3)
    assert dict(p.terms) == {(1, 0, 0): 1, (0, 1, 0): -1}
    q = parse_polynomial("2/3*x0^2*x1 + x2", 3)
    assert dict(q.terms) == {(2, 1, 0): Fraction(2, 3), (0, 0, 1): 1}
    assert parse_polynomial("x0 - x0", 3).terms == ()


def test_polynomial_parse_errors():
    with pytest.raises(PolynomialParseError, match="x3 out of range"):
        parse_polynomial("x3", 3)
    with pytest.raises(PolynomialParseError, match="position"):
        parse_polynomial("x0 + ", 2)
    with pytest.raises(PolynomialParseError, match="position"):
        parse_polynomial("2 ** x0", 2)
    with pytest.raises(PolynomialParseError, match="unexpected character"):
        parse_polynomial("x0 + y", 2)
    with pytest.raises(PolynomialParseError):
        parse_polynomial("", 2)
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x0^", 2)
    # a "*" after a factor must be followed by a variable
    for text, at in (("x0*", 3), ("x0 * + x1", 5), ("2*x0*", 5)):
        with pytest.raises(PolynomialParseError,
                           match=f"expected a variable at position {at}$"):
            parse_polynomial(text, 2)


def test_parse_constants_and_signs():
    p = parse_polynomial("3", 2)
    assert dict(p.terms) == {(0, 0): 3}
    p = parse_polynomial("-x0 - -1", 2)  # "- -1" is a signed constant term
    assert dict(p.terms) == {(1, 0): -1, (0, 0): 1}
    p = parse_polynomial("x0*x0^2", 2)
    assert dict(p.terms) == {(3, 0): 1}
    p = parse_polynomial("1/2 * x0 + 1/2*x0", 2)
    assert dict(p.terms) == {(1, 0): 1}


def test_parse_integer_rational_and_mixed_coefficients():
    """Integer coefficients parse as ints and "p/q" as Fractions; written
    either way, or mixed, one polynomial parses to one value, and a zero
    denominator is refused with its position."""
    forms = [
        ("6*x0^2 - 3*x0*x1 + 2", "12/2*x0^2 - 6/2*x0*x1 + 4/2",
         "6*x0^2 - 3/1*x0*x1 + 1/2 + 3/2"),
        ("7/2*x0 + x1", "2/4*x0 + 3*x0 + 1*x1", "14/4*x0 + 2/2*x1"),
        ("-x0 - 5", "-2/2*x0 + -10/2", "- 1/1*x0 - 5 + 0/3"),
    ]
    for texts in forms:
        polys = [parse_polynomial(text, 2) for text in texts]
        assert polys[1:] == polys[:-1], texts
        assert len({hash(q) for q in polys}) == 1
        fractions = Polynomial.from_terms(2, {m: Fraction(c) for m, c in polys[0].terms})
        assert polys[0] == fractions
    assert all(type(c) is int for _, c in parse_polynomial("6*x0^2 - 3*x0*x1 + 2", 2).terms)
    assert dict(parse_polynomial("2/4*x0 + 3*x0", 2).terms) == {(1, 0): Fraction(7, 2)}
    with pytest.raises(PolynomialParseError, match="^zero denominator at position 5$"):
        parse_polynomial("x0 + 3/0*x1", 2)


def test_polynomial_print_parse_round_trip():
    import random

    rng = random.Random(31)
    for _ in range(120):
        n = rng.randint(1, 4)
        terms = {}
        for _ in range(rng.randint(0, 5)):
            mono = tuple(rng.randint(0, 3) for _ in range(n))
            terms[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        p = Polynomial.from_terms(n, terms)
        assert parse_polynomial(helpers.format_polynomial(p), n) == p


def test_contains_polynomial_bounds():
    lat = compute_lattice(axes(2))
    gx = generator_power(helpers.flat_with_closed(lat, (0,)), 1, 2)
    assert contains_polynomial(gx, Polynomial.from_terms(2, {}))
    with pytest.raises(ValueError):
        contains_polynomial(gx, parse_polynomial("x0^5", 2))
    with pytest.raises(ValueError):
        contains_polynomial(gx, parse_polynomial("x0", 3))
    # mixed-degree polynomial: every component must be inside
    assert contains_polynomial(gx, parse_polynomial("x0 + x0^2", 2))
    assert not contains_polynomial(gx, parse_polynomial("x0 + x1^2", 2))

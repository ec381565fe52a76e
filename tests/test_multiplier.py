import random
from fractions import Fraction
from itertools import groupby
from math import comb

import pytest

from arrideals import cli, graded, lattice, multiplier
from arrideals.arrangement import Arrangement, Hyperplane, braid, serialize_arrangement
from arrideals.graded import Polynomial, parse_polynomial
from arrideals.lattice import compute_lattice, rows_in
from arrideals.multiplier import (
    DEGREE_CAP,
    hilbert_function,
    jump_candidates,
    lct,
    membership,
    presentation,
    support,
    uncapped_degree_bound,
    verify_jumps,
)

import helpers
from fraction_linalg import span, span_contains, span_sum
from helpers import (
    contains_polynomial,
    generator_presentation_ideal,
    graded_contains,
    graded_equal,
    piece_dims,
)


def single_hyperplane(mult):
    return compute_lattice(Arrangement.from_normals(1, [(1,)], [mult]))


def realized(lat, building, lam, bound):
    """The presented ideal at λ, realized by the generator route."""
    return generator_presentation_ideal(presentation(lat, building, lam), bound)


def test_presentation_examples(braid_lattices):
    lat = braid_lattices[3]
    gmin = lat.irreducibles
    p = presentation(lat, gmin, Fraction(2, 3))
    assert [(w.closed_set, e) for w, e in p.terms] == [((0, 1, 2), 1)]
    assert not p.is_unit

    assert presentation(lat, gmin, 0).is_unit

    lm2 = single_hyperplane(2)
    p = presentation(lm2, lm2.irreducibles, Fraction(1, 2))
    assert [(w.closed_set, e) for w, e in p.terms] == [((0,), 1)]

    with pytest.raises(ValueError):
        presentation(lat, gmin, Fraction(-1, 2))


def test_presentation_exponent_values(braid_lattices):
    lat = braid_lattices[4]
    full = lat.proper
    p = presentation(lat, full, 1)
    by_closed = {w.closed_set: e for w, e in p.terms}
    assert by_closed[(0,)] == 1          # hyperplane: floor(1) - 1 + 1
    assert by_closed[(0, 1, 3)] == 2     # triple point: floor(3) - 2 + 1
    assert by_closed[(0, 5)] == 1        # two skew pairs: floor(2) - 2 + 1
    assert by_closed[tuple(range(6))] == 4  # diagonal: floor(6) - 3 + 1


def test_lct(braid_lattices):
    for n in (3, 4, 5, 6):
        assert lct(braid_lattices[n]) == Fraction(2, n)
    assert lct(single_hyperplane(1)) == 1
    assert lct(single_hyperplane(2)) == Fraction(1, 2)


def test_support(braid_lattices):
    lat = braid_lattices[3]
    assert [w.closed_set for w in support(lat, Fraction(2, 3))] == [(0, 1, 2)]
    assert support(lat, 0) == []
    assert len(support(lat, 1)) == 4
    with pytest.raises(ValueError):
        support(lat, -1)


def test_float_lambda_is_refused(braid_lattices):
    """A float λ is refused, not read as the nearest binary fraction: 2/3
    as a float lies just below the lct of braid(3), where the ideal is the
    unit ideal, while Fraction(2, 3) gives the diagonal's term."""
    lat = braid_lattices[3]
    gmin = lat.irreducibles
    assert [(W.closed_set, e) for W, e in presentation(lat, gmin, Fraction(2, 3)).terms] == [
        ((0, 1, 2), 1)]
    for call in (lambda: presentation(lat, gmin, 2 / 3),
                 lambda: support(lat, 0.7),
                 lambda: jump_candidates(lat, 1.0),
                 lambda: verify_jumps(lat, 1.0, 3)):
        with pytest.raises(TypeError, match="floating point"):
            call()


def test_support_is_presentation_support(corpus_lattices):
    for lat in corpus_lattices[:8]:
        gmin = lat.irreducibles
        for lam in jump_candidates(lat, Fraction(3, 2)):
            pres = presentation(lat, gmin, lam)
            assert [w for w, _ in pres.terms] == support(lat, lam)


def test_jump_candidates(braid_lattices):
    assert jump_candidates(braid_lattices[3], 1) == [Fraction(2, 3), Fraction(1)]
    assert jump_candidates(single_hyperplane(1), 2) == [Fraction(1), Fraction(2)]
    assert jump_candidates(braid_lattices[4], 1) == [
        Fraction(1, 2), Fraction(2, 3), Fraction(5, 6), Fraction(1),
    ]
    with pytest.raises(ValueError):
        jump_candidates(braid_lattices[3], 0)


def test_verify_jump(braid_lattices, monkeypatch):
    lat = braid_lattices[3]
    assert verify_jumps(lat, Fraction(2, 3), 4) == [(Fraction(2, 3), True)]
    # no candidate up to 1/2: the ideal there is the unit ideal below the
    # lct, and no stack is made
    stacks = []
    stack = multiplier._Stack
    monkeypatch.setattr(multiplier, "_Stack",
                        lambda *a: stacks.append(stack(*a)) or stacks[-1])

    def made():  # each stack's essential rank and bound − deg h
        return [(s.nvars, s.bound - s.shift) for s in stacks]

    assert verify_jumps(lat, Fraction(1, 2), 4) == [] and made() == []
    # one stack from the unit ideal to 2/3, in the 2 essential variables up
    # to degree 4; at 1 the hyperplanes rise, h = f has degree 3, and a
    # fresh stack of J″ = S runs to degree 4 − 3
    assert verify_jumps(lat, 1, 4) and made() == [(2, 4), (2, 1)]
    stacks.clear()
    # 4/3 and 5/3 rise on the second stack; at 2, h = f² has degree 6 > 4:
    # the stack made there is zero, and nothing is stacked on it
    assert verify_jumps(lat, 2, 4) and made() == [(2, 4), (2, 1), (2, -2)]
    assert stacks[-1].zero and stacks[-1].echelons == []
    gmin = lat.irreducibles
    assert graded_equal(realized(lat, gmin, Fraction(1, 2), 4), realized(lat, gmin, 0, 4), 4)
    assert verify_jumps(single_hyperplane(1), 1, 2) == [(Fraction(1), True)]
    # J(λ) = f·J(λ − 1) for λ ≥ 1 (Skoda), and 1/3 is no jump, so 4/3 is none
    assert verify_jumps(lat, 2, 4) == [
        (Fraction(c, 3), c != 4) for c in (2, 3, 4, 5, 6)
    ]
    with pytest.raises(ValueError):
        verify_jumps(lat, 0, 4)
    with pytest.raises(ValueError):
        verify_jumps(lat, 1, 0)


def test_verify_jumps_stacks_nothing_once_h_passes_the_bound(monkeypatch):
    """braid(3) with one plane of multiplicity 12: from λ = 4/12 on, h has
    degree above the bound 3, so every later piece is 0 and every later
    candidate is answered with no stack; the answers are the generator
    route's."""
    arr = braid(3)
    lat = compute_lattice(Arrangement.from_normals(
        3, [h.normal for h in arr.hyperplanes], [12, 1, 1]))
    made = []
    stack = multiplier._Stack
    monkeypatch.setattr(multiplier, "_Stack", lambda *a: made.append(a[2]) or stack(*a))
    answers = verify_jumps(lat, 1, 3)
    assert answers == helpers.realized_jumps(lat, 1, 3)
    # the unit ideal, then one fresh stack at each rise of the plane's
    # exponent up to 4, the first past the bound
    assert len(made) == 5 and [e for W, e in made[-1] if W.rank == 1] == [4]
    later = [jump for c, jump in answers if c > Fraction(4, 12)]
    assert len(later) > 8 and not any(later)


def test_membership(braid_lattices):
    lat = braid_lattices[3]
    gmin = lat.irreducibles
    p = presentation(lat, gmin, Fraction(2, 3))
    assert membership(p, parse_polynomial("x0 - x1", 3))
    assert membership(p, parse_polynomial("x1 - x2", 3))
    assert not membership(p, parse_polynomial("x0", 3))
    assert membership(presentation(lat, gmin, 0), parse_polynomial("x0", 3))
    with pytest.raises(ValueError):
        membership(p, parse_polynomial("x0", 2))


def test_membership_higher_power(braid_lattices):
    lat = braid_lattices[3]
    gmin = lat.irreducibles
    p = presentation(lat, gmin, 1)  # hyperplanes:1 each, diagonal:2
    # (x0-x1)(x0-x2)(x1-x2) expanded: in every hyperplane ideal, vanishes to
    # order three on the diagonal
    prod = "x0^2*x1 - x0^2*x2 - x0*x1^2 + x0*x2^2 + x1^2*x2 - x1*x2^2"
    assert membership(p, parse_polynomial(prod, 3))
    # x0*(x0-x1)*(x0-x2) misses the factor vanishing on x1=x2
    assert not membership(
        p, parse_polynomial("x0^3 - x0^2*x1 - x0^2*x2 + x0*x1*x2", 3)
    )
    assert not membership(p, parse_polynomial("x0 - x1", 3))


def test_resolution_table(tmp_path, capsys):
    """``resolution`` prints (closed set, discrepancy r − 1, vanishing
    order s) per minimal-building-set flat."""
    def table(arr):
        path = tmp_path / "arr.json"
        path.write_text(serialize_arrangement(arr))
        assert cli.main(["resolution", str(path)]) == 0
        return [line.split("\t") for line in capsys.readouterr().out.splitlines()]

    assert [row[1:] for row in table(braid(3))] == [
        ["0", "1"], ["0", "1"], ["0", "1"], ["1", "3"],
    ]
    assert table(Arrangement.from_normals(1, [(1,)], [3])) == [["0", "0", "3"]]
    diag = [row for row in table(braid(4)) if row[0] == "0,1,2,3,4,5"]
    assert diag == [["0,1,2,3,4,5", "2", "6"]]


def test_unit_exactly_below_lct(corpus_lattices):
    for lat in corpus_lattices[:10]:
        gmin = lat.irreducibles
        threshold = lct(lat)
        eps = Fraction(1, 1000)
        assert presentation(lat, gmin, threshold - eps).is_unit
        assert not presentation(lat, gmin, threshold).is_unit
        assert presentation(lat, gmin, 0).is_unit


def test_default_degree_bound(braid_lattices, capsys):
    from arrideals.cli import _default_degree

    lat = braid_lattices[3]
    gmin = lat.irreducibles
    assert uncapped_degree_bound(presentation(lat, gmin, 0)) == 2
    p = presentation(lat, gmin, 1)  # exponents 1,1,1,2
    assert uncapped_degree_bound(p) == 7
    assert uncapped_degree_bound(p, presentation(lat, lat.proper, 1)) == 7
    assert _default_degree(p) == 7 and capsys.readouterr().err == ""
    big = presentation(lat, gmin, 4)  # exponents 4,4,4,11
    assert uncapped_degree_bound(big) == 25
    assert _default_degree(big) == DEGREE_CAP == 10
    assert "default degree bound 25 capped at 10" in capsys.readouterr().err


def test_building_set_independence_corpus(corpus_lattices):
    """G_min and the full lattice present the same graded ideal."""
    for lat in corpus_lattices[:10]:
        gmin = lat.irreducibles
        full = lat.proper
        for lam in (Fraction(1, 2), Fraction(1)):
            a = realized(lat, gmin, lam, 3)
            b = realized(lat, full, lam, 3)
            assert graded_equal(a, b, 3)


def test_all_building_sets_present_equal_ideals():
    """The presentation is independent of the chosen building set."""
    small = [
        Arrangement.from_normals(2, [(1, 0), (0, 1), (1, -1)]),
        braid(3),
        Arrangement.from_normals(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [1, 2, 1]),
    ]
    saw_variety = False
    for arr in small:
        lat = compute_lattice(arr)
        sets = helpers.all_building_sets(lat)
        assert sets
        saw_variety = saw_variety or len(sets) > 1
        for lam in (Fraction(1, 2), Fraction(2, 3), Fraction(1)):
            reference = None
            for flats in sets:
                gi = realized(lat, flats, lam, 4)
                if reference is None:
                    reference = gi
                else:
                    assert graded_equal(reference, gi, 4)
    assert saw_variety  # at least one case exercises several building sets


def test_jump_structure_on_corpus(corpus_lattices):
    """Presentations only change at candidates, and verify_jumps sees exactly
    the candidates where consecutive ideals differ."""
    for lat in corpus_lattices[:8]:
        gmin = lat.irreducibles
        grid = [Fraction(0)] + jump_candidates(lat, 1)
        for a, b in zip(grid, grid[1:]):
            mid = (a + b) / 2
            assert (
                presentation(lat, gmin, mid).terms
                == presentation(lat, gmin, a).terms
            )
        ideals = {
            lam: realized(lat, gmin, lam, 3)
            for lam in grid
        }
        answers = verify_jumps(lat, 1, 3)
        assert [c for c, _ in answers] == grid[1:]
        for (a, b), (_, jump) in zip(zip(grid, grid[1:]), answers):
            assert jump == (not graded_equal(ideals[a], ideals[b], 3))


def test_braid4_jumps_all_verify(braid_lattices):
    """Every candidate in (0, 1] certifies as a genuine jump."""
    lat = braid_lattices[4]
    cands = jump_candidates(lat, 1)
    assert cands == [Fraction(1, 2), Fraction(2, 3), Fraction(5, 6), Fraction(1)]
    assert verify_jumps(lat, 1, 4) == [(c, True) for c in cands]
    # at the threshold the ideal is the full diagonal line's ideal, whose
    # piece dimensions have the closed form C(d+3, 3) - 1
    from math import comb

    gmin = lat.irreducibles
    pres = presentation(lat, gmin, Fraction(1, 2))
    assert hilbert_function(lat, pres, 6) == [0] + [comb(d + 3, 3) - 1 for d in range(1, 7)]
    # at lambda = 1 the only degree-6 element is the defining product
    pres = presentation(lat, gmin, 1)
    assert hilbert_function(lat, pres, 6) == [0, 0, 0, 0, 0, 0, 1]
    assert piece_dims(generator_presentation_ideal(pres, 6)) == [0, 0, 0, 0, 0, 0, 1]


def test_monotone_in_lambda(braid_lattices):
    lat = braid_lattices[3]
    gmin = lat.irreducibles
    grid = [Fraction(0)] + jump_candidates(lat, 2)
    ideals = [realized(lat, gmin, lam, 4) for lam in grid]
    for prev, nxt in zip(ideals, ideals[1:]):
        assert graded_contains(prev, nxt, 4)


def test_smooth_divisor_small():
    lat = single_hyperplane(2)
    gmin = lat.irreducibles
    for lam in (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2)):
        pres = presentation(lat, gmin, lam)
        k = int(lam * 2)
        expected = [1 if d >= k else 0 for d in range(5)]
        assert hilbert_function(lat, pres, 4) == expected
        assert piece_dims(generator_presentation_ideal(pres, 4)) == expected


def test_normal_crossings_coordinate_axes():
    """Coordinate axes are already normal crossings, so the multiplier ideal
    is the principal monomial ideal with exponents floor(lambda * m_i)."""
    from math import comb

    from helpers import monomial_index

    cases = [
        (2, (1, 1)),
        (2, (2, 3)),
        (3, (1, 2, 2)),
    ]
    for n, mults in cases:
        normals = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        arr = Arrangement.from_normals(n, normals, list(mults))
        lat = compute_lattice(arr)
        gmin = lat.irreducibles
        for lam in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1),
                    Fraction(5, 4)):
            pres = presentation(lat, gmin, lam)
            gi = generator_presentation_ideal(pres, 5)
            floors = [int(lam * m) for m in mults]
            base = sum(floors)
            # monomial count: x^floors times anything of degree d - base
            expected = [comb(n + d - base - 1, d - base) if d >= base else 0
                        for d in range(6)]
            assert hilbert_function(lat, pres, 5) == piece_dims(gi) == expected
            if base <= 5:
                idx = monomial_index(n, base)
                vec = [0] * len(idx)
                vec[idx[tuple(floors)]] = 1
                rows = gi.piece_rows[base]
                assert rows == (tuple(vec),)


def test_non_reduced_braid_pipeline():
    """Multiplicities reweight s(W) but not the geometry."""
    arr = Arrangement.from_normals(
        3, [(1, -1, 0), (1, 0, -1), (0, 1, -1)], [2, 1, 1]
    )
    lat = compute_lattice(arr)
    top = helpers.flat_with_closed(lat, (0, 1, 2))
    assert top.mult == 4 and top.rank == 2
    assert lct(lat) == Fraction(1, 2)
    assert jump_candidates(lat, 1) == [
        Fraction(1, 2), Fraction(3, 4), Fraction(1),
    ]
    # 2/3 is no candidate: the ideal there is the ideal at 1/2
    assert verify_jumps(lat, Fraction(2, 3), 4) == [(Fraction(1, 2), True)]
    gmin = lat.irreducibles
    assert graded_equal(realized(lat, gmin, Fraction(2, 3), 4),
                        realized(lat, gmin, Fraction(1, 2), 4), 4)
    full = lat.proper
    for lam in jump_candidates(lat, 1):
        a = realized(lat, gmin, lam, 5)
        b = realized(lat, full, lam, 5)
        assert graded_equal(a, b, 5)
    # above 1: at 7/4 the hyperplane powers have exponents 3, 1 and 1 (h of
    # degree 5) and the top flat's exponent 6 drops to 1, so J is h times
    # the ideal of the line where the planes meet, not (h)
    for bs in (gmin, full):
        pres = presentation(lat, bs, Fraction(7, 4))
        oracle = piece_dims(generator_presentation_ideal(pres, 7))
        assert oracle == [0, 0, 0, 0, 0, 0, 2, 5]
        assert hilbert_function(lat, pres, 7) == oracle
    assert verify_jumps(lat, 2, 7) == helpers.realized_jumps(lat, 2, 7)


LAMBDAS = (Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(6, 5), Fraction(3, 2))


def dim4_arrangements():
    """Seeded dimension-4 arrangements: 6 or 7 hyperplanes, multiplicities 1-3."""
    out = []
    for seed in range(3):
        rng = random.Random(4000 + seed)
        count = rng.randint(6, 7)
        normals, seen = [], set()
        while len(normals) < count:
            v = tuple(rng.randint(-2, 2) for _ in range(4))
            if any(v) and Hyperplane(v).normal not in seen:
                seen.add(Hyperplane(v).normal)
                normals.append(v)
        out.append(Arrangement.from_normals(4, normals,
                                            [rng.randint(1, 3) for _ in normals]))
    return out


def test_hilbert_function_matches_generator_route(braid_lattices):
    """Piece dimensions read off stacked ranks equal the piece counts of
    intersected generator-built powers."""
    cases = [(braid_lattices[n], 5) for n in (3, 4, 5)] + [(braid_lattices[6], 4)]
    cases += [(compute_lattice(arr), 5) for arr in dim4_arrangements()]
    for lat, bound in cases:
        for name, bs in (("min", lat.irreducibles), ("full", lat.proper)):
            for lam in LAMBDAS:
                pres = presentation(lat, bs, lam)
                oracle = piece_dims(generator_presentation_ideal(pres, bound))
                assert hilbert_function(lat, pres, bound) == oracle, (
                    lat.arrangement.dim, name, lam)


def test_hilbert_function_is_periodic(braid_lattices, corpus_lattices):
    """J(λ + 1) = f·J(λ) for the integral divisor of f (Lazarsfeld,
    Positivity II, Prop. 9.2.31): on braid(3-5) and the corpus, with both
    building sets, the piece dimensions at λ + 1 are deg f zeros followed
    by those at λ."""
    for lat in [braid_lattices[n] for n in (3, 4, 5)] + list(corpus_lattices):
        deg_f = sum(h.mult for h in lat.arrangement.hyperplanes)
        for bs in (lat.irreducibles, lat.proper):
            for lam in [Fraction(0), Fraction(1, 3)] + jump_candidates(lat, 1):
                here = hilbert_function(lat, presentation(lat, bs, lam), 3)
                above = hilbert_function(lat, presentation(lat, bs, lam + 1), deg_f + 3)
                assert above == [0] * deg_f + here, (lat.arrangement, lam)


def test_membership_below_the_hyperplane_factor_builds_no_row(braid_lattices,
                                                             monkeypatch):
    """On braid(5) at λ = 1 every element is a multiple of f, of degree 10,
    while the largest exponent is 7: a polynomial with a nonzero component
    of degree 7 to 9 is refused before any term's expansion is made, and
    f itself is still decided by the expansions.  On braid(4) with
    multiplicities 2, 3, 3, 4, 4, 1 at λ = 7/12, deg h and the largest
    exponent are 7 and J″ = I_W for the flat W of planes 1, 2 and 5, so h
    itself is refused with no expansion (the generator route has no piece
    in degree 7), and h times the form of plane 5 is expanded and in J."""
    lat = braid_lattices[5]
    pres = presentation(lat, lat.irreducibles, 1)
    assert max(e for _, e in pres.terms) == 7
    n = lat.arrangement.dim
    forms = [Polynomial.from_terms(n, {tuple(int(i == j) for j in range(n)): c
                                       for i, c in enumerate(h.normal)})
             for h in lat.arrangement.hyperplanes]
    f = Polynomial.from_terms(n, {(0,) * n: 1})
    for form in forms:
        f = helpers.poly_mul(f, form)
    made = []
    expand = graded._Power.expand
    monkeypatch.setattr(graded._Power, "expand",
                        lambda *a: made.append(a) or expand(*a))
    for k in (7, 8, 9):
        low = Polynomial.from_terms(n, {(0,) * n: 1})
        for form in forms[:k]:
            low = helpers.poly_mul(low, form)
        for poly in (low, helpers.poly_add(low, helpers.poly_mul(f, forms[0]))):
            assert not membership(pres, poly)
    assert made == []
    assert membership(pres, f) and made
    made.clear()
    arr = braid(4)
    lat = compute_lattice(Arrangement.from_normals(4, [h.normal for h in arr.hyperplanes],
                                                   [2, 3, 3, 4, 4, 1]))
    pres = presentation(lat, lat.irreducibles, Fraction(7, 12))
    assert max(e for _, e in pres.terms) == 7
    forms = [Polynomial.from_terms(4, {tuple(int(i == j) for j in range(4)): c
                                       for i, c in enumerate(h.normal)})
             for h in lat.arrangement.hyperplanes]
    h = Polynomial.from_terms(4, {(0,) * 4: 1})
    for i in (0, 1, 2, 3, 3, 4, 4):
        h = helpers.poly_mul(h, forms[i])
    assert piece_dims(generator_presentation_ideal(pres, 7))[7] == 0
    assert not membership(pres, h) and made == []
    assert membership(pres, helpers.poly_mul(h, forms[5])) and made


def test_membership_reads_rows_only_for_the_terms_it_expands(monkeypatch):
    """On a fresh braid(5) lattice at λ = 1, where J = (f) and deg f = 10,
    non-members of degree 7 to 9 are refused without building any flat's
    canonical rows.  A non-member of degree 10, f with its last form
    replaced by a second copy of its first, stops at the first term that
    fails, the last hyperplane's: no later term is expanded, and each
    expanded term builds its flat's rows once."""
    lat = compute_lattice(braid(5))
    pres = presentation(lat, lat.irreducibles, 1)
    n = lat.arrangement.dim
    forms = [Polynomial.from_terms(n, {tuple(int(i == j) for j in range(n)): c
                                       for i, c in enumerate(h.normal)})
             for h in lat.arrangement.hyperplanes]

    def product(factors):
        poly = Polynomial.from_terms(n, {(0,) * n: 1})
        for form in factors:
            poly = helpers.poly_mul(poly, form)
        return poly

    built, checked = [], []
    canonical, vanishes = lattice.int_canonical, graded._Power.vanishes
    monkeypatch.setattr(lattice, "int_canonical",
                        lambda *a: built.append(a) or canonical(*a))
    monkeypatch.setattr(graded._Power, "vanishes",
                        lambda power, *a: checked.append((power.forms, vanishes(power, *a)))
                        or checked[-1][1])
    for k in (7, 8, 9):
        assert not membership(pres, product(forms[:k]))
    assert built == [] and checked == []
    assert not membership(pres, product(forms[:1] + forms[:-1]))
    last = helpers.flat_with_closed(lat, (len(forms) - 1,))
    assert [ok for _, ok in checked] == [True] * (len(checked) - 1) + [False]
    assert checked[-1][0] == last.basis_rows and len(built) == len(checked)
    expandable = [W for W, e, j0 in multiplier._Stacked().first_new_rows(pres.terms)
                  if j0 < e]
    assert len(expandable) > len(checked)


def test_verify_jumps_refuses_before_reading_the_rise_table(monkeypatch):
    """One plane of multiplicity 10,000 has 10,000 candidates up to 1, and
    degrees 0 to 9,999 of one variable have 10,000 monomials, more than the
    guard admits: it refuses after the first rise is read, not the whole
    rise table.  With no candidate the answer is still [] with no guard."""
    read = []
    rises = multiplier._rises

    def counting(*a):
        for rise in rises(*a):
            read.append(rise)
            yield rise

    monkeypatch.setattr(multiplier, "_rises", counting)
    with pytest.raises(ValueError, match="have 10000 monomials"):
        verify_jumps(single_hyperplane(10_000), 1, 9_999)
    assert len(read) <= 1
    assert verify_jumps(single_hyperplane(2), Fraction(1, 3), 9_999) == []


def test_membership_matches_generator_route(braid_lattices):
    """``membership`` agrees with piece containment in the generator-built
    ideal, on products of the arrangement's forms and on non-homogeneous
    sums of them with Fraction coefficients."""
    rng = random.Random(17)
    cases = [braid_lattices[4], braid_lattices[5]]
    cases += [compute_lattice(arr) for arr in dim4_arrangements()]
    answers = set()
    for lat in cases:
        arr = lat.arrangement
        n = arr.dim
        forms = [Polynomial.from_terms(n, {tuple(int(i == j) for j in range(n)): c
                                           for i, c in enumerate(h.normal)})
                 for h in arr.hyperplanes]

        def product(k):
            poly = Polynomial.from_terms(n, {(0,) * n: Fraction(rng.randint(1, 7), 5)})
            for _ in range(k):
                poly = helpers.poly_mul(poly, rng.choice(forms))
            return poly

        for lam in LAMBDAS:
            pres = presentation(lat, lat.irreducibles, lam)
            oracle = generator_presentation_ideal(pres, 6)
            for _ in range(4):
                k = rng.randint(2, 6)
                polys = [product(k), helpers.poly_add(product(k), product(rng.randint(1, k - 1)))]
                for poly in polys:
                    got = membership(pres, poly)
                    assert got == contains_polynomial(oracle, poly)
                    answers.add((got, len(helpers.homogeneous_parts(poly)) > 1))
    assert answers == {(True, False), (False, False), (True, True), (False, True)}


def test_lift_matches_closed_form():
    """The running sums of multiplier._lift equal the binomial closed form
    on seeded random dimension lists, zeros included."""
    rng = random.Random(20261019)
    for extra in range(6):
        for length in (1, 2, 7, 30):
            for _ in range(5):
                dims = [rng.choice((0, 0, rng.randint(0, 50))) for _ in range(length)]
                assert multiplier._lift(dims, extra) == helpers.lift_closed_form(dims, extra)


def skipped_rows(lat, bound, *batches):
    """Stack the batches of (W, e) terms as ``_Stack`` does and check, with
    Fraction spans, that each row a term leaves out (a coefficient of
    v-degree below j0, split off by ``graded._Power.rows``) lies in the
    span of the inverse-system rows (``helpers.inverse_system``) stacked
    before it, in every degree the stack reads; the number of rows left
    out."""
    top = lat.flats[-1]
    n = top.rank
    stacked, seq, low = multiplier._Stacked(), [], 0
    for batch in batches:
        terms = [(rows_in(top, W), e, j0)
                 for W, e, j0 in stacked.first_new_rows(batch)]
        low = max([low] + [e for _, e, _ in terms])
        seq += [(low, term) for term in terms]
    count = 0
    for d in range(bound + 1):
        width = comb(n + d - 1, d)
        space = span([], width)
        for low, (forms, e, j0) in seq:
            if low > d:  # this degree is never stacked
                break
            left_out = list(graded._Power(forms, min(j0, e), 0, bound + 1).rows(d))
            kept = list(graded._Power(forms, e, j0, bound + 1).rows(d))
            assert sorted(left_out + kept) == sorted(graded._Power(forms, e, 0, bound + 1).rows(d))
            assert all(span_contains(space, g) for g in left_out)
            count += len(left_out)
            oracle = list(helpers.inverse_system(forms, n, e, d, j0))
            if oracle:
                space = span_sum(space, span(oracle, width))
    return count


def test_skipped_rows_lie_in_the_stacked_span():
    """Fraction oracle for the rule that a term stacks only its rows with
    j ≥ j0 pivot variables: on braid(3-5) and 20 seeded arrangements in
    dimensions 2-4, every row left out by ``hilbert_function`` (both
    building sets), ``theorem_rows`` and the ``verify_jumps`` batches up
    to 1 lies in the span of the rows stacked before it."""
    corpus = [(compute_lattice(braid(n)), bound) for n, bound in ((3, 6), (4, 6), (5, 5))]
    corpus += [(compute_lattice(arr), 3) for arr in helpers.corpus_arrangements()]
    total = 0
    for lat, bound in corpus:
        rises = sorted(multiplier._rises(lat, 1), key=lambda r: r[0])
        batches = [[(W, e) for _, W, e in group]
                   for _, group in groupby(rises, key=lambda r: r[0])]
        total += skipped_rows(lat, bound, [], *batches)
        for lam in sorted({c for c, _, _ in rises}):
            pres_min = presentation(lat, lat.irreducibles, lam)
            pres_full = presentation(lat, lat.proper, lam)
            seen = {W for W, _ in pres_min.terms}
            total += skipped_rows(lat, bound, pres_min.terms,
                                  [(W, e) for W, e in pres_full.terms if W not in seen])
            total += skipped_rows(lat, bound, pres_full.terms)
    assert total > 0

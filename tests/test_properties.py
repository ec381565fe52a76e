"""Property tests on generated arrangements (needs ``hypothesis``)."""

from fractions import Fraction
from itertools import combinations
from math import floor

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings, strategies as st

from arrideals import multiplier
from arrideals.arrangement import (
    Arrangement,
    Hyperplane,
    parse_arrangement,
    serialize_arrangement,
)
from arrideals.graded import Polynomial, _check_width
from arrideals.lattice import compute_lattice, rows_in
from arrideals.multiplier import (
    hilbert_function,
    jump_candidates,
    membership,
    presentation,
    support,
    theorem_rows,
    verify_jumps,
)

import helpers
from helpers import generator_presentation_ideal, piece_dims
from fraction_linalg import span


def _normal_form(v):
    """The stored normal of ``v``: equal exactly for proportional vectors."""
    return Hyperplane(tuple(v)).normal


@st.composite
def arrangements(draw, dims=(1, 4), size=7, coef=3, entry=None,
                 mult=st.integers(1, 3)):
    """Distinct hyperplanes with integer coefficients in [-coef, coef] (or
    drawn from ``entry``), multiplicities 1-3 (or drawn from ``mult``)."""
    dim = draw(st.integers(*dims))
    entry = st.integers(-coef, coef) if entry is None else entry
    normal = st.tuples(*[entry] * dim).filter(any)
    normals = draw(st.lists(normal, min_size=1, max_size=size,
                            unique_by=_normal_form))
    mults = draw(st.lists(mult, min_size=len(normals), max_size=len(normals)))
    return Arrangement.from_normals(dim, normals, mults)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(arrangements())
def test_lattice_equals_subset_closure_enumeration(arr):
    lat = compute_lattice(arr)
    assert set(map(helpers.flat_key, lat.flats)) == helpers.subset_closure_flats(arr)
    assert len(lat.flats) == len(set(lat.flats))



@st.composite
def dependent_arrangements(draw):
    """Up to five normals with coefficients in [-9, 9] in dimension 1-5,
    plus up to three combinations a·n_i + c·n_k of them (kept when their
    entries stay in [-9, 9]), so that classes of two or more hyperplanes,
    non-unit pivots and coefficient growth all occur."""
    dim = draw(st.integers(1, 5))
    normal = st.tuples(*[st.integers(-9, 9)] * dim).filter(any)
    normals = draw(st.lists(normal, min_size=1, max_size=5,
                            unique_by=_normal_form))
    keys = {_normal_form(v) for v in normals}
    index = st.integers(0, len(normals) - 1)
    coef = st.sampled_from((-2, -1, 1, 2))
    for i, k, a, c in draw(st.lists(st.tuples(index, index, coef, coef), max_size=3)):
        v = tuple(a * x + c * y for x, y in zip(normals[i], normals[k]))
        if any(v) and max(map(abs, v)) <= 9 and _normal_form(v) not in keys:
            keys.add(_normal_form(v))
            normals.append(v)
    mults = draw(st.lists(st.integers(1, 3), min_size=len(normals),
                          max_size=len(normals)))
    return Arrangement.from_normals(dim, normals, mults)


@st.composite
def ranked_arrangements(draw):
    """k = 3-5 independent normals with coefficients in [-9, 9], up to two
    more, and up to three combinations a·n_i + c·n_k of them, written in
    Q^k or carried into Q^(k+1) or Q^(k+2) by an injective integer map.
    The lattice is enumerated in the k essential coordinates, where the
    last expanded rank reduces 3-vectors: negative minors, minors with a
    common factor and merging classes all occur there."""
    k = draw(st.integers(3, 5))
    normal = st.tuples(*[st.integers(-9, 9)] * k).filter(any)
    normals = draw(st.lists(normal, min_size=k, max_size=k + 2, unique_by=_normal_form))
    assume(span(normals, k).rank == k)
    keys = {_normal_form(v) for v in normals}
    index = st.integers(0, len(normals) - 1)
    coef = st.sampled_from((-3, -2, -1, 1, 2, 3))
    for i, j, a, c in draw(st.lists(st.tuples(index, index, coef, coef), max_size=3)):
        v = tuple(a * x + c * y for x, y in zip(normals[i], normals[j]))
        if any(v) and _normal_form(v) not in keys:
            keys.add(_normal_form(v))
            normals.append(v)
    dim = k + draw(st.integers(0, 2))
    if dim > k:
        columns = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim),
                                min_size=k, max_size=k))
        assume(span(columns, dim).rank == k)
        normals = [tuple(sum(a * col[j] for a, col in zip(v, columns)) for j in range(dim))
                   for v in normals]
    return Arrangement.from_normals(dim, normals)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.one_of(dependent_arrangements(), ranked_arrangements()))
def test_lattice_with_larger_coefficients_equals_subset_closure_enumeration(arr):
    lat = compute_lattice(arr)
    assert set(map(helpers.flat_key, lat.flats)) == helpers.subset_closure_flats(arr)
    assert len(lat.flats) == len(set(lat.flats))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.one_of(arrangements(), dependent_arrangements()))
def test_flats_built_on_first_read_equal_the_eager_build(arr):
    """A lattice builds its irreducible flats and its top flat at once and
    the rest when ``flats`` is first read; they equal every flat built at
    once, and the built objects are reused in ``flats``."""
    lat = compute_lattice(arr)
    irreducibles, top = lat.irreducibles, lat.top
    assert "flats" not in lat.__dict__
    flats, eager_irreducibles = helpers.eager_lattice(arr)
    assert irreducibles == eager_irreducibles
    assert lat.flats == flats
    assert lat.irreducibles is irreducibles and lat.top is top
    assert lat.top == lat.flats[-1] and lat.top is lat.flats[-1]
    for W in irreducibles:
        assert helpers.flat_with_closed(lat, W.closed_set) is W


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
@given(st.one_of(arrangements(), dependent_arrangements()))
def test_irreducibles_match_circuit_oracle(arr):
    lat = compute_lattice(arr)
    circs = circuits(arr)
    comps = {f.closed_set: circuit_components(f.closed_set, circs) for f in lat.proper}
    assert [f.closed_set for f in lat.irreducibles] == [
        f.closed_set for f in lat.proper if len(comps[f.closed_set]) == 1]
    for f in lat.proper:
        parts = helpers.maximal_below(lat.irreducibles, f)
        assert sorted(U.closed_set for U in parts) == comps[f.closed_set]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.one_of(arrangements(), dependent_arrangements()), st.randoms(use_true_random=False))
def test_maximal_below_matches_the_pairwise_scan(arr, rng):
    """For every proper flat, the closed-set index's maximal-below read
    (members indexed highest rank first, in the family's order within a
    rank) equals the pairwise frozenset scan, over the minimal building
    set and over random subsets of the proper flats in random order."""
    lat = compute_lattice(arr)
    proper = lat.proper
    families = [lat.irreducibles, proper]
    families += [rng.sample(proper, rng.randint(1, len(proper))) for _ in range(3)]
    for flats in families:
        for W in proper:
            assert helpers.maximal_below(flats, W) == helpers.minimal_containing(flats, W)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(arrangements(dims=(2, 3), size=5, coef=2),
       st.integers(1, 6), st.integers(2, 3), st.integers(2, 5))
def test_minimal_and_full_building_sets_give_one_ideal(arr, p, q, bound):
    """The paper's theorem: the presentation over any building set, here
    the minimal and the full one, is the same ideal."""
    lat = compute_lattice(arr)
    lam = Fraction(p, q)
    a = generator_presentation_ideal(presentation(lat, lat.irreducibles, lam), bound)
    b = generator_presentation_ideal(presentation(lat, lat.proper, lam), bound)
    assert a.piece_rows == b.piece_rows


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(arrangements(dims=(2, 3), size=5, coef=2), st.integers(1, 4))
def test_verify_jumps_compares_each_candidate_with_the_interval_below(arr, bound):
    """The ideal is constant between candidates, so the answer at c is
    whether the ideal at c differs from the ideal halfway back to the
    previous candidate (or to 0)."""
    lat = compute_lattice(arr)
    gmin = lat.irreducibles
    lam_max = Fraction(3, 2)
    answers = verify_jumps(lat, lam_max, bound)
    cands = jump_candidates(lat, lam_max)
    assert [c for c, _ in answers] == cands
    for prev, (c, jump) in zip([Fraction(0)] + cands, answers):
        at = generator_presentation_ideal(presentation(lat, gmin, c), bound)
        mid = generator_presentation_ideal(presentation(lat, gmin, (prev + c) / 2), bound)
        assert jump == (not helpers.graded_equal(at, mid, bound))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(arrangements(), st.fractions(0, 3, max_denominator=12),
       st.fractions(Fraction(1, 12), 3, max_denominator=12))
def test_rise_table_answers_as_the_exponent_formulas(arr, lam, lam_max):
    """The per-λ formulas the rise table replaced, as oracles: ``support``
    is the gmin flats with λ ≥ r/s; the candidates are the m/s(W) with
    r(W) ≤ m ≤ lam_max·s(W); and ``verify_jumps`` stacks, at each candidate
    in turn, the flats whose exponent rose there with their new exponent,
    in canonical order, except where a hyperplane's rose: there it starts
    a fresh stack from every term with a positive exponent, of which the
    stack takes the ones not on a hyperplane; once every piece up to the
    bound is 0, deg h plus J″'s largest exponent above it, nothing more is
    stacked."""
    lat = compute_lattice(arr)
    gmin = lat.irreducibles
    assert support(lat, lam) == [W for W in gmin if lam >= Fraction(W.rank, W.mult)]
    cands = sorted({Fraction(m, W.mult) for W in gmin
                    for m in range(W.rank, floor(lam_max * W.mult) + 1)})
    assert jump_candidates(lat, lam_max) == cands
    exponents = dict.fromkeys(gmin, 0)

    def zero():  # every piece up to degree 1 of the ideal at the exponents is 0
        e_H = {W.closed_set[0]: e for W, e in exponents.items() if W.rank == 1}
        return sum(e_H.values()) + max([0] + [
            e - sum(e_H.get(k, 0) for k in W.closed_set)
            for W, e in exponents.items() if W.rank > 1]) > 1

    expected = [("new", []), ("add", [])]  # the unit ideal below the first candidate
    for c in cands:
        if zero():
            break
        rose = []
        for W, old in exponents.items():
            e = multiplier._exponent(c, W)
            if e > old:
                exponents[W] = e
                rose.append((W, e))
        if any(W.rank == 1 for W, _ in rose):
            terms = [(W, e) for W, e in exponents.items() if e > 0]
            expected += [("new", terms), ("add", [(W, e) for W, e in terms if W.rank > 1])]
        else:
            expected.append(("add", rose))
    calls = []
    stack = multiplier._Stack

    class Recording(stack):
        def __init__(self, lat, bound, terms):
            calls.append(("new", list(terms)))
            super().__init__(lat, bound, terms)

        def add(self, terms):
            calls.append(("add", list(terms)))
            super().add(terms)

    multiplier._Stack = Recording
    try:
        answers = verify_jumps(lat, lam_max, 1)
    finally:
        multiplier._Stack = stack
    assert [c for c, _ in answers] == cands
    assert calls == (expected if cands else [])


def form_products(arr, summands) -> Polynomial:
    """Σ coef·Π forms over the summands, each a coefficient and indices of
    the arrangement's hyperplanes (taken mod their number)."""
    n = arr.dim
    hps = arr.hyperplanes
    poly = Polynomial.from_terms(n, {})
    for coef, factors in summands:
        term = Polynomial.from_terms(n, {(0,) * n: coef})
        for i in factors:
            normal = hps[i % len(hps)].normal
            form = {tuple(int(j == k) for k in range(n)): c for j, c in enumerate(normal)}
            term = helpers.poly_mul(term, Polynomial.from_terms(n, form))
        poly = helpers.poly_add(poly, term)
    return poly


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(arrangements(dims=(2, 3), size=5, coef=2), st.fractions(0, 2, max_denominator=6),
       st.lists(st.tuples(st.integers(-3, 3), st.lists(st.integers(0, 4), max_size=5)),
                min_size=1, max_size=3))
def test_membership_matches_the_generator_route(arr, lam, summands):
    """``membership`` over all terms at once, with both building sets,
    agrees with piece containment in the generator-built ideal, on sums of
    products of the arrangement's forms (each summand a coefficient and up
    to five form indices)."""
    lat = compute_lattice(arr)
    poly = form_products(arr, summands)
    for building in (lat.irreducibles, lat.proper):
        pres = presentation(lat, building, lam)
        oracle = generator_presentation_ideal(pres, 5)
        assert membership(pres, poly) == helpers.contains_polynomial(oracle, poly)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(arrangements(), st.fractions(0, 3, max_denominator=6), st.integers(1, 10),
       st.lists(st.tuples(st.integers(-3, 3), st.lists(st.integers(0, 6), max_size=6)),
                min_size=1, max_size=3))
# non-reduced inputs above 1 whose J″ is neither 0 nor the unit ideal up to
# the bound, and whose jumps sweep starts several stacks: a triple point, four
# lines in the plane, braid(4) with one double plane
@example(Arrangement.from_normals(3, [(1, -1, 0), (1, 0, -1), (0, 1, -1)], [2, 1, 1]),
         Fraction(7, 4), 7, [(1, [0, 1, 2, 3, 4])])
@example(Arrangement.from_normals(2, [(1, 0), (0, 1), (1, 1), (1, -1)], [1, 2, 3, 1]),
         Fraction(5, 4), 10, [(2, [0, 1, 2, 2, 3, 3]), (1, [1, 1])])
@example(Arrangement.from_normals(4, [(1, -1, 0, 0), (1, 0, -1, 0), (1, 0, 0, -1),
                                      (0, 1, -1, 0), (0, 1, 0, -1), (0, 0, 1, -1)],
                                  [2, 1, 1, 1, 1, 1]),
         Fraction(5, 3), 10, [(1, [0, 0, 1, 2, 3, 4, 5])])
def test_stacking_only_new_rows_changes_no_answer(arr, lam, bound, summands):
    """Factoring out the hyperplane powers and stacking each term's rows
    with j ≥ j0 pivot variables only gives the unfactored stacks of every
    inverse-system row of every term (j0 = 0, ``helpers.EveryRowStack``)
    in ``hilbert_function`` (both building sets), ``theorem_rows`` and
    ``verify_jumps``, for λ up to 3 and multiplicities 1-3;
    ``membership`` agrees with pairing every row."""
    lat = compute_lattice(arr)
    top = lat.flats[-1]

    def every_row(*batches):
        stack = helpers.EveryRowStack(top.rank, bound)
        for terms in batches:
            stack.add([(rows_in(top, W), e) for W, e in terms])
            yield multiplier._lift(stack.dims(), arr.dim - top.rank)

    pres_min = presentation(lat, lat.irreducibles, lam)
    pres_full = presentation(lat, lat.proper, lam)
    seen = {W for W, _ in pres_min.terms}
    extra = [(W, e) for W, e in pres_full.terms if W not in seen]
    for pres in (pres_min, pres_full):
        assert hilbert_function(lat, pres, bound) == next(every_row(pres.terms))
    assert list(theorem_rows(lat, pres_min, pres_full, bound)) == list(
        every_row(pres_min.terms, extra))
    if lam > 0:
        risen = {}
        for c, W, e in multiplier._rises(lat, lam):
            risen.setdefault(c, []).append((W, e))
        cands = sorted(risen)
        dims = list(every_row([], *(risen[c] for c in cands)))
        assert verify_jumps(lat, lam, bound) == [
            (c, before != after) for c, before, after in zip(cands, dims, dims[1:])]
    poly = form_products(arr, summands)
    for pres in (pres_min, pres_full):
        every = [(W.basis_rows, e, 0) for W, e in pres.terms]
        assert membership(pres, poly) == helpers.pairs_to_zero(every, poly)


@st.composite
def coordinate_arrangements(draw):
    """The coordinate hyperplanes of Q^n, n = 1-8, multiplicities 1-3: the
    top flat has rank n, and every gmin term is a hyperplane's."""
    n = draw(st.integers(1, 8))
    mults = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    return Arrangement.from_normals(n, [tuple(int(i == j) for j in range(n))
                                        for i in range(n)], mults)


def _refuses(call) -> bool:
    """Whether ``call`` raises the width guard's ValueError."""
    try:
        call()
    except ValueError as exc:
        assert "monomials" in str(exc), exc
        return True
    return False


_AXES8 = Arrangement.from_normals(8, [tuple(int(i == j) for j in range(8))
                                      for i in range(8)], [3] * 8)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.one_of(arrangements(dims=(1, 3)), coordinate_arrangements()),
       st.integers(0, 12), st.integers(0, 24))
# eight variables, too wide from degree 7 on: at λ = 4 every exponent is
# 12, so degree 7 is answered and degree 12 refused; at λ = 7/6 the
# hyperplanes' exponent is 3 and the top flat's 21, so only the minimal set
# and theorem_rows are refused at degree 7
@example(_AXES8, 7, 24)
@example(_AXES8, 12, 24)
@example(_AXES8, 7, 7)
def test_width_guard_refuses_exactly_when_every_exponent_is_within_the_bound(arr, bound, k):
    """``hilbert_function`` and ``theorem_rows`` refuse exactly when every
    exponent is at most the bound and the guard refuses the top flat's
    rank at the bound; otherwise the largest term leaves every piece 0.
    ``verify_jumps`` starts from the unit ideal, so it refuses exactly when
    there is a candidate and the guard refuses."""
    lat = compute_lattice(arr)
    lam = Fraction(k, 6)
    wide = _refuses(lambda: _check_width(lat.top.rank, bound))
    pres_min = presentation(lat, lat.irreducibles, lam)
    pres_full = presentation(lat, lat.proper, lam)

    def within(pres):
        return all(e <= bound for _, e in pres.terms)

    for pres in (pres_min, pres_full):
        assert _refuses(lambda: hilbert_function(lat, pres, bound)) == (wide and within(pres))
    assert _refuses(lambda: theorem_rows(lat, pres_min, pres_full, bound)) == (
        wide and within(pres_min))
    if bound and k:
        assert _refuses(lambda: verify_jumps(lat, lam, bound)) == (
            wide and bool(jump_candidates(lat, lam)))


@st.composite
def non_essential_arrangements(draw):
    """An arrangement of ``arrangements`` in Q^k (k = 2 or 3, coefficients
    in [-2, 2], multiplicities 1-3) carried into Q^dim, dim = k + 1 or
    k + 2, by an injective integer map: the top flat has rank below dim."""
    inner = draw(arrangements(dims=(2, 3), size=5, coef=2))
    k = inner.dim
    dim = draw(st.integers(k + 1, k + 2))
    columns = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim),
                            min_size=k, max_size=k))
    assume(span(columns, dim).rank == k)
    normals = [tuple(sum(a * col[j] for a, col in zip(h.normal, columns))
                     for j in range(dim)) for h in inner.hyperplanes]
    return Arrangement.from_normals(dim, normals, [h.mult for h in inner.hyperplanes])


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(non_essential_arrangements(), st.integers(1, 6), st.integers(2, 3),
       st.integers(1, 4))
# top rows 6x0 - x2 and 3x1 + x2: the pivot entries are not 1, so the
# restricted rows are not the coordinates on the top rows (see test_lattice)
@example(Arrangement.from_normals(3, [(2, 1, 0), (0, 3, 1), (2, 4, 1)], [1, 1, 2]),
         2, 2, 4)
def test_rank_path_matches_realized_ideals(arr, p, q, bound):
    """hilbert_function, theorem_rows and verify_jumps compute in the top
    flat's essential coordinates and lift to all variables; each equals the
    realized ideals in all variables."""
    lat = compute_lattice(arr)
    assert lat.flats[-1].rank < arr.dim
    lam = Fraction(p, q)
    pres_min = presentation(lat, lat.irreducibles, lam)
    pres_full = presentation(lat, lat.proper, lam)
    a = piece_dims(generator_presentation_ideal(pres_min, bound))
    b = piece_dims(generator_presentation_ideal(pres_full, bound))
    assert hilbert_function(lat, pres_min, bound) == a
    assert hilbert_function(lat, pres_full, bound) == b
    assert theorem_rows(lat, pres_min, pres_full, bound) == (a, b)
    assert verify_jumps(lat, lam, bound) == helpers.realized_jumps(lat, lam, bound)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(arrangements(dims=(2, 3), size=5, coef=2),
       st.fractions(0, 3, max_denominator=6), st.fractions(0, 3, max_denominator=6),
       st.integers(1, 4))
def test_multiplier_ideals_shrink_as_lambda_grows(arr, a, b, bound):
    """J(λ') ⊆ J(λ) for λ' > λ."""
    lat = compute_lattice(arr)
    gmin = lat.irreducibles
    lo, hi = sorted((a, b))
    big = generator_presentation_ideal(presentation(lat, gmin, lo), bound)
    small = generator_presentation_ideal(presentation(lat, gmin, hi), bound)
    assert helpers.graded_contains(big, small, bound)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(arrangements(size=6, entry=st.fractions(-4, 4, max_denominator=5),
                    mult=st.integers(1, 10**6)))
def test_serialize_parse_round_trip(arr):
    assert parse_arrangement(serialize_arrangement(arr)) == arr

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd

import pytest

from arrideals import cli, graded, lattice, multiplier
from arrideals.arrangement import (
    Arrangement,
    braid,
    parse_arrangement,
    serialize_arrangement,
)
from arrideals.errors import InvariantError

from helpers import (
    flat_with_closed,
    generator_presentation_ideal,
    lattice_with_irreducibles,
    piece_dims,
)


@pytest.fixture()
def braid3_file(tmp_path):
    path = tmp_path / "b3.json"
    assert cli.main(["braid", "3", "-o", str(path)]) == 0
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_braid_writes_parseable_file(braid3_file):
    with open(braid3_file) as fh:
        arr = parse_arrangement(fh.read())
    assert arr.dim == 3 and len(arr.hyperplanes) == 3


def test_braid_stdout(capsys):
    code, out, _ = run(capsys, ["braid", "2"])
    assert code == 0
    assert parse_arrangement(out).dim == 2
    # the exact bytes: integer normals with a positive first nonzero entry
    code, out, _ = run(capsys, ["braid", "3"])
    assert code == 0
    assert out == (
        '{\n'
        '  "dim": 3,\n'
        '  "hyperplanes": [\n'
        '    {\n'
        '      "normal": [\n'
        '        "1",\n'
        '        "-1",\n'
        '        "0"\n'
        '      ],\n'
        '      "mult": 1\n'
        '    },\n'
        '    {\n'
        '      "normal": [\n'
        '        "1",\n'
        '        "0",\n'
        '        "-1"\n'
        '      ],\n'
        '      "mult": 1\n'
        '    },\n'
        '    {\n'
        '      "normal": [\n'
        '        "0",\n'
        '        "1",\n'
        '        "-1"\n'
        '      ],\n'
        '      "mult": 1\n'
        '    }\n'
        '  ]\n'
        '}\n'
    )


def test_braid_rejects_small_n(capsys):
    code, _, err = run(capsys, ["braid", "1"])
    assert code == 1
    assert "n >= 2" in err


def test_lattice_text_and_json(capsys, braid3_file):
    code, out, _ = run(capsys, ["lattice", braid3_file])
    assert code == 0
    assert out.splitlines() == [
        "0\t0\t-",
        "1\t1\t0",
        "1\t1\t1",
        "1\t1\t2",
        "2\t3\t0,1,2",
    ]
    code, out, _ = run(capsys, ["lattice", braid3_file, "--json"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 5
    assert doc[0] == {"rank": 0, "s": 0, "closed": []}
    assert doc[-1] == {"rank": 2, "s": 3, "closed": [0, 1, 2]}



def _seeded_arrangement_doc(seed: str, dim: int, count: int) -> dict:
    """Pairwise non-proportional normals in [-3, 3]^dim, multiplicities 1-3,
    drawn in a fixed order from ``random.Random(seed)``."""
    rng = random.Random(seed)
    normals, keys = [], set()
    while len(normals) < count:
        v = [rng.randint(-3, 3) for _ in range(dim)]
        g = 0
        for a in v:
            g = gcd(g, a)
        if not g:
            continue
        lead = next(a for a in v if a)
        key = tuple(a // g * (1 if lead > 0 else -1) for a in v)
        if key in keys:
            continue
        keys.add(key)
        normals.append(v)
    mults = [rng.randint(1, 3) for _ in range(count)]
    return {"dim": dim, "hyperplanes": [{"normal": [str(a) for a in v], "mult": m}
                                        for v, m in zip(normals, mults)]}


@pytest.mark.parametrize("name,flats,json_sha256,rows_sha256,building_sha256", [
    ("braid7", 877,
     "729a1ab410cc5b57f28cd4f8fd6c970dc77ad07055479e131bffade48f259e4a",
     "23735206db0590f6fd491f6049b551ca1c3c8f3b914316536714f9bd151abc52",
     "2b679ac8c846e02451d8bb419160d46185d439ff315b64762ab14e450fe10f82"),
    ("rand6", 12420,
     "ff2c9734c040d91d709f5a388c144f3dd001fd6d117b05a33c84886fd5cb9bf5",
     "8e08fa7492e80da32c339bc215bdfd49dc41761747e91e90044c938f7eab4642",
     "453af40c25b41a6fc7e4d8b67c77639525ccb150feb5749d881250aa44f781df"),
])
def test_lattice_output_digests(capsys, tmp_path, name, flats, json_sha256, rows_sha256,
                                building_sha256):
    """Golden sha256 digests of ``lattice --json``, of every flat's
    (closed set, rank, mult, canonical rows) and of ``building --json`` (the
    irreducible flats), on braid(7) and on a seeded 18-hyperplane
    arrangement in dimension 6: any change to the enumeration must leave
    all three byte-identical."""
    path = tmp_path / f"{name}.json"
    if name == "braid7":
        assert cli.main(["braid", "7", "-o", str(path)]) == 0
    else:
        path.write_text(json.dumps(_seeded_arrangement_doc("arrideals-bench/lattice/1", 6, 18)))
    code, out, _ = run(capsys, ["lattice", str(path), "--json"])
    assert code == 0
    assert len(json.loads(out)) == flats
    assert hashlib.sha256(out.encode()).hexdigest() == json_sha256
    lat = lattice.compute_lattice(parse_arrangement(path.read_text()))
    rows = repr([(f.closed_set, f.rank, f.mult, f.basis_rows) for f in lat.flats])
    assert hashlib.sha256(rows.encode()).hexdigest() == rows_sha256
    code, out, _ = run(capsys, ["building", str(path), "--json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == building_sha256


# one fixed non-reduced arrangement in Q^3: x0 (s 2), x1, x2 (s 3), x0 + x1, x0 - 2 x2 (s 2)
_NONREDUCED_DOC = {"dim": 3, "hyperplanes": [
    {"normal": ["1", "0", "0"], "mult": 2},
    {"normal": ["0", "1", "0"]},
    {"normal": ["0", "0", "1"], "mult": 3},
    {"normal": ["1", "1", "0"]},
    {"normal": ["1", "0", "-2"], "mult": 2},
]}

# the commands whose output no other test pins byte for byte; "member" asks
# once for a polynomial in the ideal at 1/2 and once for one outside it
_GOLDEN_COMMANDS = (
    ("mi", "--lambda", "1/2", "--json"),
    ("mi", "--lambda", "3/2", "--json", "--set", "full"),
    ("support", "--lambda", "1/2"),
    ("resolution",),
    ("jumps", "--max", "1", "--verify"),
    ("hilbert", "--lambda", "4/5"),
    ("verify-theorem", "--lambda", "4/5"),
    ("member", "--lambda", "1/2", "--poly", "{true}"),
    ("member", "--lambda", "1/2", "--poly", "x0*x2"),
)


@pytest.mark.parametrize("name,member_true,sha256", [
    ("braid5", "x0*x2 - x0*x3 - x1*x2 + x1*x3",
     "fa730257174c9850060c9d6897630e9201c7fdf3c78cd3626e6c1a32431511ef"),
    ("nonreduced", "x0^2*x2 - 2*x0*x2^2",
     "f7e815587d5483e5384c10c5030f6f6d7d7ee1c13a55583097a1f1bf91f1047e"),
])
def test_command_output_digests(capsys, tmp_path, name, member_true, sha256):
    """Golden sha256 digest of the stdout and stderr of every command in
    ``_GOLDEN_COMMANDS``, in order, on braid(5) and on a fixed non-reduced
    arrangement: any change to the presentation or the graded engine must
    leave all of them byte-identical."""
    path = tmp_path / f"{name}.json"
    if name == "braid5":
        assert cli.main(["braid", "5", "-o", str(path)]) == 0
    else:
        path.write_text(json.dumps(_NONREDUCED_DOC))
    transcript = []
    for command, *options in _GOLDEN_COMMANDS:
        argv = [command, str(path)] + [o.format(true=member_true) for o in options]
        code, out, err = run(capsys, argv)
        assert code == 0, (argv, err)
        transcript.append(f"$ {' '.join(argv[:1] + argv[2:])}\n{out}{err}")
    assert transcript[-2].endswith("\ntrue\n") and transcript[-1].endswith("\nfalse\n")
    digest = hashlib.sha256("".join(transcript).encode()).hexdigest()
    assert digest == sha256, "".join(transcript)


def test_building_listing_and_verify(capsys, braid3_file):
    code, out, _ = run(capsys, ["building", braid3_file])
    assert code == 0
    assert len(out.splitlines()) == 4
    code, out, _ = run(capsys, ["building", braid3_file, "--set", "full", "--verify"])
    assert code == 0
    assert out.splitlines()[0] == "building set OK (4 flats)"


def test_building_verify_on_the_minimal_set(capsys, tmp_path, monkeypatch):
    """On the minimal set ``building --verify`` decomposes every flat that is
    not a member: braid(6) passes, so does one double point, a set of one
    flat, and on a braid(3) lattice that lists only its hyperplanes as
    irreducible the check fails at the top flat as an invariant
    violation."""
    path = str(tmp_path / "b6.json")
    assert cli.main(["braid", "6", "-o", path]) == 0
    code, out, err = run(capsys, ["building", path, "--verify"])
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "building set OK (57 flats)"
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"dim": 1, "hyperplanes": [{"normal": ["1"], "mult": 2}]}))
    code, out, err = run(capsys, ["building", str(point), "--verify"])
    assert (code, out, err) == (0, "building set OK (1 flat)\n1\t2\t0\n", "")

    def hyperplanes(arr):
        lat = lattice.compute_lattice(arr)
        return lattice_with_irreducibles(lat, [W for W in lat.irreducibles if W.rank == 1])

    path = str(tmp_path / "b3.json")
    assert cli.main(["braid", "3", "-o", path]) == 0
    monkeypatch.setattr(cli, "compute_lattice", hyperplanes)
    code, out, err = run(capsys, ["building", path, "--verify"])
    assert (code, out) == (2, "")
    assert err == ("internal invariant violation: building set check failed "
                   "at flat with closed set [0, 1, 2]\n")


def test_mi(capsys, braid3_file):
    code, out, _ = run(capsys, ["mi", braid3_file, "--lambda", "2/3"])
    assert code == 0
    assert out.splitlines() == ["0,1,2\t2\t3\t1"]
    code, out, _ = run(capsys, ["mi", braid3_file, "--lambda", "0/1"])
    assert (code, out.strip()) == (0, "(1)")
    code, out, _ = run(capsys, ["mi", braid3_file, "--lambda", "1", "--json"])
    doc = json.loads(out)
    assert doc["lambda"] == "1" and doc["unit"] is False
    assert doc["terms"][-1] == {"rank": 2, "s": 3, "closed": [0, 1, 2], "exponent": 2}


def test_lct(capsys, braid3_file):
    code, out, _ = run(capsys, ["lct", braid3_file])
    assert (code, out.strip()) == (0, "2/3")


def test_support(capsys, braid3_file):
    code, out, _ = run(capsys, ["support", braid3_file, "--lambda", "2/3"])
    assert code == 0
    assert out.splitlines() == ["2\t3\t0,1,2"]


def test_jumps(capsys, braid3_file):
    code, out, _ = run(capsys, ["jumps", braid3_file, "--max", "1"])
    assert code == 0
    assert out.splitlines() == ["2/3", "1"]
    code, out, _ = run(capsys, ["jumps", braid3_file, "--max", "1", "--verify"])
    assert code == 0
    assert out.splitlines() == ["2/3\tverified", "1\tverified"]


def test_member(capsys, braid3_file):
    code, out, _ = run(
        capsys, ["member", braid3_file, "--lambda", "2/3", "--poly", "x0 - x1"]
    )
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run(
        capsys, ["member", braid3_file, "--lambda", "2/3", "--poly", "x0"]
    )
    assert (code, out.strip()) == (0, "false")
    code, _, err = run(
        capsys, ["member", braid3_file, "--lambda", "2/3", "--poly", "x9"]
    )
    assert code == 1 and "out of range" in err


def test_member_answers_before_the_width_guard(capsys, tmp_path, braid3_file):
    """The unit ideal contains every polynomial, however wide its degree;
    a component of degree below deg h plus J″'s largest exponent rules a
    polynomial out, also when it or another component is wider than the
    guard admits."""
    start = time.perf_counter()
    code, out, err = run(capsys, ["member", braid3_file, "--lambda", "0",
                                  "--poly", "x0^50000"])
    assert time.perf_counter() - start < 2
    assert (code, out, err) == (0, "true\n", "")
    b5 = str(tmp_path / "b5.json")
    assert cli.main(["braid", "5", "-o", b5]) == 0
    # at 2/3 the top flat of braid(5) has exponent 3 and x1 has degree 1;
    # x0^40 alone spans more monomials than the guard admits
    code, out, err = run(capsys, ["member", b5, "--lambda", "2/3",
                                  "--poly", "x0^40 + x1"])
    assert (code, out, err) == (0, "false\n", "")
    code, out, err = run(capsys, ["member", b5, "--lambda", "2/3", "--poly", "x0^40"])
    assert code == 1 and "monomials" in err
    # at 1 on braid(6), h = f has degree 15, and degree 14 in six variables
    # has 11628 monomials
    b6 = str(tmp_path / "b6.json")
    assert cli.main(["braid", "6", "-o", b6]) == 0
    start = time.perf_counter()
    code, out, err = run(capsys, ["member", b6, "--lambda", "1", "--poly", "x0^14"])
    assert time.perf_counter() - start < 2
    assert (code, out, err) == (0, "false\n", "")


def test_resolution(capsys, braid3_file):
    code, out, _ = run(capsys, ["resolution", braid3_file])
    assert code == 0
    assert out.splitlines() == ["0\t0\t1", "1\t0\t1", "2\t0\t1", "0,1,2\t1\t3"]


def test_hilbert(capsys, braid3_file):
    # default bound is 2 plus the exponent total, here 2 + 1
    code, out, _ = run(capsys, ["hilbert", braid3_file, "--lambda", "2/3"])
    assert (code, out.strip()) == (0, "0 2 5 9")
    code, out, _ = run(
        capsys, ["hilbert", braid3_file, "--lambda", "2/3", "--degree", "4"]
    )
    assert (code, out.strip()) == (0, "0 2 5 9 14")


def test_hilbert_in_high_dimension(capsys, tmp_path):
    # one variable per recursion level would overflow the interpreter stack
    dim = 1200
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(
        {"dim": dim, "hyperplanes": [{"normal": ["1"] + ["0"] * (dim - 1)}]}
    ))
    code, out, err = run(
        capsys, ["hilbert", str(path), "--lambda", "1", "--degree", "1"]
    )
    assert (code, out, err) == (0, "0 1\n", "")


def test_capped_default_degree_is_noted(capsys, braid3_file):
    """The presentation at lambda 5 asks for degree 31 (one term has e = 14);
    the default is capped at 10 and stderr says so, stdout is unchanged."""
    note = "note: default degree bound 31 capped at 10; set --degree to override\n"
    code, out, err = run(capsys, ["hilbert", braid3_file, "--lambda", "5"])
    assert (code, out, err) == (0, " ".join(["0"] * 11) + "\n", note)
    code, out, err = run(capsys, ["verify-theorem", braid3_file, "--lambda", "5"])
    assert (code, out.splitlines()[-1], err) == (0, "EQUAL up to degree 10", note)
    # an uncapped default or an explicit --degree prints no note
    for argv in (["hilbert", braid3_file, "--lambda", "2/3"],
                 ["hilbert", braid3_file, "--lambda", "5", "--degree", "3"],
                 ["verify-theorem", braid3_file, "--lambda", "2/3"]):
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")


def test_degrees_below_every_exponent_are_not_width_checked(capsys, tmp_path):
    """At lambda 1 the top flat of braid(7) has e = 16 above the capped
    bound 10, so every piece is 0 and none is built, although degree 10 in
    seven variables has 8008 monomials, over the width limit."""
    b7 = str(tmp_path / "b7.json")
    assert cli.main(["braid", "7", "-o", b7]) == 0
    note = "note: default degree bound {} capped at 10; set --degree to override\n"
    code, out, err = run(capsys, ["hilbert", b7, "--lambda", "1"])
    assert (code, out, err) == (0, " ".join(["0"] * 11) + "\n", note.format(473))
    code, out, err = run(capsys, ["verify-theorem", b7, "--lambda", "1"])
    assert (code, out.splitlines()[-1], err) == (0, "EQUAL up to degree 10",
                                                 note.format(2265))
    assert graded.MAX_PIECE_WIDTH < 8008
    # one hyperplane in Q^3 at degree 99999, below the exponent 100000:
    # no piece is built, and the zeros are not summed per degree either
    line = tmp_path / "line3.json"
    line.write_text(json.dumps({"dim": 3, "hyperplanes": [{"normal": ["1", "0", "0"]}]}))
    start = time.perf_counter()
    code, out, err = run(capsys, ["hilbert", str(line), "--lambda", "100000",
                                  "--degree", "99999"])
    assert time.perf_counter() - start < 2
    assert (code, out, err) == (0, " ".join(["0"] * 100000) + "\n", "")


def test_oversized_degree_is_refused(capsys, tmp_path):
    """A degree wider than graded.MAX_PIECE_WIDTH monomials, counted in the
    essential variables, ends in an error before anything is allocated.
    The sizes are chosen so that, without the guard, the commands would
    still finish, only slowly."""
    # one hyperplane in dimension 8 has one essential variable
    line = tmp_path / "d8.json"
    line.write_text(json.dumps(
        {"dim": 8, "hyperplanes": [{"normal": ["1", "-1"] + ["0"] * 6}]}))
    start = time.perf_counter()
    code, out, err = run(capsys, ["hilbert", str(line), "--lambda", "1", "--degree", "7"])
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (0, "0 1 8 36 120 330 792 1716\n", "")
    axes = tmp_path / "axes8.json"
    axes.write_text(json.dumps({"dim": 8, "hyperplanes": [
        {"normal": ["0"] * i + ["1"] + ["0"] * (7 - i)} for i in range(8)]}))
    b5 = str(tmp_path / "b5.json")
    assert cli.main(["braid", "5", "-o", b5]) == 0
    for argv, width in ((["hilbert", str(axes), "--lambda", "1", "--degree", "7"], 3432),
                        (["member", b5, "--lambda", "1", "--poly", "x0^14"], 3060)):
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and f"{width} monomials" in err
        assert width > graded.MAX_PIECE_WIDTH


@pytest.mark.parametrize("doc,argv,total", [
    ("line3", ["hilbert", "--lambda", "1", "--degree", "100000"], 100001),
    ("line3", ["jumps", "--max", "1", "--verify", "--degree", "100000"], 100001),
    ("point", ["verify-theorem", "--lambda", "1", "--degree", "10000000"], 10000001),
    ("braid3", ["hilbert", "--lambda", "1", "--degree", "1000"], 501501),
    ("point", ["member", "--lambda", "1", "--poly", "x0^3000000"], 3000001),
])
def test_high_degree_in_few_variables_is_refused(capsys, tmp_path, braid3_file,
                                                 doc, argv, total):
    """With one or two essential variables every degree is narrow, so the
    width limit alone admits degrees that would run for minutes; the
    monomials of all degrees up to the bound are counted too."""
    docs = {"line3": {"dim": 3, "hyperplanes": [{"normal": ["1", "0", "0"]}]},
            "point": {"dim": 1, "hyperplanes": [{"normal": ["1"], "mult": 2}]}}
    path = braid3_file
    if doc in docs:
        path = str(tmp_path / f"{doc}.json")
        with open(path, "w") as fh:
            json.dump(docs[doc], fh)
    start = time.perf_counter()
    code, out, err = run(capsys, argv[:1] + [path] + argv[1:])
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and f"have {total} monomials" in err
    assert total > graded.MAX_TOTAL_MONOMIALS


def test_gmin_computed_once_per_lattice(capsys, tmp_path, monkeypatch):
    """gmin comes with the lattice's one enumeration, and a jumps sweep
    reads it through one rise table."""
    path = str(tmp_path / "b5.json")
    assert cli.main(["braid", "5", "-o", path]) == 0
    enumerations, rise_calls = [], []
    flats_by_level = lattice._flats_by_level
    rises = multiplier._rises

    def counting_flats_by_level(normals, dim):
        enumerations.append(dim)
        return flats_by_level(normals, dim)

    def recording_rises(lat, lam_max):
        rise_calls.append(lat)
        return rises(lat, lam_max)

    monkeypatch.setattr(lattice, "_flats_by_level", counting_flats_by_level)
    monkeypatch.setattr(multiplier, "_rises", recording_rises)
    code, out, _ = run(capsys, ["jumps", path, "--max", "1", "--verify"])
    assert code == 0 and len(out.splitlines()) == 9
    assert len(enumerations) == 1
    # one rise table gives the candidates and the terms that rise at each
    assert len(rise_calls) == 1


def record_stacking(monkeypatch):
    """Two lists: each batch of (flat, exponent, j0) terms that a stack
    takes, J″'s terms with a positive exponent and their j0, with the
    stack, and each (forms, exponent, j0, degree, row) that a term's power
    yields.  A stack that is already zero takes no batch."""
    stacked, rows = [], []
    adding = []
    add = multiplier._Stack.add
    first_new_rows = multiplier._Stacked.first_new_rows
    power_rows = graded._Power.rows

    def recording_add(stack, terms):
        adding.append(stack)
        add(stack, terms)
        adding.pop()

    def recording_first_new_rows(seen, terms):
        batch = list(first_new_rows(seen, terms))
        stacked.append((adding[-1], batch))
        return iter(batch)

    def recording_rows(power, d):
        for g in power_rows(power, d):
            rows.append((power.forms, power.exponent, power.j0, d, g))
            yield g

    monkeypatch.setattr(multiplier._Stack, "add", recording_add)
    monkeypatch.setattr(multiplier._Stacked, "first_new_rows", recording_first_new_rows)
    monkeypatch.setattr(graded._Power, "rows", recording_rows)
    return stacked, rows


def factored(terms):
    """The degree of h, the product of the hyperplane terms' powers, and
    the terms (W, e − Σ_(H ∈ closed(W)) e_H) of J = h·J″, positive only."""
    e_H = {W.closed_set[0]: e for W, e in terms if W.rank == 1}
    reduced = [(W, e - sum(e_H.get(k, 0) for k in W.closed_set))
               for W, e in terms if W.rank > 1]
    return sum(e_H.values()), [(W, e) for W, e in reduced if e > 0]


def first_rows(terms):
    """(W, e, j0) for each term, j0 the largest exponent of a term before
    it on a flat whose closed set lies in W's (a pairwise scan)."""
    return [(W, e, max((f for U, f in terms[:i]
                        if set(U.closed_set) <= set(W.closed_set)), default=0))
            for i, (W, e) in enumerate(terms)]


def segment_stacks(lat, lam_max, bound):
    """The stacks a jumps sweep should make, from the exponent formulas:
    a fresh one for the unit ideal and wherever a hyperplane's exponent
    rises, holding the factored presentation there, and after it, per
    candidate, the terms whose reduced exponent rose.  The sweep stops
    after the first candidate where every piece is 0, J″'s largest
    exponent above bound − deg h, and a stack that is zero from the start
    (deg h above ``bound``) takes no batch.  Each is its bound − deg h and
    its batches of (W, e, j0) terms."""
    gmin = lat.irreducibles
    stacks, powers, old = [], None, {}
    for c in [0] + multiplier.jump_candidates(lat, lam_max):
        terms = multiplier.presentation(lat, gmin, c).terms
        deg_h, reduced = factored(terms)
        e_H = {W: e for W, e in terms if W.rank == 1}
        if e_H != powers:
            powers = e_H
            stacks.append((bound - deg_h, [reduced]))
        else:
            stacks[-1][1].append([(W, e) for W, e in reduced if e > old.get(W, 0)])
        old = dict(reduced)
        if max([0] + [e for _, e in reduced]) > bound - deg_h:  # every piece is 0
            break
    out = []
    for low, batches in stacks:
        flat = first_rows([t for batch in batches for t in batch])
        split = []
        for batch in batches:
            split.append(flat[:len(batch)])
            flat = flat[len(batch):]
        out.append((low, split))
    return [(low, batches) for low, batches in out if low >= 0]


def recorded_stacks(stacked):
    """The recorded batches grouped by stack: its bound and its batches."""
    out = []
    for stack, terms in stacked:
        if not out or out[-1][0] is not stack:
            out.append((stack, []))
        out[-1][1].append(terms)
    return [(stack.bound - stack.shift, batches) for stack, batches in out]


def test_jumps_sweep_stacks_each_term_once(capsys, tmp_path, monkeypatch):
    """A jumps sweep stacks J″ = J/h, h the product of the hyperplane
    powers: no hyperplane term is stacked, each other term (W, e) goes in
    as (W, e − Σ_(H ∈ closed(W)) e_H), and a fresh stack starts wherever a
    hyperplane's exponent rises.  Within a stack each (flat, exponent)
    pair goes in once, with j0 from the flats below it stacked before;
    on braid(5) a rise yields only the rows with j = e − 1 pivot
    variables, the ones I^(e−1) does not span."""
    b4 = braid(4)
    cases = [(braid(5), "1", 4),
             (Arrangement.from_normals(4, [h.normal for h in b4.hyperplanes],
                                       [2, 1, 1, 1, 1, 1]), "2", 6),
             (Arrangement.from_normals(3, [(1, -1, 0), (1, 0, -1), (0, 1, -1)],
                                       [2, 1, 1]), "2", 6)]
    stacked, rows = record_stacking(monkeypatch)
    for k, (arr, lam_max, degree) in enumerate(cases):
        path = str(tmp_path / f"a{k}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_arrangement(arr))
        lat = lattice.compute_lattice(arr)
        top = lat.flats[-1]
        stacked.clear()
        rows.clear()
        code, out, _ = run(capsys, ["jumps", path, "--max", lam_max, "--verify",
                                    "--degree", str(degree)])
        assert code == 0
        assert len(out.splitlines()) == len(multiplier.jump_candidates(lat, Fraction(lam_max)))
        got = recorded_stacks(stacked)
        assert got == segment_stacks(lat, Fraction(lam_max), degree)
        for _, batches in got:
            terms = [(W, e) for batch in batches for W, e, _ in batch]
            assert len(terms) == len(set(terms))
            assert all(W.rank > 1 for W, _ in terms)
        assert {r[:3] for r in rows} <= {(lattice.rows_in(top, W), e, j0)
                                         for _, terms in stacked for W, e, j0 in terms}
    # braid(5): below 1 every hyperplane exponent is 0 and h = 1; at 1 the
    # ten hyperplanes rise, h = f has degree 10 > 6, and the stack made
    # there is zero and takes no batch.  Below 1 the exponents reach 1 (10
    # planes), 3 (5 flats of rank 3) and 6 (the top flat), each one step at
    # a time.  At degree 4 the sweep stops at 4/5, where the top flat's
    # exponent 5 leaves every piece 0: the third step of the rank-3 flats
    # and the sixth of the top flat are never stacked.
    lat = lattice.compute_lattice(braid(5))
    for bound, count in ((6, 10 + 15 + 6), (4, 10 + 10 + 5)):
        stacks = segment_stacks(lat, Fraction(1), bound)
        assert len(stacks) == 1
        terms = [t for batch in stacks[0][1] for t in batch]
        assert len(terms) == count
        assert all(j0 == e - 1 for _, e, j0 in terms)
        stacked.clear()
        rows.clear()
        assert multiplier.verify_jumps(lat, 1, bound)
        assert recorded_stacks(stacked) == stacks
        assert rows and all(j0 == e - 1 for _, e, j0, _, _ in rows)


def test_verify_theorem_stacks_only_the_full_sets_other_terms(capsys, tmp_path,
                                                             monkeypatch):
    """The minimal terms are stacked once as J″'s, with the hyperplane
    powers factored out, then only the full set's terms on reducible flats,
    reduced by the same powers, and those yield no row on braid(4) and
    braid(5): a smaller flat's stacked power spans each of their rows."""
    for n, cases in ((4, ((Fraction(1, 2), 4, 0), (Fraction(1), 4, 3),
                          (Fraction(5, 3), 9, 3))),
                     (5, ((Fraction(4, 5), 7, 10), (Fraction(1), 7, 25),
                          (Fraction(5, 3), 13, 25)))):
        path = str(tmp_path / f"b{n}.json")
        assert cli.main(["braid", str(n), "-o", path]) == 0
        lat = lattice.compute_lattice(braid(n))
        top = lat.flats[-1]
        stacked, rows = record_stacking(monkeypatch)
        # braid(4): at 1/2 every reducible flat has exponent 0, at 1 and 5/3
        # three have 1 and 2; braid(5): 10 reducible flats at 4/5, 25 at 1
        # and 5/3.  At 1, h = f has degree 6 or 10 and nothing is stacked; at
        # 5/3 the degree is deg f + 3 and the triple points stack their rows
        for lam, degree, reducible in cases:
            stacked.clear()
            rows.clear()
            code, out, _ = run(capsys, ["verify-theorem", path, "--lambda", str(lam),
                                        "--degree", str(degree)])
            assert code == 0 and out.splitlines()[-1] == f"EQUAL up to degree {degree}"
            pres_min = multiplier.presentation(lat, lat.irreducibles, lam)
            extra = [(W, e) for W, e in multiplier.presentation(
                lat, lat.proper, lam).terms if W not in lat.irreducibles]
            assert len(extra) == reducible
            assert all(W.rank > 1 for W, _ in extra)
            deg_h, reduced = factored(pres_min.terms)
            # the same hyperplane powers reduce the full set's other terms
            _, extra_reduced = factored([(W, e) for W, e in pres_min.terms
                                         if W.rank == 1] + extra)
            terms = first_rows(reduced + extra_reduced)
            if deg_h > degree:
                assert stacked == []
                continue
            assert len(stacked) == 2
            assert [(stack.bound - stack.shift, batch) for stack, batch in stacked] == [
                (degree - deg_h, terms[:len(reduced)]),
                (degree - deg_h, terms[len(reduced):])]
            assert all(j0 >= e for _, e, j0 in terms[len(reduced):])
            assert {r[:3] for r in rows} <= {(lattice.rows_in(top, W), e, j0)
                                             for W, e, j0 in terms[:len(reduced)]}
            assert rows or not reducible


@pytest.mark.parametrize("closed, first", [((0, 1, 2, 3, 4, 5), 2), ((0, 1, 3), 3)])
def test_verify_theorem_reports_where_the_ideals_differ(capsys, tmp_path, monkeypatch,
                                                       closed, first):
    """With an irreducible flat of braid(4) (the top flat, a triple point)
    left out of the minimal set, the two ideals differ at λ = 5/6; the
    full ideal lies in the minimal one, so the command prints both rows and
    fails as an invariant violation naming the first degree where the
    realized pieces differ."""
    path = str(tmp_path / "b4.json")
    assert cli.main(["braid", "4", "-o", path]) == 0

    def without_flat(arr):
        lat = lattice.compute_lattice(arr)
        return lattice_with_irreducibles(
            lat, [W for W in lat.irreducibles if W.closed_set != closed])

    lat = without_flat(braid(4))
    assert flat_with_closed(lat, closed) in lattice.compute_lattice(braid(4)).irreducibles
    assert flat_with_closed(lat, closed) not in lat.irreducibles
    a = generator_presentation_ideal(
        multiplier.presentation(lat, lat.irreducibles, Fraction(5, 6)), 6)
    b = generator_presentation_ideal(
        multiplier.presentation(lat, lat.proper, Fraction(5, 6)), 6)
    assert first == next(d for d in range(7) if a.piece_rows[d] != b.piece_rows[d])
    monkeypatch.setattr(cli, "compute_lattice", without_flat)
    code, out, err = run(capsys, ["verify-theorem", path, "--lambda", "5/6", "--degree", "6"])
    assert code == 2
    assert out.splitlines() == [
        "minimal: " + " ".join(map(str, piece_dims(a))),
        "full:    " + " ".join(map(str, piece_dims(b))),
    ]
    assert err == ("internal invariant violation: the minimal and full building "
                   f"sets give different ideals at degree {first}\n")


def test_commands_on_the_minimal_set_build_no_other_flat(capsys, tmp_path, monkeypatch):
    """lct, building, jumps, hilbert and member read only the irreducible
    flats and the top flat, so the lattice never builds its other flats;
    lattice and building --set full do."""
    path = str(tmp_path / "b5.json")
    assert cli.main(["braid", "5", "-o", path]) == 0
    built = []

    def recording(arr):
        built.append(lattice.compute_lattice(arr))
        return built[-1]

    monkeypatch.setattr(cli, "compute_lattice", recording)
    for argv, read in (
            (["lct", path], False),
            (["building", path], False),
            (["jumps", path, "--max", "1", "--verify", "--degree", "4"], False),
            (["hilbert", path, "--lambda", "2/3", "--degree", "4"], False),
            (["member", path, "--lambda", "2/3", "--poly", "x0^2 - x1^2"], False),
            (["lattice", path], True),
            (["building", path, "--set", "full"], True)):
        code, _, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert ("flats" in built[-1].__dict__) is read, argv


def test_jumps_default_degree(capsys, tmp_path):
    """Without --degree, jumps --verify truncates where hilbert would at
    --max: 2 plus the exponent total, capped at 10 with a note."""
    path = str(tmp_path / "b5.json")
    assert cli.main(["braid", "5", "-o", path]) == 0
    code, out, err = run(capsys, ["jumps", path, "--max", "1", "--verify"])
    assert code == 0
    assert err == "note: default degree bound 59 capped at 10; set --degree to override\n"
    assert out.splitlines() == [
        "2/5\tverified", "1/2\tverified", "3/5\tverified", "2/3\tverified",
        "7/10\tnot detected up to degree 10", "4/5\tverified", "5/6\tverified",
        "9/10\tverified", "1\tverified"]
    # an explicit degree keeps its wording
    code, out, err = run(capsys, ["jumps", path, "--max", "1", "--verify", "--degree", "4"])
    assert (code, err) == (0, "")
    assert "1\tnot detected up to degree 4" in out.splitlines()


def test_verify_theorem(capsys, braid3_file):
    code, out, _ = run(capsys, ["verify-theorem", braid3_file, "--lambda", "2/3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].startswith("EQUAL up to degree")


def test_deterministic_output(capsys, braid3_file):
    _, first, _ = run(capsys, ["lattice", braid3_file, "--json"])
    _, second, _ = run(capsys, ["lattice", braid3_file, "--json"])
    assert first == second


def test_one_parser_serves_every_call(capsys, braid3_file):
    """``main`` builds its parser once per process: a run of different
    subcommands, a usage error and a refused value among them, prints the
    same bytes and exit codes as the same calls each on a fresh parser."""
    calls = [["lct", braid3_file], ["mi", braid3_file, "--lambda", "2/3", "--json"],
             ["mi", braid3_file], ["jumps", braid3_file, "--max", "1", "--verify"],
             ["member", braid3_file, "--lambda", "2/3", "--poly", "x5"],
             ["hilbert", braid3_file, "--lambda", "2/3", "--set", "full"],
             ["member", braid3_file, "--lambda", "1", "--poly", "x0^2 - x1^2"],
             ["jumps", braid3_file, "--max", "1/0"], ["lct", braid3_file]]
    cli.build_parser.cache_clear()
    shared = [run(capsys, argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, argv))
    assert shared == fresh
    assert cli.build_parser() is cli.build_parser()
    assert [code for code, _, _ in shared] == [0, 0, 1, 0, 1, 0, 0, 1, 0]
    assert shared[4][2] == "error: variable x5 out of range (have x0..x2) at position 0\n"


def test_usage_errors(capsys, braid3_file):
    code, _, err = run(capsys, ["mi", braid3_file, "--lambda", "0.5"])
    assert code == 1 and "invalid" in err
    code, _, err = run(capsys, ["mi", braid3_file])
    assert code == 1 and "--lambda" in err
    code, _, err = run(capsys, ["mi", braid3_file, "--lambda", "1", "--bogus"])
    assert code == 1
    code, _, err = run(capsys, ["lct", "/no/such/file"])
    assert code == 1


@pytest.mark.parametrize("argv, reason", [
    (["mi", "--lambda", "0.5"], "invalid value '0.5': bad rational '0.5' (expected 'p' or 'p/q')"),
    (["jumps", "--max", "1/0"], "invalid value '1/0': bad rational '1/0' (zero denominator)"),
    (["hilbert", "--lambda", "1", "--degree", "0"], "invalid value '0': must be >= 1"),
    (["jumps", "--max", "1", "--degree", "x"], "invalid value 'x': invalid literal for int()"),
    (["jumps", "--max", "1", "--degree", "7"], "argument --degree: not allowed without --verify"),
])
def test_type_errors_say_why(capsys, braid3_file, argv, reason):
    """A refused option value prints the reason, and no private helper name;
    --degree only truncates a verification, so it needs --verify."""
    code, out, err = run(capsys, [argv[0], braid3_file, *argv[1:]])
    assert (code, out) == (1, "")
    assert reason in err and err.count("\n") == 1
    assert " _" not in err and "'_" not in err


@pytest.mark.parametrize("flags", [[], ["--verify"], ["--verify", "--degree", "3"]])
@pytest.mark.parametrize("lam_max", ["0", "-1", "-1/2"])
def test_non_positive_jumps_max_has_one_message(capsys, braid3_file, lam_max, flags):
    """A --max of 0 or less is refused with the same message with or
    without --verify, also where the default degree reads --max first."""
    code, out, err = run(capsys, ["jumps", braid3_file, f"--max={lam_max}", *flags])
    assert (code, out, err) == (1, "", f"error: lambda bound must be > 0, got {lam_max}\n")


@pytest.mark.parametrize("argv, message", [
    (["mi", "--lambda"], "lambda must be >= 0"),
    (["support", "--lambda"], "lambda must be >= 0"),
    (["member", "--poly", "x0", "--lambda"], "lambda must be >= 0"),
    (["hilbert", "--lambda"], "lambda must be >= 0"),
    (["verify-theorem", "--lambda"], "lambda must be >= 0"),
    (["jumps", "--max"], "lambda bound must be > 0"),
])
def test_negative_rational_written_with_a_space(capsys, braid3_file, argv, message):
    """A negative rational after a space is the option's value, not an
    option: every rational flag reaches the program's own message."""
    code, out, err = run(capsys, [argv[0], braid3_file, *argv[1:], "-1/2"])
    assert (code, out, err) == (1, "", f"error: {message}, got -1/2\n")


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2, "hyperplanes": [{"normal": ["0.5", "1"]}]}')
    code, _, err = run(capsys, ["lct", str(bad)])
    assert code == 1 and "bad rational" in err


def test_missing_file_is_a_user_error(capsys, tmp_path):
    code, out, err = run(capsys, ["lattice", str(tmp_path / "missing.json")])
    assert code == 1 and out == "" and err.startswith("error:")


def test_oversized_lattice_and_memory_exhaustion_exit_1(capsys, braid3_file, monkeypatch):
    """A lattice past the flat budget, and running out of memory anywhere,
    end in one ``error:`` line and exit code 1, with no traceback."""
    monkeypatch.setattr(lattice, "MAX_FLATS", 4)
    code, out, err = run(capsys, ["lct", braid3_file])
    assert (code, out) == (1, "")
    assert err == "error: the lattice has more than 4 flats (reached at rank 1 of 2), " \
                  "more than supported\n"

    def exhausted(arr):
        raise MemoryError

    monkeypatch.setattr(cli, "compute_lattice", exhausted)
    code, out, err = run(capsys, ["lattice", braid3_file])
    assert (code, out) == (1, "")
    assert err.startswith("error: out of memory") and err.count("\n") == 1


def test_reader_closing_the_pipe_is_not_an_error(tmp_path):
    """``lattice b8.json --json | head -1``: the output is far larger than a
    pipe holds, so the write fails once the reader has gone."""
    path = tmp_path / "b8.json"
    assert cli.main(["braid", "8", "-o", str(path)]) == 0
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "arrideals", "lattice", str(path), "--json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"[\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_invariant_violation_exit_code(capsys, braid3_file, monkeypatch):
    def boom(lat):
        raise InvariantError("synthetic failure")

    monkeypatch.setattr(cli.mmod, "lct", boom)
    code, _, err = run(capsys, ["lct", braid3_file])
    assert code == 2 and "invariant" in err


def test_every_subcommand_has_help(capsys):
    for name in ("braid", "lattice", "building", "mi", "lct", "support",
                 "jumps", "member", "resolution", "hilbert", "verify-theorem"):
        with pytest.raises(SystemExit) as exc:
            cli.main([name, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out

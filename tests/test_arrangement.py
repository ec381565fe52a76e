import json
from fractions import Fraction

import pytest

from arrideals.arrangement import (
    Arrangement,
    Hyperplane,
    ParseError,
    braid,
    parse_arrangement,
    parse_rational,
    serialize_arrangement,
)


def test_parse_rational():
    assert parse_rational("1") == 1
    assert parse_rational("-3") == -3
    assert parse_rational("2/7") == Fraction(2, 7)
    assert parse_rational("2/4") == Fraction(1, 2)
    for bad in ("0.5", "1/-2", "", "a", "1/0", "+1", " 1"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_canonical_normal():
    """A normal is stored as the primitive integer vector with a positive
    first nonzero entry."""
    assert Hyperplane((2, -2, 0)).normal == (1, -1, 0)
    assert Hyperplane((0, Fraction(-1, 2), 1)).normal == (0, 1, -2)
    # the former lead-1 form (1, 3/2) and the stored form differ
    assert Hyperplane((1, Fraction(3, 2))).normal == (2, 3)
    assert Hyperplane((Fraction(-4, 3), -2)).normal == (2, 3)
    assert all(type(a) is int for a in Hyperplane((Fraction(6, 5), 0)).normal)
    with pytest.raises(ValueError, match="zero normal"):
        Hyperplane((0, 0))
    with pytest.raises(TypeError):
        Hyperplane((1, 0.5))


def test_hyperplane_validation():
    h = Hyperplane((Fraction(3), Fraction(-3)))
    assert h.normal == (1, -1) and h.mult == 1
    with pytest.raises(ValueError):
        Hyperplane((Fraction(1),), 0)
    with pytest.raises(ValueError):
        Hyperplane((Fraction(1),), True)


def test_simple_documents():
    arr = parse_arrangement(
        '{"dim": 2, "hyperplanes": [{"normal": ["1", "0"]}, {"normal": ["0", "1"], "mult": 1}]}'
    )
    assert arr.dim == 2
    assert [h.normal for h in arr.hyperplanes] == [(1, 0), (0, 1)]
    assert [h.mult for h in arr.hyperplanes] == [1, 1]

    single = parse_arrangement('{"dim": 1, "hyperplanes": [{"normal": ["1"], "mult": 3}]}')
    assert single.hyperplanes[0].mult == 3


def test_duplicate_normals_rejected():
    with pytest.raises(ParseError, match="duplicates hyperplane 0"):
        parse_arrangement(
            '{"dim": 3, "hyperplanes": [{"normal": ["1", "-1", "0"]},'
            ' {"normal": ["2", "-2", "0"]}]}'
        )


@pytest.mark.parametrize("doc,fragment", [
    ("nonsense", "invalid document"),
    ("[1]", "top level"),
    ('{"dim": 2}', "needs"),
    ('{"dim": 0, "hyperplanes": []}', "dim"),
    ('{"dim": 2, "hyperplanes": []}', "non-empty"),
    ('{"dim": 2, "hyperplanes": [{"normal": ["1"]}]}', "hyperplane 0"),
    ('{"dim": 2, "hyperplanes": [{"normal": ["1", "0.5"]}]}', "bad rational"),
    ('{"dim": 2, "hyperplanes": [{"normal": [1, 0]}]}', "bad rational"),
    ('{"dim": 2, "hyperplanes": [{"normal": ["0", "0"]}]}', "zero normal"),
    ('{"dim": 2, "hyperplanes": [{"normal": ["1", "0"], "mult": 0}]}', "positive integer"),
    ('{"dim": 2, "hyperplanes": [{"normal": ["1", "0"], "extra": 1}]}', "unknown fields"),
    ('{"dim": 2, "hyperplanes": [{"normal": ["1", "0"]}], "x": 1}', "unknown"),
])
def test_parse_errors(doc, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_arrangement(doc)


def test_integer_rational_and_mixed_entries_parse_alike(monkeypatch):
    """An integer entry is read as an int, without ``parse_rational``, and
    a p/q entry as a Fraction; written either way, or mixed, the same
    normals give the same hyperplanes.  A decimal or zero-denominator entry
    is refused with the message ``parse_rational`` gives."""
    from arrideals import arrangement

    calls = []

    def counting_parse_rational(text):
        calls.append(text)
        return parse_rational(text)

    monkeypatch.setattr(arrangement, "parse_rational", counting_parse_rational)
    def doc(*normals):
        return json.dumps({"dim": 3, "hyperplanes": [
            {"normal": list(v), "mult": m} for v, m in zip(normals, (1, 3))]})

    integer = parse_arrangement(doc(["2", "-4", "0"], ["0", "3", "-12345678901234567890"]))
    rational = parse_arrangement(doc(["4/2", "-8/2", "0/5"], ["0/1", "3/1", "-24691357802469135780/2"]))
    mixed = parse_arrangement(doc(["2", "-8/2", "0"], ["-0", "9/3", "-12345678901234567890"]))
    assert calls == ["4/2", "-8/2", "0/5", "0/1", "3/1", "-24691357802469135780/2",
                     "-8/2", "9/3"]
    assert integer.hyperplanes == rational.hyperplanes == mixed.hyperplanes
    assert integer.hyperplanes[0] == Hyperplane((1, -2, 0))
    assert integer.hyperplanes[1] == Hyperplane((0, 1, -4115226300411522630), 3)
    for entry, message in (("1.5", "hyperplane 0: bad rational '1.5' (expected 'p' or 'p/q')"),
                           ("1/0", "hyperplane 0: bad rational '1/0' (zero denominator)"),
                           ("+1", "hyperplane 0: bad rational '+1' (expected 'p' or 'p/q')"),
                           (1, "hyperplane 0: bad rational 1 (expected 'p' or 'p/q')")):
        with pytest.raises(ParseError) as info:
            parse_arrangement(doc(["1", entry, "0"], ["0", "1", "0"]))
        assert str(info.value) == message


def test_round_trip_bit_exact():
    arr = Arrangement.from_normals(
        3,
        [(1, Fraction(-1, 2), 0), (0, 1, Fraction(2, 7)), (1, 1, 1)],
        [1, 2, 5],
    )
    assert parse_arrangement(serialize_arrangement(arr)) == arr
    # twice through the loop is stable byte for byte
    text = serialize_arrangement(arr)
    # normals are written as the integers of their normal form
    assert [h["normal"] for h in json.loads(text)["hyperplanes"]] == [
        ["2", "-1", "0"], ["0", "7", "2"], ["1", "1", "1"],
    ]
    assert serialize_arrangement(parse_arrangement(text)) == text


def test_braid():
    arr = braid(3)
    assert arr.dim == 3
    assert [h.normal for h in arr.hyperplanes] == [
        (1, -1, 0), (1, 0, -1), (0, 1, -1),
    ]
    assert len(braid(2).hyperplanes) == 1
    assert len(braid(5).hyperplanes) == 10
    with pytest.raises(ValueError):
        braid(1)


def test_braid_normal_shape():
    for n in (2, 3, 4, 5, 6):
        arr = braid(n)
        assert len(arr.hyperplanes) == n * (n - 1) // 2
        for h in arr.hyperplanes:
            nz = [a for a in h.normal if a]
            assert sorted(nz, reverse=True) == [1, -1]
            assert h.mult == 1

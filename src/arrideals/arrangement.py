"""Central hyperplane arrangements and their on-disk format.

An arrangement is a list of distinct hyperplanes through the origin of Q^n,
each carrying a positive integer multiplicity.  The file format is a JSON
document with bit-exact rationals written as strings ("1", "-3", "2/7");
decimal notation is rejected so no value is ever rounded on the way in.
A normal is stored, and written, in linalg's one normal form: the primitive
integer vector with a positive first nonzero entry, so (1, -3/2) and
(-4, 6) both become (2, -3) and give the same answers everywhere.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .linalg import _signed_primitive, primitive_vector


class ParseError(ValueError):
    """Raised for malformed arrangement documents."""


_RATIONAL_RE = re.compile(r"-?\d+(/\d+)?\Z")


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" with positive q.  No decimals."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ValueError(f"bad rational {text!r} (expected 'p' or 'p/q')")
    if "/" in text and int(text.split("/")[1]) == 0:
        raise ValueError(f"bad rational {text!r} (zero denominator)")
    return Fraction(text)


@dataclass(frozen=True)
class Hyperplane:
    """A hyperplane through the origin: kernel of <normal, x>."""

    normal: tuple[int, ...]
    mult: int = 1

    def __post_init__(self) -> None:
        normal, pivot = _signed_primitive(list(primitive_vector(self.normal)))
        if pivot is None:
            raise ValueError("zero normal vector")
        object.__setattr__(self, "normal", normal)
        if not isinstance(self.mult, int) or isinstance(self.mult, bool) or self.mult < 1:
            raise ValueError(f"multiplicity must be a positive integer, got {self.mult!r}")


@dataclass(frozen=True)
class Arrangement:
    """Ordered list of pairwise distinct central hyperplanes."""

    dim: int
    hyperplanes: tuple[Hyperplane, ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"ambient dimension must be >= 1, got {self.dim}")
        if not self.hyperplanes:
            raise ValueError("arrangement needs at least one hyperplane")
        seen: dict[tuple[int, ...], int] = {}
        for i, h in enumerate(self.hyperplanes):
            if len(h.normal) != self.dim:
                raise ValueError(
                    f"hyperplane {i}: normal has length {len(h.normal)}, expected {self.dim}"
                )
            if h.normal in seen:
                raise ValueError(f"hyperplane {i} duplicates hyperplane {seen[h.normal]}")
            seen[h.normal] = i

    @classmethod
    def from_normals(cls, dim: int, normals: Iterable[Sequence],
                     mults: Iterable[int] | None = None) -> "Arrangement":
        normals = list(normals)
        mults = [1] * len(normals) if mults is None else list(mults)
        if len(mults) != len(normals):
            raise ValueError(
                f"{len(normals)} normals but {len(mults)} multiplicities"
            )
        hps = tuple(Hyperplane(tuple(n), m) for n, m in zip(normals, mults))
        return cls(dim, hps)


def parse_arrangement(text: str) -> Arrangement:
    """Parse the JSON arrangement format (see module docstring)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid document: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    extra = set(doc) - {"dim", "hyperplanes"}
    if extra:
        raise ParseError(f"unknown top-level fields: {sorted(extra)}")
    if "dim" not in doc or "hyperplanes" not in doc:
        raise ParseError("document needs 'dim' and 'hyperplanes'")
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError(f"'dim' must be a positive integer, got {dim!r}")
    raw = doc["hyperplanes"]
    if not isinstance(raw, list) or not raw:
        raise ParseError("'hyperplanes' must be a non-empty array")

    hps = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise ParseError(f"hyperplane {i}: expected an object")
        extra = set(item) - {"normal", "mult"}
        if extra:
            raise ParseError(f"hyperplane {i}: unknown fields {sorted(extra)}")
        normal = item.get("normal")
        if not isinstance(normal, list) or len(normal) != dim:
            raise ParseError(f"hyperplane {i}: 'normal' must be an array of {dim} rationals")
        try:
            # an integer entry needs no Fraction
            vec = tuple(int(x) if isinstance(x, str) and "/" not in x and _RATIONAL_RE.match(x)
                        else parse_rational(x) for x in normal)
        except ValueError as exc:
            raise ParseError(f"hyperplane {i}: {exc}") from None
        mult = item.get("mult", 1)
        try:
            hps.append(Hyperplane(vec, mult))
        except ValueError as exc:
            raise ParseError(f"hyperplane {i}: {exc}") from None
    try:
        return Arrangement(dim, tuple(hps))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def serialize_arrangement(arr: Arrangement) -> str:
    """Inverse of parse_arrangement: each normal is written as the integers
    of its normal form."""
    doc = {
        "dim": arr.dim,
        "hyperplanes": [
            {"normal": [str(a) for a in h.normal], "mult": h.mult}
            for h in arr.hyperplanes
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def braid(n: int) -> Arrangement:
    """The arrangement of all x_i = x_j (i < j) in dimension n, n >= 2.

    Hyperplanes come in lexicographic (i, j) order, all with multiplicity 1.
    """
    if n < 2:
        raise ValueError(f"braid arrangement needs n >= 2, got {n}")
    return Arrangement.from_normals(n, [[(k == i) - (k == j) for k in range(n)]
                                        for i in range(n) for j in range(i + 1, n)])

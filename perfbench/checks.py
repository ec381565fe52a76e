"""Output checks: each query's printed answer against an independent one.

Checks read answers, not wording.  A jump line counts as detected unless
it says "not" or "non" (so "verified", "certified jump" and "jump" all
read as detected, and "not detected up to degree D" and "certified
non-jump" as not); a theorem check fails only on a line that says
"differ" or on differing Hilbert rows.  Where no independent answer
exists (the building list and the Hilbert rows of seeded random
arrangements, and which braid(5) candidates are detected at degree 4), the
answer is compared with what the seed commit printed, stored in
expected.json; random inputs are compared only for the default seed.  A
candidate the seed commit detected must still be detected; one it did not
detect may now be reported either way.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import oracle

DEFAULT_SEED = 1
EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())


@lru_cache(maxsize=None)
def _braid_lattice(n: int):
    return oracle.braid_lattice(n)


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split()]


def _lines(stdout: str) -> list[str]:
    return [ln for ln in stdout.splitlines() if ln.strip()]


def _expected(spec: dict, query: dict):
    """The seed commit's answer for this query, if one was recorded."""
    if query["input"].startswith("braid"):
        return EXPECTED.get("braid", {}).get(braid_key(query))
    if spec["seed"] != DEFAULT_SEED:
        return None
    return EXPECTED.get(spec["workload"], {}).get(query["id"])


def braid_key(query: dict) -> str:
    """Seed-independent key of a braid query: command, input and flags."""
    return " ".join([query["cmd"], query["input"]] + query["argv"][2:])


def building_answer(stdout: str) -> list:
    """Listed flats as sorted [rank, s, closed set] triples."""
    return sorted([f["rank"], f["s"], list(f["closed"])] for f in json.loads(stdout))


def theorem_rows(stdout: str) -> dict:
    """The Hilbert rows printed after "minimal:" and "full:"."""
    rows = {}
    for ln in _lines(stdout):
        head, _, tail = ln.partition(":")
        if head.strip() in ("minimal", "full"):
            rows[head.strip()] = _ints(tail)
    return rows


def jump_answers(stdout: str) -> dict:
    """Candidate -> whether the line reports it as a detected jump."""
    seen = {}
    for ln in _lines(stdout):
        first, _, rest = ln.partition("\t")
        low = rest.lower()
        seen[Fraction(first)] = not ("not" in low or "non" in low)
    return seen


def detected_jumps(stdout: str) -> list[str]:
    return sorted(str(c) for c, hit in jump_answers(stdout).items() if hit)


# The answer compared with expected.json, per check type.
ANSWERS = {
    "building": building_answer,
    "theorem": lambda stdout: theorem_rows(stdout).get("minimal"),
    "jumps": detected_jumps,
    "hilbert": _ints,
}


def _check_lct(check, stdout, spec, query):
    got = Fraction(stdout.strip())
    if got != Fraction(check["expect"]):
        return f"lct {got}, expected {check['expect']}"


def _check_braid_lattice(check, stdout, spec, query):
    rows = []
    for ln in _lines(stdout):
        rank, s, closed = ln.split("\t")
        idx = () if closed == "-" else tuple(int(x) for x in closed.split(","))
        rows.append((int(rank), int(s), idx))
    want = _braid_lattice(check["n"])
    if len(rows) != len(set(rows)) or set(rows) != want:
        return f"{len(rows)} flats printed, expected the {len(want)} set partitions"


def _check_building(check, stdout, spec, query):
    doc = spec["inputs"][check["input"]]
    normals = [tuple(int(a) for a in h["normal"]) for h in doc["hyperplanes"]]
    mults = [h["mult"] for h in doc["hyperplanes"]]
    flats = building_answer(stdout)
    if len({(r, s, tuple(c)) for r, s, c in flats}) != len(flats):
        return "a flat is listed twice"
    if not all([1, m, [j]] in flats for j, m in enumerate(mults)):
        return "a hyperplane is missing from the minimal building set"
    for rank, s, closed in flats:
        closed = tuple(closed)
        if (oracle.closure(normals, closed) != closed
                or oracle.rank([normals[j] for j in closed]) != rank
                or sum(mults[j] for j in closed) != s
                or not oracle.is_connected(normals, closed)):
            return f"listed flat {list(closed)} is not an irreducible flat as printed"
    want = _expected(spec, query)
    if want is not None and flats != want:
        return "building set differs from the seed commit's for the default seed"


def _check_theorem(check, stdout, spec, query):
    if any("differ" in ln.lower() for ln in _lines(stdout)):
        return "building sets disagree"
    rows = theorem_rows(stdout)
    if set(rows) != {"minimal", "full"}:
        return "missing Hilbert rows"
    if rows["minimal"] != rows["full"]:
        return "Hilbert rows differ"
    if len(rows["minimal"]) != check["degree"] + 1:
        return "Hilbert row has the wrong length"
    if not oracle.hilbert_bounds_ok(rows["minimal"], check["nvars"]):
        return "Hilbert row decreases or exceeds C(n+d-1,d)"
    want = _expected(spec, query)
    if want is not None and rows["minimal"] != want:
        return f"Hilbert row {rows['minimal']}, seed commit printed {want}"


def _check_jumps(check, stdout, spec, query):
    seen = jump_answers(stdout)
    want = [Fraction(c) for c in check["candidates"]]
    if sorted(seen) != want:
        return f"candidates {sorted(map(str, seen))}, expected {check['candidates']}"
    if "jump" in check and not seen[Fraction(check["jump"])]:
        return f"the lct {check['jump']} is not reported as a jump"
    lost = [c for c in _expected(spec, query) or () if not seen[Fraction(c)]]
    if lost:
        return f"{lost} not detected, the seed commit detected them"


def _check_hilbert(check, stdout, spec, query):
    dims = _ints(stdout)
    if len(dims) != check["degree"] + 1 or not oracle.hilbert_bounds_ok(dims, check["nvars"]):
        return f"Hilbert function {dims} is not a valid truncation"
    want = _expected(spec, query)
    if want is not None and dims != want:
        return f"Hilbert function {dims}, seed commit printed {want}"


def _check_member(check, stdout, spec, query):
    got = stdout.strip()
    if got not in ("true", "false"):
        return f"unreadable answer {got!r}"
    if (got == "true") != check["expect"]:
        return f"answered {got}, expected {str(check['expect']).lower()}"


CHECKS = {
    "lct": _check_lct,
    "braid_lattice": _check_braid_lattice,
    "building": _check_building,
    "theorem": _check_theorem,
    "jumps": _check_jumps,
    "hilbert": _check_hilbert,
    "member": _check_member,
}


def check(spec: dict, query: dict, rc, stdout: str) -> str | None:
    """None when the query exited 0 and printed the right answer, else why not."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        return CHECKS[query["check"]["type"]](query["check"], stdout, spec, query)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"

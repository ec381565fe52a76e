"""The fixed workloads: input arrangements and query lists, made from a seed.

A workload is a list of CLI invocations run in order in one fresh
interpreter.  Each query carries the command name, its argv (with every
work-setting flag such as --degree passed explicitly), the input it reads
(braid inputs are named "braid<n>"), and the independent answer its output is checked against (see checks.py).
README.md in this directory says why each workload and query is there.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import oracle

WORKLOADS = ("lattice", "ideal", "sweep")


def braid_doc(n: int) -> dict:
    hps = []
    for i, j in oracle.braid_pairs(n):
        v = ["0"] * n
        v[i], v[j] = "1", "-1"
        hps.append({"normal": v, "mult": 1})
    return {"dim": n, "hyperplanes": hps}


def random_arrangement(rng: random.Random, dim: int, count: int):
    """Pairwise non-proportional integer normals in [-3, 3]^dim, multiplicities 1-3."""
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
        normals.append(tuple(v))
    mults = [rng.randint(1, 3) for _ in range(count)]
    return normals, mults


# Multiplicities of the planted arrangements, by hyperplane position.
PLANTED_MULTS = (1, 2, 3, 1, 2, 3, 2, 1, 2)
NONZERO = (-3, -2, -1, 1, 2, 3)


def _det(rows) -> int:
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** c * rows[0][c] * _det([r[:c] + r[c + 1:] for r in rows[1:]])
               for c in range(len(rows)) if rows[0][c])


def _primitive(v):
    g = 0
    for a in v:
        g = gcd(g, a)
    return tuple(a // g for a in v)


def planted_arrangement(rng: random.Random):
    """Nine hyperplanes in dimension 4 with one fixed matroid, random numbers.

    Normals 0-6 have coefficients drawn from NONZERO; normal 7 is a random
    combination of normals 0 and 1, and normal 8 of normals 2, 3 and 4.
    Draws are repeated until these are the only dependencies, so every
    seed gives the same lattice shape (two irreducible flats besides the
    hyperplanes and the origin) and only the coefficients change.
    """
    forced3 = {(0, 1, 7)}
    while True:
        v = [tuple(rng.choice(NONZERO) for _ in range(4)) for _ in range(7)]
        a = [rng.choice((-2, -1, 1, 2)) for _ in range(5)]
        v.append(_primitive([a[0] * x + a[1] * y for x, y in zip(v[0], v[1])]))
        v.append(_primitive([a[2] * x + a[3] * y + a[4] * z
                             for x, y, z in zip(v[2], v[3], v[4])]))
        if any(not any(x) for x in v):
            continue
        ok = all(oracle.rank([v[i] for i in s]) == len(s)
                 for k in (2, 3) for s in combinations(range(9), k)
                 if s not in forced3)
        ok = ok and all(
            (_det([list(v[i]) for i in s]) == 0)
            == (set(s) >= {0, 1, 7} or s == (2, 3, 4, 8))
            for s in combinations(range(9), 4))
        if ok:
            return v, list(PLANTED_MULTS)


def arrangement_doc(normals, mults) -> dict:
    return {"dim": len(normals[0]),
            "hyperplanes": [{"normal": [str(a) for a in v], "mult": m}
                            for v, m in zip(normals, mults)]}


def query(cmd, inp, argv_tail, check):
    """One CLI invocation; "{name}" in argv stands for the input file."""
    return {"cmd": cmd, "input": inp,
            "argv": [cmd, "{" + inp + "}"] + argv_tail, "check": check}


def build(workload: str, seed: int) -> dict:
    """Inputs (name -> arrangement document) and the ordered query list."""
    rng = random.Random(f"arrideals-bench/{workload}/{seed}")
    inputs: dict = {}
    queries: list = []
    if workload == "lattice":
        inputs["braid8"] = braid_doc(8)
        normals, mults = random_arrangement(rng, 6, 18)
        inputs["rand6"] = arrangement_doc(normals, mults)
        queries.append(query("lct", "braid8", [],
                             {"type": "lct", "expect": str(Fraction(2, 8))}))
        queries.append(query("building", "rand6", ["--json"],
                             {"type": "building", "input": "rand6"}))
        queries.append(query("lattice", "braid8", [],
                             {"type": "braid_lattice", "n": 8}))
    elif workload == "ideal":
        inputs["braid5"] = braid_doc(5)
        queries.append(query("verify-theorem", "braid5",
                             ["--lambda", "2/3", "--degree", "6"],
                             {"type": "theorem", "nvars": 5, "degree": 6}))
        for k in range(3):
            name = f"rand4_{k}"
            normals, mults = planted_arrangement(rng)
            inputs[name] = arrangement_doc(normals, mults)
            lam = 2 * oracle.lct(oracle.irreducible_flats(normals, mults))
            queries.append(query("verify-theorem", name,
                                 ["--lambda", str(lam), "--degree", "5"],
                                 {"type": "theorem", "nvars": 4, "degree": 5}))
    elif workload == "sweep":
        inputs["braid5"] = braid_doc(5)
        inputs["braid4"] = braid_doc(4)
        queries.append(query("jumps", "braid5",
                             ["--max", "1", "--verify", "--degree", "4"],
                             {"type": "jumps",
                              "candidates": [str(c) for c in
                                             oracle.braid_jump_candidates(5, Fraction(1))]}))
        for k in range(2):
            name = f"rand4_{k}"
            normals, mults = planted_arrangement(rng)
            inputs[name] = arrangement_doc(normals, mults)
            irr = oracle.irreducible_flats(normals, mults)
            queries.append(query("jumps", name,
                                 ["--max", "1", "--verify", "--degree", "5"],
                                 {"type": "jumps",
                                  "candidates": [str(c) for c in
                                                 oracle.jump_candidates(irr, Fraction(1))],
                                  "jump": str(oracle.lct(irr))}))
        queries.append(query("hilbert", "braid4",
                             ["--lambda", "3/2", "--degree", "8"],
                             {"type": "hilbert", "nvars": 4, "degree": 8}))
        pairs = oracle.braid_pairs(5)
        products = [(Fraction(2, 3), 5, True), (Fraction(2, 3), 5, False),
                    (Fraction(2, 3), 6, True), (Fraction(2, 3), 6, False),
                    (Fraction(1), 6, False), (Fraction(1), 7, False)]
        for lam, degree, member in products:
            while True:
                factors = [rng.choice(pairs) for _ in range(degree)]
                if oracle.braid_product_member(5, factors, lam) == member:
                    break
            queries.append(query("member", "braid5",
                                 ["--lambda", str(lam),
                                  "--poly", oracle.expand_product(5, factors)],
                                 {"type": "member", "expect": member}))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for i, q in enumerate(queries):
        q["id"] = f"{i:02d}-{q['cmd']}-{q['input']}"
    return {"workload": workload, "seed": seed, "inputs": inputs, "queries": queries}

"""Independent answers for the benchmark's output checks.

Nothing here imports arrideals: ranks are computed by Fraction Gaussian
elimination, flats by closing subsets of hyperplanes, irreducibility from
the fundamental circuits of a basis, braid facts from set partitions, and
membership of a product of braid forms from its vanishing orders.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, floor


def _echelon(vectors):
    """Row-reduced list of (pivot, row) for the span of ``vectors``."""
    basis = []
    for v in vectors:
        w = [Fraction(a) for a in v]
        for p, row in basis:
            if w[p]:
                c = w[p]
                w = [a - c * b for a, b in zip(w, row)]
        p = next((i for i, a in enumerate(w) if a), None)
        if p is None:
            continue
        lead = w[p]
        basis.append((p, [a / lead for a in w]))
    return basis


def rank(vectors) -> int:
    return len(_echelon(vectors))


def in_span(basis, v) -> bool:
    w = [Fraction(a) for a in v]
    for p, row in basis:
        if w[p]:
            c = w[p]
            w = [a - c * b for a, b in zip(w, row)]
    return not any(w)


def closure(normals, subset) -> tuple[int, ...]:
    basis = _echelon([normals[i] for i in subset])
    return tuple(j for j, v in enumerate(normals) if in_span(basis, v))


def is_connected(normals, closed) -> bool:
    """Whether the linear matroid on ``closed`` is connected.

    Components are the classes linked by fundamental circuits of a basis
    B: a basis element b lies in the circuit of j exactly when swapping b
    for j leaves a basis.
    """
    closed = list(closed)
    basis = []
    for j in closed:
        if rank([normals[i] for i in basis + [j]]) > len(basis):
            basis.append(j)
    parent = {j: j for j in closed}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for j in closed:
        if j in basis:
            continue
        for b in basis:
            swapped = [normals[i] for i in basis if i != b] + [normals[j]]
            if rank(swapped) == len(basis):
                parent[find(b)] = find(j)
    return len({find(j) for j in closed}) == 1


def all_flats(normals, mults):
    """Every proper flat as (rank, s, closed set), by closing all subsets.

    Exponential in the hyperplane count; meant for the small random
    arrangements of the ideal and sweep workloads.
    """
    n = len(normals)
    seen = set()
    for k in range(1, n + 1):
        for subset in combinations(range(n), k):
            seen.add(closure(normals, subset))
    out = []
    for closed in seen:
        r = rank([normals[j] for j in closed])
        out.append((r, sum(mults[j] for j in closed), closed))
    return sorted(out)


def irreducible_flats(normals, mults):
    return [f for f in all_flats(normals, mults) if is_connected(normals, f[2])]


def lct(irreducible) -> Fraction:
    return min(Fraction(r, s) for r, s, _ in irreducible)


def jump_candidates(irreducible, lam_max: Fraction) -> list[Fraction]:
    out = set()
    for r, s, _ in irreducible:
        m = r
        while Fraction(m, s) <= lam_max:
            out.add(Fraction(m, s))
            m += 1
    return sorted(out)


# --- braid arrangement facts -------------------------------------------------

def braid_pairs(n: int) -> list[tuple[int, int]]:
    """Hyperplane order of the braid arrangement: (i, j), i < j, lexicographic."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def set_partitions(n: int):
    def rec(i, blocks):
        if i == n:
            yield [list(b) for b in blocks]
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def braid_lattice(n: int) -> set[tuple[int, int, tuple[int, ...]]]:
    """(rank, s, closed set) of every flat of braid(n), one per set partition."""
    index = {p: k for k, p in enumerate(braid_pairs(n))}
    out = set()
    for blocks in set_partitions(n):
        closed = tuple(sorted(index[(a, b)] for blk in blocks
                              for a, b in combinations(sorted(blk), 2)))
        out.add((n - len(blocks), len(closed), closed))
    return out


def braid_jump_candidates(n: int, lam_max: Fraction) -> list[Fraction]:
    """{m/C(k,2) : 2 <= k <= n, m >= k-1} up to lam_max."""
    out = set()
    for k in range(2, n + 1):
        s = comb(k, 2)
        m = k - 1
        while Fraction(m, s) <= lam_max:
            out.add(Fraction(m, s))
            m += 1
    return sorted(out)


def braid_product_member(n: int, factors, lam: Fraction) -> bool:
    """Whether prod (x_i - x_j) over ``factors`` lies in J(braid(n), lam).

    The term of the subset S (|S| >= 2) has exponent
    floor(lam*C(|S|,2)) - |S| + 2; the product lies in that power exactly
    when at least that many factors have both indices in S.
    """
    for k in range(2, n + 1):
        e = floor(lam * comb(k, 2)) - k + 2
        if e <= 0:
            continue
        for S in combinations(range(n), k):
            inside = set(S)
            if sum(1 for i, j in factors if i in inside and j in inside) < e:
                return False
    return True


def expand_product(n: int, factors) -> str:
    """prod (x_i - x_j) expanded into the CLI's polynomial syntax."""
    poly = {(0,) * n: 1}
    for i, j in factors:
        nxt: dict = {}
        for mono, c in poly.items():
            for var, sign in ((i, 1), (j, -1)):
                m = list(mono)
                m[var] += 1
                m = tuple(m)
                nxt[m] = nxt.get(m, 0) + sign * c
        poly = {m: c for m, c in nxt.items() if c}
    if not poly:
        return "0"
    terms = []
    for mono in sorted(poly, reverse=True):
        c = poly[mono]
        factors_txt = "*".join(
            f"x{v}" + (f"^{e}" if e > 1 else "") for v, e in enumerate(mono) if e)
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        body = factors_txt if mag == 1 else f"{mag}*{factors_txt}"
        terms.append((sign, body))
    text = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    for sign, body in terms[1:]:
        text += f" {sign} {body}"
    return text


def hilbert_bounds_ok(dims, nvars: int) -> bool:
    """Nondecreasing and at most C(n+d-1, d) in every degree d."""
    return (all(a <= b for a, b in zip(dims, dims[1:]))
            and all(0 <= v <= comb(nvars + d - 1, d) for d, v in enumerate(dims)))

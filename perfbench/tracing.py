"""Per-layer spans and counters, installed from outside the program.

``install`` replaces the public functions of each arrideals module with
timing wrappers, at the defining module and at every module that imported
them by name, so a call is counted once whichever binding it goes through.
Spans are aggregated in memory as they close: per name the call count,
total time and self time (total minus the time of child spans), and per
(parent, child) pair the call count.  The source tree is not modified.
"""

from __future__ import annotations

import sys
from math import comb
from time import perf_counter

# (module, attribute, span name); the module is the defining one.  A target
# the program no longer has is skipped, and its metrics read 0.
TARGETS = (
    ("arrangement", "parse_arrangement", "arrangement.parse"),
    ("linalg", "int_reduce", "linalg.int_reduce"),
    ("linalg", "int_contains", "linalg.int_contains"),
    ("linalg", "int_insert", "linalg.int_insert"),
    ("linalg", "int_canonical", "linalg.int_canonical"),
    ("linalg", "int_intersect", "linalg.int_intersect"),
    ("lattice", "compute_lattice", "lattice.compute"),
    ("building", "minimal_building_set", "building.gmin"),
    ("building", "is_irreducible", "building.is_irreducible"),
    ("multiplier", "presentation", "multiplier.presentation"),
    ("multiplier", "presentation_ideal", "multiplier.presentation_ideal"),
    ("multiplier", "verify_jump", "multiplier.verify_jump"),
    ("multiplier", "membership", "multiplier.membership"),
    ("multiplier", "lct", "multiplier.lct"),
    ("graded", "graded_power", "graded.power"),
    ("graded", "graded_intersect", "graded.intersect"),
    ("graded", "contains_polynomial", "graded.contains_polynomial"),
)

SPANS = tuple(name for _, _, name in TARGETS) + ("graded.closure",)
COMMANDS = ("lattice", "building", "lct", "verify-theorem", "jumps", "hilbert", "member")
COUNTERS = ("lattice.flats", "building.gmin_size", "multiplier.terms",
            "graded.piece_width_max", "graded.piece_dim_max",
            "graded.degree_bound_max")


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.edges: dict[str, dict[str, int]] = {}  # child -> parent -> calls
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[list] = [["root", 0.0]]  # [name, child time]

    def span(self, name: str, fn, observe=None):
        """Wrap ``fn`` in a span; ``observe`` updates counters from the result."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        by_parent = self.edges.setdefault(name, {})

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                parent[1] += dt
                by_parent[parent[0]] = by_parent.get(parent[0], 0) + 1
            if observe is not None:
                try:
                    observe(self.counters, args, result)
                except AttributeError:  # the observed field is gone: counter stays
                    pass
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def report(self) -> dict:
        return {
            "spans": {k: {"calls": v[0], "s": v[1], "self_s": v[2]}
                      for k, v in self.stats.items()},
            "edges": [[p, c, n] for c, parents in sorted(self.edges.items())
                      for p, n in sorted(parents.items())],
            "counters": dict(self.counters),
        }


def _count_flats(counters, args, lat):
    counters["lattice.flats"] += len(lat.flats)


def _count_gmin(counters, args, bs):
    counters["building.gmin_size"] += len(bs.flats)


def _count_terms(counters, args, pres):
    counters["multiplier.terms"] += len(pres.terms)


def _observe_pieces(counters, args, _result):
    gi = args[0]
    top = gi.degree_bound
    counters["graded.degree_bound_max"] = max(counters["graded.degree_bound_max"], top)
    counters["graded.piece_width_max"] = max(counters["graded.piece_width_max"],
                                             comb(gi.nvars + top - 1, top))
    counters["graded.piece_dim_max"] = max(
        counters["graded.piece_dim_max"], max(len(rows) for rows in gi.piece_rows))


OBSERVERS = {
    "lattice.compute": _count_flats,
    "building.gmin": _count_gmin,
    "multiplier.presentation": _count_terms,
}


def install(tracer: Tracer) -> None:
    """Wrap every target at its definition and at each by-name import site."""
    import arrideals.cli  # noqa: F401  (loads every module that is wrapped)

    modules = [m for k, m in sorted(sys.modules.items())
               if k == "arrideals" or k.startswith("arrideals.")]
    for mod_name, attr, name in TARGETS:
        original = getattr(sys.modules.get(f"arrideals.{mod_name}"), attr, None)
        if original is None:
            continue
        wrapped = tracer.span(name, original, OBSERVERS.get(name))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    cls = getattr(sys.modules.get("arrideals.graded"), "GradedIdeal", None)
    closure = getattr(cls, "__post_init__", None)
    if closure is not None:
        cls.__post_init__ = tracer.span("graded.closure", closure, _observe_pieces)


def power_cache_info():
    """Hits and misses of the graded power cache, (0, 0) if it has none."""
    cached = getattr(sys.modules.get("arrideals.graded"), "_power_of_forms", None)
    info = getattr(cached, "cache_info", None)
    if info is None:
        return 0, 0
    info = info()
    return info.hits, info.misses

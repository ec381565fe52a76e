"""Self-test of the benchmark harness on braid(3)/braid(4)-sized queries.

    python3 perfbench/selftest.py

Checks that a traced and an untraced pass print the same bytes and pass
every output check, that every metric named in BENCHMARK.json is reported
with its unit, that a deliberately wrong expected answer is caught and
raises the error rate, and that tracing still reports every per-layer
metric when a traced function of the program is gone.  Exits 0 when all hold.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import sys
from fractions import Fraction

import oracle
import run
import tracing
import workloads
from workloads import query


def tiny_spec(seed: int = 1) -> dict:
    rng = random.Random(seed)
    normals, mults = workloads.random_arrangement(rng, 3, 6)
    inputs = {"braid3": workloads.braid_doc(3), "braid4": workloads.braid_doc(4),
              "rand3": workloads.arrangement_doc(normals, mults)}
    factors = [(0, 1), (0, 2), (1, 2)]
    queries = [
        query("lct", "braid4", [], {"type": "lct", "expect": "1/2"}),
        query("lattice", "braid4", [], {"type": "braid_lattice", "n": 4}),
        query("building", "rand3", ["--json"], {"type": "building", "input": "rand3"}),
        query("verify-theorem", "braid4", ["--lambda", "1", "--degree", "3"],
              {"type": "theorem", "nvars": 4, "degree": 3}),
        query("jumps", "braid4", ["--max", "1", "--verify", "--degree", "3"],
              {"type": "jumps", "candidates": [str(c) for c in
                                               oracle.braid_jump_candidates(4, Fraction(1))]}),
        query("hilbert", "braid3", ["--lambda", "3/2", "--degree", "4"],
              {"type": "hilbert", "nvars": 3, "degree": 4}),
        query("member", "braid3",
              ["--lambda", "1", "--poly", oracle.expand_product(3, factors)],
              {"type": "member",
               "expect": oracle.braid_product_member(3, factors, Fraction(1))}),
    ]
    for i, q in enumerate(queries):
        q["id"] = f"{i:02d}-{q['cmd']}-{q['input']}"
    return {"workload": "selftest", "seed": seed, "inputs": inputs, "queries": queries}


def missing_targets(bench: dict, workdir) -> list[str]:
    """Trace a query in this process after removing a traced function, the
    closure hook and the power cache: the run must still report every
    per-layer metric, with 0 for what is gone."""
    sys.path.insert(0, str(run.ROOT / "src"))
    import arrideals.cli as cli

    linalg = sys.modules["arrideals.linalg"]
    graded = sys.modules["arrideals.graded"]
    saved = {(linalg, "int_intersect"): linalg.int_intersect,
             (graded, "_power_of_forms"): graded._power_of_forms,
             (graded.GradedIdeal, "__post_init__"): graded.GradedIdeal.__post_init__}
    for owner, attr in saved:
        delattr(owner, attr)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        cache = tracing.power_cache_info()
    finally:
        for (owner, attr), value in saved.items():
            setattr(owner, attr, value)

    path = workdir / "braid4.json"
    path.write_text(json.dumps(workloads.braid_doc(4)))
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["verify-theorem", str(path), "--lambda", "1", "--degree", "3"])
    report = dict(tracer.report(), power_cache=cache)
    got = run.layer_metrics([{"wall_s": 1.0, "trace": report}], 1.0)
    problems = [f"per_layer metric {m['name']} not reported with a target missing"
                for m in bench["per_layer"] if m["name"] not in got]
    if rc != 0 or not got["graded.power.calls"]:
        problems.append("tracing with a target missing did not trace the query")
    for name in ("linalg.int_intersect.calls", "graded.closure.calls",
                 "graded.power_cache_hit_ratio"):
        if got.get(name):
            problems.append(f"{name} is {got[name]} although its target is missing")
    return problems


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    workdir = run.ROOT / ".perfbench_work" / "selftest"
    spec = tiny_spec()
    problems = []

    summary = run.run(spec, 0, True, workdir)
    if summary["failures"]:
        problems.append(f"tiny workload failed: {summary['failures']}")
    kinds = sorted({p["traced"] for p in summary["passes"]})
    if kinds != [False, True]:
        problems.append("expected one untraced and one traced pass")
    for group, got in (("end_to_end", summary["end_to_end"]),
                       ("per_layer", summary["per_layer"])):
        for m in bench[group]:
            if m["name"] not in got:
                problems.append(f"{group} metric {m['name']} not reported")
            elif run.unit_of(m["name"]) != m["unit"]:
                problems.append(f"{m['name']} reported in {run.unit_of(m['name'])}, "
                                f"declared in {m['unit']}")

    wrong = copy.deepcopy(spec)
    wrong["queries"][0]["check"]["expect"] = "1/3"
    bad = run.run(wrong, 0, False, workdir)
    if not any(f["query"] == wrong["queries"][0]["id"] for f in bad["failures"]):
        problems.append("a wrong expected lct did not raise the error rate")

    problems += missing_targets(bench, workdir)

    for p in problems:
        print("FAIL", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

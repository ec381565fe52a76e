"""One pass of a workload in a fresh interpreter.

    python3 worker.py SPEC WORKDIR [--setup-only] [--trace]

Imports arrideals, writes the spec's input arrangements under WORKDIR,
prints ``ready`` (the parent times set-up up to that line), then runs every
query through ``arrideals.cli.main`` in order, in this one process, with
the command's stdout captured.  The last line printed is a JSON object with
the wall time, each query's exit code, time and output, the peak resident
memory and, with --trace, the per-layer report.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter

import tracing


def main(argv: list[str]) -> int:
    spec_path, workdir = argv[0], argv[1]
    setup_only = "--setup-only" in argv
    traced = "--trace" in argv

    import arrideals.cli as cli

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    inputs_dir = os.path.join(workdir, "inputs")
    os.makedirs(inputs_dir, exist_ok=True)
    paths = {}
    for name, doc in spec["inputs"].items():
        path = os.path.join(inputs_dir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")
        paths[name] = path
    print("ready", flush=True)
    if setup_only:
        return 0

    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    results = []
    t_start = perf_counter()
    for q in spec["queries"]:
        args = [paths[a[1:-1]] if a.startswith("{") else a for a in q["argv"]]
        entry = cli.main
        if tracer is not None:
            entry = tracer.span(f"cmd.{q['cmd']}", cli.main)
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = entry(args)
            except Exception:  # a crash is a failed query, not a failed pass
                traceback.print_exc()
                rc = -1
        dt = perf_counter() - t0
        results.append({"id": q["id"], "rc": rc, "time_s": dt,
                        "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]})
    wall = perf_counter() - t_start

    doc = {
        "wall_s": wall,
        "queries": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": None,
    }
    if tracer is not None:
        doc["trace"] = tracer.report()
        doc["trace"]["power_cache"] = tracing.power_cache_info()
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""arrideals benchmark: fixed CLI workloads, timed end to end and by layer.

    python3 perfbench/run.py --workload {lattice,ideal,sweep} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout (the program is imported from
``src/``).  The seed makes the inputs; each pass runs the workload's query
list through ``arrideals.cli.main`` in one fresh interpreter, one process
at a time, until about S seconds of passes are done.  Every answer is
checked (checks.py).  With --trace 0 the last line reports the end-to-end
metrics (medians over passes); with --trace 1 untraced and traced passes
alternate, and it reports the per-layer metrics of the traced passes plus
the tracing overhead.  Everything measured, with the environment and the
query list, is also written to .perfbench_work/<workload>/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9      # set-up-only interpreters per run, besides one per pass
PASS_TIMEOUT_S = 150
RUN_LIMIT_S = 165      # never start a pass that could end after this


class PassFailed(Exception):
    pass


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": commit_hash(),
    }


def commit_hash() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Harness:
    """Spawns worker interpreters for one spec and collects their results."""

    def __init__(self, spec: dict, workdir: Path) -> None:
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.spec_path = workdir / "spec.json"
        self.spec_path.write_text(json.dumps(spec))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")

    def spawn(self, *flags: str):
        """(set-up seconds, worker result or None) of one fresh interpreter.

        Set-up ends when the worker's first line ("ready") arrives.  Stdout
        is read from the raw pipe and stderr goes to a file, so no bytes are
        held back in a buffer between the two reads.
        """
        cmd = [sys.executable, str(HERE / "worker.py"), str(self.spec_path),
               str(self.workdir), *flags]
        t0 = perf_counter()
        deadline = t0 + PASS_TIMEOUT_S
        setup, out, timed_out = None, b"", False
        with tempfile.TemporaryFile(dir=self.workdir) as errf:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                    stdout=subprocess.PIPE, stderr=errf)
            try:
                fd = proc.stdout.fileno()
                while True:
                    left = deadline - perf_counter()
                    if left <= 0 or not select.select([fd], [], [], left)[0]:
                        timed_out = True
                        break
                    chunk = os.read(fd, 1 << 16)
                    if not chunk:
                        break
                    out += chunk
                    if setup is None and b"\n" in out:
                        setup = perf_counter() - t0
                if not timed_out:
                    proc.wait(timeout=max(deadline - perf_counter(), 1))
            except subprocess.TimeoutExpired:
                timed_out = True
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
                proc.stdout.close()
            errf.seek(0)
            err = "timed out" if timed_out else errf.read().decode(errors="replace")
        lines = out.decode(errors="replace").splitlines()
        if not lines or lines[0] != "ready" or proc.returncode != 0:
            raise PassFailed(f"worker failed (exit {proc.returncode}): {err.strip()[-2000:]}")
        if "--setup-only" in flags:
            return setup, None
        return setup, json.loads(lines[-1])


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(spec: dict, seconds: float, traced: bool, workdir: Path) -> dict:
    """Set-up samples and passes within the time budget, checked and summarized."""
    started = perf_counter()
    harness = Harness(spec, workdir)
    harness.spawn("--setup-only")  # warm-up: compiles bytecode, fills the file cache
    setups = [harness.spawn("--setup-only")[0] for _ in range(SETUP_SAMPLES)]

    passes = []  # (traced, worker result)
    longest = 0.0
    measure_start = perf_counter()
    while True:
        elapsed = perf_counter() - measure_start
        need_both = traced and len({t for t, _ in passes}) < 2
        if passes and not need_both and elapsed + longest / 2 >= seconds:
            break
        if passes and perf_counter() - started + longest > RUN_LIMIT_S:
            break
        trace_this = traced and any(not t for t, _ in passes) and passes[-1][0] is False
        t0 = perf_counter()
        setup, result = harness.spawn(*(["--trace"] if trace_this else []))
        longest = max(longest, perf_counter() - t0)
        setups.append(setup)
        passes.append((trace_this, result))

    # Every pass must print the same bytes per query, and the answer must be right.
    first_digest: dict = {}
    verdicts: dict = {}
    failures = []
    attempted = 0
    by_id = {q["id"]: q for q in spec["queries"]}
    for n, (_, result) in enumerate(passes):
        for r in result["queries"]:
            attempted += 1
            q = by_id[r["id"]]
            digest = _digest(r["stdout"])
            key = (r["id"], r["rc"], digest)
            if key not in verdicts:
                verdicts[key] = checks.check(spec, q, r["rc"], r["stdout"])
            why = verdicts[key]
            if why is None and first_digest.setdefault(r["id"], digest) != digest:
                why = "stdout differs from an earlier pass"
            if why is not None:
                failures.append({"pass": n, "query": r["id"], "why": why,
                                 "stderr": r["stderr"]})

    untraced = [res for t, res in passes if not t]
    traced_res = [res for t, res in passes if t]
    med = statistics.median
    end_to_end = {
        "wall_s": med(r["wall_s"] for r in untraced),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in untraced),
        "setup_s": med(setups),
    }
    per_command = {}
    for cmd in tracing.COMMANDS:
        ids = [q["id"] for q in spec["queries"] if q["cmd"] == cmd]
        if ids:
            per_command[f"cmd.{cmd}_s"] = med(
                sum(r["time_s"] for r in res["queries"] if r["id"] in ids)
                for res in untraced)
    per_layer = layer_metrics(traced_res, end_to_end["wall_s"]) if traced_res else None
    return {
        "end_to_end": end_to_end,
        "per_command": per_command,
        "per_layer": per_layer,
        "attempted": attempted,
        "failures": failures,
        "passes": [{"traced": t, "wall_s": r["wall_s"], "peak_rss_mb": r["peak_rss_mb"],
                    "query_s": {q["id"]: q["time_s"] for q in r["queries"]}}
                   for t, r in passes],
        "setup_samples_s": setups,
        "trace": traced_res[-1]["trace"] if traced_res else None,
        "run_s": perf_counter() - started,
    }


def layer_metrics(traced: list, untraced_wall: float) -> dict:
    """Per-layer numbers: medians over traced passes of spans and counters."""
    med = statistics.median
    out = {}

    def span(res, name, field):
        return res["trace"]["spans"].get(name, {}).get(field, 0)

    names = list(tracing.SPANS) + [f"cmd.{c}" for c in tracing.COMMANDS]
    for name in names:
        out[f"{name}_s"] = med(span(r, name, "s") for r in traced)
        out[f"{name}_self_s"] = med(span(r, name, "self_s") for r in traced)
        if not name.startswith("cmd."):
            out[f"{name}.calls"] = med(span(r, name, "calls") for r in traced)
    for c in tracing.COUNTERS:
        out[c] = med(r["trace"]["counters"][c] for r in traced)
    flats = out["lattice.flats"]
    out["lattice.canonical_per_flat"] = (
        out["linalg.int_canonical.calls"] / flats if flats else 0)
    hits, misses = traced[-1]["trace"]["power_cache"]
    out["graded.power_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0
    traced_wall = med(r["wall_s"] for r in traced)
    out["trace.wall_traced_s"] = traced_wall
    out["trace.wall_untraced_s"] = untraced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.overhead_ratio"] = (traced_wall - untraced_wall) / untraced_wall
    return out


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio") or name.endswith("_per_flat"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "arrideals" / "cli.py").is_file():
        print(f"error: no arrideals source under {ROOT / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 1

    env = environment()
    spec = workloads.build(args.workload, args.seed)
    workdir = ROOT / ".perfbench_work" / args.workload
    try:
        summary = run(spec, args.seconds, bool(args.trace), workdir)
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{len(summary['passes'])} passes, {len(summary['setup_samples_s'])} set-ups")
    print("# " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for q in spec["queries"]:
        times = [p["query_s"][q["id"]] for p in summary["passes"] if not p["traced"]]
        print(f"# query {q['id']}: {statistics.median(times):.4f} s  "
              f"{' '.join(q['argv'])[:100]}")
    for f in summary["failures"]:
        print(f"# FAILED pass {f['pass']} {f['query']}: {f['why']}")
    rows = dict(summary["end_to_end"], **summary["per_command"])
    for name, value in rows.items():
        print(f"{name:28s} {value:14.6f} {unit_of(name)}")
    failed = len(summary["failures"])
    print(f"{'error_rate':28s} {failed / summary['attempted']:14.6f} "
          f"ratio ({failed} of {summary['attempted']} queries)")

    metrics = summary["end_to_end"] if not args.trace else summary["per_layer"]
    record = {"env": env, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "queries": spec["queries"], **summary}
    (workdir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": summary["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

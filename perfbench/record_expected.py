"""Write expected.json: the answers the current program prints, for reference.

    python3 perfbench/record_expected.py

Runs one untraced pass of every workload at the default seed and records,
for every braid query whose answer has no independent oracle (Hilbert
rows, detected jumps), the answer under a seed-independent key, and for
each random query its answer under the workload and query id.  Run it only
on a commit whose answers are trusted; expected.json in the tree was
written at commit c56bc1b.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads


def main() -> int:
    expected: dict = {"braid": {}}
    for name in workloads.WORKLOADS:
        spec = workloads.build(name, checks.DEFAULT_SEED)
        _, result = run.Harness(spec, run.ROOT / ".perfbench_work" / "record").spawn()
        by_id = {q["id"]: q for q in spec["queries"]}
        for r in result["queries"]:
            q = by_id[r["id"]]
            if r["rc"] != 0:
                raise SystemExit(f"{q['id']} failed: {r['stderr']}")
            parse = checks.ANSWERS.get(q["check"]["type"])
            if parse is None:  # answered by an oracle
                continue
            got = parse(r["stdout"])
            if q["input"].startswith("braid"):
                expected["braid"][checks.braid_key(q)] = got
            else:
                expected.setdefault(name, {})[q["id"]] = got
            print(q["id"], "recorded", file=sys.stderr)
    groups = []
    for group, entries in sorted(expected.items()):
        body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(entries.items()))
        groups.append(f" {json.dumps(group)}: {{\n{body}\n }}")
    (run.HERE / "expected.json").write_text("{\n" + ",\n".join(groups) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Pin the known answers from the current commit.

    python3 perfbench/pin.py

Writes ``answers.json``: each registry case's certified order, and each deep
request's output digest and branch status.  Run it only on a commit whose
outputs are trusted: the gate compares every later commit with what it
writes.
"""

from __future__ import annotations

import json
import time

import workloads
from run import HERE, run_pass


def main():
    deadline = time.monotonic() + 600
    sweep = run_pass({"workload": "registry_sweep", "jobs": 1}, deadline)
    bad = [o for o in sweep["outcomes"] if o["status"] != "pass"]
    if bad:
        raise SystemExit(f"not every case passes: {bad[:3]}")
    deep = run_pass({"workload": "deep_orders",
                     "requests": list(workloads.DEEP_REQUESTS)}, deadline)
    expansions = {}
    for out in deep["outcomes"]:
        if out["status"] not in ("ok", "exact"):
            raise SystemExit(f"deep request failed: {out}")
        want = {"digest": out["digest"]}
        if out["status"] == "exact":
            want["status"] = "exact"
        expansions[out["key"]] = want
    answers = {
        "cases": {o["key"]: {"order": o["order"]} for o in sweep["outcomes"]},
        "expansions": expansions,
    }
    (HERE / "answers.json").write_text(json.dumps(answers, indent=1) + "\n")
    print(f"pinned {len(answers['cases'])} cases and {len(expansions)} expansions")


if __name__ == "__main__":
    main()

"""Checks of the benchmark itself.

    python3 perfbench/selftest.py           # gate and bare-directory checks
    python3 perfbench/selftest.py --trace   # also the traced counters (~40 s)

* The known-answer gate grades real outcomes clean and counts each tampered
  verdict (a flipped status, a wrong certified order, an error, a changed
  digest, a branch that is not exact, a missing outcome) as failed.
* ``run.py`` exits non-zero without a result where there is no ``src/``.
* ``--trace``: two traced ``registry_sweep`` passes give byte-identical
  counters, and they match the seed-commit counts in ``layers.json``.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time

import gate
import workloads
from run import HERE, RESULTS, ROOT, run_pass

CHEAP_CASES = ["S2.mult-lemma.n1m1.j0k0", "S3.prod.K1xK1.case1", "S4.pindep.m1.half"]


def check(label, ok):
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    return ok


def gate_checks(answers, deadline):
    deep_req = next(r for r in workloads.DEEP_REQUESTS if r["op"] == "theta_inv_half")
    cases = {"workload": "registry_sweep", "jobs": 1, "ids": CHEAP_CASES}
    deep = {"workload": "deep_orders", "requests": [deep_req]}
    case_out = run_pass(cases, deadline)["outcomes"]
    deep_out = run_pass(deep, deadline)["outcomes"]

    def failed(spec, outcomes):
        return len(gate.grade(spec, outcomes, answers)[1])

    def tampered(outcomes, **change):
        out = copy.deepcopy(outcomes)
        out[0].update(change)
        return out

    branch_key = next(k for k, v in answers["expansions"].items() if "status" in v)
    branch = {"workload": "deep_orders",
              "requests": [r for r in workloads.DEEP_REQUESTS if r["key"] == branch_key]}
    branch_out = [{"key": branch_key, "status": "not-in-span",
                   "digest": answers["expansions"][branch_key]["digest"]}]
    results = [
        check("real outcomes grade clean",
              failed(cases, case_out) == 0 and failed(deep, deep_out) == 0),
        check("a case verdict pass -> fail is caught",
              failed(cases, tampered(case_out, status="fail")) == 1),
        check("a wrong certified order is caught",
              failed(cases, tampered(case_out, order="7/2")) == 1),
        check("an errored request is caught",
              failed(cases, tampered(case_out, status="error", error="boom")) == 1),
        check("a changed expansion digest is caught",
              failed(deep, tampered(deep_out, digest="0" * 64)) == 1),
        check("a branch that is not exact is caught", failed(branch, branch_out) == 1),
        check("a missing outcome is caught", failed(cases, case_out[1:]) == 1),
    ]
    return all(results)


def bare_directory_check():
    """run.py must refuse, without a result, next to no sources."""
    bare = RESULTS / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "deep_orders",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return check("run.py refuses without sources",
                 proc.returncode != 0 and '"correct"' not in proc.stdout)


def trace_checks(layers, deadline):
    spec = {"workload": "registry_sweep", "jobs": 1, "trace": True}
    runs = [run_pass(spec, deadline) for _ in range(2)]

    def exact(p):  # everything but the times
        counts = {k: v for k, v in p["counts"].items() if not k.endswith("_s")}
        per_request = {key: {k: v for k, v in d.items() if not k.endswith("_s")}
                       for key, d in p["per_request"].items()}
        return json.dumps([counts, per_request], sort_keys=True)

    ok = check("two traced registry_sweep passes give identical counters",
               exact(runs[0]) == exact(runs[1]))
    seed = layers["seed_counts"]["registry_sweep"]
    for name, want in seed.items():
        got = runs[0]["counts"].get(name, 0)
        ok &= check(f"registry_sweep {name} = {got} (seed {want})", got == want)
    return ok


def main(argv):
    deadline = time.monotonic() + 600
    answers = workloads.load("answers.json")
    ok = gate_checks(answers, deadline)
    ok &= bare_directory_check()
    if "--trace" in argv:
        ok &= trace_checks(workloads.load("layers.json"), deadline)
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

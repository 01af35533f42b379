"""Known-answer gate: grades the outcomes of one pass against the answers
pinned from the seed commit in ``answers.json``.

* every registry case passes at its default order, which is also the
  certified order pinned for it (each case is a theorem);
* every ``branch`` request gives status ``exact``;
* every expansion's canonical ``json_obj`` digest matches the pinned one,
  which holds the output byte-identical to the seed commit.

A request that errored, gave another answer, or is missing counts as failed.
"""

from __future__ import annotations


def expected(spec, answers):
    """key -> what the gate requires of that request's outcome."""
    if "requests" in spec:
        keys = [req["key"] for req in spec["requests"]]
    else:  # a sweep: the given ids, or every case
        keys = spec.get("ids") or answers["cases"]
    table = {**answers["cases"], **answers["expansions"]}
    return {k: table[k] for k in keys}


def grade(spec, outcomes, answers):
    """Returns (attempted, failures); each failure is (key, reason)."""
    want = expected(spec, answers)
    seen = set()
    failures = []
    for out in outcomes:
        key = out["key"]
        if key in seen or key not in want:
            failures.append((key, "unexpected request"))
            continue
        seen.add(key)
        reason = _check(out, want[key])
        if reason:
            failures.append((key, reason))
    failures += [(k, "no outcome") for k in want if k not in seen]
    return max(len(want), len(outcomes)), failures


def _check(out, want):
    if out["status"] == "error":
        return f"error: {out.get('error')}"
    if "order" in want:  # a registry case
        if out["status"] != "pass":
            return f"status {out['status']}, expected pass"
        if out["order"] != want["order"]:
            return f"certified order {out['order']}, expected {want['order']}"
        return None
    if "status" in want and out["status"] != want["status"]:
        return f"status {out['status']}, expected {want['status']}"
    if out.get("digest") != want["digest"]:
        return "output differs from the seed-commit expansion"
    return None

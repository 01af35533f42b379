"""One pass of a workload, in a fresh interpreter.

Reads the pass spec (see ``workloads.make``) as JSON on stdin and prints
one JSON line: set-up time, the pass's wall and CPU time, peak RSS, one
latency per request, each request's outcome, and with ``"trace": true``
the per-layer counters.  ``run.py`` starts it with ``PYTHONPATH`` pointing
at the checkout's ``src`` and ``THETAQ_BACKEND=fraction``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _usage():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss)


def _case_outcome(report):
    from thetaq import rat_str

    return {"key": report.id, "status": report.status,
            "order": rat_str(report.certified_order), "error": report.error}


def _deep_request(req):
    from thetaq import cli, numerators, rat_from_str

    order = rat_from_str(req["order"])
    op, args = req["op"], req["args"]
    if op == "numerator":
        return numerators.numerator(args[0], rat_from_str(args[1]), order)
    if op == "character":
        return numerators.character(args[0], args[1], order)
    if op == "theta_inv_half":
        return numerators.theta_inv_half(rat_from_str(args[0]), order)
    if op == "branch":
        return cli.branch_product(tuple(args[0]), tuple(args[1]), order)
    raise ValueError(f"unknown request op {op!r}")


def _deep_outcome(req, result):
    if req["op"] == "branch":
        labels, dec = result
        obj = {"basis": [f"{a}:{b}" for a, b in labels],
               "decomposition": dec.json_obj()}
        return {"key": req["key"], "status": dec.status, "digest": digest(obj)}
    return {"key": req["key"], "status": "ok", "digest": digest(result.json_obj())}


def run(spec, tracer):
    """A sweep (``run_all`` over ``ids``, all cases by default, with
    ``jobs`` processes) or, with ``requests``, deep expand/branch requests."""
    from thetaq import identities

    latencies, cpus, outcomes, results = [], [], [], []
    cpu0, _ = _usage()
    t0 = time.perf_counter()
    if "requests" not in spec:
        reports = identities.run_all(jobs=spec["jobs"], ids=spec.get("ids"))
        wall = time.perf_counter() - t0
        latencies = [r.wall_ms for r in reports]
        outcomes = [_case_outcome(r) for r in reports]
        if tracer is not None:
            _merge_worker_traces(tracer, reports)
    else:
        for req in spec["requests"]:
            t, c = time.perf_counter(), time.process_time()
            try:
                if tracer is None:
                    result = _deep_request(req)
                else:
                    with tracer.request(req["key"]):
                        result = _deep_request(req)
            except Exception as exc:  # counted as a failed request
                result = exc
            latencies.append((time.perf_counter() - t) * 1000.0)
            cpus.append(time.process_time() - c)
            results.append((req, result))
        wall = time.perf_counter() - t0
        for req, result in results:  # rendering is not part of the pass
            if isinstance(result, Exception):
                outcomes.append({"key": req["key"], "status": "error",
                                 "error": f"{type(result).__name__}: {result}"})
            else:
                outcomes.append(_deep_outcome(req, result))
    cpu1, maxrss_kb = _usage()
    return {
        "wall_s": wall,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": maxrss_kb / 1024.0,
        "busy_s": sum(latencies) / 1000.0,
        "jobs": spec.get("jobs", 1),
        "latencies_ms": latencies,
        "request_cpu_s": cpus,
        "outcomes": outcomes,
    }


def _merge_worker_traces(tracer, reports):
    """Fold the counters that pool workers sent back into the parent's.
    Each worker has its own cache, so the peak sizes add up."""
    peaks = {}
    for r in reports:
        delta = getattr(r, "trace", None)
        if delta is None:
            continue
        tracer.per_request[r.id] = delta
        entries = delta.pop("numerators.cache.entries", 0)
        peaks[r.trace_pid] = peaks.get(r.trace_pid, 0) + entries
        for k, v in delta.items():
            tracer.counts[k] += v
    if peaks:
        tracer.counts["numerators.cache.entries"] = sum(peaks.values())


def main():
    spec = json.load(sys.stdin)
    t0 = time.perf_counter()
    import thetaq
    import thetaq.cli  # noqa: F401  (what `thetaq verify` loads)
    from thetaq import identities

    identities.registry()
    setup_s = time.perf_counter() - t0
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(thetaq.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported thetaq from {thetaq.__file__}, not from {src}")
    out = {"setup_s": setup_s, "backend": thetaq.BACKEND}
    if not spec.get("setup_only"):
        tracer = None
        if spec.get("trace"):
            import tracer as tracing

            tracer = tracing.install()
        out.update(run(spec, tracer))
        if tracer is not None:
            out["counts"] = dict(tracer.counts)
            out["per_request"] = tracer.per_request
    print(json.dumps(out))


if __name__ == "__main__":
    main()

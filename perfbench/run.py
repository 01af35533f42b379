"""thetaq benchmark: time to verdict on two workloads (see workloads.py).

    python3 perfbench/run.py --workload parallel_sweep --seed 1 --seconds 60 --trace 0

Run from the root of a checkout.  Each pass runs in a fresh interpreter
(``passrun.py``) with ``THETAQ_BACKEND=fraction``, so no cache survives into
the next pass.  Passes repeat while the next one is expected to end within
``--seconds``; there is always at least one.  Every outcome is graded by the
known-answer gate (``gate.py``).

``--trace 0`` prints the end-to-end metrics (times are medians over the run);
``--trace 1`` alternates traced and untraced passes of the same inputs, at
least one of each, and prints the per-layer metrics, with
``trace.overhead_s`` the difference of their median wall times.  The last
line of stdout is the result; the full record, with run metadata, goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: set-up samples per run: one per pass, topped up with set-up-only processes
SETUP_SAMPLES = 15
#: a run ends within this many seconds, whatever ``--seconds`` says
HARD_LIMIT_S = 170

LAYER_SPANS = (
    "series.mul", "series.inverse", "thetalib.theta", "thetalib.theta_pm",
    "thetalib.eta", "thetalib.mumford", "thetalib.bracket",
    "numerators.triple_sum_weights", "linsolve.decompose",
    "identities.run_identity",
)


class PassError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["THETAQ_BACKEND"] = "fraction"
    env["PYTHONHASHSEED"] = "0"  # set iteration order, hence counters, repeat
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # set-up compiles alike in every run
    return env


def run_pass(spec, deadline):
    """One pass in a fresh interpreter; returns its JSON record."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassError("out of time before the pass started")
    # its own process group, so that a timeout also stops its pool workers
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "passrun.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=child_env(), cwd=ROOT, start_new_session=True,
    )
    try:
        out, err = proc.communicate(json.dumps({**spec, "src": str(SRC)}), timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassError(f"pass did not end within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise PassError(f"pass exited {proc.returncode}:\n{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1])


def run_passes(spec, seconds, trace, deadline):
    """Passes of ``spec`` while the next is expected to end within ``seconds``.
    Traced: passes alternate traced, untraced, traced, ..., at least two."""
    passes = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        traced = trace and len(passes) % 2 == 0
        passes.append(run_pass({**spec, "trace": traced}, deadline))
        took = time.monotonic() - t
        elapsed = time.monotonic() - start
        if trace and len(passes) < 2:
            continue
        if elapsed + took > seconds or time.monotonic() + took > deadline:
            return passes


def setup_samples(passes, deadline):
    samples = [p["setup_s"] for p in passes]
    while len(samples) < SETUP_SAMPLES:
        samples.append(run_pass({"setup_only": True}, deadline)["setup_s"])
    return samples


def quantile(values, q):
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, round(q * len(ordered) + 0.5) - 1))]


def request_medians(passes, field):
    """Each request's median ``field`` over the passes (all passes of a run
    send the same requests)."""
    per_key = {}
    for p in passes:
        for key, v in zip(p["keys"], p[field]):
            per_key.setdefault(key, []).append(v)
    return [statistics.median(v) for v in per_key.values()]


def end_to_end(passes, setups):
    """Times are medians over the run.  The machine this was tuned on
    switches between a fast state and one up to 1.6x slower, for half a
    minute to a few minutes at a time, and CPU time slows with it.  Best
    values repeat only while every run meets some of the fast state; in
    slow stretches they spread about three times as far as medians do.

    latency_p90_ms is the p90 over one pass's requests, median over the
    passes.  deep_orders sends its requests one at a time, so its wall_s
    and cpu_s are the sums of each request's median time, which spread
    less than the median pass; parallel_sweep's requests overlap in two
    workers, so its times are the median pass's."""
    if passes[0]["request_cpu_s"]:
        wall = sum(request_medians(passes, "latencies_ms")) / 1000.0
        cpu = sum(request_medians(passes, "request_cpu_s"))
    else:
        wall = statistics.median(p["wall_s"] for p in passes)
        cpu = statistics.median(p["cpu_s"] for p in passes)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (cpu, "s"),
        "latency_p90_ms": (statistics.median(quantile(p["latencies_ms"], 0.9)
                                             for p in passes), "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def per_layer(passes):
    """Counts from the first traced pass (they repeat exactly); times are
    medians over the traced passes."""
    traced = [p for p in passes if "counts" in p]
    untraced = [p for p in passes if "counts" not in p]
    counts = dict(traced[0]["counts"])
    for key in counts:
        if key.endswith("_s"):
            counts[key] = statistics.median(p["counts"].get(key, 0.0) for p in traced)
    out = {}
    for name in ("cyclo.mul.calls", "cyclo.inverse.calls", "series.mul_trunc.calls",
                 "series.mul_trunc.out_terms", "numerators.ensure_order.calls",
                 "numerators.ensure_order.runs", "numerators.ensure_order.reruns",
                 "numerators.cache.hits", "numerators.cache.misses",
                 "numerators.cache.entries", "linsolve.decompose.insufficient",
                 "linsolve.decompose.input_terms"):
        out[name] = (counts.get(name, 0), "count")
    for span in LAYER_SPANS:
        out[span + ".calls"] = (counts.get(span + ".calls", 0), "count")
        out[span + ".self_s"] = (counts.get(span + ".self_s", 0.0), "s")
    for builder in ("numerator_half", "numerator_int", "ratio_pair", "character",
                    "u_basis", "theta_inv_half"):
        name = "numerators." + builder
        out[name + ".calls"] = (counts.get(name + ".calls", 0), "count")
        out[name + ".total_s"] = (counts.get(name + ".total_s", 0.0), "s")
    busy = statistics.median(p["busy_s"] for p in untraced)
    wall = statistics.median(p["wall_s"] for p in untraced)
    out["pool.busy_s"] = (busy, "s")
    out["pool.efficiency"] = (busy / (untraced[0]["jobs"] * wall), "ratio")
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    out["trace.overhead_s"] = (traced_wall - wall, "s")
    return out


def source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def metadata():
    return {
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    deadline = time.monotonic() + HARD_LIMIT_S
    if not (SRC / "thetaq" / "__init__.py").is_file():
        print(f"no thetaq sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    meta = metadata()
    spec = workloads.make(args.workload, args.seed)
    answers = workloads.load("answers.json")
    try:
        passes = run_passes(spec, args.seconds, bool(args.trace), deadline)
        setups = [] if args.trace else setup_samples(passes, deadline)
    except PassError as exc:
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 1
    meta["backend"] = passes[0]["backend"]
    meta["loadavg_end"] = list(os.getloadavg())

    attempted = failed = 0
    failures = []
    for p in passes:
        p["keys"] = [o["key"] for o in p["outcomes"]]
        n, bad = gate.grade(spec, p.pop("outcomes"), answers)
        attempted += n
        failed += len(bad)
        failures += bad
    if args.trace:
        metrics = per_layer(passes)
    else:
        metrics = end_to_end(passes, setups)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metadata": meta, "spec": spec,
        "failed_ratio": failed / attempted, "failures": failures[:50],
        "latency_samples": len(passes[0]["latencies_ms"]),
        "latency_p50_ms": statistics.median(quantile(p["latencies_ms"], 0.5)
                                            for p in passes),
        "setup_samples_s": setups, "passes": passes, "result": result,
    }
    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for key, reason in failures[:10]:
        print(f"FAILED {key}: {reason}")
    print(f"{args.workload}: {len(passes)} passes, {record['latency_samples']} "
          f"requests in the latency quantiles, failed {failed}/{attempted}, record {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

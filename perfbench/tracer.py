"""Per-layer counters and spans, installed from outside the package.

``install()`` wraps the public entry points of ``cyclo``, ``series``,
``thetalib``, ``numerators``, ``linsolve`` and ``identities`` and rebinds
every name a ``thetaq`` module holds for them, so the references that
``identities``, ``numerators``, ``cli`` and ``thetaq/__init__`` took with
``from ... import`` go through the wrappers too.  Nothing in ``src/`` changes.

A span records its calls, its self time (duration minus the time of the
spans it caused) and its total time (counted only for the outermost active
span of that name, so recursion is not counted twice).  Hot calls, such as
``CycloNum.__mul__`` at ~470k calls per sweep, only count.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.counts = defaultdict(int)
        self.per_request = {}
        self._stack = []  # one [child_seconds] cell per open span
        self._depth = defaultdict(int)

    def span(self, name, fn):
        counts, stack, depth = self.counts, self._stack, self._depth
        calls, self_s, total_s = name + ".calls", name + ".self_s", name + ".total_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            cell = [0.0]
            stack.append(cell)
            depth[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                depth[name] -= 1
                counts[self_s] += dur - cell[0]
                if not depth[name]:
                    counts[total_s] += dur
                if stack:
                    stack[-1][0] += dur
            return result

        return wrapper

    def counter(self, name, fn, extra=None):
        """Count calls only; ``extra(counts, args, result)`` may add more."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if extra is not None:
                extra(counts, args, result)
            return result

        return wrapper

    @contextmanager
    def request(self, key):
        """Attribute the counters that change inside the block to ``key``."""
        before = dict(self.counts)
        try:
            yield
        finally:
            self.per_request[key] = {
                k: v - before.get(k, 0)
                for k, v in self.counts.items()
                if v != before.get(k, 0)
            }


def _ensure_order(tracer, fn):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(builder, order, *args, **kwargs):
        runs = [0]

        def counted_builder(k):
            runs[0] += 1
            return builder(k)

        counts["numerators.ensure_order.calls"] += 1
        try:
            return fn(counted_builder, order, *args, **kwargs)
        finally:
            counts["numerators.ensure_order.runs"] += runs[0]
            counts["numerators.ensure_order.reruns"] += max(runs[0] - 1, 0)

    return wrapper


def _cached(tracer, fn, cache):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(key, build):
        if key in cache:
            counts["numerators.cache.hits"] += 1
            return fn(key, build)
        counts["numerators.cache.misses"] += 1
        result = fn(key, build)
        # peak size between clears; the cache only grows inside a request
        if len(cache) > counts["numerators.cache.entries"]:
            counts["numerators.cache.entries"] = len(cache)
        return result

    return wrapper


def _decompose(tracer, fn, insufficient_error):
    counts = tracer.counts
    inner = tracer.span("linsolve.decompose", fn)

    @functools.wraps(fn)
    def wrapper(target, basis, order):
        counts["linsolve.decompose.input_terms"] += len(target.terms) + sum(
            len(b.terms) for b in basis
        )
        try:
            return inner(target, basis, order)
        except insufficient_error:
            counts["linsolve.decompose.insufficient"] += 1
            raise

    return wrapper


def _mul_trunc_terms(counts, args, result):
    counts["series.mul_trunc.out_terms"] += len(result.terms)


def _run_identity(tracer, fn):
    inner = tracer.span("identities.run_identity", fn)

    @functools.wraps(fn)
    def wrapper(id_, order=None):
        with tracer.request(id_):
            return inner(id_, order)

    return wrapper


def _worker(tracer, fn):
    """Pool workers are forked with the wrappers in place; each report
    carries its request's counters back to the parent."""

    @functools.wraps(fn)
    def wrapper(args):
        report = fn(args)
        report.trace = tracer.per_request.pop(report.id, {})
        report.trace_pid = os.getpid()
        return report

    return wrapper


def _rebind(original, wrapper):
    """Replace every binding of ``original`` in the thetaq modules."""
    n = 0
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "thetaq" or name.startswith("thetaq.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                n += 1
    return n


def install() -> Tracer:
    """Wrap the layer entry points; returns the tracer that collects."""
    import thetaq.cli  # noqa: F401  (its from-imports must exist to be rebound)
    from thetaq import cyclo, identities, linsolve, numerators, series, thetalib

    tracer = Tracer()

    num = cyclo.CycloNum
    num.__mul__ = tracer.counter("cyclo.mul.calls", num.__mul__)
    num.inverse = tracer.counter("cyclo.inverse.calls", num.inverse)

    ser = series.Series
    ser.__mul__ = tracer.span("series.mul", ser.__mul__)
    ser._mul_trunc = tracer.counter(
        "series.mul_trunc.calls", ser._mul_trunc, _mul_trunc_terms
    )
    ser.inverse = tracer.span("series.inverse", ser.inverse)

    functions = [
        (thetalib, name, tracer.span("thetalib." + name, getattr(thetalib, name)))
        for name in ("theta", "theta_pm", "eta", "mumford", "bracket")
    ]
    functions += [
        (numerators, name, tracer.span("numerators." + name.lstrip("_"),
                                       getattr(numerators, name)))
        for name in ("numerator_half", "numerator_int", "ratio_pair", "character",
                     "u_basis", "theta_inv_half", "_triple_sum_weights")
    ]
    functions += [
        (numerators, "ensure_order", _ensure_order(tracer, numerators.ensure_order)),
        (numerators, "_cached",
         _cached(tracer, numerators._cached, numerators._cache)),
        (linsolve, "decompose", _decompose(
            tracer, linsolve.decompose, series.InsufficientOrderError)),
        (identities, "run_identity", _run_identity(tracer, identities.run_identity)),
        (identities, "_worker", _worker(tracer, identities._worker)),
    ]
    for mod, name, wrapper in functions:
        if not _rebind(getattr(mod, name), wrapper):
            raise RuntimeError(f"{mod.__name__}.{name} is bound nowhere")
    return tracer


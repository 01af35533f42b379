"""Command-line front end: expand, verify, branch, list.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage or
configuration error.  JSON output is byte-stable across runs and across
``--jobs`` settings (timings are omitted unless ``--timings`` is given).
"""

from __future__ import annotations

import argparse
import json
import sys

from ._rational import BACKEND, rat, rat_from_str, rat_str
from .series import Series
from .identities import (
    UnknownIdentityError,
    branch_product,
    list_identities,
    run_all,
    run_identity,
    summarize,
)
from .numerators import character, numerator, u_basis
from .thetalib import ThetaSpec, eta, mumford, theta


class UsageError(Exception):
    pass


def _frac(text):
    try:
        return rat_from_str(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational: {text!r}") from exc


def load_config(path):
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError("config must be a JSON object")
    known = {"default_order", "output_format", "parallelism"}
    unknown = set(cfg) - known
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    return cfg


def _parallelism(value):
    """The config's ``parallelism``: a positive int or integer string."""
    try:
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise ValueError
        jobs = int(value)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise UsageError("parallelism must be a positive integer")
    return jobs


def _resolve(args):
    """Merge config file and flags; flags win."""
    cfg = load_config(getattr(args, "config", None))
    order = getattr(args, "order", None)
    if order is None and "default_order" in cfg:
        order = str(cfg["default_order"])
    fmt = getattr(args, "format", None) or cfg.get("output_format", "text")
    if fmt not in ("text", "json", "markdown"):
        raise UsageError(f"unknown format {fmt!r}")
    jobs = getattr(args, "jobs", None)
    if jobs is None:
        jobs = _parallelism(cfg.get("parallelism", 1))
    if jobs < 1:
        raise UsageError("--jobs must be a positive integer")
    order = None if order is None else _frac(order)
    if order is not None and order <= 0:
        raise UsageError("--order must be positive")
    return order, fmt, jobs


def _emit_series(s: Series, fmt: str):
    if fmt == "json":
        print(json.dumps(s.json_obj(), indent=2))
    elif fmt == "markdown":
        print("| qexp | zexp | coefficient |")
        print("| --- | --- | --- |")
        for q, z, c in s.monomials():
            print(f"| {rat_str(q)} | {rat_str(z)} | {c} |")
    else:
        print(s.text())


def cmd_expand(args) -> int:
    order, fmt, _ = _resolve(args)
    if order is None:
        order = rat(6)
    kind = args.kind
    if kind == "theta":
        spec = ThetaSpec(
            _frac(args.j), _frac(args.m), _frac(args.qscale),
            _frac(args.zcoeff), _frac(args.tshift), _frac(args.cshift),
        )
        _emit_series(theta(spec, order), fmt)
    elif kind == "eta":
        _emit_series(eta(_frac(args.scale), args.power, order), fmt)
    elif kind == "mumford":
        _emit_series(
            mumford(args.label, order, qscale=_frac(args.qscale),
                    zcoeff=_frac(args.zcoeff), tshift=_frac(args.tshift),
                    cshift=_frac(args.cshift)),
            fmt,
        )
    elif kind == "numerator":
        _emit_series(numerator(args.m_level, _frac(args.s), order), fmt)
    elif kind == "character":
        _emit_series(character(args.m_level, args.m2, order), fmt)
    elif kind == "ubasis":
        basis = u_basis(args.m_level, args.sector, order)
        if fmt == "json":
            print(json.dumps([b.json_obj() for b in basis], indent=2))
        else:
            for i, b in enumerate(basis):
                print(f"[{i}] {b.text()}")
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown kind {kind}")
    return 0


def _report_lines(reports, fmt, timings):
    if fmt == "json":
        payload = {
            "backend": BACKEND,
            "reports": [r.json_obj(include_timing=timings) for r in reports],
            "summary": summarize(reports),
        }
        return [json.dumps(payload, indent=2)]
    lines = []
    if fmt == "markdown":
        lines.append("| id | kind | status | certified_order | first_mismatch |")
        lines.append("| --- | --- | --- | --- | --- |")
        for r in reports:
            mm = "" if r.first_mismatch is None else (
                f"({rat_str(r.first_mismatch[0])}, {rat_str(r.first_mismatch[1])})"
            )
            lines.append(
                f"| {r.id} | {r.kind} | {r.status} | "
                f"{rat_str(r.certified_order)} | {mm} |"
            )
    else:
        for r in reports:
            extra = ""
            if r.first_mismatch is not None:
                extra = (f"  mismatch at (q^{rat_str(r.first_mismatch[0])}, "
                         f"z^{rat_str(r.first_mismatch[1])})")
            if r.error:
                extra = f"  {r.error}"
            lines.append(
                f"{r.status.upper():5s} {r.id}  "
                f"[order {rat_str(r.certified_order)}, {r.wall_ms:.0f} ms]{extra}"
            )
    counts = summarize(reports)
    lines.append(
        f"{counts['pass']} passed, {counts['fail']} failed, "
        f"{counts['error']} errored, {counts['total']} total"
    )
    return lines


def cmd_verify(args) -> int:
    order, fmt, jobs = _resolve(args)
    overrides = {} if order is None else {"*": order}
    if args.all:
        reports = run_all(order_overrides=overrides, jobs=jobs)
    else:
        if not args.id:
            raise UsageError("verify needs --id or --all")
        reports = []
        for i in args.id:
            try:
                reports.append(run_identity(i, order))
            except UnknownIdentityError:
                raise UsageError(f"unknown identity id: {i}") from None
    for line in _report_lines(reports, fmt, args.timings):
        print(line)
    bad = [r for r in reports if r.status != "pass"]
    return 1 if bad else 0


def _branch_label(text):
    try:
        m, m2 = text.split(":")
        return int(m), int(m2)
    except ValueError:
        raise UsageError(f"label must look like m:m2, got {text!r}") from None


def cmd_branch(args) -> int:
    order, fmt, _ = _resolve(args)
    if order is None:
        order = rat(6)
    left = _branch_label(args.left)
    right = _branch_label(args.right)
    labels, dec = branch_product(left, right, order)
    payload = {
        "left": f"{left[0]}:{left[1]}",
        "right": f"{right[0]}:{right[1]}",
        "basis": [f"{a}:{b}" for a, b in labels],
        "decomposition": dec.json_obj(),
    }
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"{payload['left']} x {payload['right']} over "
              + ", ".join(payload["basis"]))
        print(f"status: {dec.status} (certified below "
              f"{rat_str(dec.certified_order)})")
        for lbl, c in zip(labels, dec.coefficients):
            print(f"  coeff[{lbl[0]}:{lbl[1]}] = {c.text()}")
        if dec.witness is not None:
            print(f"  unmatched monomial: (q^{rat_str(dec.witness[0])}, "
                  f"z^{rat_str(dec.witness[1])})")
    return 0 if dec.status == "exact" else 1


def cmd_list(args) -> int:
    _, fmt, _ = _resolve(args)
    rows = list_identities()
    if fmt == "json":
        print(json.dumps(
            [
                {"id": i, "kind": k, "default_order": rat_str(o), "anchor": a}
                for i, k, o, a in rows
            ],
            indent=2,
        ))
    else:
        for i, k, o, a in rows:
            print(f"{i:44s} {k:15s} order {rat_str(o):4s} {a}")
        print(f"{len(rows)} identities")
    return 0


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--order", default=argparse.SUPPRESS,
                        help="truncation order (rational, e.g. 6 or 13/2)")
    common.add_argument("--format", choices=("text", "json", "markdown"),
                        default=argparse.SUPPRESS)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="path to a JSON config file")
    common.add_argument("--jobs", type=int, default=argparse.SUPPRESS,
                        help="worker processes for verify")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    ap = argparse.ArgumentParser(
        prog="thetaq",
        parents=[common],
        description="Exact q-series engine: expansion, identity "
        "verification, character branching.",
        epilog="config file is JSON with keys "
        "default_order, output_format, parallelism",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("expand", help="expand a named series", parents=[common])
    exsub = ex.add_subparsers(dest="kind", required=True)
    th = exsub.add_parser("theta", parents=[common])
    th.add_argument("--j", required=True)
    th.add_argument("--m", required=True)
    th.add_argument("--qscale", default="1")
    th.add_argument("--zcoeff", default="1")
    th.add_argument("--tshift", default="0")
    th.add_argument("--cshift", default="0")
    et = exsub.add_parser("eta", parents=[common])
    et.add_argument("--scale", default="1")
    et.add_argument("--power", type=int, default=1)
    mu = exsub.add_parser("mumford", parents=[common])
    mu.add_argument("--label", required=True, choices=("00", "01", "10", "11"))
    mu.add_argument("--qscale", default="1")
    mu.add_argument("--zcoeff", default="1")
    mu.add_argument("--tshift", default="0")
    mu.add_argument("--cshift", default="0")
    nu = exsub.add_parser("numerator", parents=[common])
    nu.add_argument("--m", dest="m_level", type=int, required=True)
    nu.add_argument("--s", required=True)
    chp = exsub.add_parser("character", parents=[common])
    chp.add_argument("--m", dest="m_level", type=int, required=True)
    chp.add_argument("--m2", type=int, required=True)
    ub = exsub.add_parser("ubasis", parents=[common])
    ub.add_argument("--m", dest="m_level", type=int, required=True)
    ub.add_argument("--sector", required=True, choices=("half", "integer"))
    ex.set_defaults(fn=cmd_expand)

    ve = sub.add_parser("verify", help="run identity checks", parents=[common])
    ve.add_argument("--id", action="append", help="identity id (repeatable)")
    ve.add_argument("--all", action="store_true")
    ve.add_argument("--timings", action="store_true",
                    help="include wall_ms in JSON reports (non-reproducible)")
    ve.set_defaults(fn=cmd_verify)

    br = sub.add_parser("branch", help="decompose a character product", parents=[common])
    br.add_argument("--left", required=True, metavar="m:m2")
    br.add_argument("--right", required=True, metavar="m:m2")
    br.set_defaults(fn=cmd_branch)

    li = sub.add_parser("list", help="list identity checks", parents=[common])
    li.set_defaults(fn=cmd_list)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

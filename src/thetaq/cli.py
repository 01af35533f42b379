"""Command-line front end: expand, verify, branch, list.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage or
configuration error.  JSON output is byte-stable across runs and across
``--jobs`` settings (timings are omitted unless ``--timings`` is given).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ._rational import BACKEND, rat, rat_from_str, rat_str
from .identities import (
    UnknownIdentityError,
    branch_product,
    list_identities,
    run_all,
    run_identity,
    summarize,
)
from .numerators import character, numerator, u_basis
from .thetalib import eta, mumford, theta


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


def _emit(fmt, obj, head, rows, lines, before=(), after=()):
    """Print a command's output; the one place that tells the formats apart.

    json prints ``obj``.  markdown prints the ``before`` blocks, the table of
    ``rows`` under ``head`` and the ``after`` blocks, with a blank line
    between blocks; a block's leading indentation, which text uses for
    detail lines, is dropped.  text prints ``before``, ``lines`` and
    ``after``, one line each.
    """
    if fmt == "json":
        print(json.dumps(obj, indent=2))
    elif fmt == "markdown":
        table = "\n".join("| " + " | ".join(map(str, r)) + " |"
                          for r in [head, ["---"] * len(head), *rows])
        print("\n\n".join(b.lstrip() for b in (*before, table, *after)))
    else:
        for line in (*before, *lines, *after):
            print(line)


def _monomial_rows(s, *lead):
    return ((*lead, rat_str(q), rat_str(z), c) for q, z, c in s.monomials())


_MONOMIAL_HEAD = ("qexp", "zexp", "coefficient")

# the argument shifts that ``theta`` and ``mumford`` take, with defaults
_SHIFTS = {"qscale": "1", "zcoeff": "1", "tshift": "0", "cshift": "0"}


def _shifts(args):
    return {name: _frac(getattr(args, name)) for name in _SHIFTS}


def cmd_expand(args) -> int:
    order, fmt, _ = _resolve(args)
    if order is None:
        order = rat(6)
    if args.kind == "ubasis":
        basis = u_basis(args.m_level, args.sector, order)
        _emit(fmt, [b.json_obj() for b in basis],
              ("generator", *_MONOMIAL_HEAD),
              (row for i, b in enumerate(basis) for row in _monomial_rows(b, i)),
              (f"[{i}] {b.text()}" for i, b in enumerate(basis)))
        return 0
    s = {
        "theta": lambda: theta(_frac(args.j), _frac(args.m), order,
                               **_shifts(args)),
        "eta": lambda: eta(_frac(args.scale), args.power, order),
        "mumford": lambda: mumford(args.label, order, **_shifts(args)),
        "numerator": lambda: numerator(args.m_level, _frac(args.s), order),
        "character": lambda: character(args.m_level, args.m2, order),
    }[args.kind]()
    _emit(fmt, s.json_obj(), _MONOMIAL_HEAD, _monomial_rows(s), [s.text()])
    return 0


def _qz(pair):
    return f"(q^{rat_str(pair[0])}, z^{rat_str(pair[1])})"


def cmd_verify(args) -> int:
    order, fmt, jobs = _resolve(args)
    if args.all:
        reports = run_all(order, jobs=jobs)
    else:
        if not args.id:
            raise UsageError("verify needs --id or --all")
        reports = []
        for i in args.id:
            try:
                reports.append(run_identity(i, order))
            except UnknownIdentityError:
                raise UsageError(f"unknown identity id: {i}") from None
    counts = summarize(reports)
    _emit(
        fmt,
        {"backend": BACKEND,
         "reports": [r.json_obj(include_timing=args.timings) for r in reports],
         "summary": counts},
        ("id", "kind", "status", "certified_order", "first_mismatch"),
        ((r.id, r.kind, r.status, rat_str(r.certified_order),
          "" if r.first_mismatch is None else
          "({}, {})".format(*map(rat_str, r.first_mismatch)))
         for r in reports),
        (f"{r.status.upper():5s} {r.id}  "
         f"[order {rat_str(r.certified_order)}, {r.wall_ms:.0f} ms]"
         + (f"  {r.error}" if r.error else
            "" if r.first_mismatch is None else
            f"  mismatch at {_qz(r.first_mismatch)}")
         for r in reports),
        after=[f"{counts['pass']} passed, {counts['fail']} failed, "
               f"{counts['error']} errored, {counts['total']} total"],
    )
    return 1 if any(r.status != "pass" for r in reports) else 0


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
    pair = _branch_label(args.left), _branch_label(args.right)
    labels, dec = branch_product(*pair, order)
    left, right = (f"{m}:{m2}" for m, m2 in pair)
    basis = [f"{m}:{m2}" for m, m2 in labels]
    coeffs = [(lbl, c.text()) for lbl, c in zip(basis, dec.coefficients)]
    _emit(
        fmt,
        {"left": left, "right": right, "basis": basis,
         "decomposition": dec.json_obj()},
        ("label", "coefficient"), coeffs,
        (f"  coeff[{lbl}] = {text}" for lbl, text in coeffs),
        before=[f"{left} x {right} over " + ", ".join(basis),
                f"status: {dec.status} (certified below "
                f"{rat_str(dec.certified_order)})"],
        after=[] if dec.witness is None else
        [f"  unmatched monomial: {_qz(dec.witness)}"],
    )
    return 0 if dec.status == "exact" else 1


def cmd_list(args) -> int:
    _, fmt, _ = _resolve(args)
    head = ("id", "kind", "default_order", "anchor")
    rows = [(i, k, rat_str(o), a) for i, k, o, a in list_identities()]
    _emit(
        fmt, [dict(zip(head, r)) for r in rows], head, rows,
        (f"{i:44s} {k:15s} order {o:4s} {a}" for i, k, o, a in rows),
        after=[f"{len(rows)} identities"],
    )
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
    et = exsub.add_parser("eta", parents=[common])
    et.add_argument("--scale", default="1")
    et.add_argument("--power", type=int, default=1)
    mu = exsub.add_parser("mumford", parents=[common])
    mu.add_argument("--label", required=True, choices=("00", "01", "10", "11"))
    for p in (th, mu):
        for name, default in _SHIFTS.items():
            p.add_argument(f"--{name}", default=default)
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
        rc = args.fn(args)
        sys.stdout.flush()
        return rc
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout (``thetaq list | head -1``); point it at
        # devnull so the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Opt-in mutation sweep: which one-operator slips does the registry see?

    python3 tests/mutation_sweep.py

Each mutant flips one binary ``+``/``-`` or drops one unary minus in
``numerators.py``, ``thetalib.py``, ``cyclo.py``, ``linsolve.py`` or
``series.py``, found with the stdlib ``ast`` and ``tokenize`` modules.
Mutants run one at a time: each is written into a temporary copy of the
package, and ``verify --all --format json --jobs 2`` runs on that copy in
a fresh process (its own process group, 2 GiB of address space, killed
with its pool after 120 s).  A case kills a mutant when its status differs
from the unmutated copy's.  One line
is printed per mutant; the survivors (mutants no case kills) are listed at
the end and written to ``tests/mutation_survivors.txt``.

Nothing is written under ``src/``.  Not collected by pytest: a sweep runs
``verify --all`` once per mutant, and a mutant that loops or grows without
bound runs into the timeout or the memory cap.
"""

from __future__ import annotations

import ast
import io
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "thetaq"
MODULES = ("numerators", "thetalib", "cyclo", "linsolve", "series")
TIMEOUT = 120
MEMORY_CAP = 2 << 30


def mutants(source: str):
    """(line, col, old, new, mutated source) for every +/- site, in order."""
    lines = source.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))

    def offset(row, col):
        return starts[row - 1] + col

    def at(row, byte_col):
        """(row, character column) of an ``ast`` position, which counts
        UTF-8 bytes; ``tokenize`` counts characters."""
        return row, len(lines[row - 1].encode()[:byte_col].decode())

    ops = [
        tok.start
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.OP and tok.string in "+-"
    ]
    tree = ast.parse(source)
    # f-string parts carry no tokens of their own: leave them alone
    quoted = {id(n) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr)
              for n in ast.walk(f)}
    sites = []
    for node in ast.walk(tree):
        if id(node) in quoted:
            continue
        if (isinstance(node, ast.BinOp)
                and isinstance(node.op, (ast.Add, ast.Sub))):
            lo = at(node.left.end_lineno, node.left.end_col_offset)
            hi = at(node.right.lineno, node.right.col_offset)
            row, col = next(p for p in ops if lo <= p < hi)
            old = "+" if isinstance(node.op, ast.Add) else "-"
            sites.append((row, col, old, "-" if old == "+" else "+"))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            sites.append((*at(node.lineno, node.col_offset), "-", ""))
    for row, col, old, new in sorted(sites):
        i = offset(row, col)
        assert source[i] == old
        yield row, col, old, new, source[:i] + new + source[i + 1:]


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def statuses(src: Path):
    """id -> status of ``verify --all`` on the package under ``src``, or a
    one-word outcome when no report comes back."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "thetaq.cli", "verify", "--all",
           "--format", "json", "--jobs", "2"]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True,
                            start_new_session=True, preexec_fn=_limit_memory)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "timeout"
    try:
        reports = json.loads(out)["reports"]
    except (ValueError, KeyError):
        return "crash"
    return {r["id"]: r["status"] for r in reports}


def main() -> int:
    survivors = []
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(PACKAGE, src / "thetaq",
                        ignore=shutil.ignore_patterns("__pycache__"))
        base = statuses(src)
        if isinstance(base, str) or set(base.values()) != {"pass"}:
            print(f"unmutated copy does not pass every case: {base!r:.200}")
            return 2
        for name in MODULES:
            path = src / "thetaq" / f"{name}.py"
            original = path.read_text()
            text = original.splitlines()
            for row, col, old, new, mutated in mutants(original):
                count += 1
                path.write_text(mutated)
                got = statuses(src)
                path.write_text(original)
                if isinstance(got, str):
                    verdict = got
                else:
                    killed = sorted(i for i in base if got.get(i) != base[i])
                    verdict = f"killed by {len(killed)}"
                    if 0 < len(killed) <= 3:
                        verdict += f" ({', '.join(killed)})"
                site = (f"{name}.py:{row}:{col} {old!r} -> {new!r}: "
                        f"{text[row - 1].strip()}")
                print(f"{verdict:<12} {site}", flush=True)
                if verdict == "killed by 0":
                    survivors.append(site)
    head = (f"# {len(survivors)} of {count} mutants survive: "
            f"tests/mutation_sweep.py\n")
    listing = head + "".join(s + "\n" for s in survivors)
    print("\n" + listing, end="")
    (TESTS / "mutation_survivors.txt").write_text(listing)
    return 0


if __name__ == "__main__":
    sys.exit(main())

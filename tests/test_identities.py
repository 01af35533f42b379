import concurrent.futures
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from thetaq._rational import rat
from thetaq import cyclo, identities
from thetaq.cli import main
from thetaq.identities import (
    UnknownIdentityError,
    equality_check,
    list_identities,
    registry,
    run_all,
    run_identity,
    summarize,
)
from thetaq.series import Series
from thetaq.thetalib import theta


def test_registry_nonempty_and_sorted():
    rows = list_identities()
    assert len(rows) >= 40
    ids = [r[0] for r in rows]
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)


def test_registry_rejects_a_duplicate_id():
    reg = {}
    identities._add(reg, "S9.dup", "equality", 6, "anchor", None)
    with pytest.raises(ValueError, match="duplicate identity id S9.dup"):
        identities._add(reg, "S9.dup", "equality", 8, "other", None)
    assert list(reg) == ["S9.dup"]
    assert reg["S9.dup"].default_order == 6


def test_registry_contains_pinned_ids():
    ids = {r[0] for r in list_identities()}
    for required in (
        "S2.mumford.item2",
        "S2.squares.item3",
        "S3.prod.K1xK1.case1",
        "S4.pindep.m1.half",
        "S5.UeqV.m3.integer",
        "S5.ladder.m2.s1/2",
    ):
        assert required in ids


def test_default_orders():
    reg = registry()
    assert reg["S2.mult-lemma.n1m1.j0k0"].default_order == 6
    assert reg["S3.coincide.00"].default_order == 8
    assert reg["S5.UeqV.m1.half"].default_order == 4


def test_run_identity_pass():
    r = run_identity("S2.squares.item3", 6)
    assert r.status == "pass"
    assert r.certified_order == 6
    assert r.first_mismatch is None


def test_run_identity_unknown():
    with pytest.raises(UnknownIdentityError):
        run_identity("nonsense")


def test_injected_fault_reports_mismatch():
    # perturb one side by +q^3 and watch the report pinpoint it
    chk = equality_check(
        lambda o: theta(0, 1, o) + Series.monomial(cyclo.ONE, rat(3), rat(0)),
        lambda o: theta(0, 1, o),
    )
    assert chk(rat(6)) == (False, (3, 0))


def _equality_check_build_orders(gap):
    """The orders one side of an equality check at order 3 is built at,
    when that side is trusted only ``gap`` below its build order."""
    built = []

    def short(o):
        built.append(o)
        return theta(0, 1, o + 1).restrict(o - gap)

    res = equality_check(short, lambda o: theta(0, 1, o))(rat(3))
    assert res == (True, None)
    return built


def test_equality_check_rebuilds_a_short_side():
    # the first build, at 3 + 1/2, is trusted to 71/24, 1/24 short of 3,
    # so the check reruns one rung higher
    assert _equality_check_build_orders(rat(13, 24)) == [rat(7, 2), 4]


def test_equality_check_head_start_covers_a_small_shortfall():
    assert _equality_check_build_orders(rat(1, 24)) == [rat(7, 2)]


# the cases whose first attempt, built at order + 1/2, still falls short:
# none, now that the S2.shift626d right side is built at order - q^ before
# its shift (its inverse loses 1/8, well inside the head start)
_RERUN_IDS = set()


@pytest.mark.slow
def test_head_start_leaves_only_the_known_reruns(monkeypatch):
    real = identities.ensure_order
    case, reruns, branch_builds = [None], set(), []

    def counting(attempt, order):
        runs = []

        def counted(k):
            runs.append(k)
            return attempt(k)

        try:
            return real(counted, order)
        finally:
            if len(runs) > 1:
                reruns.add(case[0])

    real_branch, real_character = identities.branch_product, identities.character
    inside = []

    def branch(left, right, order):
        inside.append((order, []))
        try:
            return real_branch(left, right, order)
        finally:
            branch_builds.append(inside.pop())

    def character(m, m2, order):
        if inside:
            inside[-1][1].append(order)
        return real_character(m, m2, order)

    monkeypatch.setattr(identities, "ensure_order", counting)
    monkeypatch.setattr(identities, "branch_product", branch)
    monkeypatch.setattr(identities, "character", character)
    for id_ in registry():
        case[0] = id_
        assert run_identity(id_).status == "pass", id_
    assert reruns == _RERUN_IDS

    # every branch_product attempt builds its characters at order + 1/2
    assert branch_builds
    for order, built in branch_builds:
        assert built and set(built) == {order + rat(1, 2)}


@pytest.mark.parametrize("left, right, order, digest", [
    ("2:0", "2:1", "12",
     "4b6a73b89e00460d3d7b03003fcbb2edab3b63c5ae564ad340b94b7eabcf4bd8"),
    ("1:1", "1:1", "14",
     "67e3665cc20418eaa4af2b072b00f1a3f8b1719fe152aefd5a63aa7e285ebfee"),
])
def test_branch_json_is_pinned(capsys, left, right, order, digest):
    # branch prints every coefficient and the certified order: building
    # the characters 1/2 above the order must move none of them
    rc = main(["branch", "--left", left, "--right", right,
               "--order", order, "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_monotone_certification():
    # raising the order never flips trusted terms
    low = run_identity("S2.mumford.item2", 4)
    high = run_identity("S2.mumford.item2", 7)
    assert low.status == high.status == "pass"


def test_run_all_subset_and_summary():
    ids = [
        "S2.mumford.item1",
        "S2.mumford.item2",
        "S2.squares.item1",
        "S5.ladder.degenerate.m1",
    ]
    reports = run_all(ids=ids)
    assert [r.id for r in reports] == ids
    counts = summarize(reports)
    assert counts["pass"] == 4
    assert counts["total"] == 4


def test_run_all_runs_every_case_at_the_given_order():
    ids = ["S2.mumford.item2", "S5.ladder.degenerate.m1"]
    reports = run_all(rat(3), ids=ids)
    assert [(r.status, r.certified_order) for r in reports] == [
        ("pass", 3), ("pass", 3)]


@pytest.mark.parametrize("order", ["1/2", "1", "3"])
def test_shift626d_passes_below_its_shift(order):
    # the q^ shifts reach 243/64, so these orders build the right side's
    # theta ratio at or below its divisor's q^(1/16) lead
    ids = [i for i in registry() if i.startswith("S2.shift626d.")]
    reports = run_all(rat(order), ids=ids)
    assert len(reports) == 48
    assert {(r.status, r.certified_order) for r in reports} == {
        ("pass", rat(order))}


def test_run_all_parallel_matches_serial():
    ids = [
        "S2.mumford.item2",
        "S2.squares.item3",
        "S3.coincide.00",
        "S3.prod.K1xK1.case1",
        "S5.member.half.m1.p0",
        "S5.UeqV.m1.half",
    ]
    serial = run_all(ids=ids)
    parallel = run_all(ids=ids, jobs=2)
    for a, b in zip(serial, parallel):
        assert a.json_obj() == b.json_obj()


def test_run_all_pool_is_no_larger_than_tasks_or_cores(monkeypatch):
    # a stand-in executor records the pool size and maps serially, so no
    # process is started whatever ``jobs`` says
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    # run_all imports the executor from concurrent.futures when a pool runs
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(identities.os, "cpu_count", lambda: 64)
    ids = ["S2.mumford.item1", "S2.mumford.item2", "S2.squares.item1"]
    serial = [r.json_obj() for r in run_all(ids=ids)]
    assert [r.json_obj() for r in run_all(jobs=10**6, ids=ids)] == serial
    assert sizes == [3]
    one = run_all(jobs=5, ids=ids[:1])
    assert sizes == [3]  # one task: the serial path, no executor
    assert [r.json_obj() for r in one] == serial[:1]
    monkeypatch.setattr(identities.os, "cpu_count", lambda: 2)
    assert [r.json_obj() for r in run_all(jobs=10**6, ids=ids)] == serial
    assert sizes == [3, 2]


_IMPORT_SET = """
import os, sys
import thetaq, thetaq.cli
from thetaq import identities
identities.registry()
ids = ["S2.mumford.item2", "S2.squares.item3", "S5.UeqV.m1.half"]
identities.run_all(ids=ids)
thetaq.cli.branch_product((1, 1), (1, 1), 4)
heavy = ("concurrent.futures", "multiprocessing", "dataclasses", "inspect")
print([m for m in heavy if m in sys.modules])
os.cpu_count = lambda: 2  # two workers, even on a one-core machine
identities.run_all(ids=ids, jobs=2)
print("concurrent.futures" in sys.modules)
"""


@pytest.mark.slow
def test_serial_work_imports_no_pool_and_no_dataclasses():
    # the pool's modules load only when a pool runs; none of the package's
    # records needs dataclasses (which pulls in inspect, ast and dis)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_SET],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "True"]


def test_order_override():
    r = run_identity("S2.mumford.item2", rat(3))
    assert r.status == "pass" and r.certified_order == 3


def test_report_json_schema():
    r = run_identity("S2.squares.item3")
    obj = r.json_obj()
    assert set(obj) == {"id", "kind", "status", "certified_order",
                        "first_mismatch", "wall_ms"}
    assert obj["wall_ms"] is None
    timed = r.json_obj(include_timing=True)
    assert isinstance(timed["wall_ms"], float)


def test_anchor_text_present():
    for _, _, _, anchor in list_identities()[:20]:
        assert anchor and isinstance(anchor, str)


@pytest.mark.slow
def test_perfbench_tracer_counts_registry_retries():
    # perfbench/tracer.py rebinds `ensure_order` from outside the package;
    # S2.shift626d.item2i.p0m2 runs its attempt once, and an attempt that
    # loses half a unit of trust is run twice by the rebound loop
    root = pathlib.Path(__file__).resolve().parents[1]
    code = (
        "import json, tracer\n"
        "t = tracer.install()\n"
        "from thetaq import identities\n"
        "from thetaq._rational import rat\n"
        "from thetaq.series import Series\n"
        "def counts():\n"
        "    return {k: v for k, v in t.counts.items()"
        " if k.startswith('numerators.ensure_order.')}\n"
        "out = []\n"
        "assert identities.run_identity('S2.shift626d.item2i.p0m2')"
        ".status == 'pass'\n"
        "out.append(counts())\n"
        "t.counts.clear()\n"
        "identities.ensure_order("
        "lambda k: Series.zero(k - rat(1, 2)).restrict(3), rat(3))\n"
        "out.append(counts())\n"
        "print(json.dumps(out))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join([str(root / "src"),
                                            str(root / "perfbench")])},
    )
    assert proc.returncode == 0, proc.stderr
    once, lossy = json.loads(proc.stdout)
    assert once == {
        "numerators.ensure_order.calls": 1,
        "numerators.ensure_order.runs": 1,
        "numerators.ensure_order.reruns": 0,
    }
    assert lossy == {
        "numerators.ensure_order.calls": 1,
        "numerators.ensure_order.runs": 2,
        "numerators.ensure_order.reruns": 1,
    }


@pytest.mark.slow
def test_perfbench_tracer_counts_closure_builds():
    # a closure check is one attempt: the factor, both sector bases and
    # every membership at one build order; `decompose`'s input terms are
    # read through `Series.terms`
    root = pathlib.Path(__file__).resolve().parents[1]
    code = (
        "import json, tracer\n"
        "t = tracer.install()\n"
        "from thetaq.identities import run_identity\n"
        "out = {}\n"
        "for i in ('S5.closure.item1.m2', 'S5.charclosure.U.ch1-0.m3.half'):\n"
        "    before = dict(t.counts)\n"
        "    assert run_identity(i).status == 'pass'\n"
        "    out[i] = {k: t.counts[k] - before.get(k, 0) for k in (\n"
        "        'numerators.ensure_order.calls', 'numerators.u_basis.calls',\n"
        "        'linsolve.decompose.calls', 'linsolve.decompose.input_terms')}\n"
        "print(json.dumps(out))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join([str(root / "src"),
                                            str(root / "perfbench")])},
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    for case, terms in (("S5.closure.item1.m2", 196),
                        ("S5.charclosure.U.ch1-0.m3.half", 236)):
        assert counts[case] == {
            "numerators.ensure_order.calls": 1,
            "numerators.u_basis.calls": 2,
            "linsolve.decompose.calls": 2,
            "linsolve.decompose.input_terms": terms,
        }, case


def test_closure_check_builds_its_bases_once(monkeypatch):
    orders = []
    u_basis = identities.u_basis

    def recording(m, sector, order):
        orders.append(order)
        return u_basis(m, sector, order)

    monkeypatch.setattr(identities, "u_basis", recording)
    assert run_identity("S5.closure.item1.m2", rat(4)).status == "pass"
    assert orders == [rat(9, 2), rat(9, 2)]


def test_gen_rejects_a_function_not_bound_by_its_name():
    with pytest.raises(ValueError):
        identities._gen(lambda o: o)


def test_pindep_fails_on_a_nonvanishing_undivided_combination(monkeypatch):
    # (m, p) = (2, 2) is degenerate: the half-sector divisor vanishes, and
    # the case then checks that the undivided combination vanishes instead
    nonzero = Series({(rat(5, 2), rat(1)): cyclo.ONE,
                      (rat(3, 2), rat(-1, 2)): cyclo.I}, rat(10))
    monkeypatch.setattr(identities, "undivided_half_combination",
                        lambda m, p, order: nonzero)
    r = run_identity("S4.pindep.m2.half")
    assert r.status == "fail"
    assert r.first_mismatch == (rat(3, 2), rat(-1, 2))

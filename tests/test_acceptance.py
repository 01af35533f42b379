"""Acceptance suite: one test per criterion, exact (zero tolerance) on
trusted terms, printing one PASS/FAIL line per criterion.

Criterion 7a (z-freeness of the derived denominator) is a strict expected
failure: the denominator provably lives on half-integer elliptic exponents
(see the analysis in test_criterion7a and the repository notes), so the
assertion is stated faithfully and marked xfail(strict=True).
"""

import hashlib
import json
import subprocess
import sys
import time

import pytest

from thetaq._rational import rat
from thetaq import cyclo
from thetaq.cli import branch_product
from thetaq.identities import registry, run_all, run_identity
from thetaq.numerators import (
    DegenerateDivisorError,
    character,
    derived_denominator,
    numerator,
    numerator_half,
    numerator_int,
    u_basis,
    undivided_half_combination,
)
from thetaq.series import Series
from thetaq.thetalib import eta, mumford, theta

from conftest import assert_equal_series, eta_product, is_zfree, span_equal


def _line(criterion, status, detail=""):
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())


def _run_group(prefix, order=None):
    ids = [i for i in registry() if i.startswith(prefix)]
    assert ids, f"no cases under {prefix}"
    reports = run_all(order, ids=ids)
    bad = [(r.id, r.status, r.first_mismatch, r.error)
           for r in reports if r.status != "pass"]
    return reports, bad


def test_criterion1_section2_suite_exact_and_fast():
    t0 = time.time()
    reports, bad = _run_group("S2.", order=rat(6))
    wall = time.time() - t0
    assert not bad, bad
    assert wall < 300, f"section-2 sweep took {wall:.1f}s"
    _line(1, "PASS", f"({len(reports)} cases at order 6 in {wall:.1f}s)")


def test_criterion2_coincidences_at_order8():
    for cid in ("S3.coincide.00", "S3.coincide.10"):
        r = run_identity(cid, rat(8))
        assert r.status == "pass", (cid, r.first_mismatch)
    assert_equal_series(mumford("00", 8, qscale=2), theta(0, 1, 8), 8)
    assert_equal_series(mumford("10", 8, qscale=2), theta(1, 1, 8), 8)
    _line(2, "PASS", "(both doubled-theta coincidences at order 8)")


def test_criterion3_branching_vs_eta_quotient_oracles():
    K = rat(9)
    A = eta(1, 3, K) * eta(rat(1, 2), -1, K) * eta(2, -1, K)
    B = eta(rat(1, 2), 1, K) * eta(2, 1, K) * eta(1, -2, K)
    C = eta(1, 1, K) * eta(rat(1, 2), -1, K)
    half = cyclo.CycloNum(rat(1, 2))
    mhalf = cyclo.CycloNum(rat(-1, 2))

    def m(s, c):
        return s.times_monomial(c)

    cases = [
        ((1, 0), (1, 1), [B]),
        ((1, 0), (1, 0), [m(A + B, mhalf), m(A - B, half)]),
        ((1, 1), (1, 1), [m(A - B, half), m(A + B, mhalf)]),
        ((2, 1), (2, 0), [m(C + B, mhalf), m(C - B, half)]),
        ((2, 1), (2, 2), [m(C - B, half), m(C + B, mhalf)]),
    ]
    for left, right, oracles in cases:
        labels, dec = branch_product(left, right, rat(6))
        assert dec.status == "exact", (left, right, dec.witness)
        assert len(dec.coefficients) == len(oracles)
        for got, expect in zip(dec.coefficients, oracles):
            o = min(rat(6), got.cutoff, expect.cutoff)
            assert_equal_series(got, expect, o, f"{left}x{right}")
    assert cases[0][2][0].ord == rat(1, 48)
    _line(3, "PASS", "(5 products, coefficients equal eta-quotient oracles "
                     "to order 6)")


def test_criterion4_p_independence():
    for m in (1, 2, 3, 4, 5):
        built = {}
        for p in (0, 1, 2):
            try:
                s = numerator_half(m, p, 4)
                assert s.cutoff >= 4
                built[p] = s
            except DegenerateDivisorError:
                assert (m, p) == (2, 2)
                comb = undivided_half_combination(2, 2, 4).restrict(4)
                assert comb.is_zero_series()
        for p, s in built.items():
            assert_equal_series(built[0], s, 4, f"half m={m} p={p}")
    for m in (1, 3, 5):
        base = numerator_int(m, 0, 4)
        assert base.cutoff >= 4
        for p in (1, 2):
            assert_equal_series(base, numerator_int(m, p, 4), 4,
                                f"int m={m} p={p}")
    _line(4, "PASS", "(14 half-sector points + degenerate (2,2) residue + "
                     "9 integer-sector points, order 4)")


def test_criterion5_ladder():
    grid = [(2, rat(1, 2)), (2, rat(3, 2)),
            (3, rat(1, 2)), (3, rat(1)), (3, rat(3, 2))]
    for m, s in grid:
        r = run_identity(f"S5.ladder.m{m}.s{s}", rat(4))
        assert r.status == "pass", (m, s, r.first_mismatch)
    assert_equal_series(numerator(1, rat(1, 2), 4),
                        numerator(1, rat(3, 2), 4), 4)
    _line(5, "PASS", "(5 ladder steps + the degenerate level-1 equality)")


def test_criterion6_span_equalities():
    _, bad = _run_group("S5.UeqV.", order=rat(4))
    assert not bad, bad
    _line(6, "PASS", "(half sector levels 1-4, integer sector levels 1,3, "
                     "both directions at order 4)")


@pytest.mark.xfail(
    strict=True,
    reason="no z-free derived denominator exists: eta*F[1,1/2]/theta_{0,1} "
    "is supported on zeta-exponents in 1/2+Z (the half-sector quotient "
    "brackets live on the zeta^{1/2+Z} coset while theta_{0,1} lives on "
    "zeta^Z), so the stated z-freeness is mathematically unattainable; "
    "every downstream span statement holds with the z-dependent "
    "denominator (see criterion 7b)",
)
def test_criterion7a_denominator_zfree_as_stated():
    r0 = derived_denominator(4)
    _line("7a", "FAIL", "(expected: denominator carries half-integer "
                        "elliptic exponents)")
    assert is_zfree(r0), "eta*F[1,1/2]/theta_{0,1} is not z-free"


def test_criterion7b_denominator_spans():
    K = rat(8)
    r0 = derived_denominator(K)
    fam_a = [r0 * character(2, 0, K), r0 * character(2, 2, K)]
    fam_b = [numerator(2, rat(1, 2), 6), numerator(2, rat(3, 2), 6)]
    order = min([rat(4)] + [x.cutoff for x in fam_a + fam_b])
    assert order >= 4
    assert span_equal(fam_a, fam_b, 4)
    r = run_identity("S5.denominator.span.m2", rat(4))
    assert r.status == "pass"
    _line("7b", "PASS", "(denominator times even level-2 characters spans "
                        "the level-2 numerators)")


def test_criterion8_closure_suite():
    _, bad = _run_group("S5.closure.", order=rat(4))
    assert not bad, bad
    _, bad = _run_group("S5.charclosure.U.", order=rat(4))
    assert not bad, bad
    _line(8, "PASS", "(all closure-lemma items and character-closure "
                     "instances at order 4)")


def test_criterion9_eta_oracles_to_order24():
    # eta is built from Euler's series and its powers; the oracle is the
    # defining product
    assert_equal_series(eta(1, 1, 24), eta_product(1, 1, 24), 24)
    assert_equal_series(eta(1, 3, 24), eta_product(1, 3, 24), 24)
    _line(9, "PASS", "(eta and eta^3 against the product form to order 24)")


# sha256 of the serial `verify --all --format json` report with its
# "backend" field removed, re-dumped with indent=2; any change to an id,
# status, certified order or first mismatch changes it
VERIFY_ALL_SHA256 = (
    "fbf1537b716bdb3b130e7f8686cd927f890784868d632cad68198a19d77a4340"
)


@pytest.mark.slow
def test_criterion10_determinism_of_verify_all():
    def run(jobs):
        proc = subprocess.run(
            [sys.executable, "-m", "thetaq.cli", "verify", "--all",
             "--format", "json", "--jobs", str(jobs)],
            capture_output=True, text=True, timeout=1200,
        )
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        return proc.stdout

    first = run(1)
    second = run(1)
    parallel = run(2)
    assert first == second, "two serial runs differ"
    assert first == parallel, "serial and parallel runs differ"
    payload = json.loads(first)
    assert payload["summary"]["fail"] == 0
    assert payload["summary"]["error"] == 0
    del payload["backend"]
    digest = hashlib.sha256(json.dumps(payload, indent=2).encode()).hexdigest()
    assert digest == VERIFY_ALL_SHA256, "verify --all report differs from the pin"
    _line(10, "PASS", f"(byte-identical JSON across runs and jobs; "
          f"{payload['summary']['total']} reports)")


# sha256 of the raw stdout of `verify --all --order N --format json --jobs
# 2`; at order 10 every case reaches deeper into the triple sums and
# eliminations than at the default orders, and at orders 14, 18 and 24 the
# products, inverses and etas are long enough for the packed-layer kernels
# and the rebuilt Euler powers, so this pins them there too
VERIFY_ALL_ORDER_SHA256 = {
    10: "82a24d519daf9513b3784bd2db36b9ff5120e557c8f8686c840fc3fc2a4538b6",
    14: "8cad1fe5e270e309e4f1170f10ce843ed437ae1b22898a4d0f1b3995ff7bc083",
    18: "4c7c8b9e8afd4eaddb46788aef165b83c318bdc475187087eeecc83606c3f01b",
    24: "cc502bb415dbc271d0c59f19f05dfd4fef5f9957f2750bf9f206b7b169517c38",
}


def _verify_all_digest(order):
    proc = subprocess.run(
        [sys.executable, "-m", "thetaq.cli", "verify", "--all", "--order",
         str(order), "--format", "json", "--jobs", "2"],
        capture_output=True, timeout=1200,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return hashlib.sha256(proc.stdout).hexdigest()


@pytest.mark.slow
def test_criterion10_verify_all_at_order10_is_pinned():
    assert _verify_all_digest(10) == VERIFY_ALL_ORDER_SHA256[10], (
        "order-10 report differs from the pin")
    _line(10, "PASS", "(order-10 report matches its pin)")


@pytest.mark.slow
@pytest.mark.parametrize("order", [14, 18, 24])
def test_verify_all_at_depth_is_pinned(order):
    assert _verify_all_digest(order) == VERIFY_ALL_ORDER_SHA256[order], (
        f"order-{order} report differs from the pin")


# sha256 of the raw stdout of `verify --all --format markdown`
VERIFY_ALL_MARKDOWN_SHA256 = (
    "c302f7eb6c83e58c01d3ffe5cf590ce5af8d8396196e072794dd0b66f0141adc")


@pytest.mark.slow
def test_verify_all_markdown_is_pinned():
    proc = subprocess.run(
        [sys.executable, "-m", "thetaq.cli", "verify", "--all", "--format",
         "markdown"],
        capture_output=True, timeout=1200,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        VERIFY_ALL_MARKDOWN_SHA256), "markdown report differs from the pin"

import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaq._rational import R0, rat
from thetaq import cyclo, numerators
from thetaq.cyclo import phase
from thetaq.identities import run_identity
from thetaq.numerators import (
    DegenerateDivisorError,
    SUPPORTED_CHARACTERS,
    _character_raw,
    _triple_sum_weights,
    character,
    derived_denominator,
    ensure_order,
    ladder_step,
    numerator,
    numerator_half,
    numerator_int,
    ratio_pair,
    theta_inv_half,
    u_basis,
    undivided_half_combination,
)
from thetaq.series import InsufficientOrderError, Series
from thetaq.thetalib import bracket, eta, theta, theta_pm

import make_golden_digests
from conftest import assert_equal_series, coset_range, is_zfree, scale_args


def test_m1_base_has_no_interior_sums():
    # level 1: odd k in 1..0 is empty and p=0 kills the boundary sum, so the
    # numerator is exactly the eta-cube quotient term
    f = numerator_half(1, 0, 4)
    e3 = eta(2, 3, 6)
    th0 = scale_args(theta(rat(1, 2), 2, 6), 1, 0)
    qb = ratio_pair(rat(1, 2), 2, 6)
    direct = (e3 * th0.inverse() * qb).times_monomial(-cyclo.I)
    o = min(rat(4), direct.cutoff)
    assert_equal_series(f, direct, o)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_half_p_independence(m):
    series = {}
    for p in (0, 1, 2):
        try:
            series[p] = numerator_half(m, p, 4)
        except DegenerateDivisorError:
            assert (m, p) == (2, 2)
    base = series[0]
    for f in series.values():
        assert_equal_series(base, f, 4)


def test_degenerate_divisor_point():
    with pytest.raises(DegenerateDivisorError):
        numerator_half(2, 2, 4)
    comb = undivided_half_combination(2, 2, 4).restrict(4)
    assert comb.is_zero_series()


@pytest.mark.parametrize("m,p", [(1, 0), (2, 0), (3, 1)])
def test_undivided_relation_away_from_degenerate_points(m, p):
    # q^{m a^2} (-1)^{mp} theta_pm(+-, 2ma, m+1) (F[m,1/2] - boundary sums),
    # a = (4p+1)/4, the boundary sums written out from the closed expansion
    a = rat(4 * p + 1, 4)
    rest = numerator_half(m, p, 6)
    for k in range(1, p * m + 1):
        shift = -(k - rat(1, 2) + rat(m, 4)) ** 2 / m
        coeff = -cyclo.I * phase(rat(k, 2))
        rest = rest - bracket(2 * k - 1, m, 6 - shift).times_monomial(coeff, shift)
    sign = 1 if m % 2 else -1
    expected = (theta_pm(sign, 2 * m * a, m + 1, 6) * rest).times_monomial(
        phase(rat(m * p, 2)), m * a * a)
    assert_equal_series(undivided_half_combination(m, p, 4), expected, 4)


@pytest.mark.parametrize("m", [1, 3, 5])
def test_int_p_independence(m):
    base = numerator_int(m, 0, 4)
    for p in (1, 2):
        assert_equal_series(base, numerator_int(m, p, 4), 4)


def test_int_rejects_even_level_and_negative_shift():
    even = "integer-s numerator undefined for even m"
    with pytest.raises(ValueError, match=even):
        numerator_int(2, 0, 4)
    with pytest.raises(ValueError, match="shift p must be a nonnegative"):
        numerator_half(1, -1, 4)
    with pytest.raises(ValueError, match=even):
        numerator(2, rat(1), 4)
    # the rejection comes before anything is cached
    assert ("num", 2, 1, 0, 4) not in numerators._cache


def test_half_integer_parameters_only():
    with pytest.raises(ValueError, match="s must be a half-integer"):
        numerator(2, rat(1, 3), 4)
    with pytest.raises(ValueError,
                       match="ladder parameter s must be a half-integer"):
        ladder_step(2, rat(1, 3), 4)


def test_ladder_degenerate_level1():
    assert_equal_series(numerator(1, rat(1, 2), 4), numerator(1, rat(3, 2), 4), 4)


@pytest.mark.parametrize("m,s", [(2, rat(1, 2)), (2, rat(3, 2)),
                                 (3, rat(1, 2)), (3, rat(1)), (3, rat(3, 2))])
def test_ladder_step_reproduced(m, s):
    lhs = numerator(m, s, 4) - numerator(m, s + 1, 4)
    assert_equal_series(lhs, ladder_step(m, s, 4), 4)


def test_ladder_telescopes():
    m = 3
    total = Series.zero(rat(4))
    s = rat(1, 2)
    while s < rat(7, 2):
        total = total + ladder_step(m, s, 4)
        s += 1
    direct = numerator(m, rat(1, 2), 4) - numerator(m, rat(7, 2), 4)
    assert_equal_series(total, direct, 4)


def test_downward_ladder():
    down = numerator(3, rat(-1, 2), 4)
    up = numerator(3, rat(1, 2), 4) + ladder_step(3, rat(-1, 2), 4)
    assert_equal_series(down, up, 4)


@pytest.mark.parametrize("slip", [
    lambda f: -f,  # e^{+pi i s} for e^{-pi i s} at half-integer s
    lambda f: f.times_monomial(cyclo.ONE, 1),
], ids=["negated", "times_q"])
def test_ladder_slip_fails_p_independence(monkeypatch, slip):
    # the closed expansion at offset p is F[m, s0 - mp], walked to the sector
    # base by ladder_step, so offsets 0, 1 and 2 disagree under a slipped step
    step = numerators.ladder_step
    monkeypatch.setattr(numerators, "ladder_step",
                        lambda m, s, order: slip(step(m, s, order)))
    numerators._cache.clear()
    try:
        for id_ in ("S4.pindep.m3.half", "S4.pindep.m3.int"):
            assert run_identity(id_).status == "fail", id_
    finally:
        numerators._cache.clear()


def test_numerator_base_cases_match():
    assert_equal_series(numerator(3, rat(1, 2), 4), numerator_half(3, 0, 4), 4)
    assert_equal_series(numerator(3, rat(0), 4), numerator_int(3, 0, 4), 4)


def test_u_basis_sizes():
    assert len(u_basis(1, "half", 3)) == 1
    assert len(u_basis(4, "half", 3)) == 3
    assert len(u_basis(3, "integer", 3)) == 2
    assert len(u_basis(1, "integer", 3)) == 1
    with pytest.raises(ValueError):
        u_basis(2, "both", 3)


def test_character_labels():
    with pytest.raises(ValueError):
        character(3, 0, 4)
    with pytest.raises(ValueError):
        character(4, 0, 4)


def test_character_leading_terms():
    ch = character(1, 0, 2)
    assert ch.ord == -rat(1, 24)
    lead = ch.terms[(-rat(1, 24), rat(0))]
    assert lead.c[0] == -1
    ch21 = character(2, 1, 2)
    assert ch21.ord == rat(7, 48)
    assert {z for q, z, _ in ch21.monomials() if q == ch21.ord} == {
        rat(1, 2), rat(-1, 2)}


def test_derived_denominator_structure():
    r0 = derived_denominator(4)
    assert not is_zfree(r0)
    # its zeta-exponents all lie on the coset 1/2 + Z
    assert {z - z.__floor__() for _, z, _ in r0.monomials()} == {rat(1, 2)}


def test_ensure_order_boosts():
    # a builder that loses half a unit of trust per construction; restrict
    # raises the shortfall that the loop boosts past
    def lossy(k):
        return Series.zero(k - rat(1, 2)).restrict(3)

    s = ensure_order(lossy, 3)
    assert s.cutoff == 3


def test_ensure_order_restricts_only_boosted_builds():
    # (2, 1) lands 1/48 above its order and is returned as built; level 4
    # is built 5/48 higher and lands on 4
    assert character(2, 1, 4).cutoff == rat(193, 48)
    assert character(4, 1, 4).cutoff == 4


_CHARACTER_ORDERS = (rat(1, 2), rat(1), rat(25, 24), rat(4), rat(13, 2))


@pytest.mark.parametrize("label", list(SUPPORTED_CHARACTERS))
def test_character_table_is_tight(label):
    # each formula's cutoff falls exactly its declared shortfall below its
    # build order ((2, 1) lands 1/48 above it), so one build reaches the
    # order; a higher build agrees below that cutoff
    short = SUPPORTED_CHARACTERS[label]
    over = rat(1, 48) if label == (2, 1) else R0
    for k in _CHARACTER_ORDERS:
        assert _character_raw(*label, k).cutoff == k - short + over
        ch = character(*label, k)
        assert ch.cutoff == k + over
        assert character(*label, k + 1).restrict(ch.cutoff) == ch


_orders = st.integers(48, 384).map(lambda n: rat(n, 48))


@settings(max_examples=12, deadline=None)
@given(_orders)
def test_builders_land_on_their_order(o):
    exact = [lambda k, j=j: theta_inv_half(j, k) for j in (rat(1, 2), rat(-1, 2))]
    exact += [lambda k, a=a, mm=mm: ratio_pair(a, mm, k)
              for a, mm in ((rat(1, 2), 2), (rat(5, 2), 3), (rat(9, 2), 4))]
    at_least = [
        lambda k: numerator_half(2, 0, k),
        lambda k: numerator_half(3, 1, k),
        lambda k: numerator_int(3, 0, k),
        lambda k: numerator(3, rat(5, 2), k),
        lambda k: numerator(1, rat(-1), k),
        derived_denominator,
    ]
    for build in exact:
        assert build(o).cutoff == o
    for build in exact + at_least:
        s = build(o)
        assert s.cutoff >= o
        # the cutoff is not overstated: a higher build agrees below it
        assert build(o + 1).restrict(s.cutoff) == s


def test_brackets_cached_consistently():
    a = ensure_order(lambda t: bracket(1, 2, t), 5)
    b = bracket(1, 2, 5)
    assert_equal_series(a, b, 5)


def _short_attempt(gap, shortfalls):
    """An attempt whose first ``shortfalls`` calls fall ``gap`` short of 3."""
    calls = []

    def attempt(k):
        calls.append(k)
        if len(calls) <= shortfalls:
            raise InsufficientOrderError("short", max_order=rat(3) - gap)
        return k

    return attempt, calls


@pytest.mark.parametrize("gap,boost", [(rat(1, 8), rat(1, 2)),
                                       (rat(3, 4), rat(3, 4))])
def test_ensure_order_boosts_by_shortfall_at_least_half(gap, boost):
    attempt, calls = _short_attempt(gap, 1)
    assert ensure_order(attempt, rat(3)) == 3 + boost
    assert calls == [3, 3 + boost]


def test_ensure_order_gives_up_after_six_shortfalls():
    attempt, calls = _short_attempt(rat(1, 8), 6)
    with pytest.raises(InsufficientOrderError):
        ensure_order(attempt, rat(3))
    assert len(calls) == 6


# sha256 of json_obj() (sorted keys, compact separators) of the sector base
# at p = 0, order 4.  Unlike the p-independence checks these also catch an
# error that is the same for every p.
NUMERATOR_SHA256 = {
    ("half", 1): "aabb10095e6f4d95385b9241f48a2276e3c5f8719c7803b8e9b2bcf6ae16283d",
    ("half", 2): "f7c82c3bce6cbf4b2f6abbb561cf672e2cc263701cf6643c47314c86a029b3a3",
    ("half", 3): "b9abae2ffbefde5690884f37cd52ba0f86fb30968630b9ca13059cc9e3baa122",
    ("half", 4): "35bee6d140ae3fe49dfbecf0be9fb4f634bcf7aa6ae6adcf81e9a83af1a916aa",
    ("half", 5): "2f655bb5f5373fab05a641e35d4bb128d1673ba560d1e7c76761abde432af492",
    ("int", 1): "209bac147394edfc67aa2af7b780754684820ab9968002c38abfb9aaca857d3d",
    ("int", 3): "9207a6937b0265413297acc7d5a865e5d3e115ad01e7b76218f714e79aab245f",
    ("int", 5): "9be569bba27d891b33e5cc060278368a8d762802e1aed46cc837856148135e2e",
}


@pytest.mark.parametrize("sector,m", sorted(NUMERATOR_SHA256))
def test_numerator_golden_digest(sector, m):
    build = numerator_half if sector == "half" else numerator_int
    text = json.dumps(build(m, 0, 4).json_obj(), sort_keys=True,
                      separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == NUMERATOR_SHA256[sector, m]


# sha256 of json_obj() (as above) of F[m, s] above its sector base at order
# 6: the registry's ladder cases build both sides through ``ladder_step``,
# so these pins are what fixes the upward walk
LADDER_SHA256 = {
    (2, rat(5, 2)): "5fe2c68f273bf9ef12214f116de2678e873fc462d8720edcc8937bd55fd8107d",
    (3, rat(3, 2)): "3307db59208c311807b1119591dd388f4b9b1d2d4f2f96a3372c568fe2888720",
    (4, rat(5, 2)): "e06a1e591884cdb41e1ad751354a96d938febc86975ecb7ec71d6c45fa75cebd",
    (3, rat(3)): "a86e174eb98340db04c23d994ee36504a09d917b6a38a11c836cf16c527d541d",
    (5, rat(4)): "eee1227d86e352fddb318d9afccf7f9e40bfc9d16cc062f72a845efce50f60ee",
}


@pytest.mark.parametrize("m,s", sorted(LADDER_SHA256), ids=str)
def test_upward_ladder_golden_digest(m, s):
    text = json.dumps(numerator(m, s, 6).json_obj(), sort_keys=True,
                      separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == LADDER_SHA256[m, s]


# sha256 of json_obj() (as above) of large builds, pinned from all-Fraction
# coefficients and the geometric-series inverse; they check both kernels at
# orders the registry does not reach.
HIGH_ORDER_SHA256 = {
    "theta_inv_half(-1/2, 24)": (
        lambda: theta_inv_half(rat(-1, 2), 24),
        "c10a7233e64f100f8cdb65260362faad05988c799c1ff66bb9a1436a47e98714"),
    "eta(1, -2, 16)": (
        lambda: eta(1, -2, 16),
        "30a4a1fcaabbee42b0f5fe66bb4376058c7f1484dba8e14df231f8748f6babc1"),
    "eta(1/2, -1, 16)": (
        lambda: eta(rat(1, 2), -1, 16),
        "4fe407d9c9622d46cfdd0461f7deeac92760b2706471befa46c6a54b842fd075"),
    "character(4, 1, 16)": (
        lambda: character(4, 1, 16),
        "0b62909c6a5ddd98ab24f5461b1c4a05e47edcbbf3d6abf5e8d51ea029dbd34a"),
}


@pytest.mark.parametrize("name", sorted(HIGH_ORDER_SHA256))
def test_high_order_golden_digest(name):
    build, digest = HIGH_ORDER_SHA256[name]
    text = json.dumps(build().json_obj(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_golden_digests():
    """Every build named in make_golden_digests.py still gives the digest
    pinned in golden_digests.json (see that script)."""
    pinned = json.loads(make_golden_digests.PATH.read_text())
    builds = make_golden_digests.builds()
    assert sorted(builds) == sorted(pinned)
    changed = [name for name, build in builds.items()
               if make_golden_digests.digest(build()) != pinned[name]]
    assert not changed


def reference_triple_sum_weights(m, alpha, bound):
    """The Fraction construction of the triple-sum weights that the int one
    replaced (see ``numerators._triple_sum_weights`` for the terms)."""
    alpha = rat(alpha)
    bound = rat(bound)
    ks = list(range(1, m, 2))
    if not ks:
        return {}
    a_pos = alpha if alpha > 0 else rat(0)
    g = 2 * m * a_pos
    js = coset_range(rat(0), rat(1), -g, bound)
    jmax = js[-1] if js else 0
    acc = {k: {} for k in ks}

    def put(k, ex, sign, turns):
        assert ex >= jj * jj - g * jj
        if ex >= bound:
            return
        coeff = sign * phase(rat(turns, 4))
        slot = acc[k]
        cur = slot.get(ex)
        s = coeff if cur is None else cur + coeff
        if not s:
            slot.pop(ex, None)
        else:
            slot[ex] = s

    for jj in range(1, jmax + 1):
        sj = phase(rat(jj, 2))
        msj = -sj
        jr = rat(jj)
        for k in ks:
            for r in range(1, jj + 1):
                t = rat(2 * m * r - k)
                base = jr * jr - t * t / (4 * m)
                put(k, base + (jr + alpha) * t, sj, 2 * m * r + k)
                put(k, base + (jr - alpha) * t, sj, 2 * m * r - k)
            for r in range(0, jj):
                t = rat(2 * m * r + k)
                base = jr * jr - t * t / (4 * m)
                put(k, base + (jr + alpha) * t, msj, 2 * m * r - k)
                put(k, base + (jr - alpha) * t, msj, 2 * m * r + k)
    return {
        k: Series({(ex, rat(0)): c for ex, c in slot.items()}, bound)
        for k, slot in acc.items()
    }


def _rat_between(lo, hi):
    """Rationals in [lo, hi] over denominators up to 48, 5 and 7 among
    them."""
    return st.sampled_from([1, 2, 3, 4, 5, 7, 8, 12, 16, 48]).flatmap(
        lambda d: st.builds(rat, st.integers(math.ceil(lo * d), hi * d),
                            st.just(d)))


# alpha >= -1/2 is the domain of the truncation bound (both sectors'
# alpha = (4p -+ 1)/4 lie in it)
@settings(max_examples=120, deadline=None)
@given(st.integers(1, 6), _rat_between(rat(-1, 2), 3), _rat_between(-1, 12))
def test_triple_sum_weights_match_fraction_reference(m, alpha, bound):
    got = _triple_sum_weights(m, alpha, bound)
    want = reference_triple_sum_weights(m, alpha, bound)
    assert sorted(got) == sorted(want)
    for k in want:
        assert got[k].terms == want[k].terms
        assert got[k].cutoff == want[k].cutoff
        assert got[k].den == want[k].den


def test_triple_sum_weights_reject_alpha_below_domain():
    with pytest.raises(ValueError, match="alpha >= -1/2"):
        _triple_sum_weights(2, -1, 2)


@pytest.mark.slow
def test_triple_sum_domain_guard_survives_optimize():
    # the guard must not be an assert, which `python -O` strips
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = (
        "from thetaq.numerators import _triple_sum_weights\n"
        "try:\n"
        "    _triple_sum_weights(2, -1, 2)\n"
        "except ValueError:\n"
        "    print('ValueError')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ValueError"

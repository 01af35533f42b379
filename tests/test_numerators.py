import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaq._rational import rat
from thetaq import cyclo
from thetaq.numerators import (
    DegenerateDivisorError,
    certify,
    character,
    denominator_z_coset,
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
from thetaq.thetalib import bracket, eta, theta_jm, theta_pm

import make_golden_digests
from conftest import assert_equal_series


def test_m1_base_has_no_interior_sums():
    # level 1: odd k in 1..0 is empty and p=0 kills the boundary sum, so the
    # numerator is exactly the eta-cube quotient term
    f = numerator_half(1, 0, 4)
    e3 = eta(2, 3, 6)
    th0 = theta_jm(rat(1, 2), 2, 6).scale_args(1, 0)
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
        coeff = -cyclo.I * cyclo.minus_one_pow(k)
        rest = rest - bracket(2 * k - 1, m, 6 - shift).times_monomial(coeff, shift)
    sign = 1 if m % 2 else -1
    expected = (theta_pm(sign, 2 * m * a, m + 1, 6) * rest).times_monomial(
        cyclo.minus_one_pow(m * p), m * a * a)
    assert_equal_series(undivided_half_combination(m, p, 4), expected, 4)


@pytest.mark.parametrize("m", [1, 3, 5])
def test_int_p_independence(m):
    base = numerator_int(m, 0, 4)
    for p in (1, 2):
        assert_equal_series(base, numerator_int(m, p, 4), 4)


def test_int_rejects_even_level_and_negative_shift():
    with pytest.raises(ValueError):
        numerator_int(2, 0, 4)
    with pytest.raises(ValueError):
        numerator_half(1, -1, 4)
    with pytest.raises(ValueError):
        numerator(2, rat(1), 4)


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
    assert {z for (_, z) in ch21.leading_layer()} == {rat(1, 2), rat(-1, 2)}


def test_derived_denominator_structure():
    r0 = derived_denominator(4)
    assert not r0.is_zfree()
    assert denominator_z_coset(4) == [rat(1, 2)]
    with pytest.raises(Exception):
        derived_denominator(4, require_zfree=True)


def test_ensure_order_boosts():
    # a builder that loses half a unit of trust per construction
    def lossy(k):
        return Series.zero(k - rat(1, 2))

    s = ensure_order(lossy, 3)
    assert s.cutoff == 3


def test_ensure_order_restricts_only_boosted_builds():
    # level 2 reaches its order on the first build and is returned as built;
    # level 4 falls 1/8 short, is boosted and is restricted back to 4
    assert character(2, 1, 4).cutoff == rat(193, 48)
    assert character(4, 1, 4).cutoff == 4


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
def test_certify_boosts_by_shortfall_at_least_half(gap, boost):
    attempt, calls = _short_attempt(gap, 1)
    assert certify(attempt, rat(3)) == 3 + boost
    assert calls == [3, 3 + boost]


def test_certify_gives_up_after_six_shortfalls():
    attempt, calls = _short_attempt(rat(1, 8), 6)
    with pytest.raises(InsufficientOrderError):
        certify(attempt, rat(3))
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

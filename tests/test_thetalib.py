import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaq._rational import rat
from thetaq import cyclo, thetalib
from thetaq.cyclo import PhaseError, phase
from thetaq.series import Series
from thetaq.thetalib import (
    _coset_sum,
    bracket,
    eta,
    mumford,
    theta,
    theta_pm,
)

from conftest import assert_equal_series, coset_range, eta_product


def test_theta_01_defining_sum():
    t = theta(0, 1, 5)
    assert t.text() == ("1 + q^(1) * z^(-1) + q^(1) * z^(1) "
                        "+ q^(4) * z^(-2) + q^(4) * z^(2)")


def test_theta_11_defining_sum():
    t = theta(1, 1, 3)
    expect = {
        (rat(1, 4), rat(1, 2)): cyclo.ONE,
        (rat(1, 4), rat(-1, 2)): cyclo.ONE,
        (rat(9, 4), rat(3, 2)): cyclo.ONE,
        (rat(9, 4), rat(-3, 2)): cyclo.ONE,
    }
    assert t.terms == expect


@pytest.mark.parametrize("j,m", [(0, 1), (1, 2), (rat(1, 2), 3), (rat(3, 2), 2)])
def test_periodicity_and_reflection(j, m):
    a = theta(j, m, 6)
    b = theta(j + 2 * m, m, 6)
    assert a.terms == b.terms
    refl = theta(-rat(j), m, 6, zcoeff=-1)
    assert refl.terms == a.terms


def test_multiplication_law_grid():
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            for j in (rat(0), rat(1, 2)):
                for k in (rat(1), rat(3, 2)):
                    lhs = theta(j, n, 6) * theta(k, m, 6)
                    rhs = Series.zero(rat(6))
                    for r in range(m + n):
                        c = theta(2 * m * n * r + k * n - j * m,
                                  m * n * (m + n), 6, zcoeff=0)
                        rhs = rhs + c * theta(j + k + 2 * m * r, m + n, 6)
                    o = min(rat(6), lhs.cutoff, rhs.cutoff)
                    assert_equal_series(lhs, rhs, o, f"n={n} m={m} j={j} k={k}")


def test_theta_pm_plus_is_plain_projection():
    for j, m in ((0, 1), (1, 2), (rat(5, 2), 3)):
        tp = theta_pm(1, j, m, 6)
        proj = theta(j, m, 6, zcoeff=0)
        assert tp.terms == proj.terms


def test_theta_pm_rejects_bad_sign_and_degree():
    with pytest.raises(ValueError, match="sign must be"):
        theta_pm(0, 1, 1, 4)
    with pytest.raises(ValueError, match="theta degree must be positive"):
        theta_pm(1, 1, 0, 4)


def test_theta_pm_minus():
    tp = theta_pm(-1, 0, 1, 5)
    assert tp.text() == "1 - 2 * q^(1) + 2 * q^(4)"


@pytest.mark.parametrize("m,p", [(1, 0), (2, 0), (3, 1), (2, -1)])
def test_half_period_parity_split(m, p):
    # the tau-shifted half-period slice equals a q-power times the twisted
    # constant, with twist sign given by the parity of m
    idx = rat(m * (4 * p + 1), 2)
    lhs = theta(0, m + 1, 6, zcoeff=0,
                tshift=rat(m * (4 * p + 1), 2 * (m + 1)), cshift=rat(-1, 2))
    qpow = -rat(m * m, m + 1) * rat(4 * p + 1, 4) ** 2
    tw = theta_pm(1 if m % 2 else -1, idx, m + 1, 6 - qpow)
    rhs = tw.times_monomial(cyclo.ONE, qpow, rat(0))
    o = min(rat(6), lhs.cutoff, rhs.cutoff)
    assert_equal_series(lhs, rhs, o)


def test_eta_pentagonal_oracle():
    e = eta(1, 1, 13)
    assert_equal_series(e, eta_product(1, 1, 13), 13)
    coeffs = sorted((q, c.c[0]) for (q, _), c in e.terms.items())
    assert coeffs[0] == (rat(1, 24), 1)
    assert coeffs[1] == (rat(25, 24), -1)


def test_eta_cube_jacobi_oracle():
    assert_equal_series(eta(1, 3, 24), eta_product(1, 3, 24), 24)


def theta_triple_product(j, m, order):
    """theta_{j,m} from Jacobi's triple product (needs |j| < m):
    q^{j^2/4m} z^{j/2} prod_{n>=1} (1 - q^{2mn}) (1 + q^{m(2n-1)+j} z^m)
    (1 + q^{m(2n-1)-j} z^{-m})."""
    j, m = rat(j), rat(m)
    shift = j * j / (4 * m)
    bound = rat(order) - shift
    out = Series.one(bound)
    n = 1
    while m * (2 * n - 1) - abs(j) < bound:
        for ex, zx, c in ((2 * m * n, 0, cyclo.MINUS_ONE),
                          (m * (2 * n - 1) + j, m, cyclo.ONE),
                          (m * (2 * n - 1) - j, -m, cyclo.ONE)):
            out = out * Series({(rat(0), rat(0)): cyclo.ONE,
                                (ex, rat(zx)): c}, bound)
        n += 1
    return out.times_monomial(cyclo.ONE, shift, j / 2)


@pytest.mark.parametrize("j,m", [(0, 1), (rat(1, 2), 1), (rat(-1, 2), 1),
                                 (1, 2), (rat(-3, 2), 2), (2, 3)])
def test_theta_jacobi_triple_product_oracle(j, m):
    th = theta(j, m, 24)
    assert th.cutoff == 24
    assert_equal_series(th, theta_triple_product(j, m, 24), 24)


@pytest.mark.parametrize("c", [rat(1, 2), 1, 2, rat(2, 5)])
@pytest.mark.parametrize("e", [1, -1, 2, -2, 3, -3, 0, 4, 5, -4])
def test_eta_matches_product_form(c, e):
    got, want = eta(c, e, 24), eta_product(c, e, 24)
    assert got.cutoff == want.cutoff == 24
    assert got == want


def test_eta_inverse_cancels():
    prod = eta(1, -1, 10) * eta(1, 1, 10)
    assert_equal_series(prod, Series.one(), prod.cutoff)


def test_eta_rejects_bad_scale():
    with pytest.raises(ValueError):
        eta(0, 1, 4)


def test_eta_rejects_a_non_integral_power():
    size = len(thetalib._cache)
    for e in (2.5, rat(5, 2)):
        with pytest.raises(ValueError):
            eta(1, e, 4)
    assert len(thetalib._cache) == size
    assert eta(1, 2.0, 4) is eta(1, 2, 4)


def test_mumford_constant_expansions():
    m00 = mumford("00", 5, zcoeff=0)
    assert m00.text() == "1 + 2 * q^(1/2) + 2 * q^(2) + 2 * q^(9/2)"
    m01 = mumford("01", 5, zcoeff=0)
    assert m01.text() == "1 - 2 * q^(1/2) + 2 * q^(2) - 2 * q^(9/2)"


def test_mumford_doubling_coincidences():
    assert_equal_series(mumford("00", 8, qscale=2), theta(0, 1, 8), 8)
    assert_equal_series(mumford("10", 8, qscale=2), theta(1, 1, 8), 8)


def test_mumford_label_validation():
    with pytest.raises(ValueError):
        mumford("12", 4)


def test_theta_phase_representability_guard():
    with pytest.raises(PhaseError):
        theta(0, 1, 4, cshift=rat(1, 3))


def test_theta_rejects_bad_degree_and_scale():
    with pytest.raises(ValueError):
        theta(0, -1, 4)
    with pytest.raises(ValueError):
        theta(0, 1, 4, qscale=0)


def test_theta_is_built_once_per_equal_arguments():
    assert theta(1, 2, 6) is theta(rat(1), rat(2), rat(6))
    # a shift passed by keyword or by position is one key
    assert theta(0, 1, 5, zcoeff=0) is theta(0, 1, 5, 1, 0)
    # mumford's parts are the thetas of its arguments: no entry of their own
    theta(1, 2, 5, qscale=2)
    theta(-1, 2, 5, qscale=2)
    size = len(thetalib._cache)
    mumford("10", 5, qscale=2)
    assert len(thetalib._cache) == size


def test_theta_errors_leave_no_entry():
    size = len(thetalib._cache)
    with pytest.raises(ValueError):
        theta(0, -1, 4)
    assert ("theta", 0, -1, 1, 1, 0, 0, 4) not in thetalib._cache
    assert len(thetalib._cache) == size


def test_bracket_antisymmetry():
    br = bracket(1, 2, 6)
    flipped = bracket(-1, 2, 6)
    assert (br + flipped).is_zero_series()
    assert bracket(0, 3, 6).is_zero_series()


def test_shifted_theta_keeps_quadratic_bounded():
    # a large tau-shift against a small q-scale stays expandable: the
    # quadratic in the summation index still opens upward
    t = theta(0, 1, 2, qscale=rat(1, 4), tshift=3)
    assert t.cutoff == 2
    assert all(q < 2 for q, _ in t.terms)
    assert t.ord < 0  # the shift pushes the minimum below zero


def _rats(lo, hi, dmax):
    return st.builds(rat, st.integers(lo, hi), st.integers(1, dmax))


@settings(max_examples=60, deadline=None)
@given(_rats(-10**4, 10**4, 48), _rats(1, 100, 4), _rats(-200, 200, 8),
       _rats(-10**3, 10**6, 8), st.none() | st.integers(-50, 50))
def test_coset_range_matches_brute_force(n0, aa, bb, order, k_edge):
    if k_edge is not None:  # the quadratic meets the order exactly at k_edge
        order = aa * (n0 + k_edge) ** 2 + bb * (n0 + k_edge)
    # aa (x - v)^2 < order + bb^2/(4 aa) about the vertex v = -bb/(2 aa), so
    # no admissible x lies w or more from v; the scan reaches past that
    w2 = (order + bb * bb / (4 * aa)) / aa
    w = math.isqrt(max(math.ceil(w2), 0)) + 1
    v = -bb / (2 * aa) - n0
    scan = range(math.floor(v) - w - 1, math.ceil(v) + w + 2)
    expect = [k for k in scan if aa * (n0 + k) ** 2 + bb * (n0 + k) < order]
    assert list(coset_range(n0, aa, bb, order)) == expect


def reference_coset_sum(n0, aa, bb, order, term):
    """The Fraction coset sum that the int one replaced: coeff *
    q^{aa n^2 + bb n} zeta^zexp over n = n0 + k below ``order``, where
    ``term(k, n)`` gives (zexp, coeff)."""
    terms: dict = {}
    for k in coset_range(n0, aa, bb, order):
        n = n0 + k
        qexp = n * (aa * n + bb)
        if qexp >= order:
            continue
        zexp, coeff = term(k, n)
        key = (qexp, zexp)
        cur = terms.get(key)
        s = coeff if cur is None else cur + coeff
        if not s:
            terms.pop(key, None)
        else:
            terms[key] = s
    return Series(terms, order)


# denominators up to 48, with 5 and 7 among them
_dens = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 35, 48])


def _rat_over(lo, hi):
    return st.builds(rat, st.integers(lo, hi), _dens)


@settings(max_examples=200, deadline=None)
@given(_rat_over(-400, 400), _rat_over(1, 60), _rat_over(-100, 100),
       _rat_over(-20, 20), _rat_over(-20, 60), st.none() | st.integers(-6, 6),
       st.integers(0, 7), st.sampled_from([0, 4]) | st.integers(0, 7))
def test_coset_sum_matches_fraction_reference(n0, aa, bb, zc, order, k_edge,
                                              u0, u1):
    if k_edge is not None:  # the quadratic meets the order exactly at k_edge
        order = aa * (n0 + k_edge) ** 2 + bb * (n0 + k_edge)
    got = _coset_sum(n0, aa, bb, zc, order, u0, u1)
    want = reference_coset_sum(
        n0, aa, bb, order,
        lambda k, n: (zc * n, phase(rat(u0 + u1 * k, 8))),
    )
    assert got.terms == want.terms
    assert got.cutoff == want.cutoff and type(got.cutoff) is type(want.cutoff)
    assert got.den == want.den


def _plain(x):
    """``x`` as an int when integral: an equal key of another type."""
    return int(x) if x.denominator == 1 else x


@settings(max_examples=100, deadline=None)
@given(st.integers(-6, 6), st.integers(1, 4), _rat_over(1, 6), _rat_over(-3, 3),
       _rat_over(-2, 2), st.sampled_from([0, 1, rat(1, 2), rat(1, 4), rat(1, 8),
                                          rat(3, 8), rat(1, 3)]),
       _rat_over(0, 8))
def test_memoized_theta_matches_a_fresh_build(j, m, qscale, zcoeff, tshift,
                                              cshift, order):
    j, m, shifts = rat(j), rat(m), (qscale, zcoeff, tshift, rat(cshift))
    try:
        fresh = thetalib._theta(j, m, *shifts, order)
    except PhaseError:
        with pytest.raises(PhaseError):
            theta(j, m, order, *shifts)
        return
    args = (j, m, order, *shifts)
    for a in (args, tuple(map(_plain, args)), args):
        assert theta(*a).json_obj() == fresh.json_obj()


@settings(max_examples=60, deadline=None)
@given(_rat_over(1, 4), st.integers(-4, 6), _rat_over(-1, 8))
def test_memoized_eta_matches_a_fresh_build(c, e, order):
    # the defining product reads no table entry, so it is a fresh build
    fresh = eta_product(c, e, order).json_obj()
    for args in ((c, e, order), (_plain(c), e, _plain(order)), (c, e, order)):
        assert eta(*args).json_obj() == fresh


def test_eta_does_not_depend_on_the_order_of_requests(monkeypatch):
    # the three scales share one Euler power: built at 27 for the first
    # request in one order, and built at 13, then again at 27, in the other
    requests = [(rat(1, 2), -1, 13), (2, -1, 6), (1, -1, rat(25, 2))]

    def build(reqs):
        monkeypatch.setattr(thetalib, "_cache", {})
        return [(s.terms, s.cutoff) for s in (eta(*r) for r in reqs)]

    fresh = [build([r])[0] for r in requests]
    assert build(requests) == fresh
    assert build(requests[::-1]) == fresh[::-1]
    assert [k for k in thetalib._cache if k[0] == "euler"] == [("euler", -1)]
    assert thetalib._cache["euler", -1].cutoff == 27


@settings(max_examples=80, deadline=None)
@given(_rat_over(-40, 40), _rat_over(1, 12), _rat_over(-4, 30))
def test_negated_index_is_the_reflection(k, m, order):
    # theta_{-j,m}(tau, z) = theta_{j,m}(tau, -z)
    want = theta(k, m, order).reflected()
    got = theta(-k, m, order)
    assert got == want
    assert got.cutoff == want.cutoff


@settings(max_examples=80, deadline=None)
@given(_rat_over(-12, 12), _rat_over(1, 6), _rat_over(-2, 16),
       st.sampled_from([1, 2, rat(1, 2), 3]), st.sampled_from([1, -1, 2, 3]),
       _rat_over(-3, 3), st.sampled_from([0, rat(1, 2), rat(1, 4), 1, rat(-3, 8)]))
def test_shifted_theta_reflects_with_its_shifts_negated(j, m, order, qs, zc,
                                                        ts, cs):
    # theta_{j,m}(qs tau, -zc z + ts tau + cs) = theta_{-j,m}(qs tau,
    # zc z - ts tau - cs)
    try:
        want = theta(j, m, order, qs, zc, ts, cs).reflected()
    except PhaseError:
        with pytest.raises(PhaseError):
            theta(-j, m, order, qs, zc, -ts, -cs)
        return
    assert theta(-j, m, order, qs, zc, -ts, -cs) == want

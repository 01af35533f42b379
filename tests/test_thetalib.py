import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaq._rational import rat
from thetaq import cyclo
from thetaq.cyclo import PhaseError, phase
from thetaq.series import Series
from thetaq.thetalib import (
    ThetaSpec,
    _coset_range,
    bracket,
    eta,
    eta_cube_jacobi,
    eta_pentagonal,
    mumford,
    theta,
    theta_jm,
    theta_pm,
    theta_zero_arg,
)

from conftest import assert_equal_series


def test_theta_01_defining_sum():
    t = theta_jm(0, 1, 5)
    assert t.text() == ("1 + q^(1) * z^(-1) + q^(1) * z^(1) "
                        "+ q^(4) * z^(-2) + q^(4) * z^(2)")


def test_theta_11_defining_sum():
    t = theta_jm(1, 1, 3)
    expect = {
        (rat(1, 4), rat(1, 2)): cyclo.ONE,
        (rat(1, 4), rat(-1, 2)): cyclo.ONE,
        (rat(9, 4), rat(3, 2)): cyclo.ONE,
        (rat(9, 4), rat(-3, 2)): cyclo.ONE,
    }
    assert t.terms == expect


@pytest.mark.parametrize("j,m", [(0, 1), (1, 2), (rat(1, 2), 3), (rat(3, 2), 2)])
def test_periodicity_and_reflection(j, m):
    a = theta_jm(j, m, 6)
    b = theta_jm(j + 2 * m, m, 6)
    assert a.terms == b.terms
    refl = theta(ThetaSpec(-rat(j), m, zcoeff=-1), 6)
    assert refl.terms == a.terms


def test_multiplication_law_grid():
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            for j in (rat(0), rat(1, 2)):
                for k in (rat(1), rat(3, 2)):
                    lhs = theta_jm(j, n, 6) * theta_jm(k, m, 6)
                    rhs = Series.zero(rat(6))
                    for r in range(m + n):
                        c = theta_zero_arg(2 * m * n * r + k * n - j * m,
                                           m * n * (m + n), 6)
                        rhs = rhs + c * theta_jm(j + k + 2 * m * r, m + n, 6)
                    o = min(rat(6), lhs.cutoff, rhs.cutoff)
                    assert_equal_series(lhs, rhs, o, f"n={n} m={m} j={j} k={k}")


def test_theta_pm_plus_is_plain_projection():
    for j, m in ((0, 1), (1, 2), (rat(5, 2), 3)):
        tp = theta_pm(1, j, m, 6)
        proj = theta_zero_arg(j, m, 6)
        assert tp.terms == proj.terms


def test_theta_pm_minus():
    tp = theta_pm(-1, 0, 1, 5)
    assert tp.text() == "1 - 2 * q^(1) + 2 * q^(4)"


@pytest.mark.parametrize("m,p", [(1, 0), (2, 0), (3, 1), (2, -1)])
def test_half_period_parity_split(m, p):
    # the tau-shifted half-period slice equals a q-power times the twisted
    # constant, with twist sign given by the parity of m
    idx = rat(m * (4 * p + 1), 2)
    lhs = theta(
        ThetaSpec(0, m + 1, zcoeff=0,
                  tshift=rat(m * (4 * p + 1), 2 * (m + 1)),
                  cshift=rat(-1, 2)),
        6,
    )
    qpow = -rat(m * m, m + 1) * rat(4 * p + 1, 4) ** 2
    tw = theta_pm(1 if m % 2 else -1, idx, m + 1, 6 - qpow)
    rhs = tw.times_monomial(cyclo.ONE, qpow, rat(0))
    o = min(rat(6), lhs.cutoff, rhs.cutoff)
    assert_equal_series(lhs, rhs, o)


def test_eta_pentagonal_oracle():
    e = eta(1, 1, 13)
    assert_equal_series(e, eta_pentagonal(13), 13)
    coeffs = sorted((q, c.c[0]) for (q, _), c in e.terms.items())
    assert coeffs[0] == (rat(1, 24), 1)
    assert coeffs[1] == (rat(25, 24), -1)


def test_eta_cube_jacobi_oracle():
    assert_equal_series(eta(1, 3, 24), eta_cube_jacobi(24), 24)


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
    th = theta_jm(j, m, 24)
    assert th.cutoff == 24
    assert_equal_series(th, theta_triple_product(j, m, 24), 24)


def test_eta_inverse_cancels():
    prod = eta(1, -1, 10) * eta(1, 1, 10)
    assert_equal_series(prod, Series.one(), prod.cutoff)


def test_eta_rejects_bad_scale():
    with pytest.raises(ValueError):
        eta(0, 1, 4)


def test_mumford_constant_expansions():
    m00 = mumford("00", 5, zcoeff=0)
    assert m00.text() == "1 + 2 * q^(1/2) + 2 * q^(2) + 2 * q^(9/2)"
    m01 = mumford("01", 5, zcoeff=0)
    assert m01.text() == "1 - 2 * q^(1/2) + 2 * q^(2) - 2 * q^(9/2)"


def test_mumford_doubling_coincidences():
    assert_equal_series(mumford("00", 8, qscale=2), theta_jm(0, 1, 8), 8)
    assert_equal_series(mumford("10", 8, qscale=2), theta_jm(1, 1, 8), 8)


def test_mumford_label_validation():
    with pytest.raises(ValueError):
        mumford("12", 4)


def test_theta_phase_representability_guard():
    with pytest.raises(PhaseError):
        theta(ThetaSpec(0, 1, cshift=rat(1, 3)), 4)


def test_theta_rejects_bad_degree_and_scale():
    with pytest.raises(ValueError):
        theta(ThetaSpec(0, -1), 4)
    with pytest.raises(ValueError):
        theta(ThetaSpec(0, 1, qscale=0), 4)


def test_bracket_antisymmetry():
    br = bracket(1, 2, 6)
    flipped = bracket(-1, 2, 6)
    assert (br + flipped).is_zero_series()
    assert bracket(0, 3, 6).is_zero_series()


def test_shifted_theta_keeps_quadratic_bounded():
    # a large tau-shift against a small q-scale stays expandable: the
    # quadratic in the summation index still opens upward
    t = theta(ThetaSpec(0, 1, qscale=rat(1, 4), tshift=3), 2)
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
    assert list(_coset_range(n0, aa, bb, order)) == expect

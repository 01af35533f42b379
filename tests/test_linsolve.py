import pytest

from thetaq._rational import rat
from thetaq import cyclo
from thetaq.linsolve import decompose, membership, span_equal
from thetaq.numerators import ensure_order, ratio_pair, u_basis
from thetaq.series import InsufficientOrderError, Series
from thetaq.thetalib import bracket, eta, mumford, theta_jm

from conftest import assert_equal_series


def test_trivial_projection():
    b1 = theta_jm(0, 1, 6)
    b2 = theta_jm(1, 1, 6)
    dec = decompose(b1, [b1, b2], 4)
    assert dec.status == "exact"
    assert_equal_series(dec.coefficients[0], Series.one(dec.coefficients[0].cutoff),
                        dec.coefficients[0].cutoff)
    assert dec.coefficients[1].is_zero_series()


def test_squares_note_coefficients():
    # the two-variable constants expanded as eta-quotient oracles
    K = rat(8)
    target = theta_jm(0, 1, K) * theta_jm(0, 1, K)
    dec = decompose(target, [mumford("00", K), mumford("01", K)], 6)
    assert dec.status == "exact"
    half = cyclo.from_rational(rat(1, 2))
    c0 = (eta(1, 1, K) * (eta(1, 2, K) * eta(rat(1, 2), -1, K)
                          * eta(2, -1, K)).pow(2)).times_monomial(half)
    c1 = (eta(1, 1, K) * (eta(rat(1, 2), 1, K)
                          * eta(1, -1, K)).pow(2)).times_monomial(half)
    for got, expect in zip(dec.coefficients, (c0, c1)):
        o = min(rat(6), got.cutoff, expect.cutoff)
        assert_equal_series(got, expect, o)
        assert got.is_zfree()


def test_branching_coefficient_eta_quotient():
    from thetaq.numerators import character

    K = rat(8)
    target = character(1, 0, K) * character(1, 1, K)
    dec = decompose(target, [character(2, 1, K)], 6)
    assert dec.status == "exact"
    coeff = dec.coefficients[0]
    assert coeff.ord == rat(1, 48)
    oracle = eta(rat(1, 2), 1, K) * eta(2, 1, K) * eta(1, -2, K)
    assert_equal_series(coeff, oracle, min(rat(6), coeff.cutoff, oracle.cutoff))


def test_negative_membership_with_witness():
    ok, wit = membership(theta_jm(0, 1, 6), [theta_jm(1, 1, 6)], 4)
    assert not ok
    assert wit == (0, 0)


def test_membership_positive():
    target = ensure_order(lambda t: ratio_pair(rat(5, 2), 3, t), 5)
    basis = u_basis(2, "half", 5)
    ok, wit = membership(target, basis, 4)
    assert ok and wit is None


def test_span_equal_cases():
    ub2 = u_basis(2, "half", 5)
    assert span_equal(ub2, ub2, 4)
    ub3 = u_basis(3, "half", 5)
    assert not span_equal(ub2, ub3, 4)


def test_insufficient_order():
    with pytest.raises(InsufficientOrderError):
        decompose(theta_jm(0, 1, 3), [theta_jm(0, 1, 3)], 4)
    with pytest.raises(ValueError):
        decompose(theta_jm(0, 1, 3), [], 2)


def test_soundness_residual_always_checked():
    # a target one step outside the span: residual must carry the witness
    target = theta_jm(0, 1, 6) + Series.monomial(cyclo.ONE, rat(3), rat(5))
    dec = decompose(target, [theta_jm(0, 1, 6)], 4)
    assert dec.status == "not-in-span"
    assert dec.witness == (3, 5)
    assert not dec.residual.is_zero_series()


def test_solution_invariance_under_permutation():
    # coefficients are pinned strictly below the certified order minus the
    # last unit (the top lattice step is only partially constrained)
    K = rat(8)
    target = theta_jm(0, 1, K) * theta_jm(0, 1, K)
    basis = [mumford("00", K), mumford("01", K)]
    d1 = decompose(target, basis, 5)
    d2 = decompose(target, list(reversed(basis)), 5)
    for a, b in zip(d1.coefficients, reversed(d2.coefficients)):
        assert_equal_series(a, b, 4)


def test_scaling_equivariance():
    K = rat(8)
    target = theta_jm(0, 1, K) * theta_jm(0, 1, K)
    basis = [mumford("00", K), mumford("01", K)]
    g = eta(1, 2, K)  # z-free unit
    d_plain = decompose(target, basis, 5)
    d_scaled = decompose(g * target, basis, 5)
    for cs, cp in zip(d_scaled.coefficients, d_plain.coefficients):
        expect = g * cp
        assert_equal_series(cs, expect, 4)


def test_under_determined_flagged_for_duplicate_basis():
    b = theta_jm(0, 1, 8)
    dec = decompose(b, [b, b], 4)
    assert dec.status == "under-determined"
    assert dec.residual.is_zero_series()
    assert membership(b, [b, b], 4) == (False, None)
    total = Series.zero(rat(4))
    for c in dec.coefficients:
        total = total + c * b
    assert_equal_series(total, b, 4)


def test_theta12_times_even_bracket_escapes_level5_spans():
    # the single index-1 degree-2 theta does NOT close into level-5 spans
    # (only the symmetrized 10-combination does); this pins the parity
    # hypotheses of the closure checks
    K = rat(6)
    target = theta_jm(1, 2, K) * ensure_order(lambda t: bracket(2, 3, t), K)
    fam = [
        ensure_order(lambda t: bracket(1, 5, t), K),
        ensure_order(lambda t: bracket(2, 5, t), K),
        ensure_order(lambda t: bracket(3, 5, t), K),
        ensure_order(lambda t: bracket(4, 5, t), K),
        ratio_pair(rat(1, 2), 6, K),
        ratio_pair(rat(11, 2), 6, K),
    ]
    dec = decompose(target, fam, 4)
    assert dec.status == "not-in-span"
    assert dec.witness == (rat(11, 24), rat(1, 2))


def test_decomposition_json_shape():
    dec = decompose(theta_jm(0, 1, 6), [theta_jm(0, 1, 6)], 4)
    obj = dec.json_obj()
    assert obj["status"] == "exact"
    assert obj["certified_order"] == "4"
    assert obj["witness"] is None
    assert isinstance(obj["coefficients"], list)
    assert obj["residual"]["terms"] == []

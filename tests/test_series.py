import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaq._rational import INF, rat
from thetaq import cyclo
from thetaq.cyclo import CycloNum
from thetaq.series import InsufficientOrderError, NonUnitLeadingError, Series
from thetaq.thetalib import eta, mumford, theta_jm

from conftest import assert_equal_series, random_series


def S(pairs, cutoff=INF):
    return Series({(rat(q), rat(z)): cyclo.from_rational(rat(c))
                   for q, z, c in pairs}, cutoff)


def test_add_cancels_and_propagates_cutoff():
    a = S([(0, 0, 1), (1, 1, 1)], cutoff=5)
    b = S([(0, 0, -1)], cutoff=3)
    c = a + b
    assert c.terms == S([(1, 1, 1)]).terms
    assert c.cutoff == 3
    assert (a + Series.zero()).terms == a.terms


def test_mul_binomials():
    a = S([(rat(1, 2), 1, 1), (0, 0, -1)])
    b = S([(rat(1, 2), 1, 1), (0, 0, 1)])
    prod = a * b
    assert prod.terms == S([(1, 2, 1), (0, 0, -1)]).terms


def test_mul_cutoff_rule():
    a = S([(1, 0, 1)], cutoff=4)  # ord 1
    b = S([(2, 0, 1)], cutoff=5)  # ord 2
    c = a * b
    # min(4 + 2, 5 + 1) = 6
    assert c.cutoff == 6


def test_mul_by_one_keeps_terms():
    a = random_series(__import__("random").Random(7))
    one = Series.one()
    assert (a * one).terms == a.terms
    assert (a * one).cutoff == min(a.cutoff, INF)


def test_geometric_inverse():
    g = S([(0, 0, 1), (1, 0, -1)], cutoff=6)
    inv = g.inverse()
    expect = S([(i, 0, 1) for i in range(6)], cutoff=6)
    assert_equal_series(inv, expect, 6)
    assert_equal_series(g * inv, Series.one(), rat(5))


def test_inverse_of_monomial():
    m = Series.monomial(cyclo.ONE, rat(1, 16), rat(-1, 4))
    inv = m.inverse(order=rat(3))
    assert inv.terms == {(rat(-1, 16), rat(1, 4)): cyclo.ONE}


def test_inverse_cutoff_rule():
    a = theta_jm(rat(-1, 2), 1, 4)  # ord 1/16, cutoff 4
    inv = a.inverse()
    assert inv.cutoff == 4 - rat(1, 8)
    assert_equal_series(a * inv, Series.one(), inv.cutoff + rat(1, 16))


def test_inverse_rejects_two_monomial_layer():
    with pytest.raises(NonUnitLeadingError):
        mumford("10", 4).inverse()


def test_inverse_of_exact_needs_order():
    g = S([(0, 0, 1), (1, 0, -1)])  # infinite trust
    with pytest.raises(ValueError):
        g.inverse()
    inv = g.inverse(order=3)
    assert inv.cutoff == 3


def geometric_inverse(s, order=None):
    """Reference inverse: M^{-1} sum_n (-x)^n for s = M (1 + x), summed one
    truncated product per power until the next power starts at the bound."""
    ((qa, za), ca), = s.leading_layer().items()
    if s.cutoff == INF:
        target = rat(order)
    else:
        target = s.cutoff - 2 * qa
        if order is not None and rat(order) < target:
            target = rat(order)
    inv_lead = ca.inverse()
    bound = target + qa
    x_series = Series(
        {(q - qa, z - za): inv_lead * v for (q, z), v in s.terms.items()
         if (q, z) != (qa, za) and q - qa < bound},
        bound, _normalized=True,
    )
    acc = Series.one(bound)
    if not x_series.is_zero_series():
        delta = x_series.ord
        power = Series.one(bound)
        k = rat(0)
        while k + delta < bound:
            power = power._mul_trunc(-x_series, bound)
            if power.is_zero_series():
                break
            acc = acc + power
            k = power.ord
    return acc.times_monomial(inv_lead, -qa, -za)


W = cyclo.phase(rat(1, 8))
# leading coefficients, all but -1 non-units
leads = st.sampled_from([CycloNum(2), cyclo.ONE + W, CycloNum(rat(-2, 3)),
                         cyclo.MINUS_ONE, CycloNum(1, 0, 1, 0)])
coeffs = st.sampled_from([cyclo.ONE, cyclo.MINUS_ONE, CycloNum(2), W, -W,
                          CycloNum(rat(1, 2), 0, 0, -1)])
exps = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def invertible_series(draw):
    """(s, order): a finite cutoff with no order, a smaller explicit order,
    an exact series with an order, or an order that leaves nothing below
    the bound."""
    qa = draw(exps)
    za = draw(exps)
    lead = draw(leads)
    terms = {(qa, za): lead}
    for _ in range(draw(st.integers(0, 6))):
        dq = draw(st.sampled_from([rat(1, 4), rat(1, 2), 1, rat(3, 2), 2]))
        z = rat(draw(st.integers(-2, 2)), draw(st.sampled_from([1, 2])))
        # multiples of the leading coefficient by small numbers make the
        # terms of the inverse cancel often
        terms[(qa + dq, za + z)] = lead * draw(coeffs)
    mode = draw(st.sampled_from(["cutoff", "order", "exact", "empty"]))
    half = st.integers(0, 10).map(lambda n: rat(n, 2))
    cutoff = INF if mode == "exact" else qa + rat(1, 2) + draw(half)
    order = {
        "cutoff": None,
        "order": cutoff - 2 * qa - rat(1, 2) - draw(half),
        "exact": -qa + draw(half),
        "empty": -qa - draw(half),
    }[mode]
    return Series(terms, cutoff), order


@settings(max_examples=150, deadline=None)
@given(invertible_series())
def test_inverse_matches_geometric_reference(case):
    s, order = case
    inv = s.inverse(order)
    ref = geometric_inverse(s, order)
    assert inv.terms == ref.terms
    assert inv.cutoff == ref.cutoff
    prod = s * inv
    assert_equal_series(prod, Series.one(), prod.cutoff)


def test_scale_args():
    a = S([(0, 0, 1), (1, 1, 1)], cutoff=7)
    b = a.scale_args(2, 2)
    assert b.terms == S([(0, 0, 1), (2, 2, 1)]).terms
    assert b.cutoff == 14
    assert a.scale_args(1, 1).terms == a.terms
    with pytest.raises(ValueError):
        a.scale_args(0, 1)


def test_scale_args_z_projection_merges():
    a = S([(1, 1, 1), (1, -1, 1), (2, 1, 1), (2, -1, -1)], cutoff=9)
    proj = a.scale_args(1, 0)
    assert proj.terms == S([(1, 0, 2)]).terms


def test_scaled_eta_leading_exponent():
    e = eta(rat(1, 2), 1, 2)
    assert e.ord == rat(1, 48)


def test_is_zfree():
    assert eta(1, 1, 6).is_zfree()
    assert not theta_jm(0, 1, 6).is_zfree()


def test_equal_up_to():
    a = S([(0, 0, 1), (1, 0, 1)], cutoff=4)
    b = S([(0, 0, 1)], cutoff=4)
    ok, mm = a.equal_up_to(b, rat(1, 2))
    assert ok and mm is None
    ok, mm = a.equal_up_to(b, 2)
    assert not ok and mm == (1, 0)
    with pytest.raises(InsufficientOrderError):
        a.equal_up_to(b, 5)
    assert a.equal_up_to(a, 4)[0]


def test_ring_axioms_randomized(rng):
    for _ in range(25):
        a = random_series(rng)
        b = random_series(rng)
        c = random_series(rng)
        lhs = (a * b) * c
        rhs = a * (b * c)
        o = min(lhs.cutoff, rhs.cutoff)
        assert_equal_series(lhs, rhs, o, "associativity")
        o2 = min((a * b).cutoff, (b * a).cutoff)
        assert_equal_series(a * b, b * a, o2, "commutativity")
        lhs = a * (b + c)
        rhs = a * b + a * c
        assert_equal_series(lhs, rhs, min(lhs.cutoff, rhs.cutoff),
                            "distributivity")


def test_refinement_determinism():
    # recomputing with a larger cutoff reproduces all trusted terms
    lo = theta_jm(0, 1, 5) * theta_jm(1, 1, 5) * eta(1, -1, 5)
    hi = theta_jm(0, 1, 9) * theta_jm(1, 1, 9) * eta(1, -1, 9)
    assert_equal_series(lo, hi, lo.cutoff)


def test_text_and_json_forms():
    th = theta_jm(0, 1, 5)
    assert th.text() == ("1 + q^(1) * z^(-1) + q^(1) * z^(1) "
                         "+ q^(4) * z^(-2) + q^(4) * z^(2)")
    obj = th.json_obj()
    assert obj["cutoff"] == "5"
    assert obj["terms"][0] == ["0", "0", ["1", "0", "0", "0"]]
    assert Series.zero(rat(2)).text() == "0"
    minus = S([(0, 0, 1), (1, 0, -2)])
    assert minus.text() == "1 - 2 * q^(1)"

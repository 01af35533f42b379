from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaq._rational import INF, rat
from thetaq import cyclo
from thetaq.cyclo import CycloNum
from thetaq.series import (InsufficientOrderError, NonUnitLeadingError, Series,
                           _DENSE, _convolve, _gather, _grid_bound,
                           _packed_product, _series)
from thetaq.thetalib import eta, mumford, theta

from conftest import assert_equal_series, is_zfree, random_series, scale_args


def S(pairs, cutoff=INF):
    return Series({(rat(q), rat(z)): CycloNum(rat(c))
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


def test_finite_cutoffs_are_fractions():
    # an int order must not turn j/(2m)-style arithmetic on cutoffs into floats
    cases = [
        theta(0, 1, 6).restrict(4).cutoff / 8,
        Series.zero(3).ord / 2,
        Series.one(2).cutoff / 4,
        Series.monomial(cyclo.ONE, 1, 0, 3).cutoff / 2,
        Series.monomial(cyclo.ONE, 5, 0, 3).cutoff / 2,
        S([(1, 0, 1)], cutoff=5).cutoff / 2,
    ]
    assert cases == [rat(1, 2), rat(3, 2), rat(1, 2), rat(3, 2), rat(3, 2),
                     rat(5, 2)]
    assert all(type(x) is Fraction for x in cases)
    assert Series.zero().cutoff == INF


def test_shifted_inf_is_still_inf():
    # INF + 1/2 is a new float object, so INF is recognized by type
    one = Series.one().times_monomial(cyclo.ONE, rat(1, 2))
    assert one.cutoff == INF
    assert _grid_bound(one.cutoff, 4) == INF
    finite = S([(0, 0, 1), (1, 0, 2)], cutoff=5)
    assert (one * finite).cutoff == rat(11, 2)
    assert (finite * one).cutoff == rat(11, 2)


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
    a = theta(rat(-1, 2), 1, 4)  # ord 1/16, cutoff 4
    inv = a.inverse()
    assert inv.cutoff == 4 - rat(1, 8)
    assert_equal_series(a * inv, Series.one(), inv.cutoff + rat(1, 16))


def test_inverse_rejects_two_monomial_layer():
    with pytest.raises(NonUnitLeadingError):
        mumford("10", 4).inverse()


def test_inverse_of_zero_series_raises():
    with pytest.raises(NonUnitLeadingError):
        Series.zero(3).inverse()


def test_times_zero_is_exact_zero():
    z = theta(0, 1, 4).times_monomial(cyclo.ZERO)
    assert z.is_zero_series()
    assert z.cutoff == INF


def test_equality_compares_cutoffs():
    # same terms below 3, but one is trusted further
    assert (theta(0, 1, 4).restrict(3) == theta(0, 1, 4)) is False


def test_inverse_of_exact_needs_order():
    g = S([(0, 0, 1), (1, 0, -1)])  # infinite trust
    with pytest.raises(ValueError):
        g.inverse()
    inv = g.inverse(order=3)
    assert inv.cutoff == 3


def truncated_product(a, b, bound):
    """Term-by-term CycloNum convolution of two ``{(qexp, zexp): coeff}``
    dicts, keeping q-exponents below ``bound``; zero sums dropped."""
    out = {}
    for (qa, za), ca in a.items():
        for (qb, zb), cb in b.items():
            k = (qa + qb, za + zb)
            if k[0] < bound:
                out[k] = out[k] + ca * cb if k in out else ca * cb
    return {k: v for k, v in out.items() if v}


def geometric_inverse(s, order=None):
    """Reference inverse ``(terms, cutoff)``: M^{-1} sum_n (-x)^n for
    s = M (1 + x), one term-by-term truncated product per power, until a
    power has no terms below the bound (x has only positive q-exponents)."""
    (qa, za, ca), = [t for t in s.monomials() if t[0] == s.ord]
    if s.cutoff == INF:
        target = rat(order)
    else:
        target = s.cutoff - 2 * qa
        if order is not None and rat(order) < target:
            target = rat(order)
    inv_lead = ca.inverse()
    bound = target + qa
    minus_x = {(q - qa, z - za): -(inv_lead * v) for (q, z), v in s.terms.items()
               if (q, z) != (qa, za) and q - qa < bound}
    power = {(rat(0), rat(0)): cyclo.ONE} if bound > 0 else {}
    acc = dict(power)
    while power:
        power = truncated_product(power, minus_x, bound)
        for k, v in power.items():
            acc[k] = acc[k] + v if k in acc else v
    terms = {(q - qa, z - za): inv_lead * v for (q, z), v in acc.items()
             if v}
    return terms, target


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
    terms, cutoff = geometric_inverse(s, order)
    assert inv.terms == terms
    assert inv.cutoff == cutoff
    prod = s * inv
    assert_equal_series(prod, Series.one(), prod.cutoff)


def test_scaled_eta_leading_exponent():
    e = eta(rat(1, 2), 1, 2)
    assert e.ord == rat(1, 48)


def test_is_zfree():
    assert is_zfree(eta(1, 1, 6))
    assert not is_zfree(theta(0, 1, 6))


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
    lo = theta(0, 1, 5) * theta(1, 1, 5) * eta(1, -1, 5)
    hi = theta(0, 1, 9) * theta(1, 1, 9) * eta(1, -1, 9)
    assert_equal_series(lo, hi, lo.cutoff)


def test_text_and_json_forms():
    th = theta(0, 1, 5)
    assert th.text() == ("1 + q^(1) * z^(-1) + q^(1) * z^(1) "
                         "+ q^(4) * z^(-2) + q^(4) * z^(2)")
    obj = th.json_obj()
    assert obj["cutoff"] == "5"
    assert obj["terms"][0] == ["0", "0", ["1", "0", "0", "0"]]
    assert Series.zero(rat(2)).text() == "0"
    minus = S([(0, 0, 1), (1, 0, -2)])
    assert minus.text() == "1 - 2 * q^(1)"
    w = CycloNum(1, 1)
    two = Series({(rat(0), rat(0)): w, (rat(1), rat(0)): w})
    assert two.text() == "1 + w + (1 + w) * q^(1)"


# -- the int-over-den representation, on exponent denominators (5, 7) that
# -- the identity registry never produces

MIXED_DENS = (1, 2, 3, 5, 7)
mixed_q = st.builds(rat, st.integers(-6, 10), st.sampled_from(MIXED_DENS))
mixed_z = st.builds(rat, st.integers(-4, 4), st.sampled_from(MIXED_DENS))
mixed_cutoff = st.one_of(st.just(INF), mixed_q.map(lambda q: q + 2))


@st.composite
def mixed_series(draw):
    terms = draw(st.dictionaries(st.tuples(mixed_q, mixed_z), coeffs,
                                 max_size=6))
    return Series(terms, draw(mixed_cutoff))


def fraction_sum(a, b):
    """Reference sum on the Fraction-keyed terms."""
    cut = min(a.cutoff, b.cutoff)
    out = {}
    for terms in (a.terms, b.terms):
        for k, v in terms.items():
            if k[0] < cut:
                out[k] = out[k] + v if k in out else v
    return {k: v for k, v in out.items() if v}, cut


def fraction_product(a, b):
    """Reference product on the Fraction-keyed terms, with the propagated
    cutoff."""
    cut = min(a.cutoff + b.ord, b.cutoff + a.ord)
    return truncated_product(a.terms, b.terms, cut), cut


def test_equal_series_hash_equal_across_denominators():
    third = Series.monomial(cyclo.ONE, rat(1, 3)) * Series.monomial(
        cyclo.ONE, rat(2, 3))
    whole = Series.monomial(cyclo.ONE, 1)
    assert third.den != whole.den
    assert third == whole and hash(third) == hash(whole)
    s = theta(1, 2, 6)
    back = scale_args(scale_args(s, rat(3, 7), 1), rat(7, 3), 1)
    assert back == s and hash(back) == hash(s)
    assert back.json_obj() == s.json_obj()


@settings(max_examples=200, deadline=None)
@given(mixed_series(), mixed_series())
def test_sum_and_product_match_fraction_reference(a, b):
    terms, cut = fraction_sum(a, b)
    assert (a + b).terms == terms and (a + b).cutoff == cut
    terms, cut = fraction_product(a, b)
    assert (a * b).terms == terms and (a * b).cutoff == cut
    assert (a - b) + b == a.restrict(min(a.cutoff, b.cutoff))


@settings(max_examples=150, deadline=None)
@given(mixed_series(), mixed_series(), mixed_series())
def test_ring_laws_with_cutoffs(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a + b).cutoff == min(a.cutoff, b.cutoff)
    assert (a * b).cutoff == min(a.cutoff + b.ord, b.cutoff + a.ord)
    lhs, rhs = (a * b) * c, a * (b * c)
    assert_equal_series(lhs, rhs, min(lhs.cutoff, rhs.cutoff, 30),
                        "associativity")
    lhs, rhs = a * (b + c), a * b + a * c
    assert_equal_series(lhs, rhs, min(lhs.cutoff, rhs.cutoff, 30),
                        "distributivity")
    for s in (a + b, a * b, lhs, rhs):
        assert all(q < s.cutoff for q, _ in s.terms)


@settings(max_examples=200, deadline=None)
@given(mixed_series(), mixed_series(), mixed_q)
def test_restrict_and_equal_up_to_agree(a, b, order):
    order = min(order, a.cutoff, b.cutoff)
    ra, rb = a.restrict(order), b.restrict(order)
    assert ra.cutoff == order
    assert ra.terms == {k: v for k, v in a.terms.items() if k[0] < order}
    ok, witness = a.equal_up_to(b, order)
    assert ok == (ra == rb) == (a - b).restrict(order).is_zero_series()
    mism = [k for k in set(a.terms) | set(b.terms)
            if k[0] < order and a.terms.get(k) != b.terms.get(k)]
    assert witness == (min(mism) if mism else None)


@settings(max_examples=150, deadline=None)
@given(mixed_series(), mixed_q, mixed_z)
def test_equal_whatever_the_denominator(s, dq, dz):
    there = s.times_monomial(cyclo.ONE, dq, dz)
    back = there.times_monomial(cyclo.ONE, -dq, -dz)
    assert back == s and hash(back) == hash(s)
    rebuilt = Series(dict(s.terms), s.cutoff)
    assert rebuilt == s and hash(rebuilt) == hash(s)
    if s.cutoff != INF:
        scaled = scale_args(scale_args(s, rat(3, 7), 1), rat(7, 3), 1)
        assert scaled == s and hash(scaled) == hash(s)


def _boundary_exponents(s, other):
    out = [x for k in s.terms for x in k]
    out += [x for q, z, _ in s.monomials() for x in (q, z)]
    if s.terms:
        out.append(s.ord)
    ok, witness = s.equal_up_to(other, min(s.cutoff, other.cutoff, rat(4)))
    if not ok:
        out += list(witness)
    return out


@settings(max_examples=150, deadline=None)
@given(mixed_series(), mixed_series())
def test_boundary_exponents_are_fractions(a, b):
    for s in (a, a + b, a * b, scale_args(a, rat(2, 5), rat(3, 7)),
              a.times_monomial(cyclo.ONE, rat(1, 7), rat(-2, 5))):
        for x in _boundary_exponents(s, b):
            assert type(x) is Fraction
            assert type(x / 2) is Fraction  # j / (2*m)-style use stays exact
    ints = Series({(0, 1): cyclo.ONE, (2, 0): cyclo.MINUS_ONE})
    assert all(type(x) is Fraction for q, z, _ in ints.monomials()
               for x in (q, z))


# -- the product and inverse kernels accumulate each Q(zeta_8) component on
# -- its own: every stored component must be canonical and nonzero, and the
# -- terms equal to the term-by-term CycloNum result

# Fraction and non-rational components, units, and their sums
FORM_COEFFS = (CycloNum(rat(1, 2), 0, 0, -1), cyclo.ONE + W, CycloNum(rat(-2, 3)),
               cyclo.I, -W, cyclo.MINUS_ONE)
form_q = st.integers(-2, 4).map(lambda n: rat(n, 2))


@st.composite
def form_series(draw):
    """A few terms on a coarse grid, so that products collide and cancel."""
    terms = draw(st.dictionaries(
        st.tuples(form_q, st.integers(-1, 1).map(rat)),
        st.sampled_from(FORM_COEFFS), max_size=5))
    return Series(terms, draw(st.one_of(st.just(INF), form_q.map(lambda q: q + 2))))


def assert_kernel_form(s):
    # the stored components, not ``terms``, whose CycloNums canonicalize
    # on the way out
    for d in s._comps:
        for v in d.values():
            assert v
            assert type(v) is int or (type(v) is Fraction
                                      and v.denominator > 1), v
    # sorted lists a kernel kept (a shift keeps its own) match a fresh sort
    assert s._lists() == tuple(sorted((q, z, v) for (q, z), v in d.items())
                               for d in s._comps)


@settings(max_examples=200, deadline=None)
@given(form_series(), form_series(), invertible_series())
def test_products_and_inverses_store_canonical_nonzero_coefficients(a, b, case):
    # in (a + b)(a - b) the cross terms ab and ba cancel key by key
    for x, y in ((a, b), (a + b, a - b)):
        prod = x * y
        for out in (x, y, prod):
            assert_kernel_form(out)
        assert (prod.terms, prod.cutoff) == fraction_product(x, y)
    s, order = case
    inv = s.inverse(order)
    assert_kernel_form(inv)
    assert (inv.terms, inv.cutoff) == geometric_inverse(s, order)


# 1, the units w^k, a rational non-unit and the two-component FORM_COEFFS
monomial_coeffs = st.sampled_from(
    [cyclo.ONE] + [cyclo.phase(rat(k, 8)) for k in range(1, 8)]
    + [CycloNum(rat(-2, 3)), FORM_COEFFS[0], FORM_COEFFS[1]])


@settings(max_examples=200, deadline=None)
@given(mixed_series(), monomial_coeffs, mixed_q, mixed_z)
def test_times_monomial_is_the_product(s, c, dq, dz):
    got = s.times_monomial(c, dq, dz)
    want = s * Series.monomial(c, dq, dz)
    assert_kernel_form(got)
    assert got.terms == want.terms
    assert got.cutoff == want.cutoff
    # halving even coefficients, times a unit or not, leaves ints
    n = 2 * lcm(*(Fraction(v).denominator
                  for d in s._comps for v in d.values()))
    even = s.times_monomial(CycloNum(n))
    for half in (CycloNum(rat(1, 2)), CycloNum(0, 0, rat(-1, 2))):
        halved = even.times_monomial(half, dq, dz)
        assert all(type(v) is int for d in halved._comps for v in d.values())
        assert halved.terms == s.times_monomial(half * CycloNum(n), dq,
                                                dz).terms


def test_term_cancelled_only_by_w4_fold_is_dropped():
    # (1 + w^2 q)(w^2 + q) = w^2 + (1 + w^4) q + w^2 q^2, and w^4 = -1
    a = Series({(rat(0), rat(0)): cyclo.ONE, (rat(1), rat(0)): cyclo.I}, 5)
    b = Series({(rat(0), rat(0)): cyclo.I, (rat(1), rat(0)): cyclo.ONE}, 5)
    prod = a * b
    assert prod.cutoff == 5
    assert prod.terms == {(0, 0): cyclo.I, (2, 0): cyclo.I}
    assert (1, 0) not in prod.terms


# -- the packed-layer kernels on dense operands: many terms per q-layer,
# -- negative z, coefficients far past a machine word, Fractions, and two
# -- or more Q(zeta_8) components in every coefficient

dense_part = st.one_of(st.integers(-10**30, 10**30),
                       st.fractions(-10**30, 10**30, max_denominator=60))
DENSE_PAIRS = [(i, j) for i in range(4) for j in range(i + 1, 4)]


def dense_terms(draw, q0, steps, size):
    """At least ``size`` terms at q0 + a step; each coefficient has two
    components from a pool of three large values (few draws per term)."""
    pool = draw(st.lists(dense_part.filter(bool), min_size=3, max_size=3))
    keys = draw(st.lists(st.tuples(st.sampled_from(steps), st.integers(-8, 5)),
                         min_size=size, max_size=size + 6, unique=True))
    terms = {}
    for dq, z in keys:
        (i, j), u, v = draw(st.tuples(st.sampled_from(DENSE_PAIRS),
                                      st.integers(0, 2), st.integers(1, 3)))
        parts = [0, 0, 0, 0]
        parts[i], parts[j] = pool[u], -v * pool[u - 1]
        terms[(q0 + dq, rat(z, 2))] = CycloNum(*parts)
    return terms


@st.composite
def dense_series(draw):
    """At least 10 terms on a few q-layers, so that layers hold many."""
    q0 = draw(exps)
    terms = dense_terms(draw, q0, [rat(n, 2) for n in range(6)], 10)
    return Series(terms, draw(st.one_of(st.just(INF), st.integers(0, 6).map(
        lambda n: q0 + 3 + rat(n, 2)))))


@settings(max_examples=40, deadline=None)
@given(dense_series(), dense_series(), st.integers(-4, 16))
def test_product_kernels_match_the_term_by_term_product(a, b, top):
    assert min(len(a.terms), len(b.terms)) >= 10
    bound = rat(top, 2)
    den = lcm(a.den, b.den)
    hi = _grid_bound(bound, den)
    xs, ys = a._lists_at(den), b._lists_at(den)
    acc = ({}, {}, {}, {})
    _convolve(acc, xs, ys, hi)
    want = truncated_product(a.terms, b.terms, bound)
    for comps in (_packed_product(xs, ys, hi), _gather(acc)):
        got = _series(comps, den, bound)
        assert_kernel_form(got)
        assert got.terms == want


def test_packed_product_fills_its_slots_to_the_bound():
    # with one term each the product's coefficient is S_x * S_y itself,
    # the most a slot of bitlen(S_x * S_y) + 1 bits must hold
    for c, d in ((3, 5), (-3, 5), (7, -9), (rat(1, 2), -255), (-1, -1)):
        x = Series({(rat(0), rat(1)): CycloNum(c)})
        y = Series({(rat(1), rat(-3)): CycloNum(d)})
        got = _series(_packed_product(x._lists(), y._lists(), 5), 1, INF)
        assert got.terms == {(1, -2): CycloNum(c * d)}


def test_the_size_rule_picks_the_packed_kernel(monkeypatch):
    from thetaq import series
    calls = []
    packed = series._packed_product
    monkeypatch.setattr(series, "_packed_product",
                        lambda *args: calls.append(1) or packed(*args))
    few, many, more = theta(0, 1, 5), theta(1, 2, 2000), theta(0, 1, 2000)
    assert len(few.terms) < _DENSE[0] <= len(many.terms)
    assert len(many.terms) * len(more.terms) >= _DENSE[1]
    few * many
    assert not calls
    many * more
    assert calls


# non-units with Fraction components, and -1
dense_leads = st.sampled_from([CycloNum(rat(2, 3), rat(-5, 7)),
                               CycloNum(rat(1, 2), 0, rat(3, 4), 0),
                               CycloNum(rat(-7, 5)), cyclo.MINUS_ONE])


@st.composite
def dense_invertible(draw):
    """(s, order) as :func:`invertible_series` draws it, with at least 10
    terms on the two layers above the leading one, both below the cutoff;
    "empty" leaves a bound <= 0."""
    qa, za = draw(exps), draw(exps)
    terms = {(q, za + z): c for (q, z), c in
             dense_terms(draw, qa, [rat(1, 2), 1], 10).items()}
    terms[(qa, za)] = draw(dense_leads)
    mode = draw(st.sampled_from(["cutoff", "order", "exact", "empty"]))
    half = st.integers(0, 3).map(lambda n: rat(n, 2))
    cutoff = INF if mode == "exact" else qa + rat(3, 2) + draw(half)
    order = {
        "cutoff": None,
        "order": cutoff - 2 * qa - rat(1, 2) - draw(half),
        "exact": -qa + draw(half),
        "empty": -qa - draw(half),
    }[mode]
    return Series(terms, cutoff), order


@settings(max_examples=40, deadline=None)
@given(dense_invertible())
def test_packed_inverse_matches_geometric_reference(case):
    s, order = case
    assert len(s.terms) >= 11
    inv = s.inverse(order)
    assert_kernel_form(inv)
    assert (inv.terms, inv.cutoff) == geometric_inverse(s, order)

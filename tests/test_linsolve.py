import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaq._rational import INF, rat
from thetaq import cyclo
from thetaq.cyclo import CycloNum
from thetaq.linsolve import _supports, decompose, membership, span_equal
from thetaq.numerators import (
    SUPPORTED_CHARACTERS,
    branching_basis,
    character,
    ensure_order,
    ratio_pair,
    u_basis,
)
from thetaq.series import InsufficientOrderError, Series, align
from thetaq.thetalib import ThetaSpec, bracket, eta, mumford, theta, theta_jm

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


def reference_supports(target, basis, order):
    """The support search on Fraction exponents, as it stood before the
    exponents became ints: every difference is walked and then filtered."""

    def zmap(series):
        out: dict = {}
        for q, z, _ in series.monomials():
            out.setdefault(z, []).append(q)
        return out

    zmaps = [zmap(b) for b in basis]
    ords = [b.ord for b in basis]
    his = [order - o for o in ords]
    floor = min([target.ord] + ords) - 1
    sets: list[set] = [set() for _ in basis]
    work = []

    def add(i, e):
        if floor - ords[i] <= e < his[i] and e not in sets[i]:
            sets[i].add(e)
            work.append((i, e))

    for qt, zt, _ in target.monomials():
        if qt >= order:
            continue
        for i, zm in enumerate(zmaps):
            for qs in zm.get(zt, ()):
                add(i, qt - qs)
    diffs: dict = {}

    def diff_set(i, j):
        if (i, j) not in diffs:
            diffs[i, j] = sorted({
                a - b
                for z, qs_i in zmaps[i].items()
                for a in qs_i
                for b in zmaps[j].get(z, ())
            })
        return diffs[i, j]

    while work:
        i, e = work.pop()
        for j in range(len(basis)):
            for d in diff_set(i, j):
                add(j, e + d)
    return [sorted(s) for s in sets]


def int_supports(target, basis, order):
    den, hi, rows = align([target] + basis, order)
    return [[rat(e, den) for e in es]
            for es in _supports(rows[0], rows[1:], hi, den)]


def test_supports_match_reference_on_branch_bases():
    order = rat(6)
    k = order + rat(1, 2)
    checked = 0
    for left in SUPPORTED_CHARACTERS:
        for right in SUPPORTED_CHARACTERS:
            labels = branching_basis(left, right)
            if left > right or not labels:
                continue
            target = character(*left, k) * character(*right, k)
            basis = [character(*lbl, k) for lbl in labels]
            got = int_supports(target, basis, order)
            assert got == reference_supports(target, basis, order)
            assert any(got)
            checked += 1
    assert checked >= 5


MIXED_DENS = (1, 2, 3, 5, 7)
small_coeffs = st.sampled_from([cyclo.ONE, cyclo.MINUS_ONE, CycloNum(2),
                                cyclo.I, CycloNum(rat(1, 2), 0, 0, -1)])


@st.composite
def sparse_series(draw):
    """Few terms on few z-exponents, so that z-matches are common; may be
    empty."""
    q = st.builds(rat, st.integers(-3, 8), st.sampled_from(MIXED_DENS))
    z = st.sampled_from([rat(0), rat(1, 2), rat(-1, 2), rat(1, 3), rat(2, 5)])
    terms = draw(st.dictionaries(st.tuples(q, z), small_coeffs, max_size=7))
    return Series(terms, draw(st.one_of(st.just(INF), st.sampled_from(
        [rat(13, 2), rat(50, 7), rat(8)]))))


@settings(max_examples=100, deadline=None)
@given(sparse_series(), st.lists(sparse_series(), min_size=1, max_size=4),
       st.builds(rat, st.integers(-2, 6), st.sampled_from(MIXED_DENS)))
def test_supports_match_reference_on_random_bases(target, basis, order):
    order = min([order, target.cutoff] + [b.cutoff for b in basis])
    assert int_supports(target, basis, order) == reference_supports(
        target, basis, order)


def _theta_family(m, qscale, zcoeff, k):
    # theta_{j,m}, j = -m+1..m, have disjoint z-supports, so they are
    # independent over z-free series
    return [theta(ThetaSpec(j, m, qscale=qscale, zcoeff=zcoeff), k)
            for j in range(-m + 1, m + 1)]


@st.composite
def zfree_combination(draw):
    """(target, basis, coefficients): an invertible integer mix of theta
    functions as the basis, and random z-free coefficients with a nonzero
    constant term on the first element."""
    m = draw(st.integers(1, 3))
    qscale = draw(st.sampled_from([1, rat(3, 5), rat(5, 7)]))
    zcoeff = draw(st.sampled_from([1, rat(1, 3)]))
    thetas = _theta_family(m, qscale, zcoeff, rat(8))
    n = draw(st.integers(1, len(thetas)))
    # unit upper-triangular: invertible over the integers
    basis = []
    for i in range(n):
        b = thetas[i]
        for j in range(i + 1, len(thetas)):
            c = draw(st.integers(-2, 2))
            if c:
                b = b + thetas[j].times_monomial(cyclo.from_rational(rat(c)))
        basis.append(b)
    exps = st.builds(rat, st.integers(0, 8), st.sampled_from(MIXED_DENS))
    coeffs = []
    for i in range(n):
        terms = draw(st.dictionaries(exps, small_coeffs, max_size=3))
        if i == 0:
            terms[rat(0)] = draw(small_coeffs)
        coeffs.append(Series({(q, rat(0)): c for q, c in terms.items()}))
    target = Series.zero()
    for c, b in zip(coeffs, basis):
        target = target + c * b
    return target, basis, coeffs


@settings(max_examples=60, deadline=None)
@given(zfree_combination())
def test_decompose_round_trip(case):
    target, basis, coeffs = case
    order = rat(5)
    dec = decompose(target, basis, order)
    assert dec.status == "exact"
    total = Series.zero()
    for c, b in zip(dec.coefficients, basis):
        total = total + c * b
    assert_equal_series(total, target, order, "re-multiplied")
    for got, drawn in zip(dec.coefficients, coeffs):
        assert got.is_zfree()
        assert_equal_series(got, drawn, got.cutoff, "coefficient")
    dup = decompose(target, basis + [basis[0]], order)
    assert dup.status == "under-determined"

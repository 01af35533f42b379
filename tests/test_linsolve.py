import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaq._rational import INF, rat
from thetaq import cyclo
from thetaq.cyclo import CycloNum, phase
from thetaq import identities, linsolve
from thetaq.identities import branch_product
from thetaq.linsolve import Decomposition, _supports, decompose, membership
from thetaq.numerators import (
    SUPPORTED_CHARACTERS,
    branching_basis,
    character,
    ensure_order,
    ratio_pair,
    u_basis,
)
from thetaq.series import InsufficientOrderError, Series, align
from thetaq.thetalib import bracket, eta, mumford, theta

from conftest import assert_equal_series, is_zfree, span_equal


def test_trivial_projection():
    b1 = theta(0, 1, 6)
    b2 = theta(1, 1, 6)
    dec = decompose(b1, [b1, b2], 4)
    assert dec.status == "exact"
    assert_equal_series(dec.coefficients[0], Series.one(dec.coefficients[0].cutoff),
                        dec.coefficients[0].cutoff)
    assert dec.coefficients[1].is_zero_series()


def test_squares_note_coefficients():
    # the two-variable constants expanded as eta-quotient oracles
    K = rat(8)
    target = theta(0, 1, K) * theta(0, 1, K)
    dec = decompose(target, [mumford("00", K), mumford("01", K)], 6)
    assert dec.status == "exact"
    half = CycloNum(rat(1, 2))
    a = eta(1, 2, K) * eta(rat(1, 2), -1, K) * eta(2, -1, K)
    b = eta(rat(1, 2), 1, K) * eta(1, -1, K)
    c0 = (eta(1, 1, K) * (a * a)).times_monomial(half)
    c1 = (eta(1, 1, K) * (b * b)).times_monomial(half)
    for got, expect in zip(dec.coefficients, (c0, c1)):
        o = min(rat(6), got.cutoff, expect.cutoff)
        assert_equal_series(got, expect, o)
        assert is_zfree(got)


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
    ok, wit = membership(theta(0, 1, 6), [theta(1, 1, 6)], 4)
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
        decompose(theta(0, 1, 3), [theta(0, 1, 3)], 4)
    with pytest.raises(ValueError):
        decompose(theta(0, 1, 3), [], 2)


def _half_lowered_target():
    return theta(0, 1, 5).times_monomial(cyclo.ONE, rat(-1, 2))


def test_insufficient_order_names_the_short_basis_element():
    with pytest.raises(InsufficientOrderError) as exc:
        decompose(_half_lowered_target(), [theta(0, 1, 3)], 4)
    assert exc.value.max_order == 3


def test_insufficient_order_counts_the_coefficient_order():
    # the coefficient q^(-1/2) lowers what theta_{0,1} to order 4 certifies
    with pytest.raises(InsufficientOrderError) as exc:
        decompose(_half_lowered_target(), [theta(0, 1, 4)], 4)
    assert exc.value.max_order == rat(7, 2)


def test_soundness_residual_always_checked():
    # a target one step outside the span: residual must carry the witness
    target = theta(0, 1, 6) + Series.monomial(cyclo.ONE, rat(3), rat(5))
    dec = decompose(target, [theta(0, 1, 6)], 4)
    assert dec.status == "not-in-span"
    assert dec.witness == (3, 5)
    assert not dec.residual.is_zero_series()


def test_solution_invariance_under_permutation():
    # coefficients are pinned strictly below the certified order minus the
    # last unit (the top lattice step is only partially constrained)
    K = rat(8)
    target = theta(0, 1, K) * theta(0, 1, K)
    basis = [mumford("00", K), mumford("01", K)]
    d1 = decompose(target, basis, 5)
    d2 = decompose(target, list(reversed(basis)), 5)
    for a, b in zip(d1.coefficients, reversed(d2.coefficients)):
        assert_equal_series(a, b, 4)


def test_scaling_equivariance():
    K = rat(8)
    target = theta(0, 1, K) * theta(0, 1, K)
    basis = [mumford("00", K), mumford("01", K)]
    g = eta(1, 2, K)  # z-free unit
    d_plain = decompose(target, basis, 5)
    d_scaled = decompose(g * target, basis, 5)
    for cs, cp in zip(d_scaled.coefficients, d_plain.coefficients):
        expect = g * cp
        assert_equal_series(cs, expect, 4)


def test_under_determined_flagged_for_duplicate_basis():
    b = theta(0, 1, 8)
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
    target = theta(1, 2, K) * ensure_order(lambda t: bracket(2, 3, t), K)
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
    dec = decompose(theta(0, 1, 6), [theta(0, 1, 6)], 4)
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


def test_supports_match_reference_on_branch_bases(monkeypatch):
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

    # the deep systems that ``branch`` solves, caught on their way into
    # ``decompose``
    systems = []
    solve = identities.decompose

    def caught(target, basis, order):
        systems.append((target, basis, order))
        return solve(target, basis, order)

    monkeypatch.setattr(identities, "decompose", caught)
    for left, right, order in (((2, 0), (2, 1), 12), ((1, 1), (1, 1), 14)):
        assert branch_product(left, right, order)[1].status == "exact"
    assert len(systems) >= 2
    for target, basis, order in systems:
        got = int_supports(target, basis, order)
        assert got == reference_supports(target, basis, order)
        assert any(got)


MIXED_DENS = (1, 2, 3, 5, 7)
small_coeffs = st.sampled_from([cyclo.ONE, cyclo.MINUS_ONE, CycloNum(2),
                                cyclo.I, CycloNum(rat(1, 2), 0, 0, -1)])


@st.composite
def sparse_series(draw, coeffs=small_coeffs, dens=MIXED_DENS):
    """Few terms on few z-exponents, so that z-matches are common; may be
    empty."""
    q = st.builds(rat, st.integers(-3, 8), st.sampled_from(dens))
    z = st.sampled_from([rat(0), rat(1, 2), rat(-1, 2), rat(1, 3), rat(2, 5)])
    terms = draw(st.dictionaries(st.tuples(q, z), coeffs, max_size=7))
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
    return [theta(j, m, k, qscale=qscale, zcoeff=zcoeff)
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
                b = b + thetas[j].times_monomial(CycloNum(rat(c)))
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
        assert is_zfree(got)
        assert_equal_series(got, drawn, got.cutoff, "coefficient")
    dup = decompose(target, basis + [basis[0]], order)
    assert dup.status == "under-determined"


def reference_decompose(target, basis, order):
    """``decompose`` as it stood before closed rows were skipped: every row
    is copied and reduced, and the residual is built through ``Series``
    products, sums and ``restrict``."""
    if not basis:
        raise ValueError("basis must be nonempty")
    order = rat(order)
    if order > target.cutoff:
        raise InsufficientOrderError("target", max_order=target.cutoff)
    for b in basis:
        if order > b.cutoff:
            raise InsufficientOrderError("basis", max_order=b.cutoff)

    den, hi, grid = align([target] + basis, order)
    brows = grid[1:]
    supports = _supports(grid[0], brows, hi, den)
    cols = [(i, e) for i, es in enumerate(supports) for e in es]
    col_index = {c: k for k, c in enumerate(cols)}

    rows: dict = {}
    for (i, e) in cols:
        ci = col_index[(i, e)]
        for q, z, coeff in brows[i]:
            qq = e + q
            if qq >= hi:
                break
            rows.setdefault((qq, z), {})[ci] = coeff
    rhs: dict = {}
    for q, z, coeff in grid[0]:
        if q >= hi:
            break
        rhs[(q, z)] = coeff
        rows.setdefault((q, z), {})

    pivots: dict = {}  # col -> (creation_index, rowdict, rhsval)
    for key in sorted(rows):
        row = dict(rows[key])
        rv = rhs.get(key)
        todo = [c for c in row if c in pivots]
        heapq.heapify(todo)
        while todo:
            c = heapq.heappop(todo)
            factor = row.pop(c, None)
            if factor is None:
                continue
            _, prow, prv = pivots[c]
            for cc, coeff in prow.items():
                if cc == c:
                    continue
                p = factor * coeff
                cur = row.get(cc)
                if cur is None:
                    row[cc] = -p
                    if cc in pivots:
                        heapq.heappush(todo, cc)
                elif not (s := cur - p):
                    del row[cc]
                else:
                    row[cc] = s
            if prv is not None:
                rv = -(factor * prv) if rv is None else rv - factor * prv
                if not rv:
                    rv = None
        if not row:
            continue
        pc = min(row)
        inv = row[pc].inverse()
        row = {c: inv * v for c, v in row.items()}
        if rv is not None:
            rv = inv * rv
        pivots[pc] = (len(pivots), row, rv)

    values: dict = {}
    for c, (_, row, rv) in sorted(pivots.items(), key=lambda kv: -kv[1][0]):
        acc = rv
        for cc, coeff in row.items():
            if cc == c:
                continue
            v = values.get(cc)
            if v is None:
                continue
            p = coeff * v
            acc = -p if acc is None else acc - p
        if acc is not None and acc:
            values[c] = acc

    coeffs = []
    for i, b in enumerate(basis):
        terms = {}
        for e in supports[i]:
            v = values.get(col_index[(i, e)])
            if v is not None:
                terms[(rat(e, den), rat(0))] = v
        coeffs.append(Series(terms, order - b.ord))

    certified = min([order, target.cutoff] + [
        b.cutoff + c.ord for b, c in zip(basis, coeffs) if not c.is_zero_series()
    ])
    if certified < order:
        raise InsufficientOrderError("inputs", max_order=certified)

    total = Series.zero(INF)
    for c, b in zip(coeffs, basis):
        total = total + c * b
    residual = (target - total).restrict(order)

    interior_free = [
        (i, e)
        for (i, e) in cols
        if col_index[(i, e)] not in pivots and e + brows[i][0][0] < hi - den
    ]
    if residual.is_zero_series():
        status = "under-determined" if interior_free else "exact"
        witness = None
    else:
        status = "not-in-span"
        q, z, _ = residual.monomials()[0]
        witness = (q, z)
    return Decomposition(coeffs, residual, status, order, witness)


def outcome(solver, target, basis, order):
    """The JSON form of a decomposition, or the order an
    InsufficientOrderError names."""
    try:
        return solver(target, basis, order).json_obj()
    except InsufficientOrderError as exc:
        return ("insufficient", exc.max_order)


# non-unit pivots with Fraction components
fraction_coeffs = st.one_of(small_coeffs, st.builds(
    lambda a, b, c: CycloNum(rat(a, 3), 0, rat(b, c), 0),
    st.integers(-3, 3), st.integers(-2, 2), st.integers(1, 5)))
# q-denominators whose lcm stays small, so that windows stay small
SYSTEM_DENS = (1, 2, 3)
# rationals, most of them not units, so that rational pivots need dividing
rational_coeffs = st.builds(lambda n, d: CycloNum(rat(n, d)),
                            st.integers(-3, 3).filter(bool), st.integers(1, 3))


@st.composite
def sparse_system(draw):
    """(target, basis): nonempty sparse basis elements, some repeated
    (under-determined), and a target that is either random (mostly outside
    the span) or a z-free combination of the basis, perturbed or not.

    In about half the draws every series is one unit w^k (k drawn per series
    in 0..7) times rational coefficients, the real form that ``decompose``
    eliminates in rationals; the target may be empty.  As w^(k+4) = -w^k,
    ``decompose`` reads k mod 4, so its offsets k_t - k_i run over -3..3.
    The reference cannot take an exactly known basis element without terms
    (its product with a zero coefficient has a NaN cutoff)."""
    real = draw(st.booleans())
    coeffs = rational_coeffs if real else fraction_coeffs
    turns = st.integers(0, 7) if real else st.just(0)

    def turned(series, k):
        return series.times_monomial(phase(rat(k, 8)))

    elements = sparse_series(coeffs, SYSTEM_DENS).filter(
        lambda b: not b.is_zero_series())
    ks = draw(st.lists(turns, min_size=1, max_size=4))
    basis = [turned(draw(elements), k) for k in ks]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(basis) - 1))
        basis.append(basis[i])
        ks.append(ks[i])
    kt = draw(turns)
    if draw(st.booleans()):
        return turned(draw(sparse_series(coeffs, SYSTEM_DENS)), kt), basis
    exps = st.builds(rat, st.integers(0, 4), st.sampled_from(SYSTEM_DENS))
    target = turned(draw(st.one_of(st.just(Series.zero()),
                                   sparse_series(coeffs, SYSTEM_DENS))), kt)
    for b, k in zip(basis, ks):
        terms = draw(st.dictionaries(exps, coeffs, max_size=3))
        coeff = Series({(q, rat(0)): c for q, c in terms.items()})
        target = target + turned(coeff, kt - k) * b
    return target, basis


@settings(max_examples=100, deadline=None)
@given(sparse_system(),
       st.builds(rat, st.integers(-2, 6), st.sampled_from(SYSTEM_DENS)))
def test_decompose_matches_reference_on_random_systems(system, order):
    target, basis = system
    order = min([order, target.cutoff] + [b.cutoff for b in basis])
    assert outcome(decompose, target, basis, order) == outcome(
        reference_decompose, target, basis, order)


def _refuse(name):
    def refuse(*args):
        raise AssertionError(f"{name} ran")
    return refuse


@pytest.mark.parametrize("order", [6, 12, 14])
def test_decompose_matches_reference_on_branch_bases(monkeypatch, order):
    muls = []
    mul = CycloNum.__mul__

    def counted(a, b):
        muls.append(1)
        return mul(a, b)

    k = rat(order) + rat(1, 2)
    checked = 0
    for left in SUPPORTED_CHARACTERS:
        for right in SUPPORTED_CHARACTERS:
            labels = branching_basis(left, right)
            if left > right or not labels:
                continue
            target = character(*left, k) * character(*right, k)
            basis = [character(*lbl, k) for lbl in labels]
            with monkeypatch.context() as m:
                m.setattr(CycloNum, "__mul__", counted)
                m.setattr(linsolve, "_eliminate", _refuse("_eliminate"))
                got = decompose(target, basis, order)
            # every series is a unit times a rational series: the system
            # is solved in rationals, with no product in Q(zeta_8); its
            # columns have distinct leading monomials, so it is solved by
            # forward substitution, without the elimination
            assert not muls
            assert got.json_obj() == reference_decompose(
                target, basis, order).json_obj()
            assert got.status == "exact"
            checked += 1
    assert checked == 5


def _poly(coeffs):
    """sum of coeffs[n] * z^n at q^0, exactly known."""
    return Series({(rat(0), rat(n)): CycloNum(c) for n, c in
                   enumerate(coeffs) if c})


def test_closed_pivots_skip_a_row_without_reducing_it(monkeypatch):
    # columns A = (0, 0) < B = (1, 0).  Row z^0: {A: 2, B: 1} pivots on A
    # while B is open; row z^1: {A: 1} reduces to {B: -1/2}, so B becomes a
    # pivot only later, and closed at once, which closes A; row z^2:
    # {A: 1, B: 3} then holds only closed pivots and is skipped.  The first
    # basis element is taken times 1, which keeps the system in real form
    # (int entries), and times 1 + w, which takes it out; the zero pattern
    # is the same
    reduced = []
    heapify = heapq.heapify

    def counted(todo):  # called once for each row that enters reduction
        reduced.append(1)
        heapify(todo)

    monkeypatch.setattr(heapq, "heapify", counted)

    def count(solver, scale, target, basis):
        reduced.clear()
        dec = solver(target, [basis[0].times_monomial(scale)] + basis[1:], 1)
        return len(reduced), dec

    three = (_poly([3, 1, 4]), [_poly([2, 1, 1]), _poly([1, 0, 3])])
    two = (_poly([3, 1]), [_poly([2, 1]), _poly([1])])
    for scale in (cyclo.ONE, CycloNum(1, 1)):
        n3, dec = count(decompose, scale, *three)
        n2, _ = count(decompose, scale, *two)
        ref3, ref = count(reference_decompose, scale, *three)
        ref2, _ = count(reference_decompose, scale, *two)
        assert dec.json_obj() == ref.json_obj()
        assert dec.status == "exact"
        c0, c1 = dec.coefficients
        assert [c.json_obj()["terms"]
                for c in (c0.times_monomial(scale), c1)] == [
            [["0", "0", ["1", "0", "0", "0"]]]] * 2
        # the reference reduces the third row; here it is skipped
        assert (ref3, ref2) == (3, 2)
        assert n3 == n2 == 2


def test_residual_lies_below_order_and_keeps_its_witness():
    order = rat(4)
    K = rat(8)
    b = theta(0, 1, K)
    # g is z-free, so g * b lies in the span; its products straddle the order
    g = eta(1, 2, K)
    below = Series.monomial(cyclo.ONE, order - rat(1, 7), rat(1, 3))
    at_or_above = Series({(order, rat(1, 3)): cyclo.ONE,
                          (order + rat(1, 7), rat(1, 3)): cyclo.I})
    outside = theta(1, 1, K)
    for target in (g * b + outside + at_or_above, g * b + below + at_or_above):
        assert target.cutoff > order
        assert any(q >= order for q, _, _ in target.monomials())
        dec = decompose(target, [b], order)
        assert dec.status == "not-in-span"
        assert dec.residual.cutoff == order
        assert dec.residual.monomials()
        assert all(q < order for q, _, _ in dec.residual.monomials())
        assert dec.json_obj() == reference_decompose(
            target, [b], order).json_obj()
    # the only mismatch lies just below the order
    assert dec.witness == (order - rat(1, 7), rat(1, 3))
    assert len(dec.residual.monomials()) == 1


def _exact(terms):
    """An exactly known series from ``{(q, z): coeff}``, a coefficient
    being a rational or a ``CycloNum``."""
    return Series({(rat(q), rat(z)): c if type(c) is CycloNum else CycloNum(c)
                   for (q, z), c in terms.items()})


def _solved_by(monkeypatch, path, target, basis, order):
    """``outcome(decompose, ...)`` with the solve other than ``path``
    patched to raise, checked against the reference."""
    other = {"_substitute": "_eliminate", "_eliminate": "_substitute"}[path]
    with monkeypatch.context() as m:
        m.setattr(linsolve, other, _refuse(other))
        got = outcome(decompose, target, basis, order)
    assert got == outcome(reference_decompose, target, basis, order)
    return got


def _terms(obj):
    return [c["terms"] for c in obj["coefficients"]]


def test_distinct_leads_outside_the_span_keep_their_witness(monkeypatch):
    # b0 leads at q^0 z^0 and b1 at q^0 z^1; the leading rows give
    # c0 = c1 = 1, and the target misses the term q z^2 of b0
    basis = [_exact({(0, 0): 1, (0, 1): 1, (1, 2): 1}),
             _exact({(0, 1): 1, (1, 0): 1})]
    target = _exact({(0, 0): 1, (0, 1): 2, (1, 0): 1})
    got = _solved_by(monkeypatch, "_substitute", target, basis, 2)
    assert got["status"] == "not-in-span"
    assert got["witness"] == ["1", "2"]
    one = [["0", "0", ["1", "0", "0", "0"]]]
    assert _terms(got) == [one, one]


def test_distinct_leads_divide_by_a_fraction(monkeypatch):
    # b0 leads with 3/2 and b1 with 2, so every value is divided by them
    basis = [_exact({(0, 0): rat(3, 2), (0, 1): 1}),
             _exact({(0, 1): 2, (1, 0): -1})]
    c0 = _exact({(0, 0): 1, (1, 0): rat(1, 2)})
    c1 = _exact({(0, 0): -1, (rat(1, 2), 0): 3})
    got = _solved_by(monkeypatch, "_substitute",
                     c0 * basis[0] + c1 * basis[1], basis, 2)
    assert got["status"] == "exact"
    assert _terms(got) == [
        [["0", "0", ["1", "0", "0", "0"]], ["1", "0", ["1/2", "0", "0", "0"]]],
        [["0", "0", ["-1", "0", "0", "0"]], ["1/2", "0", ["3", "0", "0", "0"]]]]


def test_distinct_leads_in_cyclotomic_form(monkeypatch):
    # b0 holds two components, so the system is not in real form, and it
    # leads with 1 + w
    w = CycloNum(0, 1)
    basis = [_exact({(0, 0): CycloNum(1, 1), (0, 1): 1}),
             _exact({(0, 1): 1, (1, 0): w})]
    c0 = _exact({(0, 0): w, (1, 0): 2})
    c1 = _exact({(0, 0): CycloNum(1, 0, 1)})
    got = _solved_by(monkeypatch, "_substitute",
                     c0 * basis[0] + c1 * basis[1], basis, 2)
    assert got["status"] == "exact"
    assert _terms(got) == [
        [["0", "0", ["0", "1", "0", "0"]], ["1", "0", ["2", "0", "0", "0"]]],
        [["0", "0", ["1", "0", "1", "0"]]]]


def test_shared_lead_of_full_rank_is_eliminated(monkeypatch):
    # both elements lead at q^0 z^0 and are independent: 2 + 3z = b0 + b1
    basis = [_exact({(0, 0): 1, (0, 1): 1}), _exact({(0, 0): 1, (0, 1): 2})]
    got = _solved_by(monkeypatch, "_eliminate",
                     _exact({(0, 0): 2, (0, 1): 3}), basis, 2)
    assert got["status"] == "exact"
    one = [["0", "0", ["1", "0", "0", "0"]]]
    assert _terms(got) == [one, one]


def test_repeated_element_is_eliminated_and_under_determined(monkeypatch):
    b = _exact({(0, 0): 1, (1, 1): 1})
    got = _solved_by(monkeypatch, "_eliminate", b, [b, b], 2)
    assert got["status"] == "under-determined"
    assert _terms(got) == [[["0", "0", ["1", "0", "0", "0"]]], []]

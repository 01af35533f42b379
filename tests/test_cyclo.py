import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaq._rational import rat
from thetaq import cyclo
from thetaq.cyclo import CycloNum, PhaseError, phase

from conftest import assert_canonical, random_cyclo


def test_phase_table():
    assert phase(rat(1, 2)) == cyclo.MINUS_ONE
    assert phase(rat(1, 4)) == cyclo.I
    assert phase(rat(1, 8)) == CycloNum(0, 1, 0, 0)
    assert phase(rat(0)) == cyclo.ONE
    assert phase(rat(9, 8)) == phase(rat(1, 8))
    assert phase(rat(-1, 4)) == -cyclo.I


def test_phase_rejects_finer_roots():
    with pytest.raises(PhaseError):
        phase(rat(1, 3))
    with pytest.raises(PhaseError):
        phase(rat(1, 16))


def test_phase_is_multiplicative():
    eighths = [rat(k, 8) for k in range(-8, 9)]
    for r in eighths:
        for s in eighths:
            assert phase(r) * phase(s) == phase(r + s)
        assert CycloNum(rat(1)) * phase(r) == phase(r)
        p8 = cyclo.ONE
        for _ in range(8):
            p8 = p8 * phase(r)
        assert p8 == cyclo.ONE


def test_basic_products():
    one_plus_i = CycloNum(1, 0, 1, 0)
    one_minus_i = CycloNum(1, 0, -1, 0)
    assert one_plus_i * one_minus_i == CycloNum(2)
    w = phase(rat(1, 8))
    w3 = phase(rat(3, 8))
    assert w * w3 == cyclo.MINUS_ONE


def test_inverse_examples():
    w = phase(rat(1, 8))
    assert w.inverse() == -phase(rat(3, 8))  # w * (-w^3) = 1
    assert CycloNum(2).inverse() == CycloNum(rat(1, 2))
    x = CycloNum(1, 0, 1, 0)  # 1 + i
    inv = x.inverse()
    assert inv == CycloNum(rat(1, 2), 0, rat(-1, 2), 0)
    assert x * inv == cyclo.ONE


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        cyclo.ZERO.inverse()


small_rat = st.fractions(min_value=-4, max_value=4, max_denominator=4).map(
    lambda f: rat(f.numerator, f.denominator)
)
cyclos = st.tuples(small_rat, small_rat, small_rat, small_rat).map(
    lambda t: CycloNum(*t)
)


@settings(max_examples=120, deadline=None)
@given(cyclos, cyclos, cyclos)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == cyclo.ZERO
    assert a - b == a + (-b)
    assert (a - b) + b == a
    assert bool(a) == (a != cyclo.ZERO)
    if a:
        assert a * a.inverse() == cyclo.ONE


def test_random_inverses(rng):
    for _ in range(50):
        a = random_cyclo(rng)
        if not a:
            continue
        assert_canonical(a.inverse())
        assert a * a.inverse() == cyclo.ONE


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 7), cyclos)
def test_unit_inverse_by_table_equals_norm_inverse(k, x):
    u = phase(rat(k, 8))
    assert u.inverse() == u._norm_inverse()
    assert u * u.inverse() == cyclo.ONE
    # the same unit built from Fraction components takes the table too
    assert CycloNum(*(rat(c) for c in u.c)).inverse() == u._norm_inverse()
    if x:
        assert x.inverse() == x._norm_inverse()
        assert x * x.inverse() == cyclo.ONE


@settings(max_examples=80, deadline=None)
@given(cyclos, cyclos, small_rat, st.integers(-8, 8))
def test_components_stay_canonical(a, b, r, k):
    results = [a, a + b, a - b, -a, a * b, CycloNum(r) * a,
               cyclo.phase(rat(k, 8)), CycloNum(r)]
    results += [a.conj_pow(j) for j in (1, 3, 5, 7)]
    if a:
        results.append(a.inverse())
    for x in results:
        assert_canonical(x)


def test_int_and_fraction_components_are_one_value():
    assert CycloNum(rat(2)) == CycloNum(2)
    assert hash(CycloNum(rat(2))) == hash(CycloNum(2))
    assert CycloNum(rat(4, 2), rat(-1, 2)).c == (2, rat(-1, 2), 0, 0)
    mixed = CycloNum(rat(3), rat(-1, 2), 0, rat(6, 3))
    assert str(mixed) == "3 - 1/2*w + 2*w^3"
    assert mixed.json_list() == ["3", "-1/2", "0", "2"]
    half = CycloNum(rat(1, 2))
    assert CycloNum(rat(2)) * half == cyclo.ONE
    assert_canonical(CycloNum(rat(2)) * half)
    assert_canonical(half + half)


def test_str_rendering():
    assert str(cyclo.ZERO) == "0"
    assert str(cyclo.ONE) == "1"
    assert str(cyclo.I) == "w^2"
    assert str(CycloNum(1, rat(-1, 2), 0, 0)) == "1 - 1/2*w"
    assert str(CycloNum(0, 0, 0, -1)) == "-w^3"

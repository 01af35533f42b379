import math
import random
from fractions import Fraction

import pytest

from thetaq import cyclo
from thetaq._rational import rat
from thetaq.cyclo import CycloNum
from thetaq.linsolve import membership
from thetaq.series import Series
from thetaq.thetalib import _below


@pytest.fixture
def rng():
    return random.Random(20240817)


def random_cyclo(rng, span=6):
    return CycloNum(*(rat(rng.randint(-span, span), rng.randint(1, 4))
                      for _ in range(4)))


def random_series(rng, nterms=5, cutoff=8):
    terms = {}
    for _ in range(nterms):
        q = rat(rng.randint(-4, 12), rng.choice((1, 2, 3, 4)))
        z = rat(rng.randint(-6, 6), rng.choice((1, 2)))
        if q < cutoff:
            terms[(q, z)] = random_cyclo(rng)
    return Series(terms, rat(cutoff))


def assert_canonical(x):
    """Each component is an int, or a Fraction that is not an integer."""
    for c in x.c:
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), x


def is_zfree(series):
    """True iff every term of ``series`` has z-exponent 0."""
    return all(z == 0 for _, z, _ in series.monomials())


def assert_equal_series(a, b, order, msg=""):
    ok, mismatch = a.equal_up_to(b, order)
    assert ok, f"{msg} first mismatch at {mismatch}"


def span_equal(a, b, order):
    """Mutual membership of two generating families."""
    return all(membership(x, b, order)[0] for x in a) and all(
        membership(y, a, order)[0] for y in b
    )


def scale_args(s, cq, cz):
    """``s`` with exponents rescaled (q, z) -> (cq*q, cz*z), i.e. tau ->
    cq*tau and z -> cz*z, cutoff times cq; monomials that meet are summed
    (cz == 0 projects onto the z-free part).  Requires cq > 0."""
    cq, cz = rat(cq), rat(cz)
    assert cq > 0
    terms = {}
    for q, z, c in s.monomials():
        k = (cq * q, cz * z)
        terms[k] = terms[k] + c if k in terms else c
    return Series(terms, cq * s.cutoff)


def coset_range(n0, aa, bb, order):
    """Exactly the integer offsets k with aa*(n0+k)^2 + bb*(n0+k) < order,
    for rationals with aa > 0: the Fraction range function that the
    generators' integer ranges replaced, kept as a reference.

    Scaled by the common denominator the condition reads a*k^2 + b*k + c < 0
    with integers a > 0, b, c, which ``thetalib._below`` solves.
    """
    qb = 2 * aa * n0 + bb
    qc = (aa * n0 + bb) * n0 - order
    scale = math.lcm(aa.denominator, qb.denominator, qc.denominator)
    return _below(*(int(x * scale) for x in (aa, qb, qc)))


def eta_product(c, e, order):
    """eta(c*tau)^e from its defining product: q^{ce/24} times the e-th power
    of prod (1 - q^{cn}), one binomial factor at a time, below ``order``.
    The reference for the series construction in ``thetalib.eta``."""
    c = rat(c)
    order = rat(order)
    shift = c * e * rat(1, 24)
    bound = order - shift
    if bound <= 0:
        return Series.zero(order)
    base = Series.one(bound)
    n = 1
    while c * n < bound:
        factor = Series({(rat(0), rat(0)): cyclo.ONE,
                         (c * n, rat(0)): cyclo.MINUS_ONE}, bound)
        base = base._mul_trunc(factor, bound)
        n += 1
    pw = Series.one(bound)
    for _ in range(abs(e)):
        pw = pw._mul_trunc(base, bound)
    if e < 0:
        pw = pw.inverse(order=bound)
    return pw.times_monomial(cyclo.ONE, shift, rat(0))

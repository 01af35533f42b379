"""Generators for the special functions: Jacobi theta with affine argument
transformations, sign-twisted theta constants, Dedekind eta powers, and the
four classical two-variable theta functions.

Conventions (pinned by the multiplication-law and coincidence checks in the
identity registry, which fail under the alternative normalizations):

* ``theta(j, m)(tau, z) = sum over n in j/(2m)+Z of q^{m n^2} zeta^{m n}``
  with ``q = e^{2 pi i tau}``, ``zeta = e^{2 pi i z}``;
* ``theta_pm(sign, j, m)`` is the z = 0 slice with an alternating sign
  ``sign^k`` along n = j/(2m) + k, so the ``+`` twist is theta itself;
* ``vartheta_00 = theta_{0,2} + theta_{2,2}``,
  ``vartheta_01 = theta_{0,2} - theta_{2,2}``,
  ``vartheta_10 = theta_{1,2} + theta_{-1,2}``,
  ``vartheta_11 = i (theta_{1,2} - theta_{-1,2})``;
* ``eta(c)(tau) = q^{c/24} prod (1 - q^{c n})``.

Every generator works on the integer grid of :mod:`thetaq.series`: it fixes
one denominator per call, computes each exponent as an integer over it and
each root-of-unity coefficient as an eighth turn w^u, and sums the turns in
the series layer's component accumulators (``_add_turn``, ``_gather``).  A
theta coset n0 + Z is walked through the integers N = d0*n, with the exact
index range from an integer quadratic inequality (:func:`_below`).  The eta
product is not multiplied out: prod (1 - q^n) is Euler's pentagonal
series sum (-1)^k q^{k(3k-1)/2} (L. Euler, "Demonstratio theorematis circa
ordinem in summis divisorum observatum", Novi Comm. Acad. Sci. Petrop. 5,
1760), built by the same coset walk as a theta, with n0 = 0 and
(-1)^k = w^(4k).  Its e-th power is built once per exponent, and every
eta(c tau)^e is a rescale of it.
"""

from __future__ import annotations

import math

from . import cyclo
from ._rational import R0, R1, rat
from .cyclo import PhaseError
from .series import Series, _add_turn, _gather, _grid_bound, _reduced, _series


_cache: dict = {}


def _cached(key, build):
    """The one build table of the process: ``build()`` once per key.  Keys
    are tuples tagged by their builder; an error is raised, not stored."""
    hit = _cache.get(key)
    if hit is None:
        hit = _cache[key] = build()
    return hit


def _below(a, b, c):
    """Exactly the integers k with a*k^2 + b*k + c < 0, for integers a > 0,
    b and c.

    The condition reads (2ak + b)^2 < disc = b^2 - 4ac; ``u`` is the largest
    integer strictly below sqrt(disc), and |2ak + b| <= u.
    """
    disc = b * b - 4 * a * c
    if disc <= 0:
        return range(0)
    u = math.isqrt(disc)
    if u * u == disc:
        u -= 1
    return range(-((u + b) // (2 * a)), (u - b) // (2 * a) + 1)


def _coset_sum(n0, aa, bb, zc, order, u0=0, u1=0) -> Series:
    """Sum over n = n0 + k of w^(u0 + u1*k) q^{aa n^2 + bb n} zeta^{zc n}
    below ``order``, w = e^{2 pi i/8}.

    With n0 = p0/d0 and N = p0 + k*d0 = d0*n, every exponent is an integer
    over one ``den``: q = (A*N + B)*N and z = Z*N.  The result is reduced to
    the smallest such ``den``.
    """
    p0, d0 = n0.numerator, n0.denominator
    ad = aa.denominator * d0 * d0
    bd, zd = bb.denominator * d0, zc.denominator * d0
    den = math.lcm(ad, bd, zd)
    A = aa.numerator * (den // ad)
    B = bb.numerator * (den // bd)
    Z = zc.numerator * (den // zd)
    hi = _grid_bound(order, den)
    acc = ({}, {}, {}, {})
    for k in _below(A * d0 * d0, (2 * A * p0 + B) * d0, (A * p0 + B) * p0 - hi):
        N = p0 + k * d0
        _add_turn(acc, ((A * N + B) * N, Z * N), u0 + u1 * k)
    return _series(*_reduced(_gather(acc), den), order)


def theta(j, m, order, qscale=1, zcoeff=1, tshift=0, cshift=0) -> Series:
    """theta_{j,m}(qscale * tau, zcoeff * z + tshift * tau + cshift) below
    ``order``.

    Built once per process for each set of arguments as given (equal
    numbers give equal keys), so a hit does no normalization."""
    args = (j, m, qscale, zcoeff, tshift, cshift, order)
    return _cached(("theta", *args), lambda: _theta(
        *(x if type(x) is rat else rat(x) for x in args)))


def _theta(j, m, qscale, zcoeff, tshift, cshift, order) -> Series:
    if m <= 0:
        raise ValueError("theta degree must be positive")
    if qscale <= 0:
        raise ValueError("theta q-scale must be positive")
    u0 = u1 = 0
    if cshift:  # n = j/(2m) + k has phase e^{2 pi i m n c} = w^(4cj + 8mck)
        u0, u1 = 4 * cshift * j, 8 * cshift * m
        if u0.denominator != 1 or u1.denominator != 1:
            raise PhaseError(
                f"phase outside Q(zeta_8): theta index {j}, degree {m}, "
                f"constant shift {cshift}"
            )
    return _coset_sum(j / (2 * m), qscale * m, tshift * m if tshift else R0,
                      zcoeff * m if zcoeff else R0, order, int(u0), int(u1))


def theta_pm(sign: int, j, m, order) -> Series:
    """Sign-twisted theta constant at z = 0: sum of sign^k q^{m(j/(2m)+k)^2}."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    j, m, order = rat(j), rat(m), rat(order)
    if m <= 0:
        raise ValueError("theta degree must be positive")
    # (-1)^k = w^(4k)
    return _coset_sum(j / (2 * m), m, R0, R0, order, 0, 4 if sign < 0 else 0)


def eta(c, e, order) -> Series:
    """eta(c * tau)^e below ``order`` for an integer ``e``, built once per
    process for each set of arguments as given (see :func:`theta`).

    Every scale c and order reads one Euler power per exponent e: the
    table entry ``("euler", e)`` holds prod (1 - q^n)^e, Euler's series (a
    coset sum) to the power e, a product of it for e > 1 and its
    recurrence inverse for e < 0.  The entry is rebuilt higher only when a
    request needs more, and eta(c * tau)^e is its q -> q^c rescale times
    q^{ce/24}.
    """
    return _cached(("eta", c, e, order), lambda: _eta(rat(c), e, rat(order)))


def _eta(c, e, order) -> Series:
    if c <= 0:
        raise ValueError("eta scale must be positive")
    if e != int(e):
        raise ValueError(f"eta power must be an integer, got {e!r}")
    e = int(e)
    if e == 0:
        return Series.one(order)
    shift = c * e * rat(1, 24)
    top = (order - shift) / c  # the bound on the Euler power's exponents
    if top <= 0:
        return Series.zero(order)
    hi = math.ceil(top)  # Euler's exponents are integers, over den 1
    pw = _cache.get(("euler", e))
    if pw is None or pw.cutoff < hi:
        bound = rat(hi)
        f = pw = _coset_sum(R0, rat(3, 2), rat(-1, 2), R0, bound, 0, 4)
        for _ in range(abs(e) - 1):
            pw = pw._mul_trunc(f, bound)
        if e < 0:
            pw = pw.inverse(order=bound)
        _cache[("euler", e)] = pw
    # exponent n -> c*n + shift, an integer over den
    den = math.lcm(c.denominator, shift.denominator)
    f = c.numerator * (den // c.denominator)
    s0 = shift.numerator * (den // shift.denominator)
    comps = tuple({(n * f + s0, 0): v for (n, _), v in d.items() if n < hi}
                  for d in pw._comps)
    return _series(*_reduced(comps, den), order)


_MUMFORD_PARTS = {
    "00": ((R0, cyclo.ONE), (rat(2), cyclo.ONE)),
    "01": ((R0, cyclo.ONE), (rat(2), cyclo.MINUS_ONE)),
    "10": ((R1, cyclo.ONE), (-R1, cyclo.ONE)),
    "11": ((R1, cyclo.I), (-R1, -cyclo.I)),
}


def mumford(label: str, order, qscale=1, zcoeff=1, tshift=0, cshift=0) -> Series:
    """vartheta_{ab}(qscale*tau, zcoeff*z + tshift*tau + cshift)."""
    if label not in _MUMFORD_PARTS:
        raise ValueError(f"unknown label {label!r}; expected 00, 01, 10 or 11")
    out = Series.zero(rat(order))
    for j, cf in _MUMFORD_PARTS[label]:
        part = theta(j, 2, order, qscale, zcoeff, tshift, cshift)
        if cf is not cyclo.ONE:
            part = part.times_monomial(cf)
        out = out + part
    return out


def bracket(k, m, order) -> Series:
    """[theta_{k,m} - theta_{-k,m}](tau, z)."""
    return theta(k, m, order) - theta(rat(k) * -1, m, order)

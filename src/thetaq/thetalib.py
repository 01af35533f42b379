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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import cyclo
from ._rational import R0, R1, rat
from .cyclo import CycloNum, PhaseError, phase
from .series import Series


@dataclass(frozen=True)
class ThetaSpec:
    """theta_{j,m}(qscale * tau, zcoeff * z + tshift * tau + cshift)."""

    j: object
    m: object
    qscale: object = 1
    zcoeff: object = 1
    tshift: object = 0
    cshift: object = 0

    def normalized(self) -> "ThetaSpec":
        return ThetaSpec(
            rat(self.j),
            rat(self.m),
            rat(self.qscale),
            rat(self.zcoeff),
            rat(self.tshift),
            rat(self.cshift),
        )


def _coset_range(n0, aa, bb, order):
    """Exactly the integer offsets k with aa*(n0+k)^2 + bb*(n0+k) < order.

    aa > 0, so the admissible set is an interval around the vertex.  Scaled
    by the common denominator the condition reads a*k^2 + b*k + c < 0 with
    integers a > 0, b, c, i.e. (2ak + b)^2 < disc = b^2 - 4ac; ``u`` is the
    largest integer strictly below sqrt(disc), and |2ak + b| <= u.
    """
    if aa <= 0:
        raise ValueError("divergent truncation: quadratic not bounded below")
    qb = 2 * aa * n0 + bb
    qc = (aa * n0 + bb) * n0 - order
    scale = math.lcm(aa.denominator, qb.denominator, qc.denominator)
    a, b, c = (int(x * scale) for x in (aa, qb, qc))
    disc = b * b - 4 * a * c
    if disc <= 0:
        return range(0)
    u = math.isqrt(disc)
    if u * u == disc:
        u -= 1
    return range(-((u + b) // (2 * a)), (u - b) // (2 * a) + 1)


def _coset_sum(n0, aa, bb, order, term) -> Series:
    """Sum over n = n0 + k of coeff * q^{aa n^2 + bb n} zeta^zexp below
    ``order``, where ``term(k, n)`` gives (zexp, coeff)."""
    terms: dict = {}
    for k in _coset_range(n0, aa, bb, order):
        n = n0 + k
        qexp = n * (aa * n + bb)
        if qexp >= order:
            continue
        zexp, coeff = term(k, n)
        key = (qexp, zexp)
        cur = terms.get(key)
        s = coeff if cur is None else cur + coeff
        if s.is_zero():
            terms.pop(key, None)
        else:
            terms[key] = s
    return Series(terms, order, _normalized=True)


def theta(spec: ThetaSpec, order) -> Series:
    """Expand a (possibly argument-shifted) Jacobi theta below ``order``."""
    spec = spec.normalized()
    order = rat(order)
    j, m, c1, a, b, c = (
        spec.j,
        spec.m,
        spec.qscale,
        spec.zcoeff,
        spec.tshift,
        spec.cshift,
    )
    if m <= 0:
        raise ValueError("theta degree must be positive")
    if c1 <= 0:
        raise ValueError("theta q-scale must be positive")
    if c:
        # representability of every phase m*n*c, n in j/(2m) + Z
        if (8 * c * j / 2).denominator != 1 or (8 * c * m).denominator != 1:
            raise PhaseError(
                f"phase outside Q(zeta_8): theta index {j}, degree {m}, "
                f"constant shift {c}"
            )
    return _coset_sum(
        j / (2 * m), c1 * m, b * m, order,
        lambda k, n: (a * m * n, phase(m * n * c) if c else cyclo.ONE),
    )


def theta_jm(j, m, order) -> Series:
    """theta_{j,m}(tau, z) with unshifted arguments."""
    return theta(ThetaSpec(j, m), order)


def theta_zero_arg(j, m, order) -> Series:
    """theta_{j,m}(tau, 0) -- the z-free theta constant."""
    return theta(ThetaSpec(j, m, zcoeff=0), order)


def theta_pm(sign: int, j, m, order) -> Series:
    """Sign-twisted theta constant at z = 0: sum of sign^k q^{m(j/(2m)+k)^2}."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    j, m, order = rat(j), rat(m), rat(order)
    if m <= 0:
        raise ValueError("theta degree must be positive")
    return _coset_sum(
        j / (2 * m), m, R0, order,
        lambda k, n: (R0, cyclo.minus_one_pow(k) if sign < 0 else cyclo.ONE),
    )


def eta(c, e: int, order) -> Series:
    """eta(c * tau)^e below ``order`` (negative powers via series inversion)."""
    c = rat(c)
    order = rat(order)
    if c <= 0:
        raise ValueError("eta scale must be positive")
    e = int(e)
    shift = c * e * rat(1, 24)
    bound = order - shift
    if bound <= 0:
        return Series.zero(order)
    base = Series.one(bound)
    n = 1
    while c * n < bound:
        factor = Series(
            {
                (R0, R0): cyclo.ONE,
                (c * n, R0): cyclo.MINUS_ONE,
            },
            bound,
            _normalized=True,
        )
        base = base._mul_trunc(factor, bound)
        n += 1
    if e >= 0:
        pw = Series.one(bound)
        b = base
        k = e
        while k:
            if k & 1:
                pw = pw._mul_trunc(b, bound)
            k >>= 1
            if k:
                b = b._mul_trunc(b, bound)
    else:
        pw = base.pow(-e).inverse(order=bound)
    return pw.times_monomial(cyclo.ONE, shift, R0)


def eta_pentagonal(order) -> Series:
    """Independent oracle for eta(tau): q^{1/24} sum (-1)^k q^{k(3k-1)/2}."""
    order = rat(order)
    terms: dict = {}
    k = 0
    while True:
        added = False
        for kk in ((k, -k) if k else (0,)):
            ex = rat(kk * (3 * kk - 1), 2) + rat(1, 24)
            if ex < order:
                terms[(ex, R0)] = cyclo.minus_one_pow(kk)
                added = True
        if k and not added:
            break
        k += 1
    return Series(terms, order, _normalized=True)


def eta_cube_jacobi(order) -> Series:
    """Independent oracle for eta(tau)^3: sum (-1)^n (2n+1) q^{n(n+1)/2+1/8}."""
    order = rat(order)
    terms: dict = {}
    n = 0
    while True:
        ex = rat(n * (n + 1), 2) + rat(1, 8)
        if ex >= order:
            break
        coeff = cyclo.from_rational(rat(2 * n + 1)).scale(
            rat(-1) if n % 2 else R1
        )
        terms[(ex, R0)] = coeff
        n += 1
    return Series(terms, order, _normalized=True)


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
        part = theta(
            ThetaSpec(j, 2, qscale=qscale, zcoeff=zcoeff, tshift=tshift, cshift=cshift),
            order,
        )
        if cf is not cyclo.ONE:
            part = part.times_monomial(cf)
        out = out + part
    return out


def bracket(k, m, order) -> Series:
    """[theta_{k,m} - theta_{-k,m}](tau, z)."""
    return theta_jm(k, m, order) - theta_jm(rat(k) * -1, m, order)

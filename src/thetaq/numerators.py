"""Builders for the N=3 character numerators, the U-space bases, the
explicit level 1/2/4 characters, and the derived denominator.

The numerator family F[m, s] is *defined* here by its closed expansion at
the character slice (quotient bracket + twisted-constant divisor + triple
sums + boundary sums), never by the companion-series definition it came
from; the p-independence, ladder and z-freeness checks in the identity
registry over-determine the construction and would expose a transcription
slip.  Sector rule: half-integer s for every level m, integer s only for
odd m (no base formula exists otherwise).

All builders guarantee ``result.cutoff >= order`` and are memoized; the
cache is read-concurrent with single-writer insertion.  Each builder sizes
its factors so that one build reaches ``order``, except :func:`character`,
whose formulas fall 1/24 to 1/8 short; it goes through :func:`ensure_order`,
an adapter over the retry loop :func:`certify`.
"""

from __future__ import annotations

import threading

from . import cyclo
from ._rational import R0, R1, rat
from .cyclo import phase
from .series import InsufficientOrderError, Series
from .thetalib import _coset_range, bracket, eta, mumford, theta_jm, theta_pm

_cache: dict = {}
_cache_lock = threading.Lock()


def _cached(key, build):
    hit = _cache.get(key)
    if hit is not None:
        return hit
    val = build()
    with _cache_lock:
        return _cache.setdefault(key, val)


def ensure_order(builder, order):
    """``builder(order)`` if its cutoff reaches ``order``; otherwise a build
    boosted by :func:`certify`, restricted to ``order``."""
    order = rat(order)

    def attempt(k):
        s = builder(k)
        return s if k == order and s.cutoff >= order else s.restrict(order)

    return certify(attempt, order)


def certify(attempt, order):
    """The one retry loop: run ``attempt(order + boost)`` until it stops
    raising InsufficientOrderError.  Each shortfall raises the boost by at
    least 1/2, so retried builds land on orders other attempts share in the
    cache."""
    boost = R0
    for _ in range(6):
        try:
            return attempt(order + boost)
        except InsufficientOrderError as exc:
            boost += max(order - exc.max_order, rat(1, 2))
    raise InsufficientOrderError(f"could not certify order {order}")


def _min_coset_abs(n0):
    """min |n| over the coset n0 + Z."""
    f = n0 - n0.__floor__()
    return min(f, 1 - f)


def theta_inv_half(j, order) -> Series:
    """1 / theta_{j,1}(tau, z) for j = +-1/2 (unit monomial leading layer).

    theta_{j,1} has ord 1/16 and its inverse loses twice that, so a build
    1/8 higher lands on ``order``.
    """
    order = rat(order)
    return _cached(
        ("thinv", rat(j), order),
        lambda: theta_jm(j, 1, order + rat(1, 8)).inverse(),
    )


def ratio_pair(a, big_m, order) -> Series:
    """theta_{a,M}/theta_{-1/2,1} - theta_{-a,M}/theta_{1/2,1}.

    The inverses have ord -1/16 and the numerators ord >= 0, so factors
    built 1/16 higher give a product whose cutoff is exactly ``order``.
    """
    a = rat(a)
    big_m = rat(big_m)
    order = rat(order)
    k = order + rat(1, 16)
    return _cached(
        ("rpair", a, big_m, order),
        lambda: theta_jm(a, big_m, k) * theta_inv_half(rat(-1, 2), k)
        - theta_jm(-a, big_m, k) * theta_inv_half(rat(1, 2), k),
    )


def _triple_sum_weights(m: int, alpha, bound):
    """z-free weight series W_k (k odd, 1 <= k <= m-1) of the double j,r sums.

    Each (j, r, k) contributes, with t = 2mr -+ k and sign (-1)^j,
    ``q^{j^2 - t^2/(4m)} { q^{(j+alpha) t} e^{i pi (2mr+k)/2}
                         + q^{(j-alpha) t} e^{i pi (2mr-k)/2} }``
    (the r-sum over 1..j, subtracted r-sum over 0..j-1 with t = 2mr + k and
    the two unit phases swapped).  Truncation: every term with index j obeys
    exponent >= j^2 - 2m*max(alpha,0)*j  (because t <= 2mj and t^2/(4m) <=
    tj/2), so j stops at the last integer with that quadratic below
    ``bound``, found exactly; the bound is asserted per term.
    """
    alpha = rat(alpha)
    bound = rat(bound)
    ks = list(range(1, m, 2))
    if not ks:
        return {}
    a_pos = alpha if alpha > 0 else R0
    g = 2 * m * a_pos
    js = _coset_range(R0, R1, -g, bound)
    jmax = js[-1] if js else 0
    acc = {k: {} for k in ks}

    def put(k, ex, sign, turns):
        # sign * e^{i pi turns/2} at q^ex, multiplied out only below the bound
        assert ex >= jj * jj - g * jj
        if ex >= bound:
            return
        coeff = sign * phase(rat(turns, 4))
        slot = acc[k]
        cur = slot.get(ex)
        s = coeff if cur is None else cur + coeff
        if s.is_zero():
            slot.pop(ex, None)
        else:
            slot[ex] = s

    for jj in range(1, jmax + 1):
        sj = cyclo.minus_one_pow(jj)
        msj = -sj
        jr = rat(jj)
        for k in ks:
            for r in range(1, jj + 1):
                t = rat(2 * m * r - k)
                base = jr * jr - t * t / (4 * m)
                put(k, base + (jr + alpha) * t, sj, 2 * m * r + k)
                put(k, base + (jr - alpha) * t, sj, 2 * m * r - k)
            for r in range(0, jj):
                t = rat(2 * m * r + k)
                base = jr * jr - t * t / (4 * m)
                # subtracted double sum
                put(k, base + (jr + alpha) * t, msj, 2 * m * r - k)
                put(k, base + (jr - alpha) * t, msj, 2 * m * r + k)
    return {
        k: Series({(ex, R0): c for ex, c in slot.items()}, bound, _normalized=True)
        for k, slot in acc.items()
    }


class DegenerateDivisorError(ZeroDivisionError):
    """The twisted theta-constant divisor vanishes identically.

    Happens for even m exactly when m(4p+1)/(2(m+1)) is an odd integer
    (the index coset is then symmetric and the alternating sum cancels in
    pairs), e.g. (m, p) = (2, 2).  The closed expansion is 0/0 there; the
    surviving content is that the undivided combination vanishes, which
    :func:`undivided_half_combination` exposes for checking.
    """


def _half_divisor_degenerate(m: int, p: int) -> bool:
    if m % 2:
        return False  # plus twist: all coefficients +1, never cancels
    two_n0 = rat(m * (4 * p + 1), 2 * (m + 1))
    return two_n0.denominator == 1 and int(two_n0) % 2 == 1


def _level(m) -> int:
    m = int(m)
    if m < 1:
        raise ValueError("level m must be a positive integer")
    return m


def _numerator(m, p, sector, order) -> Series:
    """Validate (m, p) for the sector and return its cached base numerator."""
    m = _level(m)
    p = int(p)
    if sector == "integer" and m % 2 == 0:
        raise ValueError("integer-s numerator undefined for even m")
    if p < 0:
        raise ValueError("shift p must be a nonnegative integer")
    if sector == "half" and _half_divisor_degenerate(m, p):
        raise DegenerateDivisorError(
            f"twisted constant of index {m}*(4*{p}+1)/2 at degree {m + 1} "
            "vanishes identically; the expansion is undefined at this shift"
        )
    order = rat(order)
    return _cached(
        ("numh" if sector == "half" else "numi", m, p, order),
        lambda: _numerator_raw(m, p, sector, order),
    )


def numerator_half(m: int, p: int, order) -> Series:
    """The half-sector numerator F[m, 1/2] built with ladder offset p >= 0.

    Independent of p up to the propagated cutoff; the registry checks this.
    """
    return _numerator(m, p, "half", order)


def numerator_int(m: int, p: int, order) -> Series:
    """The integer-sector numerator F[m, 0]; defined for odd m only."""
    return _numerator(m, p, "integer", order)


def _boundary_terms(m, p, sector):
    """(bracket index, q-shift, coefficient) of every boundary-sum term."""
    if sector == "half":
        return [
            (2 * kk - 1, -rat(1, m) * (rat(kk) - rat(1, 2) + rat(m, 4)) ** 2,
             -cyclo.I * cyclo.minus_one_pow(kk))
            for kk in range(1, p * m + 1)
        ]
    sign_mp = cyclo.minus_one_pow(m * p)
    return [
        (2 * kk, -m * (rat(4 * p + 1, 4) - rat(kk, m)) ** 2,
         sign_mp * cyclo.minus_one_pow(kk))
        for kk in range(1, (m - 1) // 2 + 1)
    ] + [
        (2 * kk, -rat(1, m) * (rat(kk) + rat(m, 4)) ** 2, cyclo.minus_one_pow(kk))
        for kk in range(1, p * m + 1)
    ]


def _sector_index(p, sector):
    """alpha = (4p + 1)/4 in the half sector, (4p - 1)/4 in the integer one."""
    return rat(4 * p + 1 if sector == "half" else 4 * p - 1, 4)


def _undivided(m, p, sector, order):
    """The sector's expansion with neither the divisor nor the boundary sums:

    ``-i eta(2tau)^3 * (ratio pair)
      + q^{-m alpha^2/(m+1)} * sum_k W_k [bracket_k]``

    The integer sector shifts the ratio-pair index by m+1 and the bracket
    index by m.  Each factor is sized from the order of the one it
    multiplies, so the cutoff is at least ``order`` without reruns.
    """
    alpha = _sector_index(p, sector)
    big_m = m + 1
    pair_off, bracket_off = (0, 0) if sector == "half" else (big_m, m)
    pref = -rat(m, big_m) * alpha**2
    rp = ratio_pair(2 * alpha + pair_off, big_m, order)
    total = (eta(2, 3, order - min(rp.ord, R0)) * rp).times_monomial(-cyclo.I)
    kw = order - pref
    s = Series.zero(kw)
    for kk, w in _triple_sum_weights(m, alpha, kw).items():
        s = s + w * bracket(kk + bracket_off, m, kw - min(w.ord, R0))
    return total + s.times_monomial(cyclo.ONE, pref, R0)


def _numerator_raw(m, p, sector, order):
    """F[m, s] of the sector's base s, built with ladder offset p: the
    undivided expansion over the twisted constant of index 2m alpha at
    degree m+1, plus the boundary sums.

    The integer sector also twists it by e^{-pi i m/2}; m is odd there, so
    its divisor carries the + sign twist.
    """
    alpha = _sector_index(p, sector)
    big_m = m + 1
    eps = 1 if m % 2 else -1
    idx0 = 2 * m * alpha
    unit = cyclo.minus_one_pow(m * p)
    if sector != "half":
        unit = unit * phase(-rat(m, 4))
    o0 = big_m * _min_coset_abs(idx0 / (2 * big_m)) ** 2
    # the inverse has ord -o0: build u o0 higher and size the inverse from
    # u's order, so the product's cutoff is exactly ``order``
    u = _undivided(m, p, sector, order + o0)
    kd = order - u.ord
    th0_inv = theta_pm(eps, idx0, big_m, kd + 2 * o0 + 1).inverse(order=kd)
    total = (u * th0_inv).times_monomial(unit)
    for idx, shift, coeff in _boundary_terms(m, p, sector):
        br = bracket(idx, m, order - shift)
        total = total + br.times_monomial(coeff, shift, R0)
    return total


def undivided_half_combination(m: int, p: int, order) -> Series:
    """q^{m alpha^2} times the half-sector expansion before the division by
    the twisted constant, alpha = (4p+1)/4:

    ``-i q^{m alpha^2} eta(2tau)^3 * (ratio pair)
      + q^{m^2 alpha^2/(m+1)} * (triple sums)``

    It equals q^{m alpha^2} (-1)^{mp} theta_pm(+-, 2m alpha, m+1) times the
    numerator less its boundary sums.  At degenerate (m, p) it must vanish
    identically, which is the only checkable residue of p-independence there.
    """
    m = int(m)
    p = int(p)
    u = _undivided(m, p, "half", rat(order))
    return u.times_monomial(cyclo.ONE, m * _sector_index(p, "half") ** 2, R0)


def ladder_step(m: int, s, order) -> Series:
    """F[m, s] - F[m, s+1] built directly:
    e^{-pi i s} q^{-(s - m/4)^2 / m} [theta_{2s,m} - theta_{-2s,m}]."""
    s = rat(s)
    if (2 * s).denominator != 1:
        raise ValueError("ladder parameter s must be a half-integer")
    shift = -rat(1, m) * (s - rat(m, 4)) ** 2
    coeff = phase(-s / 2)
    br = bracket(2 * s, m, rat(order) - shift)
    return br.times_monomial(coeff, shift, R0)


def numerator(m: int, s, order) -> Series:
    """F[m, s] from the sector base by ladder steps (upward or downward)."""
    m = int(m)
    s = rat(s)
    if (2 * s).denominator != 1:
        raise ValueError("s must be a half-integer")
    half_sector = s.denominator == 2
    if not half_sector and m % 2 == 0:
        raise ValueError("integer-s numerator undefined for even m")
    order = rat(order)

    def build():
        if half_sector:
            f, t = numerator_half(m, 0, order), rat(1, 2)
        else:
            f, t = numerator_int(m, 0, order), R0
        while t < s:
            f = f - ladder_step(m, t, order)
            t += 1
        while t > s:
            t -= 1
            f = f + ladder_step(m, t, order)
        return f

    return _cached(("num", m, s, order), build)


def u_basis(m: int, sector: str, order) -> list[Series]:
    """Generators of the theta-quotient span at level m.

    half sector: the 1/2-index ratio pair plus odd-k brackets;
    integer sector: the (m+1/2)-index ratio pair plus even-k brackets.
    """
    m = _level(m)
    if sector not in ("half", "integer"):
        raise ValueError("sector must be 'half' or 'integer'")
    order = rat(order)

    def build():
        if sector == "half":
            first = ratio_pair(rat(1, 2), m + 1, order)
            kk = range(1, m, 2)
        else:
            first = ratio_pair(rat(2 * m + 1, 2), m + 1, order)
            kk = range(2, m, 2)
        return [first] + [bracket(k, m, order) for k in kk]

    return _cached(("ubasis", m, sector, order), build)


SUPPORTED_CHARACTERS = ((1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (4, 1), (4, 3))


def branching_basis(left, right) -> list:
    """Supported labels of the summed level whose parity matches the
    product's; the basis a character product branches over."""
    lvl = left[0] + right[0]
    parity = (left[1] + right[1]) % 2
    return [
        (lvl, t) for t in range(parity, lvl + 1, 2)
        if (lvl, t) in SUPPORTED_CHARACTERS
    ]


def character(m: int, m2: int, order) -> Series:
    """Closed-form character of the level-m module with label m2.

    Only the levels with explicit formulas are available: see
    SUPPORTED_CHARACTERS.
    """
    m = int(m)
    m2 = int(m2)
    if (m, m2) not in SUPPORTED_CHARACTERS:
        raise ValueError(f"character formula not available for ({m}, {m2})")
    return _cached(
        ("char", m, m2, rat(order)),
        lambda: ensure_order(lambda k: _character_raw(m, m2, k), order),
    )


def _character_raw(m, m2, order):
    k = order
    if m == 1:
        th = theta_jm(m2, 1, k)
        s = th * eta(1, -1, k)
        return s.times_monomial(-cyclo.I if m2 == 1 else -cyclo.ONE)
    if m == 2 and m2 == 1:
        s = eta(2, 1, k) * eta(rat(1, 2), -1, k) * eta(1, -1, k) * mumford("10", k)
        return s.times_monomial(cyclo.I)
    if m == 2:
        a = eta(rat(1, 2), 1, k) * eta(1, -1, k) * eta(2, -1, k) * mumford("01", k)
        b = eta(rat(1, 2), -1, k) * eta(2, -1, k) * mumford("00", k)
        sgn = cyclo.ONE if m2 == 0 else cyclo.MINUS_ONE
        return (a + b.times_monomial(sgn)).times_monomial(
            cyclo.from_rational(rat(-1, 2))
        )
    # m == 4
    pref = eta(rat(1, 2), -1, k) * eta(2, -1, k)
    a = mumford("01", k) * mumford("10", k)
    b = eta(2, 1, k) * eta(1, -2, k) * mumford("00", k) * mumford("10", k)
    sgn = cyclo.ONE if m2 == 1 else cyclo.MINUS_ONE
    s = pref * (a + b.times_monomial(sgn))
    return s.times_monomial(cyclo.I.scale(rat(1, 2)))


class DenominatorInconsistency(AssertionError):
    """Raised by the strict z-freeness check on the derived denominator."""


def derived_denominator(order, require_zfree: bool = False) -> Series:
    """R0 := -eta * F[1,1/2] / theta_{0,1}.

    Equals the true N=3 denominator up to a z-free unit, which is all the
    span statements downstream are sensitive to.  R0 is NOT free of the
    elliptic variable: its monomials all carry half-integer zeta-exponents
    (the quotient-bracket generators live on the zeta^{1/2+Z} coset while
    theta_{0,1} lives on zeta^Z, so the ratio cannot land on zeta^0; the
    algebra's odd half-roots are visible here).  ``require_zfree=True``
    turns that structural fact into a hard error for callers that insist
    on a z-free denominator.
    """
    order = rat(order)
    k = order + rat(1, 8)

    def build():
        th_inv = theta_jm(0, 1, k).inverse(order=order)
        s = eta(1, 1, order) * numerator_half(1, 0, k) * th_inv
        return s.times_monomial(cyclo.MINUS_ONE)

    r = _cached(("rden", order), build)
    if require_zfree and not r.is_zfree():
        raise DenominatorInconsistency(
            "eta * F[1,1/2] / theta_{0,1} carries half-integer powers of "
            "the elliptic variable; no z-free derived denominator exists"
        )
    return r


def denominator_z_coset(order):
    """Distinct zeta-exponent residues (mod 1) of the derived denominator."""
    r = derived_denominator(order)
    return sorted({z - z.__floor__() for _, z, _ in r.monomials()})


def clear_cache():
    with _cache_lock:
        _cache.clear()

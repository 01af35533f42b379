"""Builders for the N=3 character numerators, the U-space bases, the
explicit level 1/2/4 characters, and the derived denominator.

The numerator family F[m, s] is *defined* here by its closed expansion at
the character slice (quotient bracket + twisted-constant divisor + triple
sums) and the ladder F[m, s] - F[m, s+1] = :func:`ladder_step`, never by
the companion-series definition it came from.  One builder,
``_numerator(m, s, p, order)``, makes every F[m, s]: the closed expansion
at offset p is F[m, s0 - mp], and any other s is walked from there.
Sector rule: half-integer s for every level m, integer s only for odd m
(no base formula exists otherwise).

The identity registry sees a slip in a sector base or in the ladder: the
p-independence checks compare the closed expansions at offsets 0, 1 and 2,
each walked to the sector base by ``ladder_step`` through different
triple-sum ranges and divisors, so they see ladder slips at m >= 2
(level-1 steps vanish); the span and membership checks place the bases in
the theta-quotient spaces.  The ladder checks ``S5.ladder.*`` stay
circular: :func:`numerator` builds F[m, s+1] from ``ladder_step`` too.

All builders guarantee ``result.cutoff >= order`` in one build and are
memoized per process in the one build table of :mod:`thetaq.thetalib`,
with its thetas and etas.  Each sizes its factors from the order it must
reach; :func:`character` builds its formula above ``order`` by the
shortfall declared in SUPPORTED_CHARACTERS.  Registry checks build 1/2
above their order and rerun through :func:`ensure_order`, the one retry
loop, if short.
"""

from __future__ import annotations

from math import lcm

from . import cyclo
from ._rational import R0, rat
from .cyclo import phase
from .series import (
    InsufficientOrderError,
    Series,
    _add_turn,
    _gather,
    _grid_bound,
    _reduced,
    _series,
)
from .thetalib import (
    _cache,  # noqa: F401  (the table's name here, for tests and tracing)
    _below,
    _cached,
    bracket,
    eta,
    mumford,
    theta,
    theta_pm,
)


def ensure_order(attempt, order):
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
        lambda: theta(j, 1, order + rat(1, 8)).inverse(),
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
        lambda: theta(a, big_m, k) * theta_inv_half(rat(-1, 2), k)
        - theta(-a, big_m, k) * theta_inv_half(rat(1, 2), k),
    )


def _triple_sum_weights(m: int, alpha, bound):
    """z-free weight series W_k (k odd, 1 <= k <= m-1) of the double j,r sums.

    Each (j, r, k) contributes, with t = 2mr -+ k and sign (-1)^j,
    ``q^{j^2 - t^2/(4m)} { q^{(j+alpha) t} e^{i pi (2mr+k)/2}
                         + q^{(j-alpha) t} e^{i pi (2mr-k)/2} }``
    (the r-sum over 1..j, subtracted r-sum over 0..j-1 with t = 2mr + k and
    the two unit phases swapped).  Every exponent is an integer over
    ``den = lcm(4m, alpha.denominator)``, and the coefficient
    -+e^{i pi u/2} is the eighth turn w^(2u) or w^(2u+4), summed by the
    series layer's ``_add_turn``.

    Truncation: for alpha >= -1/2 (both sectors; a smaller alpha raises
    ValueError) every term with index j obeys exponent >= j^2 - g*j,
    g = 2m*max(alpha,0)  (because t <= 2mj and t^2/(4m) <= tj/2).  Over
    ``den`` that reads den*(j^2 - g*j) < hi = ceil(bound*den), so
    :func:`thetaq.thetalib._below` gives the j-range in the same ints as
    the bound asserted per term.
    """
    alpha = rat(alpha)
    bound = rat(bound)
    if alpha < rat(-1, 2):
        raise ValueError(f"triple sums need alpha >= -1/2, got {alpha}")
    ks = list(range(1, m, 2))
    if not ks:
        return {}
    den = lcm(4 * m, alpha.denominator)
    al = alpha.numerator * (den // alpha.denominator)
    gd = 2 * m * max(al, 0)  # g over den
    tden = den // (4 * m)  # t^2/(4m) over den
    hi = _grid_bound(bound, den)
    js = _below(den, -gd, -hi)
    acc = {k: ({}, {}, {}, {}) for k in ks}

    def put(k, ex, u):
        # w^u at q^(ex/den), added only below the bound
        assert ex >= (jj * jj) * den - gd * jj
        if ex < hi:
            _add_turn(acc[k], (ex, 0), u)

    for jj in range(max(js.start, 1), js.stop):
        jd = jj * den
        sj = 4 * (jj % 2)  # (-1)^j = w^(4j)
        for k in ks:
            for r in range(1, jj + 1):
                t = 2 * m * r - k
                base = jj * jd - t * t * tden
                put(k, base + (jd + al) * t, sj + 2 * (2 * m * r + k))
                put(k, base + (jd - al) * t, sj + 2 * (2 * m * r - k))
            for r in range(0, jj):
                t = 2 * m * r + k
                base = jj * jd - t * t * tden
                # subtracted double sum
                put(k, base + (jd + al) * t, sj + 4 + 2 * (2 * m * r - k))
                put(k, base + (jd - al) * t, sj + 4 + 2 * (2 * m * r + k))
    return {
        k: _series(*_reduced(_gather(a), den), bound) for k, a in acc.items()
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


def _numerator(m, s, p, order) -> Series:
    """F[m, s] built with ladder offset p >= 0; the family's one builder.

    The sector is read from s: half-integer s has base s0 = 1/2 for every
    m, integer s needs odd m and has s0 = (m+1)/2.  At s = s0 - mp this is
    the closed expansion at offset p; elsewhere the walk from there.
    """
    s = rat(s)
    if (2 * s).denominator != 1:
        raise ValueError("s must be a half-integer")
    m = _level(m)
    p = int(p)
    sector = "half" if s.denominator == 2 else "integer"
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
    t = (rat(1, 2) if sector == "half" else rat(m + 1, 2)) - m * p
    key = ("num", m, s, p, order)
    if s == t:
        return _cached(key, lambda: _closed(m, p, sector, order))
    return _cached(
        key, lambda: _walk(_numerator(m, t, p, order), m, t, s, order))


def numerator(m: int, s, order) -> Series:
    """F[m, s], walked by ladder steps from the closed expansion at p = 0."""
    return _numerator(m, s, 0, order)


def numerator_half(m: int, p: int, order) -> Series:
    """F[m, 1/2] built with ladder offset p >= 0; the registry checks that
    it does not depend on p."""
    return _numerator(m, rat(1, 2), p, order)


def numerator_int(m: int, p: int, order) -> Series:
    """F[m, 0] built with ladder offset p >= 0; defined for odd m only."""
    return _numerator(m, R0, p, order)


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


def _closed(m, p, sector, order):
    """The closed expansion at offset p, F[m, s0 - mp]: the undivided
    expansion over the twisted constant of index 2m alpha at degree m+1.

    The integer sector also twists it by e^{-pi i m/2}; m is odd there, so
    its divisor carries the + sign twist.
    """
    alpha = _sector_index(p, sector)
    big_m = m + 1
    eps = 1 if m % 2 else -1
    idx0 = 2 * m * alpha
    unit = phase(rat(m * p, 2) - (R0 if sector == "half" else rat(m, 4)))
    o0 = big_m * _min_coset_abs(idx0 / (2 * big_m)) ** 2
    # the inverse has ord -o0: build u o0 higher and size the inverse from
    # u's order, so the product's cutoff is exactly ``order``
    u = _undivided(m, p, sector, order + o0)
    kd = order - u.ord
    th0_inv = theta_pm(eps, idx0, big_m, kd + 2 * o0 + 1).inverse(order=kd)
    return (u * th0_inv).times_monomial(unit)


def undivided_half_combination(m: int, p: int, order) -> Series:
    """q^{m alpha^2} times the half-sector expansion before the division by
    the twisted constant, alpha = (4p+1)/4:

    ``-i q^{m alpha^2} eta(2tau)^3 * (ratio pair)
      + q^{m^2 alpha^2/(m+1)} * (triple sums)``

    It equals q^{m alpha^2} (-1)^{mp} theta_pm(+-, 2m alpha, m+1) times
    F[m, 1/2 - mp], the numerator less its boundary sums.  At degenerate
    (m, p) it vanishes identically: p-independence's only residue there.
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


def _walk(f, m, t, s, order):
    """F[m, s] from f = F[m, t] by the ladder steps that do not vanish."""
    while t < s:
        if 2 * t % (2 * m):
            f = f - ladder_step(m, t, order)
        t += 1
    while t > s:
        t -= 1
        if 2 * t % (2 * m):
            f = f + ladder_step(m, t, order)
    return f


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


# label (m, m2) -> how far below its build order the closed formula's
# cutoff falls; (2, 1) lands 1/48 above it
SUPPORTED_CHARACTERS = {
    (1, 0): rat(1, 24),
    (1, 1): rat(1, 24),
    (2, 0): rat(1, 8),
    (2, 1): R0,
    (2, 2): rat(1, 8),
    (4, 1): rat(5, 48),
    (4, 3): rat(5, 48),
}


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
    SUPPORTED_CHARACTERS.  One build at ``order`` plus the label's shortfall
    has cutoff ``order`` ((2, 1): ``order + 1/48``).
    """
    m = int(m)
    m2 = int(m2)
    short = SUPPORTED_CHARACTERS.get((m, m2))
    if short is None:
        raise ValueError(f"character formula not available for ({m}, {m2})")
    order = rat(order)
    return _cached(
        ("char", m, m2, order),
        lambda: _character_raw(m, m2, order + short),
    )


def _character_raw(m, m2, order):
    k = order
    if m == 1:
        th = theta(m2, 1, k)
        s = th * eta(1, -1, k)
        return s.times_monomial(-cyclo.I if m2 == 1 else -cyclo.ONE)
    if m == 2 and m2 == 1:
        s = eta(2, 1, k) * eta(rat(1, 2), -1, k) * eta(1, -1, k) * mumford("10", k)
        return s.times_monomial(cyclo.I)
    # the labels of one level below share every part but the sign
    if m == 2:
        a, b = _cached(("charparts", m, k), lambda: (
            eta(rat(1, 2), 1, k) * eta(1, -1, k) * eta(2, -1, k) * mumford("01", k),
            eta(rat(1, 2), -1, k) * eta(2, -1, k) * mumford("00", k)))
        sgn = cyclo.ONE if m2 == 0 else cyclo.MINUS_ONE
        return (a + b.times_monomial(sgn)).times_monomial(
            cyclo.CycloNum(rat(-1, 2))
        )
    # m == 4
    pref, a, b = _cached(("charparts", m, k), lambda: (
        eta(rat(1, 2), -1, k) * eta(2, -1, k),
        mumford("01", k) * mumford("10", k),
        eta(2, 1, k) * eta(1, -2, k) * mumford("00", k) * mumford("10", k)))
    sgn = cyclo.ONE if m2 == 1 else cyclo.MINUS_ONE
    s = pref * (a + b.times_monomial(sgn))
    return s.times_monomial(cyclo.CycloNum(R0, R0, rat(1, 2)))


def derived_denominator(order) -> Series:
    """R0 := -eta * F[1,1/2] / theta_{0,1}.

    Equals the true N=3 denominator up to a z-free unit, which is all the
    span statements downstream are sensitive to.  R0 is NOT free of the
    elliptic variable: its monomials all carry half-integer zeta-exponents
    (the quotient-bracket generators live on the zeta^{1/2+Z} coset while
    theta_{0,1} lives on zeta^Z, so the ratio cannot land on zeta^0; the
    algebra's odd half-roots are visible here).
    """
    order = rat(order)
    k = order + rat(1, 8)

    def build():
        th_inv = theta(0, 1, k).inverse(order=order)
        s = eta(1, 1, order) * numerator_half(1, 0, k) * th_inv
        return s.times_monomial(cyclo.MINUS_ONE)

    return _cached(("rden", order), build)


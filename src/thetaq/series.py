"""Sparse exact bivariate Laurent-Puiseux series, truncated in q.

A :class:`Series` stores finitely many monomials ``c * q^a * z^b`` (``z``
denotes the elliptic variable zeta = e^{2*pi*i*z}) with exact rational
exponents and Q(zeta_8) coefficients, together with ``cutoff``: the
exclusive q-exponent bound below which the stored terms are certified to
agree with the (usually infinite) series being represented.

Exponents are stored as integers over one per-series denominator ``den``:
the key ``(q, z)`` stands for ``q^(q/den) * z^(z/den)``.  Every kernel
(sums, products, inverses, restriction, comparison) works on these ints;
two series are first aligned on the lcm of their ``den``s, which are
usually equal.  Fractions appear only at the boundary: the constructors
that take rational exponents, ``ord``, ``cutoff``, ``terms``,
:meth:`Series.monomials`, ``text`` and ``json_obj``.  :func:`align` puts
several series on one grid for :mod:`thetaq.linsolve`.

Cutoffs propagate pessimistically:

* sum:      min of the cutoffs;
* product:  min(a.cutoff + ord(b), b.cutoff + ord(a));
* inverse:  cutoff - 2*ord.

Products are truncated convolutions.  Inverses use the reciprocal
recurrence over q-layers in one pass (Brent & Kung, "Fast algorithms for
manipulating formal power series", J. ACM 25, 1978), not a sum of powers.

``ord`` here means the smallest stored q-exponent, or the cutoff itself for
a series with no stored terms (all that is known of such a series is that
it vanishes below its cutoff).  Exactly known series (monomials, constants,
polynomial factors) carry ``cutoff = INF``.

Series are immutable values; all operations return new objects.  Equal
series compare and hash equal whatever their ``den``.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping
from math import gcd, lcm

from . import cyclo
from ._rational import INF, R0, rat, rat_str
from .cyclo import CycloNum


class InsufficientOrderError(ValueError):
    """A comparison or solve was requested beyond the trusted order.

    ``max_order`` carries the largest order that could have been certified.
    """

    def __init__(self, message, max_order=None):
        super().__init__(message)
        self.max_order = max_order


class NonUnitLeadingError(ValueError):
    """Inversion needs a single-monomial lowest q-layer."""


def _grid_bound(x, den):
    """The least integer n with n/den >= x, so that q/den < x iff q < n."""
    if x == INF:
        return INF
    return -((-x.numerator * den) // x.denominator)


def _reduced(t, den):
    """``(t, den)`` over the smallest denominator that keeps keys integral."""
    g = gcd(den, *(x for k in t for x in k))
    if g == 1:
        return t, den
    return {(q // g, z // g): v for (q, z), v in t.items()}, den // g


def _series(t, den, cutoff) -> Series:
    """A Series from int-keyed terms over ``den`` (trusted: no zero
    coefficients, every q-exponent below the cutoff)."""
    s = Series.__new__(Series)
    s._t = t
    s.den = den
    s.cutoff = cutoff
    s._sorted = None
    return s


def align(series_list, order):
    """The terms of several series on one grid.

    Returns ``(den, hi, rows)``: ``den`` is the lcm of their denominators,
    ``hi`` the least integer with ``hi/den >= order`` (so an exponent
    ``q/den`` lies below ``order`` iff ``q < hi``), and ``rows[i]`` lists
    the terms of ``series_list[i]`` as ``(q, z, coeff)`` with exponents
    ``q/den`` and ``z/den``, ascending.
    """
    den = lcm(*(s.den for s in series_list))
    rows = [[(q, z, c) for (q, z), c in s._items_at(den)] for s in series_list]
    return den, _grid_bound(order, den), rows


class _FractionTerms(Mapping):
    """Read-only view of a Series' terms keyed by ``(Fraction, Fraction)``
    exponents; built on first use, except for its length."""

    __slots__ = ("_series", "_dict")

    def __init__(self, series):
        self._series = series
        self._dict = None

    def __len__(self):
        return len(self._series._t)

    def _fractions(self):
        if self._dict is None:
            self._dict = {(q, z): c for q, z, c in self._series.monomials()}
        return self._dict

    def __iter__(self):
        return iter(self._fractions())

    def __getitem__(self, key):
        return self._fractions()[key]


class Series:
    __slots__ = ("_t", "den", "cutoff", "_sorted")

    def __init__(self, terms=None, cutoff=INF, _normalized=False):
        """Build from ``{(qexp, zexp): coeff}`` with rational exponents."""
        if terms is None:
            terms = {}
        if not _normalized:
            terms = {
                k: v
                for k, v in terms.items()
                if k[0] < cutoff and not v.is_zero()
            }
        den = lcm(*{x.denominator for k in terms for x in k})
        self._t = {
            (q.numerator * (den // q.denominator),
             z.numerator * (den // z.denominator)): v
            for (q, z), v in terms.items()
        }
        self.den = den
        self.cutoff = cutoff
        self._sorted = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(cutoff=INF) -> Series:
        return _series({}, 1, cutoff)

    @staticmethod
    def monomial(coeff: CycloNum, qexp=R0, zexp=R0, cutoff=INF) -> Series:
        if coeff.is_zero() or qexp >= cutoff:
            return Series.zero(cutoff)
        return Series({(rat(qexp), rat(zexp)): coeff}, cutoff, _normalized=True)

    @staticmethod
    def one(cutoff=INF) -> Series:
        return Series.monomial(cyclo.ONE, cutoff=cutoff)

    @staticmethod
    def zfree(coeffs: dict, den: int, cutoff) -> Series:
        """sum of ``coeffs[e] * q^(e/den)``: int exponents, nonzero
        coefficients, all below ``cutoff``."""
        return _series({(e, 0): v for e, v in coeffs.items()}, den, cutoff)

    # -- structure ---------------------------------------------------------

    def _items(self):
        if self._sorted is None:
            self._sorted = sorted(self._t.items())
        return self._sorted

    def _at(self, den):
        """The int-keyed terms over ``den``, a multiple of ``self.den``."""
        if den == self.den:
            return self._t
        f = den // self.den
        return {(q * f, z * f): v for (q, z), v in self._t.items()}

    def _items_at(self, den):
        """:meth:`_items` over ``den``, a multiple of ``self.den``."""
        if den == self.den:
            return self._items()
        f = den // self.den
        return [((q * f, z * f), v) for (q, z), v in self._items()]

    @property
    def terms(self) -> Mapping:
        """``{(qexp, zexp): coeff}`` with Fraction exponents."""
        return _FractionTerms(self)

    def monomials(self) -> list:
        """The terms as ``(qexp, zexp, coeff)``, Fraction exponents,
        ascending."""
        den = self.den
        return [(rat(q, den), rat(z, den), c) for (q, z), c in self._items()]

    @property
    def ord(self):
        """Smallest trusted q-exponent (the cutoff itself if no terms)."""
        if not self._t:
            return self.cutoff
        return rat(min(self._t)[0], self.den)

    def is_zero_series(self) -> bool:
        return not self._t

    def is_zfree(self) -> bool:
        return all(z == 0 for _, z in self._t)

    def leading_layer(self):
        """All (qexp, zexp) -> coeff at the minimal stored q-exponent."""
        o = self.ord
        return {(q, z): c for q, z, c in self.monomials() if q == o}

    def restrict(self, order) -> Series:
        """Drop terms at or above ``order`` and lower the cutoff to it."""
        if order > self.cutoff:
            raise InsufficientOrderError(
                f"cannot restrict to order {order}: trusted only below "
                f"{self.cutoff}",
                max_order=self.cutoff,
            )
        hi = _grid_bound(order, self.den)
        return _series(
            {k: v for k, v in self._t.items() if k[0] < hi}, self.den, order
        )

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: Series) -> Series:
        cut = min(self.cutoff, other.cutoff)
        den = lcm(self.den, other.den)
        hi = _grid_bound(cut, den)
        out = {k: v for k, v in self._at(den).items() if k[0] < hi}
        for k, v in other._at(den).items():
            if k[0] >= hi:
                continue
            cur = out.get(k)
            s = v if cur is None else cur + v
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return _series(out, den, cut)

    def __sub__(self, other: Series) -> Series:
        return self + (-other)

    def __neg__(self) -> Series:
        return _series(
            {k: -v for k, v in self._t.items()}, self.den, self.cutoff
        )

    def __mul__(self, other: Series) -> Series:
        cut = min(self.cutoff + other.ord, other.cutoff + self.ord)
        return self._mul_trunc(other, cut)

    def _mul_trunc(self, other: Series, bound) -> Series:
        """Convolution keeping q-exponents below ``bound``.

        The caller is responsible for ``bound`` not exceeding the trusted
        range; ``__mul__`` passes the propagated cutoff.
        """
        if not self._t or not other._t:
            return Series.zero(bound)
        den = lcm(self.den, other.den)
        hi = _grid_bound(bound, den)
        out: dict = {}
        bi = other._items_at(den)
        for (qa, za), ca in self._items_at(den):
            qmax = hi - qa
            for (qb, zb), cb in bi:
                if qb >= qmax:
                    break
                k = (qa + qb, za + zb)
                cur = out.get(k)
                p = ca * cb
                s = p if cur is None else cur + p
                if s.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = s
        return _series(out, den, bound)

    def times_monomial(self, coeff: CycloNum, dq=R0, dz=R0) -> Series:
        """Multiply by an exact monomial (shifts exponents, scales trust)."""
        if coeff.is_zero():
            return Series.zero(INF)
        dq = rat(dq)
        dz = rat(dz)
        den = lcm(self.den, dq.denominator, dz.denominator)
        f = den // self.den
        sq = dq.numerator * (den // dq.denominator)
        sz = dz.numerator * (den // dz.denominator)
        out = {
            (q * f + sq, z * f + sz): coeff * v
            for (q, z), v in self._t.items()
        }
        return _series(out, den, self.cutoff + dq)

    def scale_args(self, cq, cz) -> Series:
        """Exponent rescaling (q, z) -> (cq*q, cz*z); models tau -> cq*tau,
        z -> cz*z.  Requires cq > 0."""
        cq = rat(cq)
        cz = rat(cz)
        if cq <= 0:
            raise ValueError("q-scale must be positive")
        lq = lcm(cq.denominator, cz.denominator)
        fq = cq.numerator * (lq // cq.denominator)
        fz = cz.numerator * (lq // cz.denominator)
        out = {(fq * q, fz * z): v for (q, z), v in self._t.items()}
        if len(out) != len(self._t):  # cz == 0 can merge monomials
            out = {}
            for (q, z), v in self._t.items():
                k = (fq * q, fz * z)
                cur = out.get(k)
                s = v if cur is None else cur + v
                if s.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = s
        return _series(*_reduced(out, self.den * lq), cq * self.cutoff)

    def inverse(self, order=None) -> Series:
        """Multiplicative inverse up to the propagated trusted order.

        Requires the lowest q-layer to consist of exactly one monomial.  An
        exactly known series (``cutoff = INF``) needs an explicit ``order``.

        With self = M (1 + x), M the leading monomial, the layers of
        y = 1/(1 + x) follow from the reciprocal recurrence (Brent & Kung,
        J. ACM 25, 1978): y_0 = 1 and y_e = -sum_{0<k<=e} x_k y_{e-k}, each
        x_k and y_e a Laurent polynomial in z.  The result is M^{-1} y.
        """
        if not self._t:
            raise NonUnitLeadingError("cannot invert a series with no terms")
        qa, den = min(self._t)[0], self.den
        lead = [(k, v) for k, v in self._t.items() if k[0] == qa]
        if len(lead) != 1:
            raise NonUnitLeadingError(
                "non-unit leading coefficient: lowest q-layer has "
                f"{len(lead)} monomials"
            )
        ((_, za), ca), = lead
        if self.cutoff == INF:
            if order is None:
                raise ValueError(
                    "inverse of an exactly known series needs an explicit order"
                )
            target = rat(order)
        else:
            target = self.cutoff - 2 * rat(qa, den)
            if order is not None and rat(order) < target:
                target = rat(order)
        inv_lead = ca.inverse()
        # bound for y, before the shift by M^{-1}
        bound = _grid_bound(target + rat(qa, den), den)
        minus_inv_lead = -inv_lead
        layers: dict = {}  # k -> {z: -x coefficient} for 0 < k < bound
        for (q, z), v in self._t.items():
            k = q - qa
            if 0 < k < bound:
                layers.setdefault(k, {})[z - za] = minus_inv_lead * v
        steps = sorted(layers.items())
        y: dict = {}
        # only sums of x's exponents can carry a term; visit them in order
        heap = [0] if bound > 0 else []
        seen = set(heap)
        while heap:
            e = heapq.heappop(heap)
            ye = {} if e else {0: cyclo.ONE}
            for k, xk in steps:
                if k > e:
                    break
                yd = y.get(e - k)
                if yd is None:
                    continue
                for zx, cx in xk.items():
                    for zy, cy in yd.items():
                        zz = zx + zy
                        cur = ye.get(zz)
                        p = cx * cy
                        ye[zz] = p if cur is None else cur + p
            ye = {z: c for z, c in ye.items() if not c.is_zero()}
            if not ye:
                continue
            y[e] = ye
            for k, _ in steps:
                nxt = e + k
                if nxt >= bound:
                    break
                if nxt not in seen:
                    seen.add(nxt)
                    heapq.heappush(heap, nxt)
        out = {
            (e - qa, z - za): inv_lead * c
            for e, ye in y.items()
            for z, c in ye.items()
        }
        return _series(out, den, target)

    def pow(self, n: int) -> Series:
        if n < 0:
            return self.inverse().pow(-n)
        out = Series.one(cutoff=INF)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # -- comparison ---------------------------------------------------------

    def equal_up_to(self, other: Series, order):
        """Exact comparison below ``order``.

        Returns ``(True, None)`` or ``(False, (qexp, zexp))`` with the
        smallest mismatching monomial.  Raises InsufficientOrderError when
        ``order`` exceeds either trusted cutoff.
        """
        order = rat(order)
        if order > self.cutoff or order > other.cutoff:
            raise InsufficientOrderError(
                "insufficient trusted order: requested "
                f"{order}, trusted below {min(self.cutoff, other.cutoff)}",
                max_order=min(self.cutoff, other.cutoff),
            )
        den = lcm(self.den, other.den)
        hi = _grid_bound(order, den)
        a, b = self._at(den), other._at(den)
        mism = [
            k for k in a.keys() | b.keys() if k[0] < hi and a.get(k) != b.get(k)
        ]
        if not mism:
            return True, None
        q, z = min(mism)
        return False, (rat(q, den), rat(z, den))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series) or self.cutoff != other.cutoff:
            return False
        den = lcm(self.den, other.den)
        return self._at(den) == other._at(den)

    def __hash__(self):
        t, den = _reduced(self._t, self.den)
        return hash((self.cutoff, den, tuple(sorted(t.items()))))

    # -- rendering ----------------------------------------------------------

    def __repr__(self) -> str:
        n = len(self._t)
        return f"<Series {n} terms, cutoff {self.cutoff}>"

    def text(self) -> str:
        """Canonical human-readable form, terms ascending."""
        if not self._t:
            return "0"
        parts = []
        for q, z, c in self.monomials():
            cs = str(c)
            if ("+" in cs or "-" in cs[1:]) and (q or z):
                cs = f"({cs})"
            factors = []
            neg = False
            if cs == "-1" and (q or z):
                neg = True
            elif cs != "1" or not (q or z):
                factors.append(cs)
            if q:
                factors.append(f"q^({rat_str(q)})")
            if z:
                factors.append(f"z^({rat_str(z)})")
            body = " * ".join(factors)
            parts.append(f"-{body}" if neg else body)
        out = parts[0]
        for p in parts[1:]:
            if p.startswith("-") and not p.startswith("-("):
                out += " - " + p[1:]
            else:
                out += " + " + p
        return out

    def json_obj(self):
        return {
            "terms": [
                [rat_str(q), rat_str(z), c.json_list()]
                for q, z, c in self.monomials()
            ],
            "cutoff": "inf" if self.cutoff == INF else rat_str(self.cutoff),
        }

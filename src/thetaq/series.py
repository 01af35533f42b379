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
These and the generators sum each Q(zeta_8) component as plain ints (or
Fractions) in four accumulators, and :func:`_gather` builds one
coefficient per output term.

``ord`` here means the smallest stored q-exponent, or the cutoff itself for
a series with no stored terms (all that is known of such a series is that
it vanishes below its cutoff).  Exactly known series (monomials, constants,
polynomial factors) carry ``cutoff = INF``.

Series are immutable values; all operations return new objects.  Equal
series compare and hash equal whatever their ``den``.
"""

from __future__ import annotations

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
    if type(x) is float:  # INF, the only float cutoff
        return INF
    return -((-x.numerator * den) // x.denominator)


def _cut(x):
    """A finite cutoff as a Fraction (an int one would leak floats into
    ``cutoff / k``); INF unchanged."""
    return x if type(x) is rat or x == INF else rat(x)


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


def _components(items):
    """Sorted terms ``((q, z), coeff)`` as four lists of ``(q, z, c_i)``,
    one per component: list i holds the nonzero coefficients of w^i."""
    parts = ([], [], [], [])
    for (q, z), v in items:
        for part, c in zip(parts, v.c):
            if c:
                part.append((q, z, c))
    return parts


def _add_turn(acc, key, u):
    """Add w^u at ``key`` into the four accumulators ``acc`` that
    :func:`_gather` reads: component u & 3, negated when u & 4 (w^4 = -1)."""
    t = acc[u & 3]
    t[key] = t.get(key, 0) + (-1 if u & 4 else 1)


def _gather(acc):
    """One coefficient per key from four dicts ``{key: c_i}``, the
    accumulated components of w^0..w^3; zero coefficients dropped."""
    t0, t1, t2, t3 = acc
    if not (t1 or t2 or t3):
        return {k: CycloNum._raw(c, 0, 0, 0) for k, c in t0.items() if c}
    out = {}
    for k in t0.keys() | t1.keys() | t2.keys() | t3.keys():
        c = (t0.get(k, 0), t1.get(k, 0), t2.get(k, 0), t3.get(k, 0))
        if any(c):
            out[k] = CycloNum._raw(*c)
    return out


def _convolve(acc, xs, ys, hi, negate=False):
    """Add the product of two component splits (:func:`_components`) into
    the four accumulators ``acc``, keeping q-exponents below ``hi``;
    subtract it instead when ``negate``.  ``ys`` must ascend in q."""
    for i, xl in enumerate(xs):
        if not xl:
            continue
        for j, yl in enumerate(ys):
            if not yl:
                continue
            t = acc[(i + j) & 3]
            neg = (i + j >= 4) != negate  # w^4 = -1
            for qa, za, x in xl:
                if neg:
                    x = -x
                qmax = hi - qa
                for qb, zb, y in yl:
                    if qb >= qmax:
                        break
                    k = (qa + qb, za + zb)
                    t[k] = t.get(k, 0) + x * y


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

    def __init__(self, terms=None, cutoff=INF):
        """Build from ``{(qexp, zexp): coeff}`` with rational exponents."""
        terms = {
            k: v
            for k, v in (terms or {}).items()
            if k[0] < cutoff and v
        }
        den = lcm(*{x.denominator for k in terms for x in k})
        self._t = {
            (q.numerator * (den // q.denominator),
             z.numerator * (den // z.denominator)): v
            for (q, z), v in terms.items()
        }
        self.den = den
        self.cutoff = _cut(cutoff)
        self._sorted = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(cutoff=INF) -> Series:
        return _series({}, 1, _cut(cutoff))

    @staticmethod
    def monomial(coeff: CycloNum, qexp=R0, zexp=R0, cutoff=INF) -> Series:
        if not coeff or qexp >= cutoff:
            return Series.zero(cutoff)
        return Series({(rat(qexp), rat(zexp)): coeff}, cutoff)

    @staticmethod
    def one(cutoff=INF) -> Series:
        return Series.monomial(cyclo.ONE, cutoff=cutoff)

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

    def restrict(self, order) -> Series:
        """Drop terms at or above ``order`` and lower the cutoff to it."""
        if order > self.cutoff:
            raise InsufficientOrderError(
                f"cannot restrict to order {order}: trusted only below "
                f"{self.cutoff}",
                max_order=self.cutoff,
            )
        hi = _grid_bound(order, self.den)
        t = {k: v for k, v in self._t.items() if k[0] < hi}
        return _series(t, self.den, _cut(order))

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
            if not s:
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
        acc = ({}, {}, {}, {})
        _convolve(acc, _components(self._items_at(den)),
                  _components(other._items_at(den)), hi)
        return _series(_gather(acc), den, bound)

    def times_monomial(self, coeff: CycloNum, dq=R0, dz=R0) -> Series:
        """Multiply by an exact monomial (shifts exponents, scales trust);
        the terms share one :func:`thetaq.cyclo.scaler`."""
        if not coeff:
            return Series.zero(INF)
        dq = rat(dq)
        dz = rat(dz)
        den = lcm(self.den, dq.denominator, dz.denominator)
        f = den // self.den
        sq = dq.numerator * (den // dq.denominator)
        sz = dz.numerator * (den // dz.denominator)
        scale = cyclo.scaler(coeff)
        out = {
            (q * f + sq, z * f + sz): scale(v)
            for (q, z), v in self._t.items()
        }
        return _series(out, den, self.cutoff + dq)

    def inverse(self, order=None) -> Series:
        """Multiplicative inverse up to the propagated trusted order.

        Requires the lowest q-layer to consist of exactly one monomial.  An
        exactly known series (``cutoff = INF``) needs an explicit ``order``.

        With self = M (1 + x), M the leading monomial, the layers of
        y = 1/(1 + x) follow from the reciprocal recurrence (Brent & Kung,
        J. ACM 25, 1978): y_0 = 1 and y_e = -sum_{0<k<=e} x_k y_{e-k}, each
        x_k and y_e a Laurent polynomial in z.  The result is M^{-1} y.
        x and the result are scaled by one :func:`thetaq.cyclo.scaler` each.
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
        minus_inv_lead = cyclo.scaler(-inv_lead)
        # k -> [(i, z, component i of the -x coefficient)] for 0 < k < bound
        layers: dict = {}
        for (q, z), v in self._t.items():
            k = q - qa
            if 0 < k < bound:
                layers.setdefault(k, []).extend(
                    (i, z - za, c)
                    for i, c in enumerate(minus_inv_lead(v).c) if c
                )
        steps = sorted(layers.items())
        y: dict = {}  # e -> four {z: component i} dicts
        # only sums of x's exponents, multiples of their gcd, carry a term
        for e in range(0, bound, gcd(*layers) or max(bound, 1)):
            acc = ({}, {}, {}, {}) if e else ({0: 1}, {}, {}, {})
            for k, xk in steps:
                if k > e:
                    break
                yd = y.get(e - k)
                if yd is None:
                    continue
                for i, zx, cx in xk:
                    for j, dj in enumerate(yd):
                        t = acc[(i + j) & 3]
                        x = -cx if i + j >= 4 else cx  # w^4 = -1
                        for zy, cy in dj.items():
                            zz = zx + zy
                            t[zz] = t.get(zz, 0) + x * cy
            ye = tuple({z: c for z, c in t.items() if c} for t in acc)
            if any(ye):
                y[e] = ye
        scale = cyclo.scaler(inv_lead)
        out = {
            (e - qa, z - za): scale(c)
            for e, ye in y.items()
            for z, c in _gather(ye).items()
        }
        return _series(out, den, target)

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

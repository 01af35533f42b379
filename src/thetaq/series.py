"""Sparse exact bivariate Laurent-Puiseux series, truncated in q.

A :class:`Series` stores finitely many monomials ``c * q^a * z^b`` (``z``
denotes the elliptic variable zeta = e^{2*pi*i*z}) with exact rational
exponents and Q(zeta_8) coefficients, together with ``cutoff``: the
exclusive q-exponent bound below which the stored terms are certified to
agree with the (usually infinite) series being represented.

A coefficient c0 + c1*w + c2*w^2 + c3*w^3 (see :mod:`thetaq.cyclo`) is
stored by component: a series holds four dicts ``(d0, d1, d2, d3)``, dict
i mapping each key to the nonzero rational c_i of w^i there.  A stored
value is never zero and always canonical: an ``int`` when integral, a
``Fraction`` otherwise.  Every series the registry and ``branch`` build
is a unit w^k times a series with rational coefficients, so one dict
holds all its terms.  ``CycloNum``s are built only at the API edge: ``terms``,
:meth:`Series.monomials`, ``text``, ``json_obj``, :func:`align` and the
inverse's leading coefficient.

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

Products are truncated convolutions of the component dicts in four
accumulators (:func:`_convolve`); a product by one monomial
(``times_monomial``, the inverse's scalings) is the same convolution with
a one-term factor.  Inverses use the reciprocal recurrence over q-layers
in one pass (Brent & Kung, "Fast algorithms for manipulating formal power
series", J. ACM 25, 1978), not a sum of powers.  The generators sum their
eighth turns into the same accumulators (:func:`_add_turn`), and
:func:`_gather` turns accumulators into the dicts of a series.

``ord`` here means the smallest stored q-exponent, or the cutoff itself for
a series with no stored terms (all that is known of such a series is that
it vanishes below its cutoff).  Exactly known series (monomials, constants,
polynomial factors) carry ``cutoff = INF``.

Series are immutable values; all operations return new objects.  Equal
series compare and hash equal whatever their ``den``.
"""

from __future__ import annotations

from math import gcd, lcm

from . import cyclo
from ._rational import INF, R0, rat, rat_str
from .cyclo import CycloNum, _canon


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


def _reduced(comps, den):
    """``(comps, den)`` over the smallest denominator that keeps keys
    integral."""
    g = gcd(den, *(x for d in comps for k in d for x in k))
    if g == 1:
        return comps, den
    return tuple({(q // g, z // g): v for (q, z), v in d.items()}
                 for d in comps), den // g


def _series(comps, den, cutoff) -> Series:
    """A Series from its four int-keyed component dicts over ``den``
    (trusted: canonical nonzero values, every q-exponent below the
    cutoff)."""
    s = Series.__new__(Series)
    s._comps = comps
    s.den = den
    s.cutoff = cutoff
    s._sorted = None
    return s


def _add_turn(acc, key, u):
    """Add w^u at ``key`` into the four accumulators ``acc`` that
    :func:`_gather` reads: component u & 3, negated when u & 4 (w^4 = -1)."""
    t = acc[u & 3]
    t[key] = t.get(key, 0) + (-1 if u & 4 else 1)


def _gather(acc):
    """The component dicts of a series from the four accumulators ``acc``:
    zeros dropped, integral Fractions turned into ints."""
    return tuple({k: c if type(c) is int else _canon(c)
                  for k, c in t.items() if c} for t in acc)


def _one_term(coeff, q, z):
    """The component lists of the monomial ``coeff * q^q z^z``."""
    return tuple([(q, z, c)] if c else [] for c in coeff.c)


def _convolve(acc, xs, ys, hi, negate=False):
    """Add the product of two series, given as four component lists of
    ``(q, z, c)`` each, into the four accumulators ``acc``, keeping
    q-exponents below ``hi``; subtract it instead when ``negate``.  Each
    list of ``ys`` must ascend in q."""
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
    rows = []
    for s in series_list:
        f = den // s.den
        rows.append([(q * f, z * f, c) for (q, z), c in s._coeffs()])
    return den, _grid_bound(order, den), rows


class Series:
    __slots__ = ("_comps", "den", "cutoff", "_sorted")

    def __init__(self, terms=None, cutoff=INF):
        """Build from ``{(qexp, zexp): coeff}`` with rational exponents."""
        terms = {
            k: v
            for k, v in (terms or {}).items()
            if k[0] < cutoff and v
        }
        den = lcm(*{x.denominator for k in terms for x in k})
        self._comps = ({}, {}, {}, {})
        for (q, z), v in terms.items():
            key = (q.numerator * (den // q.denominator),
                   z.numerator * (den // z.denominator))
            for d, c in zip(self._comps, v.c):
                if c:
                    d[key] = c
        self.den = den
        self.cutoff = _cut(cutoff)
        self._sorted = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(cutoff=INF) -> Series:
        return _series(({}, {}, {}, {}), 1, _cut(cutoff))

    @staticmethod
    def monomial(coeff: CycloNum, qexp=R0, zexp=R0, cutoff=INF) -> Series:
        if not coeff or qexp >= cutoff:
            return Series.zero(cutoff)
        return Series({(rat(qexp), rat(zexp)): coeff}, cutoff)

    @staticmethod
    def one(cutoff=INF) -> Series:
        return Series.monomial(cyclo.ONE, cutoff=cutoff)

    # -- structure ---------------------------------------------------------

    def _lists(self):
        """The component dicts as four lists of ``(q, z, c)``, ascending:
        what :func:`_convolve` reads."""
        if self._sorted is None:
            self._sorted = tuple(sorted((q, z, c) for (q, z), c in d.items())
                                 for d in self._comps)
        return self._sorted

    def _lists_at(self, den):
        """:meth:`_lists` over ``den``, a multiple of ``self.den``."""
        if den == self.den:
            return self._lists()
        f = den // self.den
        return tuple([(q * f, z * f, c) for q, z, c in part]
                     for part in self._lists())

    def _at(self, den):
        """The component dicts over ``den``, a multiple of ``self.den``."""
        if den == self.den:
            return self._comps
        f = den // self.den
        return tuple({(q * f, z * f): v for (q, z), v in d.items()}
                     for d in self._comps)

    def _coeffs(self):
        """``((q, z), CycloNum)`` for every key, ascending: the components
        joined, at the API edge."""
        comps = self._comps
        keys = sorted(set().union(*comps))
        return [(k, CycloNum._raw(*(d.get(k, 0) for d in comps)))
                for k in keys]

    @property
    def terms(self) -> dict:
        """``{(qexp, zexp): coeff}`` with Fraction exponents."""
        return {(q, z): c for q, z, c in self.monomials()}

    def monomials(self) -> list:
        """The terms as ``(qexp, zexp, coeff)``, Fraction exponents,
        ascending."""
        den = self.den
        return [(rat(q, den), rat(z, den), c) for (q, z), c in self._coeffs()]

    def _min_q(self):
        """The smallest stored q-key; the series must have terms."""
        return min(min(d)[0] for d in self._comps if d)

    @property
    def ord(self):
        """Smallest trusted q-exponent (the cutoff itself if no terms)."""
        if self.is_zero_series():
            return self.cutoff
        return rat(self._min_q(), self.den)

    def is_zero_series(self) -> bool:
        return not any(self._comps)

    def is_zfree(self) -> bool:
        return all(z == 0 for d in self._comps for _, z in d)

    def restrict(self, order) -> Series:
        """Drop terms at or above ``order`` and lower the cutoff to it."""
        if order > self.cutoff:
            raise InsufficientOrderError(
                f"cannot restrict to order {order}: trusted only below "
                f"{self.cutoff}",
                max_order=self.cutoff,
            )
        hi = _grid_bound(order, self.den)
        comps = tuple({k: v for k, v in d.items() if k[0] < hi}
                      for d in self._comps)
        return _series(comps, self.den, _cut(order))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: Series) -> Series:
        cut = min(self.cutoff, other.cutoff)
        den = lcm(self.den, other.den)
        hi = _grid_bound(cut, den)
        comps = []
        for a, b in zip(self._at(den), other._at(den)):
            out = {k: v for k, v in a.items() if k[0] < hi}
            for k, v in b.items():
                if k[0] >= hi:
                    continue
                cur = out.get(k)
                if cur is None:
                    out[k] = v
                elif s := cur + v:
                    out[k] = s if type(s) is int else _canon(s)
                else:
                    del out[k]
            comps.append(out)
        return _series(tuple(comps), den, cut)

    def __sub__(self, other: Series) -> Series:
        return self + (-other)

    def __neg__(self) -> Series:
        comps = tuple({k: -v for k, v in d.items()} for d in self._comps)
        return _series(comps, self.den, self.cutoff)

    def __mul__(self, other: Series) -> Series:
        cut = min(self.cutoff + other.ord, other.cutoff + self.ord)
        return self._mul_trunc(other, cut)

    def _mul_trunc(self, other: Series, bound) -> Series:
        """Convolution keeping q-exponents below ``bound``.

        The caller is responsible for ``bound`` not exceeding the trusted
        range; ``__mul__`` passes the propagated cutoff.
        """
        if self.is_zero_series() or other.is_zero_series():
            return Series.zero(bound)
        den = lcm(self.den, other.den)
        hi = _grid_bound(bound, den)
        acc = ({}, {}, {}, {})
        _convolve(acc, self._lists_at(den), other._lists_at(den), hi)
        return _series(_gather(acc), den, bound)

    def times_monomial(self, coeff: CycloNum, dq=R0, dz=R0) -> Series:
        """Multiply by an exact monomial (shifts exponents, scales trust):
        a convolution with a one-term factor."""
        if not coeff:
            return Series.zero(INF)
        dq = rat(dq)
        dz = rat(dz)
        den = lcm(self.den, dq.denominator, dz.denominator)
        sq = dq.numerator * (den // dq.denominator)
        sz = dz.numerator * (den // dz.denominator)
        acc = ({}, {}, {}, {})
        _convolve(acc, self._lists_at(den), _one_term(coeff, sq, sz), INF)
        return _series(_gather(acc), den, self.cutoff + dq)

    def inverse(self, order=None) -> Series:
        """Multiplicative inverse up to the propagated trusted order.

        Requires the lowest q-layer to consist of exactly one monomial.  An
        exactly known series (``cutoff = INF``) needs an explicit ``order``.

        With self = M (1 + x), M the leading monomial, the layers of
        y = 1/(1 + x) follow from the reciprocal recurrence (Brent & Kung,
        J. ACM 25, 1978): y_0 = 1 and y_e = -sum_{0<k<=e} x_k y_{e-k}, each
        x_k and y_e a Laurent polynomial in z.  The result is M^{-1} y.
        -x and the result are each a convolution with the one-term factor
        -M^{-1} or M^{-1}.
        """
        if self.is_zero_series():
            raise NonUnitLeadingError("cannot invert a series with no terms")
        qa, den = self._min_q(), self.den
        lead = {k for d in self._comps for k in d if k[0] == qa}
        if len(lead) != 1:
            raise NonUnitLeadingError(
                "non-unit leading coefficient: lowest q-layer has "
                f"{len(lead)} monomials"
            )
        (key,) = lead
        za = key[1]
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
        inv_lead = CycloNum._raw(*(d.get(key, 0) for d in self._comps)).inverse()
        # bound for y, before the shift by M^{-1}
        bound = _grid_bound(target + rat(qa, den), den)
        acc = ({}, {}, {}, {})
        _convolve(acc, self._lists(), _one_term(-inv_lead, -qa, -za), bound)
        # k -> [(i, z, component i of the -x coefficient)] for 0 < k < bound
        layers: dict = {}
        for i, d in enumerate(_gather(acc)):
            for (k, z), c in d.items():
                if k:  # the layer k = 0 is M's own
                    layers.setdefault(k, []).append((i, z, c))
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
        ys = ([], [], [], [])
        for e, ye in y.items():
            for part, d in zip(ys, ye):
                part.extend((e, z, c) for z, c in d.items())
        acc = ({}, {}, {}, {})
        _convolve(acc, ys, _one_term(inv_lead, -qa, -za), INF)
        return _series(_gather(acc), den, target)

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
        mism = [
            k
            for a, b in zip(self._at(den), other._at(den))
            for k in a.keys() | b.keys()
            if k[0] < hi and a.get(k) != b.get(k)
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
        comps, den = _reduced(self._comps, self.den)
        return hash((self.cutoff, den,
                     tuple(tuple(sorted(d.items())) for d in comps)))

    # -- rendering ----------------------------------------------------------

    def __repr__(self) -> str:
        n = len(set().union(*self._comps))
        return f"<Series {n} terms, cutoff {self.cutoff}>"
    def text(self) -> str:
        """Canonical human-readable form, terms ascending."""
        if self.is_zero_series():
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

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
:meth:`Series.monomials`, ``text``, ``json_obj`` and the inverse's leading
coefficient.

Exponents are stored as integers over one per-series denominator ``den``:
the key ``(q, z)`` stands for ``q^(q/den) * z^(z/den)``.  Every kernel
(sums, products, inverses, restriction, comparison) works on these ints;
two series are first aligned on the lcm of their ``den``s, which are
usually equal.  Fractions appear only at the boundary: the constructors
that take rational exponents, ``ord``, ``cutoff``, ``terms``,
:meth:`Series.monomials`, ``text`` and ``json_obj``.

Cutoffs propagate pessimistically:

* sum:      min of the cutoffs;
* product:  min(a.cutoff + ord(b), b.cutoff + ord(a));
* inverse:  cutoff - 2*ord.

Products have two kernels, chosen by the size rule ``_DENSE``: when both
operands hold at least ``_DENSE[0]`` component terms and the two counts
multiply to at least ``_DENSE[1]``, :func:`_packed_product`; otherwise
:func:`_convolve`, the truncated convolution of the component lists in
four accumulators, one multiply-add per term pair.  The packed kernel puts
each q-layer's z-polynomial into one int (Kronecker substitution; D.
Harvey, "Faster polynomial multiplication via multipoint Kronecker
substitution", J. Symb. Comput. 44, 2009), so one int product covers a
pair of layers.  Its values are cleared of denominators first, and a slot
is bitlen(S_x * S_y) + 1 bits wide, S the sum of an operand's |values|,
which no output coefficient can exceed.  A product by one monomial
(``times_monomial``, the inverse's scalings) shifts the keys and scales
the values (:func:`_shift`): component c_j of the coefficient moves
component i to i + j, and with one nonzero c_j the shifted lists stay
sorted, so the result keeps them.  Inverses use the reciprocal recurrence
over q-layers in one pass (Brent & Kung, "Fast algorithms for manipulating
formal power series", J. ACM 25, 1978), not a sum of powers, on the same
packed layers (:func:`_packed_reciprocal`); there each layer keeps one
residue class of slots, and the layers already unpacked bound the width
of the next one's.  The generators sum their eighth turns into
the accumulators (:func:`_add_turn`), and :func:`_gather` turns
accumulators into the dicts of a series.

A sum and a difference each take one pass over the two operands' dicts;
``a - b`` builds no negated copy of b.  :meth:`Series.reflected` is the
series at -z: every z-key negated, the den and cutoff kept.

``ord`` here means the smallest stored q-exponent, or the cutoff itself for
a series with no stored terms (all that is known of such a series is that
it vanishes below its cutoff).  Exactly known series (monomials, constants,
polynomial factors) carry ``cutoff = INF``.

Series are immutable values; all operations return new objects.  Equal
series compare and hash equal whatever their ``den``.
"""

from __future__ import annotations

from bisect import bisect_left
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


#: the size rule of the product kernels (see the module docstring): the
#: least component terms of each operand, and of the two counts' product,
#: for which packed layers beat one multiply-add per term pair
_DENSE = (10, 2000)


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


def _scaled(xl, c, sq, sz, hi):
    """``(q + sq, z + sz, x * c)`` for the ``(q, z, x)`` of a list that
    ascends in q, kept below ``hi``; an int x times p/q is ``x*p // q``
    when q divides it, a ``Fraction`` only otherwise."""
    if hi != INF:
        xl = xl[:bisect_left(xl, (hi - sq,))]
    if type(c) is int:
        return [(q + sq, z + sz, x * c if type(x) is int else _canon(x * c))
                for q, z, x in xl]
    p, d = c.numerator, c.denominator
    return [(q + sq, z + sz, (y // d if not (y := x * p) % d else rat(y, d))
             if type(x) is int else _canon(x * c)) for q, z, x in xl]


def _shift(xs, coeff, sq, sz, hi, den, cutoff) -> Series:
    """``coeff * q^sq z^sz`` times the series of the four ascending
    component lists ``xs``, below ``hi``: keys shifted, values scaled.
    Component c_j of ``coeff`` moves list i to component i + j, negated
    past w^4 = -1.  With one nonzero c_j the shifted lists stay sorted and
    are the new series' lists; otherwise the product is a convolution."""
    parts = [(j, c) for j, c in enumerate(coeff.c) if c]
    if len(parts) != 1:
        acc = ({}, {}, {}, {})
        _convolve(acc, [[(sq, sz, c)] if c else [] for c in coeff.c], xs, hi)
        return _series(_gather(acc), den, cutoff)
    ((j, c),) = parts
    lists: list = [None] * 4
    for i, xl in enumerate(xs):
        lists[(i + j) & 3] = _scaled(xl, -c if i + j >= 4 else c, sq, sz, hi)
    out = _series(tuple({(q, z): x for q, z, x in xl} for xl in lists),
                  den, cutoff)
    out._sorted = tuple(lists)
    return out


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


def _unpack(p, w):
    """``(slot, c)`` for the nonzero signed slots of ``p``, ascending: slot
    s holds c in bits [w*s, w*s + w), with |c| < 2^(w-1).  An empty slot
    jumps to the lowest set bit, so runs of them cost one step."""
    half, full = 1 << (w - 1), 1 << w
    mask = full - 1
    s = 0
    while p:
        c = p & mask
        if not c:
            k = ((p & -p).bit_length() - 1) // w
            p >>= k * w
            s += k
            c = p & mask
        p >>= w
        if c >= half:  # a negative slot borrowed one from the next
            c -= full
            p += 1
        yield s, c
        s += 1


def _packed_product(xs, ys, hi):
    """The component dicts of the product of two series, given as four
    ascending component lists of ``(q, z, c)`` each, below ``hi``, with
    each q-layer packed into one int (Kronecker substitution).

    Each operand's values are cleared of denominators (times d_x, d_y).
    The coefficient at z goes in slot (z - z0)/g of its layer, z0 the
    operand's least z and g the gcd of every z - z0 in both operands, and
    every slot is bitlen(S_x * S_y) + 1 bits wide, S the sum of the cleared
    |c|: no output coefficient exceeds S_x * S_y, so no slot overflows.
    One int product per pair of layers below ``hi`` then stands for all
    its term pairs, and the layers meeting at one q add up packed."""
    zx, zy = ({z for part in v for _, z, _ in part} for v in (xs, ys))
    zx0, zy0 = min(zx), min(zy)
    g = gcd(*(z - zx0 for z in zx), *(z - zy0 for z in zy)) or 1
    ops = []
    for v, z0 in ((xs, zx0), (ys, zy0)):
        d = lcm(*{c.denominator for part in v for _, _, c in part
                  if type(c) is not int})
        ops.append((v, z0, d, sum(
            abs(c) * d if type(c) is int
            else abs(c.numerator) * (d // c.denominator)
            for part in v for _, _, c in part)))
    (_, _, dx, sx), (_, _, dy, sy) = ops
    w = (sx * sy).bit_length() + 1
    packed = []
    for v, z0, d, _ in ops:
        comps = []
        for part in v:
            layers: dict = {}
            for q, z, c in part:
                c = (c * d if type(c) is int
                     else c.numerator * (d // c.denominator))
                layers[q] = layers.get(q, 0) + (c << w * ((z - z0) // g))
            comps.append(list(layers.items()))
        packed.append(comps)
    acc = ({}, {}, {}, {})
    for i, xl in enumerate(packed[0]):
        if not xl:
            continue
        for j, yl in enumerate(packed[1]):
            if not yl:
                continue
            t = acc[(i + j) & 3]
            neg = i + j >= 4  # w^4 = -1
            for qa, x in xl:
                if neg:
                    x = -x
                qmax = hi - qa
                for qb, y in yl:
                    if qb >= qmax:
                        break
                    t[qa + qb] = t.get(qa + qb, 0) + x * y
    d, z0 = dx * dy, zx0 + zy0
    return tuple({(q, z0 + g * s): c if d == 1 else
                  c // d if not c % d else rat(c, d)
                  for q, p in t.items() for s, c in _unpack(p, w)}
                 for t in acc)


def _pack(terms, w):
    """``[(i, int)]`` of ``(i, slot, c)`` terms: component i's values, slot
    s holding c in bits [w*s, w*s + w)."""
    acc = [0, 0, 0, 0]
    for i, s, c in terms:
        acc[i] += c << w * s
    return [(i, p) for i, p in enumerate(acc) if p]


def _packed_reciprocal(xs, bound):
    """The four ascending component lists of y = 1/(1 - x) below ``bound``,
    x given by its component dicts ``{(k, z): c}`` (keys at k = 0 are
    skipped), on packed q-layers.

    The layers obey y_0 = 1 and y_e = sum_{0<k<=e} x_k y_{e-k}; with
    n = e/step, step = gcd(k), every y_e is a sum of products of layers
    of x.  Slot positions: with a/b the least z/k over x, u = b*z - a*k
    is additive and >= 0.  The (n, u) of the terms span a lattice of
    determinant t, so layer n's u all lie in one class off_n mod t, and u
    goes in slot (u - off_n)/t of layer n's int; a product of layers whose
    offsets sum past t shifts up one slot.  Layer k of x is scaled by
    D^(k/step), D the lcm of its denominators, so that every layer is
    integral and y_e comes out scaled by D^(e/step).  Slot width: every
    coefficient of y_e is at most sum_k |x_k|_1 * max|y_{e-k}|, from the
    layers already unpacked, and the slots widen (every layer repacked)
    when that bound outgrows them.
    """
    ys = ([], [], [], [])
    if bound <= 0:
        return ys
    xt = [(i, k, z, c) for i, d in enumerate(xs) for (k, z), c in d.items()
          if k]
    if not xt:
        ys[0].append((0, 0, 1))
        return ys
    step = gcd(*(k for _, k, _, _ in xt))
    a, b = xt[0][2], xt[0][1]
    for _, k, z, _ in xt:
        if z * b < a * k:
            a, b = z, k
    g = gcd(a, b)
    a, b = a // g, b // g
    pts = {(k // step, b * z - a * k) for _, k, z, _ in xt}
    t = gcd(*(n1 * u2 - n2 * u1 for n1, u1 in pts for n2, u2 in pts)) or 1
    dd = lcm(*{c.denominator for *_, c in xt if type(c) is not int})
    # layer n of x -> (offset, [(i, slot, component i scaled to an int)])
    cleared: dict = {}
    for i, k, z, c in xt:
        n, u = k // step, b * z - a * k
        if dd != 1:
            s = dd ** n
            c = c * s if type(c) is int else c.numerator * (s // c.denominator)
        cleared.setdefault(n, (u % t, []))[1].append((i, u // t, c))
    top = (bound - 1) // step  # every layer of x has n <= top
    layers = sorted(cleared.items())
    sizes = [(m, sum(abs(c) for *_, c in xn)) for m, (_, xn) in layers]
    vals = [[(0, 0, 1)]]  # n -> [(component, slot, c)] of y_{n*step}
    off, peak = [0], [1]  # n -> offset, max |c| of vals[n]
    w = 2
    y = [[(0, 1)]]  # vals packed
    xp = [(m, o, _pack(xn, w)) for m, (o, xn) in layers]
    for n in range(1, top + 1):
        lim = sum(s * peak[n - m] for m, s in sizes if m <= n)
        if lim >> (w - 1):  # widen, leaving room to grow
            w = lim.bit_length() + 9
            xp = [(m, o, _pack(xn, w)) for m, (o, xn) in layers]
            y = [_pack(v, w) for v in vals]
        acc = [0, 0, 0, 0]
        on = None
        for m, om, xm in xp:
            if m > n:
                break
            if not y[n - m]:
                continue
            o = om + off[n - m]
            if on is None:
                on = o % t
            sh = w if o - on else 0
            for j, py in y[n - m]:
                for i, px in xm:
                    if i + j < 4:
                        acc[i + j] += px * py << sh
                    else:  # w^4 = -1
                        acc[i + j - 4] -= px * py << sh
        off.append(on)
        y.append([(i, p) for i, p in enumerate(acc) if p])
        vals.append([(i, s, c) for i, p in y[-1] for s, c in _unpack(p, w)])
        peak.append(max((abs(c) for *_, c in vals[-1]), default=0))
    for n, vn in enumerate(vals):
        e, div = n * step, dd ** n
        for j, s, c in vn:
            u = off[n] + t * s
            ys[j].append((e, (u + a * e) // b, c if div == 1 else
                          c // div if not c % div else rat(c, div)))
    return ys


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
        return self._plus(other, False)

    def __sub__(self, other: Series) -> Series:
        return self._plus(other, True)

    def _plus(self, other: Series, negate) -> Series:
        """``self + other``, or ``self - other`` when ``negate``, in one
        pass."""
        cut = min(self.cutoff, other.cutoff)
        den = lcm(self.den, other.den)
        hi = _grid_bound(cut, den)
        comps = []
        for a, b in zip(self._at(den), other._at(den)):
            out = {k: v for k, v in a.items() if k[0] < hi}
            for k, v in b.items():
                if k[0] >= hi:
                    continue
                if negate:
                    v = -v
                cur = out.get(k)
                if cur is None:
                    out[k] = v
                elif s := cur + v:
                    out[k] = s if type(s) is int else _canon(s)
                else:
                    del out[k]
            comps.append(out)
        return _series(tuple(comps), den, cut)

    def __neg__(self) -> Series:
        comps = tuple({k: -v for k, v in d.items()} for d in self._comps)
        return _series(comps, self.den, self.cutoff)

    def reflected(self) -> Series:
        """The series at -z: every z-key negated, the den and cutoff kept."""
        comps = tuple({(q, -z): v for (q, z), v in d.items()}
                      for d in self._comps)
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
        xs, ys = self._lists_at(den), other._lists_at(den)
        nx, ny = sum(map(len, xs)), sum(map(len, ys))
        if min(nx, ny) >= _DENSE[0] and nx * ny >= _DENSE[1]:
            return _series(_packed_product(xs, ys, hi), den, bound)
        acc = ({}, {}, {}, {})
        _convolve(acc, xs, ys, hi)
        return _series(_gather(acc), den, bound)

    def times_monomial(self, coeff: CycloNum, dq=R0, dz=R0) -> Series:
        """Multiply by an exact monomial (shifts exponents, scales trust):
        the keys shift, the values scale (:func:`_shift`)."""
        if not coeff:
            return Series.zero(INF)
        if not dq and not dz and coeff == cyclo.ONE:
            return self
        dq = rat(dq)
        dz = rat(dz)
        den = lcm(self.den, dq.denominator, dz.denominator)
        sq = dq.numerator * (den // dq.denominator)
        sz = dz.numerator * (den // dz.denominator)
        return _shift(self._lists_at(den), coeff, sq, sz, INF, den,
                      self.cutoff + dq)

    def inverse(self, order=None) -> Series:
        """Multiplicative inverse up to the propagated trusted order.

        Requires the lowest q-layer to consist of exactly one monomial.  An
        exactly known series (``cutoff = INF``) needs an explicit ``order``.

        With self = M (1 + x), M the leading monomial, the layers of
        y = 1/(1 + x) follow from the reciprocal recurrence (Brent & Kung,
        J. ACM 25, 1978): y_0 = 1 and y_e = -sum_{0<k<=e} x_k y_{e-k}, each
        x_k and y_e a Laurent polynomial in z, each packed into ints
        (:func:`_packed_reciprocal`).  The result is M^{-1} y.  -x and the
        result are each a shift by -M^{-1} or M^{-1} (:func:`_shift`).
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
        ytop = target + rat(qa, den)
        bound = _grid_bound(ytop, den)
        mx = _shift(self._lists(), -inv_lead, -qa, -za, bound, den, ytop)
        ys = _packed_reciprocal(mx._comps, bound)
        return _shift(ys, inv_lead, -qa, -za, INF, den, target)

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

"""Sparse exact bivariate Laurent-Puiseux series, truncated in q.

A :class:`Series` stores finitely many monomials ``c * q^a * z^b`` (``z``
denotes the elliptic variable zeta = e^{2*pi*i*z}) with exact rational
exponents and Q(zeta_8) coefficients, together with ``cutoff``: the
exclusive q-exponent bound below which the stored terms are certified to
agree with the (usually infinite) series being represented.

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

Series are immutable values; all operations return new objects.
"""

from __future__ import annotations

import heapq

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


class Series:
    __slots__ = ("terms", "cutoff", "_sorted")

    def __init__(self, terms=None, cutoff=INF, _normalized=False):
        if terms is None:
            terms = {}
        if not _normalized:
            terms = {
                k: v
                for k, v in terms.items()
                if k[0] < cutoff and not v.is_zero()
            }
        self.terms = terms
        self.cutoff = cutoff
        self._sorted = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(cutoff=INF) -> Series:
        return Series({}, cutoff, _normalized=True)

    @staticmethod
    def monomial(coeff: CycloNum, qexp=R0, zexp=R0, cutoff=INF) -> Series:
        if coeff.is_zero() or qexp >= cutoff:
            return Series.zero(cutoff)
        return Series({(rat(qexp), rat(zexp)): coeff}, cutoff, _normalized=True)

    @staticmethod
    def one(cutoff=INF) -> Series:
        return Series.monomial(cyclo.ONE, cutoff=cutoff)

    # -- structure ---------------------------------------------------------

    def sorted_items(self):
        if self._sorted is None:
            self._sorted = sorted(self.terms.items())
        return self._sorted

    @property
    def ord(self):
        """Smallest trusted q-exponent (the cutoff itself if no terms)."""
        if not self.terms:
            return self.cutoff
        return min(q for q, _ in self.terms)

    def is_zero_series(self) -> bool:
        return not self.terms

    def is_zfree(self) -> bool:
        return all(z == 0 for _, z in self.terms)

    def leading_layer(self):
        """All (qexp, zexp) -> coeff at the minimal stored q-exponent."""
        if not self.terms:
            return {}
        o = self.ord
        return {k: v for k, v in self.terms.items() if k[0] == o}

    def restrict(self, order) -> Series:
        """Drop terms at or above ``order`` and lower the cutoff to it."""
        if order > self.cutoff:
            raise InsufficientOrderError(
                f"cannot restrict to order {order}: trusted only below "
                f"{self.cutoff}",
                max_order=self.cutoff,
            )
        return Series(
            {k: v for k, v in self.terms.items() if k[0] < order},
            order,
            _normalized=True,
        )

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: Series) -> Series:
        cut = min(self.cutoff, other.cutoff)
        out = {k: v for k, v in self.terms.items() if k[0] < cut}
        for k, v in other.terms.items():
            if k[0] >= cut:
                continue
            cur = out.get(k)
            s = v if cur is None else cur + v
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return Series(out, cut, _normalized=True)

    def __sub__(self, other: Series) -> Series:
        return self + (-other)

    def __neg__(self) -> Series:
        return Series(
            {k: -v for k, v in self.terms.items()}, self.cutoff, _normalized=True
        )

    def __mul__(self, other: Series) -> Series:
        cut = min(self.cutoff + other.ord, other.cutoff + self.ord)
        return self._mul_trunc(other, cut)

    def _mul_trunc(self, other: Series, bound) -> Series:
        """Convolution keeping q-exponents below ``bound``.

        The caller is responsible for ``bound`` not exceeding the trusted
        range; ``__mul__`` passes the propagated cutoff.
        """
        if not self.terms or not other.terms:
            return Series.zero(bound)
        out: dict = {}
        bi = other.sorted_items()
        for (qa, za), ca in self.sorted_items():
            qmax = bound - qa
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
        return Series(out, bound, _normalized=True)

    def times_monomial(self, coeff: CycloNum, dq=R0, dz=R0) -> Series:
        """Multiply by an exact monomial (shifts exponents, scales trust)."""
        if coeff.is_zero():
            return Series.zero(INF)
        dq = rat(dq)
        dz = rat(dz)
        out = {(q + dq, z + dz): coeff * v for (q, z), v in self.terms.items()}
        return Series(out, self.cutoff + dq, _normalized=True)

    def scale_args(self, cq, cz) -> Series:
        """Exponent rescaling (q, z) -> (cq*q, cz*z); models tau -> cq*tau,
        z -> cz*z.  Requires cq > 0."""
        cq = rat(cq)
        cz = rat(cz)
        if cq <= 0:
            raise ValueError("q-scale must be positive")
        out = {(cq * q, cz * z): v for (q, z), v in self.terms.items()}
        if len(out) != len(self.terms):  # cz == 0 can merge monomials
            out = {}
            for (q, z), v in self.terms.items():
                k = (cq * q, cz * z)
                cur = out.get(k)
                s = v if cur is None else cur + v
                if s.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = s
        return Series(out, cq * self.cutoff, _normalized=True)

    def inverse(self, order=None) -> Series:
        """Multiplicative inverse up to the propagated trusted order.

        Requires the lowest q-layer to consist of exactly one monomial.  An
        exactly known series (``cutoff = INF``) needs an explicit ``order``.

        With self = M (1 + x), M the leading monomial, the layers of
        y = 1/(1 + x) follow from the reciprocal recurrence (Brent & Kung,
        J. ACM 25, 1978): y_0 = 1 and y_e = -sum_{0<k<=e} x_k y_{e-k}, each
        x_k and y_e a Laurent polynomial in z.  The result is M^{-1} y.
        """
        if not self.terms:
            raise NonUnitLeadingError("cannot invert a series with no terms")
        lead = self.leading_layer()
        if len(lead) != 1:
            raise NonUnitLeadingError(
                "non-unit leading coefficient: lowest q-layer has "
                f"{len(lead)} monomials"
            )
        ((qa, za), ca) = next(iter(lead.items()))
        if self.cutoff == INF:
            if order is None:
                raise ValueError(
                    "inverse of an exactly known series needs an explicit order"
                )
            target = rat(order)
        else:
            target = self.cutoff - 2 * qa
            if order is not None and rat(order) < target:
                target = rat(order)
        inv_lead = ca.inverse()
        bound = target + qa  # bound for y, before the shift by M^{-1}
        minus_inv_lead = -inv_lead
        layers: dict = {}  # k -> {z: -x coefficient} for 0 < k < bound
        for (q, z), v in self.terms.items():
            k = q - qa
            if 0 < k < bound:
                layers.setdefault(k, {})[z - za] = minus_inv_lead * v
        steps = sorted(layers.items())
        y: dict = {}
        # only sums of x's exponents can carry a term; visit them in order
        heap = [R0] if bound > 0 else []
        seen = set(heap)
        while heap:
            e = heapq.heappop(heap)
            ye = {} if e else {R0: cyclo.ONE}
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
        return Series(out, target, _normalized=True)

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
        keys = set(self.terms) | set(other.terms)
        mism = [
            k
            for k in keys
            if k[0] < order and self.terms.get(k) != other.terms.get(k)
        ]
        if not mism:
            return True, None
        return False, min(mism)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Series)
            and self.cutoff == other.cutoff
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.cutoff, tuple(self.sorted_items())))

    # -- rendering ----------------------------------------------------------

    def __repr__(self) -> str:
        n = len(self.terms)
        return f"<Series {n} terms, cutoff {self.cutoff}>"

    def text(self) -> str:
        """Canonical human-readable form, terms ascending."""
        if not self.terms:
            return "0"
        parts = []
        for (q, z), c in self.sorted_items():
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
                for (q, z), c in self.sorted_items()
            ],
            "cutoff": "inf" if self.cutoff == INF else rat_str(self.cutoff),
        }

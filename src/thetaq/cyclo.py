"""Exact arithmetic in Q(zeta_8).

The coefficient field for the whole package: numbers c0 + c1*w + c2*w^2 +
c3*w^3 with rational c_i and w a fixed primitive 8th root of unity, reduced
by w^4 = -1.  Every root-of-unity phase that occurs in the supported
formulas (quarter turns, eighth turns, alternating signs) lives here; the
:func:`phase` encoder refuses anything finer rather than approximating.

Components are kept in a canonical form: a Python ``int`` when integral,
a ``Fraction`` only when its denominator exceeds 1 (inverses of non-units,
elimination pivots, the 1/2 prefactors).  Most coefficients are small
integers, so arithmetic on them stays in ``int``.  A
:class:`thetaq.series.Series` stores its coefficients in the same form, one
rational dict per component, and builds a ``CycloNum`` only when a term
leaves it.  An ``int`` and a ``Fraction`` of equal value compare, hash and
print alike, so the form never shows in a value.

Values are immutable; ``ZERO``, ``ONE``, ``I`` and the eight units returned
by :func:`phase` are shared singletons.
"""

from __future__ import annotations

from ._rational import R0, R1, rat


def _canon(x):
    """An integral rational as an ``int``; any other rational unchanged."""
    return x.numerator if x.denominator == 1 else x


class PhaseError(ValueError):
    """A requested root of unity does not lie in Q(zeta_8)."""


class CycloNum:
    __slots__ = ("c",)

    def __init__(self, c0=R0, c1=R0, c2=R0, c3=R0):
        self.c = tuple(_canon(rat(x)) for x in (c0, c1, c2, c3))

    @staticmethod
    def _raw(c0, c1, c2, c3) -> CycloNum:
        # hot-path constructor: components are ints or Fractions; integral
        # Fractions are turned into ints to keep the canonical form
        self = CycloNum.__new__(CycloNum)
        if int is type(c0) is type(c1) is type(c2) is type(c3):
            self.c = (c0, c1, c2, c3)
        else:
            self.c = (_canon(c0), _canon(c1), _canon(c2), _canon(c3))
        return self

    # -- predicates ------------------------------------------------------

    def __bool__(self) -> bool:
        return any(self.c)

    def is_rational(self) -> bool:
        a = self.c
        return not (a[1] or a[2] or a[3])

    # -- ring structure --------------------------------------------------

    def __add__(self, other: CycloNum) -> CycloNum:
        a, b = self.c, other.c
        return CycloNum._raw(a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])

    def __sub__(self, other: CycloNum) -> CycloNum:
        a, b = self.c, other.c
        return CycloNum._raw(a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])

    def __neg__(self) -> CycloNum:
        a = self.c
        return CycloNum._raw(-a[0], -a[1], -a[2], -a[3])

    def __mul__(self, other: CycloNum) -> CycloNum:
        a0, a1, a2, a3 = self.c
        b0, b1, b2, b3 = other.c
        return CycloNum._raw(
            a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
            a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
            a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
            a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
        )

    def conj_pow(self, k: int) -> CycloNum:
        """Galois image under w -> w^k for odd k (1, 3, 5, 7)."""
        a = self.c
        out = [R0, R0, R0, R0]
        out[0] = a[0]
        for i in (1, 2, 3):
            e = (i * k) % 8
            if e >= 4:
                out[e - 4] = out[e - 4] - a[i]
            else:
                out[e] = out[e] + a[i]
        return CycloNum(*out)

    def inverse(self) -> CycloNum:
        k = _UNIT_TURNS.get(self.c)
        if k is not None:  # a unit w^k: its inverse is w^-k
            return _EIGHTH_TURNS[-k % 8]
        return self._norm_inverse()

    def _norm_inverse(self) -> CycloNum:
        """The inverse through the field norm, for any nonzero number."""
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(zeta_8)")
        if self.is_rational():
            return CycloNum(R1 / self.c[0])
        # product of the three nontrivial Galois conjugates; a * b is the
        # field norm, a rational number
        b = self.conj_pow(3) * self.conj_pow(5) * self.conj_pow(7)
        n = self * b
        assert n.is_rational() and n.c[0]
        return CycloNum(R1 / n.c[0]) * b

    # -- comparison / rendering ------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, CycloNum) and self.c == other.c

    def __hash__(self) -> int:
        return hash(self.c)

    def __repr__(self) -> str:
        return f"CycloNum{self.c}"

    def __str__(self) -> str:
        if not self:
            return "0"
        parts = []
        for i, (coef, sym) in enumerate(zip(self.c, ("", "w", "w^2", "w^3"))):
            if not coef:
                continue
            mag = -coef if coef < 0 else coef
            if sym and mag == 1:
                body = sym
            elif sym:
                body = f"{mag}*{sym}"
            else:
                body = str(mag)
            if not parts:
                parts.append(body if coef > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coef > 0 else f"- {body}")
        return " ".join(parts)

    def json_list(self) -> list[str]:
        return [str(x) for x in self.c]


ZERO = CycloNum()
ONE = CycloNum(R1)
I = CycloNum(R0, R0, R1)
MINUS_ONE = CycloNum(-R1)

# e^{2*pi*i*k/8} for k = 0..7
_EIGHTH_TURNS = (
    ONE,
    CycloNum(R0, R1),
    I,
    CycloNum(R0, R0, R0, R1),
    MINUS_ONE,
    CycloNum(R0, -R1),
    CycloNum(R0, R0, -R1),
    CycloNum(R0, R0, R0, -R1),
)

_UNIT_TURNS = {u.c: k for k, u in enumerate(_EIGHTH_TURNS)}


def phase(r) -> CycloNum:
    """e^{2*pi*i*r} as a CycloNum; requires 8r to be an integer."""
    r = rat(r)
    k = 8 * r
    if k.denominator != 1:
        raise PhaseError(f"phase outside Q(zeta_8): e^(2*pi*i*{r})")
    return _EIGHTH_TURNS[int(k) % 8]


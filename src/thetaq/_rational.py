"""Exact rationals.

Inside a :class:`thetaq.series.Series` the exponents are ints over one
per-series denominator; every exponent that crosses the package's API (an
argument, ``ord``, a cutoff, a witness, a printed term) is a
``fractions.Fraction`` built through :func:`rat`.  A coefficient component,
stored in a series' component dicts or in a :class:`thetaq.cyclo.CycloNum`,
is a Python ``int`` when integral and a ``Fraction`` otherwise.  ``rat``
itself always returns a ``Fraction``, so an expression such as
``j / (2*m)`` stays exact.  ``BACKEND`` names the rational type; the CLI's
JSON report and the benchmark record it.
"""

from __future__ import annotations

from fractions import Fraction

BACKEND = "fraction"

rat = Fraction

R0 = rat(0)
R1 = rat(1)

#: sentinel trusted-order bound for exactly known series
INF = float("inf")


def rat_from_str(text: str):
    """Parse "p/q" or "p" into a rational (used by CLI/JSON loaders)."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return rat(int(num), int(den))
    return rat(int(text))


def rat_str(x) -> str:
    """Canonical "p/q" (or "p") rendering."""
    return str(x)

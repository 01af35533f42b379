"""Exact rationals.

Every exponent and every coefficient component in the package is a
``fractions.Fraction`` built through :func:`rat`.  ``BACKEND`` names the
type; the CLI's JSON report and the benchmark record it.
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

"""Write ``golden_digests.json``: sha256 digests of a few hundred exact builds.

    PYTHONPATH=src python3 tests/make_golden_digests.py

Each digest is taken over ``json_obj()`` (sorted keys, compact separators)
of one build named in :func:`builds`.  The file is generated once from a
trusted commit and compared by ``test_golden_digests`` in
``tests/test_numerators.py``; regenerating it from the code under test
would make that comparison empty.  The builds use only the public API, and
include exponent denominators (3, 5, 7) that the identity registry never
produces.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from thetaq import cyclo
from thetaq._rational import rat
from thetaq.cli import branch_product
from thetaq.cyclo import CycloNum
from thetaq.linsolve import decompose
from thetaq.numerators import (
    SUPPORTED_CHARACTERS,
    _half_divisor_degenerate,
    character,
    derived_denominator,
    numerator,
    numerator_half,
    numerator_int,
    ratio_pair,
    theta_inv_half,
    u_basis,
)
from thetaq.series import Series
from thetaq.thetalib import eta, mumford, theta, theta_pm

from conftest import scale_args

PATH = Path(__file__).resolve().parent / "golden_digests.json"

#: the random series below draw their exponent denominators from here
DENOMINATORS = (1, 2, 3, 4, 5, 7)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _random_series(rng, nterms, cutoff):
    terms = {}
    qden = rng.choice(DENOMINATORS)  # one per series keeps inverses small
    lead = (rat(rng.randint(-1, 0), rng.choice(DENOMINATORS)),
            rat(rng.randint(-3, 3), rng.choice(DENOMINATORS)))
    terms[lead] = CycloNum(*(rat(rng.randint(-3, 3), rng.randint(1, 3))
                             for _ in range(4)))
    if not terms[lead]:
        terms[lead] = cyclo.ONE
    for _ in range(nterms):
        q = lead[0] + rat(rng.randint(1, 2 * qden), qden)
        z = rat(rng.randint(-6, 6), rng.choice(DENOMINATORS))
        terms[(q, z)] = CycloNum(*(rat(rng.randint(-4, 4), rng.randint(1, 4))
                                   for _ in range(4)))
    return Series(terms, rat(cutoff))


def builds():
    """name -> zero-argument function returning a JSON-ready object."""
    out = {}

    def add(name, fn):
        out[name] = fn

    def series(fn):
        return lambda: fn().json_obj()

    def family(fn):
        return lambda: [s.json_obj() for s in fn()]

    for k in (rat(6), rat(13, 2)):
        for j in (rat(-1, 2), rat(1, 2)):
            add(f"theta_inv_half({j},{k})", series(lambda j=j, k=k: theta_inv_half(j, k)))
        add(f"theta_jm(0,1).inverse({k})",
            series(lambda k=k: theta(0, 1, k + 1).inverse(order=k)))
        add(f"mumford(01).inverse({k})",
            series(lambda k=k: mumford("01", k + 1).inverse(order=k)))
        add(f"theta_pm(-1,0,1).inverse({k})",
            series(lambda k=k: theta_pm(-1, 0, 1, k + 1).inverse(order=k)))
        for c in (rat(1, 2), rat(1), rat(2)):
            for e in (-3, -1, 1, 3):
                add(f"eta({c},{e},{k})", series(lambda c=c, e=e, k=k: eta(c, e, k)))
        for lbl in SUPPORTED_CHARACTERS:
            add(f"character({lbl[0]},{lbl[1]},{k})",
                series(lambda lbl=lbl, k=k: character(*lbl, k)))
        add(f"derived_denominator({k})", series(lambda k=k: derived_denominator(k)))
    for m in range(1, 6):
        for p in range(3):
            if not _half_divisor_degenerate(m, p):
                add(f"numerator_half({m},{p},6)",
                    series(lambda m=m, p=p: numerator_half(m, p, 6)))
    for m in (1, 3, 5):
        for p in range(2):
            add(f"numerator_int({m},{p},6)",
                series(lambda m=m, p=p: numerator_int(m, p, 6)))
    for m in range(1, 5):
        for sector in ("half", "integer"):
            add(f"u_basis({m},{sector},6)",
                family(lambda m=m, sector=sector: u_basis(m, sector, 6)))
    add("ratio_pair(1/2,3,6)", series(lambda: ratio_pair(rat(1, 2), 3, 6)))
    for left, right in (((1, 0), (1, 1)), ((1, 1), (1, 1)), ((2, 0), (2, 1))):
        add(f"branch({left},{right},6)",
            lambda left=left, right=right: branch_product(left, right, 6)[1].json_obj())

    # exponent denominators outside the registry's
    add("theta(1,2,qscale=3/7,9)",
        series(lambda: theta(1, 2, 9, qscale=rat(3, 7))))
    add("theta(1/2,1,zcoeff=1/3,9)",
        series(lambda: theta(rat(1, 2), 1, 9, zcoeff=rat(1, 3))))
    add("theta(1,3,qscale=2/5,zcoeff=3/7,tshift=1/5,cshift=1/4,9)",
        series(lambda: theta(1, 3, 9, rat(2, 5), rat(3, 7), rat(1, 5), rat(1, 4))))
    add("numerator(7,1/2,6)", series(lambda: numerator(7, rat(1, 2), 6)))
    add("eta(2/5,-1,6)", series(lambda: eta(rat(2, 5), -1, 6)))
    add("theta(3/7)*theta_jm(1,1)+eta(1/5,1),6",
        series(lambda: theta(1, 2, 7, qscale=rat(3, 7))
               * theta(1, 1, 7) + eta(rat(1, 5), 1, 6)))
    add("numerator_half(2,0,6).scale_args(3/7,1/3)",
        series(lambda: scale_args(numerator_half(2, 0, 6), rat(3, 7), rat(1, 3))))
    add("decompose(theta(zcoeff=1/3) products)", lambda: decompose(
        theta(0, 1, 8, zcoeff=rat(1, 3))
        * eta(rat(1, 5), 1, 8).restrict(8),
        [theta(0, 1, 8, zcoeff=rat(1, 3)),
         theta(1, 1, 8, zcoeff=rat(1, 3))], 6).json_obj())

    rng = random.Random(20261018)
    for i in range(120):
        s = _random_series(rng, rng.randint(1, 6), rng.randint(2, 3))
        d = rng.choice(DENOMINATORS)
        order = rat(rng.randint(2 * d, 3 * d), d) if i % 2 else None
        add(f"random_inverse[{i}]",
            series(lambda s=s, order=order: s.inverse(order=order)))
        other = _random_series(rng, rng.randint(0, 6), rng.randint(1, 5))
        add(f"random_product[{i}]", series(lambda s=s, o=other: s * o + o))
    return out


def main():
    digests = {name: digest(fn()) for name, fn in builds().items()}
    PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()

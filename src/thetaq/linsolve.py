"""Exact decomposition of a series over a basis with z-free coefficients.

This is the computational meaning of every span / membership / branching
statement in the package: ``decompose`` searches for z-free series c_i with
``target = sum c_i * basis_i`` below a requested order, by exact Gaussian
elimination over Q(zeta_8) on the monomial-matching linear system, or over
Q when the system is in real form (below).

Unknown supports: for each basis element, candidate q-exponents start from
all differences (target q-exponent) - (basis q-exponent) taken at matching
z-exponents, and are closed under cross-cancellation differences between
basis elements until a fixpoint, inside the window
``[min interacting ord - 1,  order - ord(basis_i))``.  The window floor is
a fixed one-unit pad, so results are deterministic; soundness never depends
on it because the candidate solution is always re-multiplied and the
residual checked term by term.  The search and the linear system work on
integer exponents over one denominator shared by the target and the basis
(:func:`thetaq.series.align`).

Closed rows: rows are reduced in ascending monomial order, each by the
pivots in ascending column order.  A pivot is *closed* once every other
column of its normalized row is a closed pivot.  A row made only of closed
pivots is skipped uncopied, and that is exact: reducing it by its least
column leaves only larger closed pivots, so by induction it reduces to the
empty row, which yields no pivot and whose right side is dropped (the
re-multiplication judges consistency).  Pivots, free columns and values are
those of a full reduction.  The re-multiplication subtracts every
coefficient times its basis element from the target in one accumulator
below the order, term by term.

Real form: when the target and every basis element each store at most one
nonempty component dict (see :mod:`thetaq.series`), each is one unit w^k
times a series with rational coefficients (k its component, 0 for a
series without terms).  The entries are then read from that one dict, the
rational components c[k_i] and the right side c[k_t], so the elimination
runs on ints (Fractions only under a pivot other than +-1).  This scales
column i by the unit w^-k_i and the right side by w^-k_t, which moves no
entry's zero pattern: the pivots, skipped rows and free columns are those
of the Q(zeta_8) system, the unknown of column (i, e) is
c_i * w^(k_i - k_t), and a solved value x maps back to x * w^(k_t - k_i).
Any other system keeps ``CycloNum`` entries (:func:`thetaq.series.align`);
both run the same loop.  The re-multiplication uses the original series
either way.
"""

from __future__ import annotations

import heapq
import operator
from bisect import bisect_left
from math import lcm

from ._rational import rat, rat_str
from .cyclo import CycloNum, _canon
from .series import (InsufficientOrderError, Series, _convolve, _gather,
                     _grid_bound, _series, align)


class Decomposition:
    """Outcome of :func:`decompose`.

    ``status`` is "exact" (zero residual, basis independent below the
    order), "not-in-span" (nonzero residual; ``witness`` is its smallest
    monomial) or "under-determined" (zero residual, but the basis is
    dependent, so the coefficients are not unique).  Only "exact" counts as
    membership: an under-determined result is *not* a member.
    """

    def __init__(self, coefficients, residual, status, certified_order, witness):
        self.coefficients = coefficients
        self.residual = residual
        self.status = status  # exact | not-in-span | under-determined
        self.certified_order = certified_order
        self.witness = witness

    def json_obj(self):
        return {
            "status": self.status,
            "certified_order": rat_str(self.certified_order),
            "witness": None
            if self.witness is None
            else [rat_str(self.witness[0]), rat_str(self.witness[1])],
            "coefficients": [c.json_obj() for c in self.coefficients],
            "residual": self.residual.json_obj(),
        }


def _zmap(row):
    out: dict = {}
    for q, z, _ in row:
        out.setdefault(z, []).append(q)
    return out


def _supports(target_row, basis_rows, hi, den):
    """Candidate coefficient q-exponents per basis element (see module doc).

    The rows and the window top ``hi`` are :func:`thetaq.series.align`
    output, so every exponent is an int over ``den``.  A basis element
    without terms gets no candidates, and a target without terms below
    ``hi`` gives none at all.
    """
    seeds = [(q, z) for q, z, _ in target_row if q < hi]
    if not seeds:
        return [[] for _ in basis_rows]
    zmaps = [_zmap(r) for r in basis_rows]
    sets: list[set] = [set() for _ in basis_rows]
    ords = [r[0][0] if r else None for r in basis_rows]
    his = [None if o is None else hi - o for o in ords]
    floor = min([target_row[0][0]] + [o for o in ords if o is not None]) - den
    work: list[tuple[int, int]] = []

    def grow(i, es):
        new = es - sets[i]
        sets[i] |= new
        work.extend((i, e) for e in new)

    for i, zm in enumerate(zmaps):
        if zm:
            lo, top = floor - ords[i], his[i]
            grow(i, {e for qt, zt in seeds for qs in zm.get(zt, ())
                     if lo <= (e := qt - qs) < top})

    # cross-cancellation differences between basis elements at equal zexp
    diffs: dict = {}

    def diff_set(i, j):
        key = (i, j)
        got = diffs.get(key)
        if got is not None:
            return got
        d = set()
        zi, zj = zmaps[i], zmaps[j]
        for z, qs_i in zi.items():
            qs_j = zj.get(z)
            if not qs_j:
                continue
            for a in qs_i:
                for b in qs_j:
                    d.add(a - b)
        got = sorted(d)
        diffs[key] = got
        return got

    nb = len(basis_rows)
    while work:
        i, e = work.pop()
        for j in range(nb):
            ds = diff_set(i, j)
            if not ds:
                continue
            # only the differences that land in basis j's window
            lo = bisect_left(ds, floor - ords[j] - e)
            grow(j, {e + d for d in ds[lo:bisect_left(ds, his[j] - e, lo)]})
    return [sorted(s) for s in sets]


# a pivot of 1 or -1 keeps or negates its row
_UNIT_PIVOTS = {1: lambda v: v, -1: operator.neg}


def _divider(p):
    """The map v -> v / p over a pivot row, decided once per pivot: a
    ``CycloNum`` times its inverse, a rational other than +-1 in ``rat``,
    kept an int where it is one."""
    if type(p) is CycloNum:
        return p.inverse().__mul__
    return _UNIT_PIVOTS.get(p) or (lambda v: _canon(rat(v, p)))


def decompose(target: Series, basis: list[Series], order) -> Decomposition:
    """Express ``target`` over ``basis`` with z-free series coefficients.

    Exactness is certified by re-multiplying the solution and checking the
    residual below the certified order; raises InsufficientOrderError when
    the inputs cannot certify the requested order.
    """
    if not basis:
        raise ValueError("basis must be nonempty")
    order = rat(order)
    if order > target.cutoff:
        raise InsufficientOrderError(
            "target trusted only below "
            f"{target.cutoff}, requested {order}",
            max_order=target.cutoff,
        )
    for b in basis:
        if order > b.cutoff:
            raise InsufficientOrderError(
                f"basis element trusted only below {b.cutoff}, "
                f"requested {order}",
                max_order=b.cutoff,
            )

    series = [target] + basis
    # in real form the entries are the rational components (module doc)
    ks = [[k for k, d in enumerate(s._comps) if d] for s in series]
    real = all(len(k) <= 1 for k in ks)
    if real:
        ks = [k[0] if k else 0 for k in ks]
        den = lcm(*(s.den for s in series))
        hi = _grid_bound(order, den)
        grid = [s._lists_at(den)[k] for s, k in zip(series, ks)]
    else:
        den, hi, grid = align(series, order)
    brows = grid[1:]
    supports = _supports(grid[0], brows, hi, den)
    cols = [(i, e) for i, es in enumerate(supports) for e in es]
    col_index = {c: k for k, c in enumerate(cols)}

    rows: dict = {}
    for (i, e) in cols:
        ci = col_index[(i, e)]
        for q, z, coeff in brows[i]:
            qq = e + q
            if qq >= hi:
                break
            # the keys (e + q, z) of one column are distinct
            rows.setdefault((qq, z), {})[ci] = coeff
    rhs: dict = {}
    for q, z, coeff in grid[0]:
        if q >= hi:
            break
        rhs[(q, z)] = coeff
        rows.setdefault((q, z), {})

    # forward elimination, rows in ascending monomial order; a pivot row
    # holds only columns >= its pivot column, so reducing by the pivots in
    # ascending column order visits each column once.  A row of closed
    # pivots is skipped untouched (see the module doc).
    pivots: dict = {}  # col -> (rowdict, rhsval), in creation order
    closed: set = set()
    waiting: dict = {}  # open col -> pivots whose rows hold it
    still_open: dict = {}  # pivot -> its row's columns not yet closed
    for key in sorted(rows):
        if closed.issuperset(rows[key]):
            continue  # reduces to the empty row
        row = dict(rows[key])
        rv = rhs.get(key)
        todo = [c for c in row if c in pivots]
        heapq.heapify(todo)
        while todo:
            c = heapq.heappop(todo)
            factor = row.pop(c, None)
            if factor is None:  # cancelled since, or queued twice
                continue
            prow, prv = pivots[c]
            for cc, coeff in prow.items():
                if cc == c:
                    continue
                p = factor * coeff
                cur = row.get(cc)
                if cur is None:
                    row[cc] = -p
                    if cc in pivots:
                        heapq.heappush(todo, cc)
                elif not (s := cur - p):
                    del row[cc]
                else:
                    row[cc] = s
            if prv is not None:
                rv = -(factor * prv) if rv is None else rv - factor * prv
                if not rv:
                    rv = None
        if not row:
            continue  # consistency judged by the final re-multiplication
        pc = min(row)
        scale = _divider(row[pc])
        row = {c: scale(v) for c, v in row.items()}
        if rv is not None:
            rv = scale(rv)
        pivots[pc] = (row, rv)
        # the reduced row holds no pivot but pc, so its other columns are open
        still_open[pc] = len(row) - 1
        for c in row:
            if c != pc:
                waiting.setdefault(c, []).append(pc)
        stack = [] if still_open[pc] else [pc]
        while stack:
            c = stack.pop()
            closed.add(c)
            for p in waiting.pop(c, ()):
                still_open[p] -= 1
                if not still_open[p]:
                    stack.append(p)

    # back-substitution in reverse creation order; free columns get zero
    values: dict = {}
    for c, (row, rv) in reversed(pivots.items()):
        acc = rv
        for cc, coeff in row.items():
            if cc == c:
                continue
            v = values.get(cc)
            if v is None:
                continue
            p = coeff * v
            acc = -p if acc is None else acc - p
        if acc:
            values[c] = acc

    coeffs = []
    for i, b in enumerate(basis):
        comps = ({}, {}, {}, {})
        for e in supports[i]:
            v = values.get(col_index[(i, e)])
            if v is None:
                continue
            if real:  # v * w^(k_t - k_i), and w^4 = -1
                d = (ks[0] - ks[i + 1]) % 8
                comps[d % 4][(e, 0)] = _canon(-v if d >= 4 else v)
            else:
                for part, c in zip(comps, v.c):
                    if c:
                        part[(e, 0)] = c
        coeffs.append(_series(comps, den, order - b.ord))

    certified = min([order, target.cutoff] + [
        b.cutoff + c.ord for b, c in zip(basis, coeffs) if not c.is_zero_series()
    ])
    if certified < order:
        raise InsufficientOrderError(
            "inputs cannot certify the requested order "
            f"{order}; maximal certifiable order is {certified}",
            max_order=certified,
        )

    # re-multiply in full: the target's terms minus each coefficient times
    # its basis element's, accumulated per component below hi
    acc = ({}, {}, {}, {})
    for t, d in zip(acc, target._at(den)):
        t.update((k, c) for k, c in d.items() if k[0] < hi)
    for c, b in zip(coeffs, basis):
        _convolve(acc, c._lists(), b._lists_at(den), hi, negate=True)
    residual = _series(_gather(acc), den, order)

    # free columns within one whole q-unit of the window top are truncation
    # artifacts (their products straddle the order bound); only deeper free
    # columns signal a genuinely dependent basis
    interior_free = [
        (i, e)
        for (i, e) in cols
        if col_index[(i, e)] not in pivots and e + brows[i][0][0] < hi - den
    ]
    if residual.is_zero_series():
        status = "under-determined" if interior_free else "exact"
        witness = None
    else:
        status = "not-in-span"
        q, z, _ = residual.monomials()[0]
        witness = (q, z)
    return Decomposition(coeffs, residual, status, order, witness)


def membership(target: Series, basis: list[Series], order):
    """True iff target decomposes with status "exact"; returns
    (bool, witness).  An under-determined decomposition is not a member."""
    dec = decompose(target, basis, order)
    return dec.status == "exact", dec.witness

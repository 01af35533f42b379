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

Real form: when the target and every basis element are each one unit w^k
times a series with rational coefficients (k fixed per series, 0 for a
series without terms), the entries are the rational components c[k_i] and
the right side c[k_t], so the elimination runs on ints (Fractions only
under a pivot other than +-1).  This scales column i by the unit w^-k_i
and the right side by w^-k_t, which moves no entry's zero pattern: the
pivots, skipped rows and free columns are those of the Q(zeta_8) system,
the unknown of column (i, e) is c_i * w^(k_i - k_t), and a solved value x
maps back to x * w^(k_t - k_i).  Any other system keeps ``CycloNum``
entries; both run the same loop.  The re-multiplication uses the original
series either way.
"""

from __future__ import annotations

import heapq
import operator
from bisect import bisect_left

from . import cyclo
from ._rational import rat, rat_str
from .cyclo import CycloNum
from .series import (InsufficientOrderError, Series, _components, _convolve,
                     _gather, _series, align)


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


def _unit_index(row):
    """k in 0..3 when every coefficient in ``row`` is a rational times w^k
    (w^(k+4) = -w^k; 0 for a row without terms), else None."""
    # one component nonzero in some term and every other zero in all
    nonzero = [k for k, part in enumerate(zip(*(c.c for _, _, c in row)))
               if any(part)]
    if len(nonzero) > 1:
        return None
    return nonzero[0] if nonzero else 0


# a pivot of 1 or -1 keeps or negates its row
_UNIT_PIVOTS = {1: lambda v: v, -1: operator.neg}


def _divider(p):
    """The map v -> v / p over a pivot row, decided once per pivot: a
    ``CycloNum`` through :func:`thetaq.cyclo.scaler`, a rational other than
    +-1 in ``rat``, kept an int where it is one."""
    if type(p) is CycloNum:
        return cyclo.scaler(p.inverse())
    return _UNIT_PIVOTS.get(p) or (lambda v: cyclo._canon(rat(v, p)))


def _turned(x, d):
    """The ``CycloNum`` x * w^d of a rational ``x``."""
    if d % 8 >= 4:  # w^4 = -1
        x = -x
    c = [0, 0, 0, 0]
    c[d % 4] = x
    return CycloNum._raw(*c)


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

    den, hi, grid = align([target] + basis, order)
    # in real form the entries are the rational components (module doc)
    ks = [_unit_index(row) for row in grid]
    real = None not in ks
    if real:
        grid = [[(q, z, c.c[k]) for q, z, c in row]
                for row, k in zip(grid, ks)]
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
        terms = {}
        for e in supports[i]:
            v = values.get(col_index[(i, e)])
            if v is not None:
                terms[(e, 0)] = _turned(v, ks[0] - ks[i + 1]) if real else v
        coeffs.append(_series(terms, den, order - b.ord))

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
    for t, part in zip(acc, _components(target._items_at(den))):
        t.update(((q, z), c) for q, z, c in part if q < hi)
    for c, b in zip(coeffs, basis):
        _convolve(acc, _components(c._items()),
                  _components(b._items_at(den)), hi, negate=True)
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

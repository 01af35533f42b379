"""Exact decomposition of a series over a basis with z-free coefficients.

This is the computational meaning of every span / membership / branching
statement in the package: ``decompose`` searches for z-free series c_i with
``target = sum c_i * basis_i`` below a requested order, by exact forward
substitution or Gaussian elimination over Q(zeta_8) on the
monomial-matching linear system, or over Q when the system is in real form
(below).

Unknown supports: column (i, e) stands for q^e times basis_i, and it
touches the monomial q^(e + a) z^b of each term q^a z^b of basis_i.  The
candidate exponents are the least sets such that basis_j holds every e
inside its window ``[min interacting ord - 1,  order - ord(basis_j))``
for which q^e times a term of basis_j lands on a monomial touched by a
candidate column or by a target term below the order.  The window floor is
a fixed one-unit pad, so results are deterministic; soundness never depends
on it because the candidate solution is always re-multiplied and the
residual checked term by term.  The search and the linear system work on
integer exponents over one denominator shared by the target and the basis
(:func:`thetaq.series.align`).

The closure runs on int bitsets.  Basis i's candidates are one int S_i
whose bit k stands for the exponent floor - ord_i + k, below the window
width hi - floor; the monomials touched at z-exponent z are one int P(z)
whose bit k stands for q^(floor + k).  Each round takes only the bits new
in the round before: basis j gains ``P(z) >> (b - ord_j)`` for each of its
q-exponents b at z, masked to its window and to bits it lacks, and those
new bits S add ``S << (a - ord_i)`` into P(z) for each term q^a z^b of
basis i.  P(z) is not cut at the window top: a column touches all its
monomials, also those at or above the order, and columns that meet only
there are candidates too, so a cut P(z) would drop columns and change
the system.

Leading rows: column (i, e) *leads* at (e + q_i, z_i), where q^q_i z^z_i
is the first term of basis_i in ascending (q, z) order, and it touches no
monomial below that.  When the leading monomials of all columns are
distinct, ``decompose`` solves by forward substitution on the leading
rows, in ascending order: the value at the column leading at m is the right
side at m, minus the entries of the columns that lead below m (already
solved) times their values, divided by basis_i's first coefficient.  This
is exactly what elimination would give.  The rows up to m hold only the
columns leading at or below m; their leading rows form a square
lower-triangular block with a nonzero diagonal, so each leading row is
independent of the rows before it, and every other row lies in the span of
the leading rows before it.  Ascending elimination thus pivots on exactly
the leading rows and every column, and its values solve them: the values,
the residual and the status (no free columns) are the same.  The choice is
computed from the system; any system in which two columns share a leading
monomial is eliminated as below.

Closed rows (the elimination): rows are built for every column and
reduced in ascending monomial order, each by the pivots in ascending
column order.  A pivot is *closed* once every other column of its
normalized row is a closed pivot.  A row made only of closed pivots is
skipped, and that is exact: reducing it by its least column leaves only
larger closed pivots, so by induction it reduces to the empty row, which
yields no pivot and whose right side is dropped (the re-multiplication
judges consistency).  Pivots, free columns and values are those of a full
reduction.  Either solve is followed by the same re-multiplication, which
subtracts every coefficient times its basis element from the target in one
accumulator below the order, term by term.

Real form: when the target and every basis element each store at most one
nonempty component dict (see :mod:`thetaq.series`), each is one unit w^k
times a series with rational coefficients (k its component, 0 for a
series without terms).  The entries are then read from that one dict, the
rational components c[k_i] and the right side c[k_t], so either solve
runs on ints (Fractions only under a pivot other than +-1).  This scales
column i by the unit w^-k_i and the right side by w^-k_t, which moves no
entry's zero pattern: the pivots, skipped rows and free columns are those
of the Q(zeta_8) system, the unknown of column (i, e) is
c_i * w^(k_i - k_t), and a solved value x maps back to x * w^(k_t - k_i).
Any other system keeps ``CycloNum`` entries (:func:`thetaq.series.align`);
both forms run the same code.  The re-multiplication uses the original
series either way.
"""

from __future__ import annotations

import heapq
import operator
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


def _supports(target_row, basis_rows, hi, den):
    """Candidate coefficient q-exponents per basis element (see module doc).

    The rows and the window top ``hi`` are :func:`thetaq.series.align`
    output, so every exponent is an int over ``den``.  A basis element
    without terms gets no candidates, and a target without terms below
    ``hi`` gives none at all.
    """
    nb = len(basis_rows)
    seeds = [(q, z) for q, z, _ in target_row if q < hi]
    if not seeds:
        return [[] for _ in basis_rows]
    ords = [r[0][0] if r else None for r in basis_rows]
    floor = min([target_row[0][0]] + [o for o in ords if o is not None]) - den
    window = (1 << (hi - floor)) - 1
    # z -> (j, b - ord_j) for every term q^b z^z of every basis element j
    at_z: dict = {}
    for j, r in enumerate(basis_rows):
        for b, z, _ in r:
            at_z.setdefault(z, []).append((j, b - ords[j]))
    # bit k of sets[i] is the exponent floor - ord_i + k; bit k of p[z] is
    # the monomial q^(floor + k) z^z, touched by a column or a seed
    sets = [0] * nb
    p: dict = {}
    for q, z in seeds:
        if z in at_z:
            p[z] = p.get(z, 0) | 1 << (q - floor)
    fresh = p
    while fresh:
        grown = [0] * nb
        for z, bits in fresh.items():
            for j, sh in at_z[z]:
                grown[j] |= bits >> sh
        touched: dict = {}
        for i, s in enumerate(grown):
            s &= window & ~sets[i]
            if not s:
                continue
            sets[i] |= s
            o = ords[i]
            for a, z, _ in basis_rows[i]:
                touched[z] = touched.get(z, 0) | s << (a - o)
        fresh = {}
        for z, bits in touched.items():
            old = p.get(z, 0)
            if bits := bits & ~old:
                p[z] = old | bits
                fresh[z] = bits
    out = []
    for s, o in zip(sets, ords):
        es = []
        while s:
            low = s & -s
            es.append(floor - o + low.bit_length() - 1)
            s ^= low
        out.append(es)
    return out


# a pivot of 1 or -1 keeps or negates its row
_UNIT_PIVOTS = {1: lambda v: v, -1: operator.neg}


def _divider(p):
    """The map v -> v / p over a pivot row, decided once per pivot: a
    ``CycloNum`` times its inverse, a rational other than +-1 in ``rat``,
    kept an int where it is one."""
    if type(p) is CycloNum:
        return p.inverse().__mul__
    return _UNIT_PIVOTS.get(p) or (lambda v: _canon(rat(v, p)))


def _eliminate(cols, col_index, rhs, brows, hi):
    """Solve the monomial-matching system by forward elimination and
    back-substitution (see the module doc): every row is built, and rows of
    closed pivots are skipped.  Returns ``(values, pivots)``: the nonzero
    values by column index, and the pivot columns, whose complement are the
    free columns (valued zero)."""
    rows: dict = {}
    for (i, e) in cols:
        ci = col_index[(i, e)]
        for q, z, coeff in brows[i]:
            qq = e + q
            if qq >= hi:
                break
            # the keys (e + q, z) of one column are distinct
            rows.setdefault((qq, z), {})[ci] = coeff

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
        row = rows[key]
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
    return values, pivots


def _substitute(lead, rhs, brows):
    """Solve a system whose columns have distinct leading monomials by
    forward substitution on their leading rows (see the module doc).
    ``lead`` maps each leading monomial to its column (i, e); returns the
    nonzero values as one dict e -> value per basis element."""
    values = [{} for _ in brows]
    at_z: dict = {}  # z -> (values[j], q, coeff) for each term q^q z^z of j
    for vals, r in zip(values, brows):
        for q, z, coeff in r:
            at_z.setdefault(z, []).append((vals, q, coeff))
    scales = [_divider(r[0][2]) if r else None for r in brows]
    for m in sorted(lead):
        qq, z = m
        i, e = lead[m]
        acc = rhs.get(m)
        # the columns (j, qq - q) met here lead below m, so they are solved
        for vals, q, coeff in at_z[z]:
            v = vals.get(qq - q)
            if v is not None:
                p = coeff * v
                acc = -p if acc is None else acc - p
        if acc:
            values[i][e] = scales[i](acc)
    return values


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

    rhs: dict = {}  # the target's terms below hi, by monomial
    for q, z, coeff in grid[0]:
        if q >= hi:
            break
        rhs[(q, z)] = coeff
    # column (i, e) leads at (e + q_i, z_i), the first term q^q_i z^z_i of
    # basis row i; distinct leading monomials make the system triangular
    lead = {(e + brows[i][0][0], brows[i][0][1]): (i, e) for (i, e) in cols}
    if len(lead) == len(cols):
        values = {col_index[(i, e)]: v for i, vals in
                  enumerate(_substitute(lead, rhs, brows))
                  for e, v in vals.items()}
        pivots = range(len(cols))  # every column pivots
    else:
        values, pivots = _eliminate(cols, col_index, rhs, brows, hi)

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

"""Exact decomposition of a series over a basis with z-free coefficients.

This is the computational meaning of every span / membership / branching
statement in the package: ``decompose`` searches for z-free series c_i with
``target = sum c_i * basis_i`` below a requested order, by exact forward
substitution or Gaussian elimination over Q on the realified
monomial-matching linear system (below).

Realification: each unknown is written c_i = sum_k w^k c_ik with rational
series c_ik, so column (i, e, k) stands for q^e w^k basis_i, and a row is
a monomial q^a z^b with a component c, the coefficient of w^c there (see
:mod:`thetaq.series`), keyed ``(a, 4b + c)``: the search and the solves
read every row as ``(q, z', rational)`` on one int grid over the
denominator shared by the target and the basis.  The realified element
w^k basis_i moves component j to (j + k) mod 4, negated when j + k >= 4
(w^4 = -1); it is built only if its components meet those of the target
or of an element already built, a fixed point over components.  When the
target and every basis element each hold one component (every system the
registry and ``branch`` build), one element is built per basis element,
the one on the target's component.  Column (i, e, k)'s value is the term
q^e of c_ik, written into component k of coefficient i.

The results are those of the Q(zeta_8) system.  Let G be the group of
turns spanned by the differences of components within each basis element.
Every element is a unit times a series over the field F = Q(w^g, g in G),
the built components are cosets of G, and each coset holds one system
over F, realified over the basis w^g of F.  Pivots do not change under a
field extension, and with the columns ordered (i, e, k), k innermost,
(i, e, k) pivots exactly when (i, e) does (the w^g are independent over
Q), and a monomial's built rows are pivot rows exactly when its Q(zeta_8)
row is.  Every candidate column (i, e) keeps at least one (i, e, k), and
the elements not built touch no built row and have a zero right side; so
the free columns, the values (every free column zero), the residual and
the status match.

Unknown supports: column (r, e) stands for q^e times realified element r
and touches the row (e + a, z') of each of its terms (a, z').  The
candidate exponents are the least sets such that element r holds every e
inside its window ``[min interacting ord - 1,  order - ord_r)`` for which
column (r, e) touches a row touched by a candidate column or by a target
term below the order.  The window floor is a fixed one-unit pad, so
results are deterministic; soundness never depends on it because the
candidate solution is always re-multiplied and the residual checked term
by term.

The closure runs on int bitsets.  Element i's candidates are one int S_i
whose bit k stands for the exponent floor - ord_i + k, below the window
width hi - floor; the rows touched at key z are one int P(z) whose bit k
stands for q^(floor + k).  Each round takes only the bits new in the
round before: element j gains ``P(z) >> (b - ord_j)`` for each of its
q-exponents b at z, masked to its window and to bits it lacks, and those
new bits S add ``S << (a - ord_i)`` into P(z) for each term q^a at key z
of element i.  P(z) is not cut at the window top: a column touches all
its rows, also those at or above the order, and columns that meet only
there are candidates too, so a cut P(z) would drop columns and change the
system.

Leading rows: column (r, e) *leads* at (e + q_r, z_r), where (q_r, z_r)
is the first key of element r in ascending order, and it touches no row
below that.  When the leading rows of all columns are distinct,
``decompose`` solves by forward substitution on the leading rows, in
ascending order: the value of the column leading at m is the right side
at m, minus the entries of the columns that lead below m (already solved)
times their values, divided by element r's first coefficient.  This is
exactly what elimination would give.  The rows up to m hold only the
columns leading at or below m; their leading rows form a square
lower-triangular block with a nonzero diagonal, so each leading row is
independent of the rows before it, and every other row lies in the span
of the leading rows before it.  Ascending elimination thus pivots on
exactly the leading rows and every column, and its values solve them:
the values, the residual and the status (no free columns) are the same.
The choice is computed from the system; any system in which two columns
share a leading row is eliminated as below.

Closed rows (the elimination): rows are built for every column and
reduced in ascending order, each by the pivots in ascending column order.
A pivot is *closed* once every other column of its normalized row is a
closed pivot.  A row made only of closed pivots is skipped, and that is
exact: reducing it by its least column leaves only larger closed pivots,
so by induction it reduces to the empty row, which yields no pivot and
whose right side is dropped (the re-multiplication judges consistency).
Pivots, free columns and values are those of a full reduction.  Either
solve runs on ints, with Fractions only under a pivot other than +-1, and
is followed by the same re-multiplication of the original series, which
subtracts every coefficient times its basis element from the target in
one accumulator below the order, term by term.
"""

from __future__ import annotations

import heapq
import operator
from itertools import chain
from math import lcm

from ._rational import rat, rat_str
from .cyclo import _canon
from .series import (InsufficientOrderError, Series, _convolve, _gather,
                     _grid_bound, _series)


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

    The rows are ascending ``(q, z', value)`` and ``hi`` is the window top,
    every exponent an int over ``den``.  A basis row without terms gets no
    candidates, and a target without terms below ``hi`` gives none at
    all.
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
    rational other than +-1 divides in ``rat``, kept an int where it is
    one."""
    return _UNIT_PIVOTS.get(p) or (lambda v: _canon(rat(v, p)))


def _turned(lists, k):
    """The terms of w^k times a series, given by its four component lists
    (see :mod:`thetaq.series`), as one ascending list of realified terms
    ``(q, 4z + c, value)``: component j lands on c = (j + k) mod 4, negated
    when j + k >= 4 (w^4 = -1)."""
    parts = [[(q, 4 * z + j + k, c) for q, z, c in part] if j + k < 4
             else [(q, 4 * z + j + k - 4, -c) for q, z, c in part]
             for j, part in enumerate(lists) if part]
    return parts[0] if len(parts) == 1 else sorted(chain(*parts))


def _eliminate(cols, rhs, brows, hi):
    """Solve the monomial-matching system by forward elimination and
    back-substitution (see the module doc): every row is built, and rows of
    closed pivots are skipped.  Column ``cols[ci] = (r, e)`` stands for q^e
    times ``brows[r]``.  Returns ``(values, pivots)``: the nonzero values
    by column index, and the pivot columns, whose complement are the free
    columns (valued zero)."""
    rows: dict = {}
    for ci, (r, e) in enumerate(cols):
        for q, z, coeff in brows[r]:
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
    """Solve a system whose columns have distinct leading rows by forward
    substitution on those rows (see the module doc).
    ``lead`` maps each leading row to its column (r, e); returns the
    nonzero values as one dict e -> value per row of ``brows``."""
    values = [{} for _ in brows]
    at_z: dict = {}  # z -> (values[r], q, coeff) for each term (q, z) of r
    for vals, r in zip(values, brows):
        for q, z, coeff in r:
            at_z.setdefault(z, []).append((vals, q, coeff))
    scales = [_divider(r[0][2]) for r in brows]
    for m in sorted(lead):
        qq, z = m
        r, e = lead[m]
        acc = rhs.get(m)
        # the columns (j, qq - q) met here lead below m, so they are solved
        for vals, q, coeff in at_z[z]:
            v = vals.get(qq - q)
            if v is not None:
                p = coeff * v
                acc = -p if acc is None else acc - p
        if acc:
            values[r][e] = scales[r](acc)
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
    den = lcm(*(s.den for s in series))
    hi = _grid_bound(order, den)
    lists = [s._lists_at(den) for s in series]
    # the components of each series, and of each w^k basis_i, as bits; the
    # elements built are those meeting the components reached (module doc)
    masks = [sum(1 << j for j, part in enumerate(ls) if part) for ls in lists]
    turns = [[(m << k | m >> 4 - k) & 15 for k in range(4)] for m in masks[1:]]
    reach = masks[0]
    for _ in range(3):  # a pass adds a component, or none ever after
        for m in chain(*turns):
            if m & reach:
                reach |= m
    built = [(i, k) for i, t in enumerate(turns)
             for k, m in enumerate(t) if m & reach]
    brows = [_turned(lists[i + 1], k) for i, k in built]
    trow = _turned(lists[0], 0)
    supports = _supports(trow, brows, hi, den)
    # column (r, e) is q^e times brows[r]; ordered (i, e, k), k innermost
    cols = [(r, e) for _, e, r in sorted(
        (built[r][0], e, r) for r, es in enumerate(supports) for e in es)]

    rhs: dict = {}  # the target's realified terms below hi, by row
    for q, z, coeff in trow:
        if q >= hi:
            break
        rhs[(q, z)] = coeff
    # column (r, e) leads at (e + q_r, z_r), the first term of brows[r];
    # distinct leading rows make the system triangular
    lead = {(e + brows[r][0][0], brows[r][0][1]): (r, e) for r, e in cols}
    if len(lead) == len(cols):
        solved = [(r, e, v) for r, vals in
                  enumerate(_substitute(lead, rhs, brows))
                  for e, v in vals.items()]
        free = ()  # every column pivots
    else:
        values, pivots = _eliminate(cols, rhs, brows, hi)
        solved = [(*cols[c], v) for c, v in values.items()]
        free = [c for n, c in enumerate(cols) if n not in pivots]

    comps = [({}, {}, {}, {}) for _ in basis]
    for r, e, v in solved:  # the term q^e of c_ik
        i, k = built[r]
        comps[i][k][(e, 0)] = _canon(v)
    coeffs = [_series(c, den, order - b.ord) for c, b in zip(comps, basis)]

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
    interior_free = [(r, e) for r, e in free if e + brows[r][0][0] < hi - den]
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

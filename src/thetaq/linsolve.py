"""Exact decomposition of a series over a basis with z-free coefficients.

This is the computational meaning of every span / membership / branching
statement in the package: ``decompose`` searches for z-free series c_i with
``target = sum c_i * basis_i`` below a requested order, by exact Gaussian
elimination over Q(zeta_8) on the monomial-matching linear system.

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
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from ._rational import INF, rat, rat_str
from .series import InsufficientOrderError, Series, align


@dataclass
class Decomposition:
    """Outcome of :func:`decompose`.

    ``status`` is "exact" (zero residual, basis independent below the
    order), "not-in-span" (nonzero residual; ``witness`` is its smallest
    monomial) or "under-determined" (zero residual, but the basis is
    dependent, so the coefficients are not unique).  Only "exact" counts as
    membership: an under-determined result is *not* a member.
    """

    coefficients: list
    residual: Series
    status: str  # exact | not-in-span | under-determined
    certified_order: object
    witness: tuple | None

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

    def add(i, e):
        if floor - ords[i] <= e < his[i] and e not in sets[i]:
            sets[i].add(e)
            work.append((i, e))

    for qt, zt in seeds:
        for i, zm in enumerate(zmaps):
            for qs in zm.get(zt, ()):
                add(i, qt - qs)

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
            for d in ds[lo:bisect_left(ds, his[j] - e, lo)]:
                add(j, e + d)
    return [sorted(s) for s in sets]


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
            row = rows.setdefault((qq, z), {})
            cur = row.get(ci)
            s = coeff if cur is None else cur + coeff
            if s.is_zero():
                row.pop(ci, None)
            else:
                row[ci] = s
    rhs: dict = {}
    for q, z, coeff in grid[0]:
        if q >= hi:
            break
        rhs[(q, z)] = coeff
        rows.setdefault((q, z), {})

    # forward elimination, rows in ascending monomial order
    pivots: dict = {}  # col -> (creation_index, rowdict, rhsval)
    for key in sorted(rows):
        row = dict(rows[key])
        rv = rhs.get(key)
        while True:
            hits = [
                (pivots[c][0], c) for c in row if c in pivots
            ]
            if not hits:
                break
            _, c = min(hits)
            factor = row.pop(c)
            _, prow, prv = pivots[c]
            for cc, coeff in prow.items():
                if cc == c:
                    continue
                p = factor * coeff
                cur = row.get(cc)
                s = -p if cur is None else cur - p
                if s.is_zero():
                    row.pop(cc, None)
                else:
                    row[cc] = s
            if prv is not None:
                rv = -(factor * prv) if rv is None else rv - factor * prv
                if rv.is_zero():
                    rv = None
        if not row:
            continue  # consistency judged by the final re-multiplication
        pc = min(row)
        inv = row[pc].inverse()
        row = {c: inv * v for c, v in row.items()}
        if rv is not None:
            rv = inv * rv
        pivots[pc] = (len(pivots), row, rv)

    # back-substitution in reverse creation order; free columns get zero
    values: dict = {}
    for c, (_, row, rv) in sorted(
        pivots.items(), key=lambda kv: -kv[1][0]
    ):
        acc = rv
        for cc, coeff in row.items():
            if cc == c:
                continue
            v = values.get(cc)
            if v is None:
                continue
            p = coeff * v
            acc = -p if acc is None else acc - p
        if acc is not None and not acc.is_zero():
            values[c] = acc

    coeffs = []
    for i, b in enumerate(basis):
        terms = {}
        for e in supports[i]:
            v = values.get(col_index[(i, e)])
            if v is not None:
                terms[e] = v
        coeffs.append(Series.zfree(terms, den, order - b.ord))

    certified = min([order, target.cutoff] + [
        b.cutoff + c.ord for b, c in zip(basis, coeffs) if not c.is_zero_series()
    ])
    if certified < order:
        raise InsufficientOrderError(
            "inputs cannot certify the requested order "
            f"{order}; maximal certifiable order is {certified}",
            max_order=certified,
        )

    total = Series.zero(INF)
    for c, b in zip(coeffs, basis):
        total = total + c * b
    residual = (target - total).restrict(order)

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


def span_equal(a: list[Series], b: list[Series], order) -> bool:
    """Mutual membership of two generating families."""
    return all(membership(x, b, order)[0] for x in a) and all(
        membership(y, a, order)[0] for y in b
    )

"""Registry of executable identity checks and the runner that certifies them.

Each case binds a named statement (theta multiplication laws, argument-shift
laws, character product formulas, numerator p-independence, span and closure
statements) to deferred series builders plus a default truncation order.
Each law is written once: ``_law`` is the theta multiplication sum,
``_shifted`` the argument-shifted build, ``branch_product`` the branching
decomposition (shared with ``thetaq branch``), and the grid points are rows
of data.  ``run_identity`` produces a deterministic report; ``run_all`` fans
the cases out over a process pool and merges reports in id order.

Case ids are grouped by the section tokens S2..S5; within a group the suffix
spells the grid point (degrees, indices, shifts) so a failure pinpoints its
parameters.  Default orders: 6 for the S2/S3 groups (cheap expansions), 4
for S4/S5 (triple sums and divisions shrink the trusted range), 8 for the
two coincidence checks.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import cyclo
from ._rational import R0, rat, rat_str
from .cyclo import phase
from .linsolve import decompose, membership
from .numerators import (
    SUPPORTED_CHARACTERS,
    DegenerateDivisorError,
    _half_divisor_degenerate,
    branching_basis,
    character,
    derived_denominator,
    ensure_order,
    ladder_step,
    numerator,
    numerator_half,
    numerator_int,
    ratio_pair,
    u_basis,
    undivided_half_combination,
)
from .series import Series
from .thetalib import (
    ThetaSpec,
    bracket,
    eta,
    mumford,
    theta,
    theta_jm,
    theta_pm,
    theta_zero_arg,
)


@dataclass(frozen=True)
class IdentityCase:
    id: str
    kind: str  # equality | p-independence | membership | span | zfree | branching
    default_order: object
    anchor: str
    run: object  # order -> (ok, first mismatch or None)


@dataclass
class Report:
    id: str
    kind: str
    status: str  # pass | fail | error
    certified_order: object
    first_mismatch: tuple | None
    wall_ms: float
    error: str | None = None

    def json_obj(self, include_timing: bool = False):
        return {
            "id": self.id,
            "kind": self.kind,
            "status": self.status,
            "certified_order": rat_str(self.certified_order),
            "first_mismatch": None
            if self.first_mismatch is None
            else [rat_str(self.first_mismatch[0]), rat_str(self.first_mismatch[1])],
            "wall_ms": round(self.wall_ms, 3) if include_timing else None,
        }


# ---------------------------------------------------------------------------
# check constructors


def _retried(attempt):
    """The check ``order -> (ok, first mismatch)`` of ``attempt(k, order)``,
    which builds its inputs at ``k`` and compares below ``order``; a trust
    shortfall reruns it at a higher ``k``."""
    return lambda order: ensure_order(lambda k: attempt(k, order), order)


def equality_check(lhs_builder, rhs_builder):
    """Builders are run at ``order`` and rebuilt higher on a shortfall."""
    return _retried(
        lambda k, order: lhs_builder(k).equal_up_to(rhs_builder(k), order)
    )


def membership_check(target_builder, basis_builder):
    """basis_builder(order) -> list of Series; retried on trust shortfalls."""
    return _retried(
        lambda k, order: membership(target_builder(k), basis_builder(k), order)
    )


def span_check(a_builder, b_builder):
    """Mutual membership of two generating families."""

    def attempt(k, order):
        fam_a, fam_b = a_builder(k), b_builder(k)
        for xs, ys in ((fam_a, fam_b), (fam_b, fam_a)):
            for x in xs:
                ok, wit = membership(x, ys, order)
                if not ok:
                    return False, wit
        return True, None

    return _retried(attempt)


def _gen(fn, *args, **kwargs):
    """The builder ``order -> fn(*args, order, **kwargs)``.

    Like ``functools.partial``, but ``fn`` is looked up by name in this
    module each time the builder runs, not once when the registry is built,
    so a later rebinding of that name (``perfbench/tracer.py`` wraps the
    generators this way) reaches every call.
    """
    name = fn.__name__
    return lambda o: globals()[name](*args, o, **kwargs)


def _e(c, p):
    return _gen(eta, rat(c), p)


def _prod(first, *rest):
    """``order -> first(order) * rest[0](order) * ...``."""

    def b(o):
        out = first(o)
        for x in rest:
            out = out * x(o)
        return out

    return b


def _law(gen, level, index, const, count):
    """``order -> sum_{r < count} theta_{c0 + c1 r, cl}(tau, 0) *
    gen(i0 + i1 r, level)`` for ``index = (i0, i1)`` and ``const = (c0, c1,
    cl)``: the right side of every theta multiplication law here."""
    (i0, i1), (c0, c1, cl) = index, const

    def b(order):
        out = Series.zero(rat(order))
        for r in range(count):
            c = theta_zero_arg(c0 + c1 * r, cl, order)
            out = out + c * _gen(gen, i0 + i1 * r, level)(order)
        return out

    return b


def _shifted(build, qpow, zpow=R0, coeff=cyclo.ONE):
    """``order -> coeff q^qpow z^zpow build(order - qpow)``, trusted below
    ``order``."""
    return lambda o: build(o - qpow).times_monomial(coeff, qpow, zpow)


def _denominator_times(*labels):
    """``order -> derived_denominator * product of the characters labels``,
    built 1/2 above ``order``: the denominator's negative order cuts the
    product's cutoff."""

    def b(o):
        k = o + rat(1, 2)
        out = derived_denominator(k)
        for lbl in labels:
            out = out * character(*lbl, k)
        return out

    return b


def branch_product(left, right, order):
    """Decompose a product of two supported characters over the characters
    of the summed level with matching label parity; returns the basis
    labels and the Decomposition."""
    for lbl in (left, right):
        if lbl not in SUPPORTED_CHARACTERS:
            raise ValueError(
                f"character {lbl[0]}:{lbl[1]} not available; supported: "
                + ", ".join(f"{a}:{b}" for a, b in SUPPORTED_CHARACTERS)
            )
    basis_labels = branching_basis(left, right)
    if not basis_labels:
        raise ValueError(
            f"basis not available: no level-{left[0] + right[0]} characters "
            f"of parity {(left[1] + right[1]) % 2} have closed forms"
        )

    def attempt(k):
        # head start: a factor of negative order cuts the product's cutoff
        k += rat(1, 2)
        target = character(*left, k) * character(*right, k)
        basis = [character(*lbl, k) for lbl in basis_labels]
        return decompose(target, basis, order)

    return basis_labels, ensure_order(attempt, order)


def _branching(left, right):
    """Passes iff the product's decomposition by branch_product is exact."""

    def run(order):
        dec = branch_product(left, right, order)[1]
        return dec.status == "exact", dec.witness

    return run


# ---------------------------------------------------------------------------
# registry construction

_REGISTRY: dict | None = None

_HALVES = (R0, rat(1, 2), rat(1), rat(3, 2))
_SMALL = (1, 2, 3)
_SHIFTS = (-1, 0, 1, 2)


def _fmt(x) -> str:
    return rat_str(rat(x))


def _add(reg, id_, kind, order, anchor, run):
    if id_ in reg:
        raise ValueError(f"duplicate identity id {id_}")
    reg[id_] = IdentityCase(id_, kind, rat(order), anchor, run)


def _build_s2(reg):
    # classical two-variable thetas as index combinations
    combos = {
        "00": lambda o: theta_jm(0, 2, o) + theta_jm(2, 2, o),
        "01": lambda o: theta_jm(0, 2, o) - theta_jm(2, 2, o),
        "10": lambda o: theta_jm(1, 2, o) + theta_jm(-1, 2, o),
        "11": lambda o: (theta_jm(1, 2, o) - theta_jm(-1, 2, o)).times_monomial(
            cyclo.I
        ),
    }

    for n in _SMALL:
        for m in _SMALL:
            for j in _HALVES:
                for k in _HALVES:
                    _add(
                        reg,
                        f"S2.mult-lemma.n{n}m{m}.j{_fmt(j)}k{_fmt(k)}",
                        "equality",
                        6,
                        f"theta multiplication law, degrees ({n},{m}), "
                        f"indices ({_fmt(j)},{_fmt(k)})",
                        equality_check(
                            _prod(_gen(theta_jm, j, n), _gen(theta_jm, k, m)),
                            _law(theta_jm, m + n, (j + k, 2 * m),
                                 (k * n - j * m, 2 * m * n, m * n * (m + n)),
                                 m + n),
                        ),
                    )

    # degree-1 and degree-2 specializations:
    # (id, anchor, factor, level, index, constant, count)
    for m in _SMALL:
        for k in _HALVES:
            mm1, mm2 = m * (m + 1), 2 * m * (m + 2)
            laws = [
                ("n1spec.i1", "index-0 degree-1 multiplication",
                 _gen(theta_jm, 0, 1), m + 1, (k, 2), (k, -2 * m, mm1), m + 1),
                ("n1spec.i2", "index-1 degree-1 multiplication",
                 _gen(theta_jm, 1, 1), m + 1, (k + 1, 2), (k - m, -2 * m, mm1),
                 m + 1),
            ]
            laws += [
                (f"n2spec.i{item}", f"degree-2 multiplication item {item}",
                 _gen(theta_jm, jj, 2), m + 2, (k + jj, 4),
                 (2 * k - jj * m, -4 * m, mm2), m + 2)
                for item, jj in enumerate((0, 2, 1, -1), start=1)
            ]
            laws.append(
                ("vt10spec", "two-term degree-2 multiplication", combos["10"],
                 m + 2, (k - 1, 2), (2 * k + m, -2 * m, mm2), 2 * (m + 2))
            )
            for tag, what, factor, level, index, const, count in laws:
                _add(reg, f"S2.{tag}.m{m}k{_fmt(k)}", "equality", 6,
                     f"{what}, level {m}, index {_fmt(k)}",
                     equality_check(_prod(factor, _gen(theta_jm, k, m)),
                                    _law(theta_jm, level, index, const, count)))

    for label, combo in combos.items():
        _add(reg, f"S2.mumford-def.{label}", "equality", 6,
             f"two-variable theta {label} as degree-2 combination",
             equality_check(_gen(mumford, label), combo))

    def mum2(label):
        return _gen(mumford, label, qscale=2, zcoeff=2)

    big = _prod(_e(2, 5), _e(1, -2), _e(4, -2), mum2("00"))
    small = _prod(_e(4, 2), _e(2, -1), mum2("10"))

    # the doubled-argument brace, big +- 2 * small
    def brace_plus(o):
        return big(o) + small(o).times_monomial(cyclo.from_rational(2))

    def brace_minus(o):
        return big(o) - small(o).times_monomial(cyclo.from_rational(2))

    _add(reg, "S2.mumford.item1", "equality", 6,
         "squared 00-theta via doubled arguments",
         equality_check(lambda o: mumford("00", o) * mumford("00", o), brace_plus))
    _add(reg, "S2.mumford.item2", "equality", 6,
         "00 times 01 via doubled arguments",
         equality_check(
             lambda o: mumford("00", o) * mumford("01", o),
             _prod(_e(2, 1), _e(1, 2), _e(2, -2), mum2("01")),
         ))
    _add(reg, "S2.mumford.item3", "equality", 6,
         "squared 01-theta via doubled arguments",
         equality_check(lambda o: mumford("01", o) * mumford("01", o), brace_minus))

    # ratio identities (divisions by the unit-leading 00/01 thetas)
    _add(reg, "S2.ratio.item1i", "equality", 6,
         "10/01 ratio against the doubled-argument brace, minus branch",
         equality_check(
             lambda o: mumford("10", o) * mumford("01", o).inverse() * brace_minus(o),
             lambda o: mumford("01", o) * mumford("10", o),
         ))
    _add(reg, "S2.ratio.item1ii", "equality", 6,
         "10/00 ratio against the doubled-argument brace, plus branch",
         equality_check(
             lambda o: mumford("10", o) * mumford("00", o).inverse() * brace_plus(o),
             lambda o: mumford("00", o) * mumford("10", o),
         ))
    _add(reg, "S2.ratio.item2i", "equality", 6,
         "10/01 ratio times doubled 01",
         equality_check(
             lambda o: mumford("10", o) * mumford("01", o).inverse() * mum2("01")(o),
             _prod(_e(2, 1), _e(1, -2),
                   lambda o: mumford("00", o) * mumford("10", o)),
         ))
    _add(reg, "S2.ratio.item2ii", "equality", 6,
         "10/00 ratio times doubled 01",
         equality_check(
             lambda o: mumford("10", o) * mumford("00", o).inverse() * mum2("01")(o),
             _prod(_e(2, 1), _e(1, -2),
                   lambda o: mumford("01", o) * mumford("10", o)),
         ))

    # squares of the degree-1 thetas
    sq_a = _prod(_e(1, 4), _e(rat(1, 2), -2), _e(2, -2), lambda o: mumford("00", o))
    sq_b = _prod(_e(rat(1, 2), 2), _e(1, -2), lambda o: mumford("01", o))

    def half_eta(sign):
        def b(o):
            s = sq_a(o) + sq_b(o) if sign > 0 else sq_a(o) - sq_b(o)
            return (eta(1, 1, o) * s).times_monomial(cyclo.from_rational(rat(1, 2)))

        return b

    _add(reg, "S2.squares.item1", "equality", 6,
         "square of the index-0 degree-1 theta",
         equality_check(lambda o: theta_jm(0, 1, o) * theta_jm(0, 1, o),
                        half_eta(1)))
    _add(reg, "S2.squares.item2", "equality", 6,
         "square of the index-1 degree-1 theta",
         equality_check(lambda o: theta_jm(1, 1, o) * theta_jm(1, 1, o),
                        half_eta(-1)))
    _add(reg, "S2.squares.item3", "equality", 6,
         "product of the two degree-1 thetas",
         equality_check(
             lambda o: theta_jm(0, 1, o) * theta_jm(1, 1, o),
             _prod(_e(2, 2), _e(1, -1), lambda o: mumford("10", o)),
         ))

    # argument-shift laws
    for m in _SMALL:
        for p in _SHIFTS:
            for tag, sgn in (("1i", 1), ("1ii", -1)):
                idx = rat(m * (4 * p + sgn), 2)
                tsh = rat(m * (4 * p + sgn), 2 * (m + 1))
                qpow = -rat(m * m, m + 1) * rat(4 * p + sgn, 4) ** 2
                ph = phase(rat(m * (4 * p + sgn), 8))
                twist = 1 if m % 2 else -1
                lhs_a = _gen(theta, ThetaSpec(0, m + 1, zcoeff=0, tshift=tsh,
                                              cshift=rat(-1, 2)))
                mid_a = _gen(theta, ThetaSpec(idx, m + 1, zcoeff=0,
                                              cshift=rat(-1, 2)))
                _add(reg, f"S2.shift626a.item{tag}a.p{p}m{m}", "equality", 6,
                     f"half-period slice vs shifted index, m={m}, p={p}",
                     equality_check(lhs_a, _shifted(mid_a, qpow, coeff=ph)))
                _add(reg, f"S2.shift626a.item{tag}b.p{p}m{m}", "equality", 6,
                     f"half-period slice vs twisted constant, m={m}, p={p}",
                     equality_check(lhs_a, _shifted(
                         _gen(theta_pm, twist, idx, m + 1), qpow)))

            absorptions = []  # (tag, anchor, tau-shift, z sign, q^, z^, index)
            for tag, sgn, zsgn in (
                ("2i", 1, 1),
                ("2ii", 1, -1),
                ("3i", -1, 1),
                ("3ii", -1, -1),
            ):
                absorptions.append((
                    tag, "tau-shift absorption", rat(4 * p + sgn, 2 * (m + 1)),
                    zsgn, -rat(1, 16) * rat((4 * p + sgn) ** 2, m + 1),
                    -rat(4 * p + sgn, 4) * zsgn,
                    (rat(2 * p) + rat(sgn, 2)) * zsgn,
                ))
            for tag, zsgn in (("4i", 1), ("4ii", -1)):
                off = rat(4 * p - 1, 4) + zsgn * rat(m + 1, 2)
                absorptions.append((
                    tag, "full-period tau-shift absorption",
                    rat(4 * p - 1, 2 * (m + 1)) + zsgn, zsgn,
                    -rat(1, m + 1) * off**2, -off * zsgn,
                    (2 * p - rat(1, 2) + m + 1) * zsgn,
                ))

            for tag, what, tsh, zsgn, qpow, zpow, idx in absorptions:
                _add(reg, f"S2.shift626a.item{tag}.p{p}m{m}", "equality", 6,
                     f"{what}, m={m}, p={p}, branch {tag}",
                     equality_check(
                         _gen(theta, ThetaSpec(0, m + 1, zcoeff=zsgn, tshift=tsh)),
                         _shifted(_gen(theta_jm, idx, m + 1), qpow, zpow),
                     ))

    for p in _SHIFTS:
        for tag, tsh, qpow, zpow, idx in (
            ("1", rat(4 * p + 1, 4), -rat(4 * p + 1, 4) ** 2,
             -rat(4 * p + 1, 4), rat(-1, 2)),
            ("2", -rat(4 * p + 1, 4), -rat(4 * p + 1, 4) ** 2,
             rat(4 * p + 1, 4), rat(1, 2)),
            ("3", rat(3 - 4 * p, 4), -rat(4 * p - 3, 4) ** 2,
             rat(4 * p - 3, 4), rat(1, 2)),
        ):
            _add(reg, f"S2.shift626c.item{tag}.p{p}", "equality", 6,
                 f"doubled-argument 10-theta tau-shift, p={p}, item {tag}",
                 equality_check(
                     _gen(mumford, "10", qscale=2, tshift=2 * tsh),
                     _shifted(_gen(theta_jm, idx, 1), qpow, zpow),
                 ))

    # shifted theta over shifted doubled 10-theta:
    # (tag, (z sign, tau-shift), denominator tau-shift, index, denominator
    # index, q^, z^)
    for m in _SMALL:
        for p in _SHIFTS:
            qr = rat(m, m + 1) * rat(4 * p + 1, 4) ** 2
            qr2 = rat(m, m + 1) * rat(4 * p - 1, 4) ** 2 - rat(m, 4)
            h = 2 * p + rat(1, 2)
            t1 = rat(4 * p + 1, 2 * (m + 1))
            t2 = rat(4 * p - 1, 2 * (m + 1))
            i2 = 2 * p - rat(1, 2) + m + 1
            for tag, num, den_tsh, idx, den_idx, qpow, zpow in (
                ("1i", (1, t1), h, h, rat(-1, 2), qr, R0),
                ("1ii", (-1, t1), -h, -h, rat(1, 2), qr, R0),
                ("2i", (1, t2 + 1), h, i2, rat(-1, 2), qr2, -rat(m, 2)),
                ("2ii", (-1, t2 - 1), rat(3, 2) - 2 * p, -i2, rat(1, 2), qr2,
                 -rat(m, 2)),
            ):
                _add(reg, f"S2.shift626d.item{tag}.p{p}m{m}", "equality", 6,
                     f"shifted-theta over shifted-10 ratio, m={m}, p={p}, "
                     f"branch {tag}",
                     equality_check(
                         _gen(_shifted_ratio, m, *num, den_tsh),
                         _gen(_index_ratio, m, idx, den_idx, qpow, zpow),
                     ))


def _shifted_ratio(m, zcoeff, tshift, den_tshift, order):
    num = theta(ThetaSpec(0, m + 1, zcoeff=zcoeff, tshift=tshift), order)
    return num * mumford("10", order, qscale=2, tshift=den_tshift).inverse()


def _index_ratio(m, idx, den_idx, qpow, zpow, order):
    t = theta_jm(idx, m + 1, order) * theta_jm(den_idx, 1, order).inverse()
    return t.times_monomial(cyclo.ONE, qpow, zpow)


def _build_s3(reg):
    _add(reg, "S3.coincide.00", "equality", 8,
         "doubled 00-theta equals the index-0 degree-1 theta",
         equality_check(lambda o: mumford("00", o, qscale=2),
                        lambda o: theta_jm(0, 1, o)))
    _add(reg, "S3.coincide.10", "equality", 8,
         "doubled 10-theta equals the index-1 degree-1 theta",
         equality_check(lambda o: mumford("10", o, qscale=2),
                        lambda o: theta_jm(1, 1, o)))

    for m2, lbl, coef in ((0, "00", cyclo.MINUS_ONE), (1, "10", -cyclo.I)):
        _add(reg, f"S3.char-m1.{m2}", "equality", 6,
             f"level-1 character (label {m2}) built two ways",
             equality_check(
                 _gen(character, 1, m2),
                 _shifted(_prod(_gen(mumford, lbl, qscale=2), _e(1, -1)), R0,
                          coeff=coef),
             ))

    def chmul(a, b):
        return _prod(_gen(character, *a), _gen(character, *b))

    # inversion of the level-2 / level-4 formulas
    _add(reg, "S3.inv609a.item1i", "equality", 6,
         "00-theta from the two even level-2 characters",
         equality_check(
             lambda o: mumford("00", o),
             lambda o: (
                 _prod(_e(rat(1, 2), 1), _e(2, 1))(o)
                 * (character(2, 0, o) - character(2, 2, o))
             ).times_monomial(cyclo.MINUS_ONE),
         ))
    _add(reg, "S3.inv609a.item1ii", "equality", 6,
         "01-theta from the two even level-2 characters",
         equality_check(
             lambda o: mumford("01", o),
             lambda o: (
                 _prod(_e(1, 1), _e(2, 1), _e(rat(1, 2), -1))(o)
                 * (character(2, 0, o) + character(2, 2, o))
             ).times_monomial(cyclo.MINUS_ONE),
         ))
    _add(reg, "S3.inv609a.item2i", "equality", 6,
         "01 times 10 from the level-4 characters",
         equality_check(
             lambda o: mumford("01", o) * mumford("10", o),
             lambda o: (
                 _prod(_e(rat(1, 2), 1), _e(2, 1))(o)
                 * (character(4, 1, o) + character(4, 3, o))
             ).times_monomial(-cyclo.I),
         ))
    _add(reg, "S3.inv609a.item2ii", "equality", 6,
         "00 times 10 from the level-4 characters",
         equality_check(
             lambda o: mumford("00", o) * mumford("10", o),
             lambda o: (
                 _prod(_e(rat(1, 2), 1), _e(1, 2))(o)
                 * (character(4, 1, o) - character(4, 3, o))
             ).times_monomial(-cyclo.I),
         ))

    A = _prod(_e(1, 3), _e(rat(1, 2), -1), _e(2, -1))
    B = _prod(_e(rat(1, 2), 1), _e(2, 1), _e(1, -2))
    C = _prod(_e(1, 1), _e(rat(1, 2), -1))
    half = cyclo.from_rational(rat(1, 2))
    mhalf = cyclo.from_rational(rat(-1, 2))

    _add(reg, "S3.prod.K1xK1.case1", "branching", 6,
         "product of the two level-1 characters over the odd level-2 character",
         equality_check(
             chmul((1, 0), (1, 1)),
             lambda o: B(o) * character(2, 1, o),
         ))
    _add(reg, "S3.prod.K1xK1.case2", "branching", 6,
         "square of the even level-1 character over even level-2 characters",
         equality_check(
             chmul((1, 0), (1, 0)),
             lambda o: ((A(o) + B(o)) * character(2, 0, o)).times_monomial(mhalf)
             + ((A(o) - B(o)) * character(2, 2, o)).times_monomial(half),
         ))
    _add(reg, "S3.prod.K1xK1.case3", "branching", 6,
         "square of the odd level-1 character over even level-2 characters",
         equality_check(
             chmul((1, 1), (1, 1)),
             lambda o: ((A(o) - B(o)) * character(2, 0, o)).times_monomial(half)
             + ((A(o) + B(o)) * character(2, 2, o)).times_monomial(mhalf),
         ))
    _add(reg, "S3.prod.K2xK2.case1", "branching", 6,
         "odd level-2 times even level-2 (label 0) over level-4 characters",
         equality_check(
             chmul((2, 1), (2, 0)),
             lambda o: ((C(o) + B(o)) * character(4, 1, o)).times_monomial(mhalf)
             + ((C(o) - B(o)) * character(4, 3, o)).times_monomial(half),
         ))
    _add(reg, "S3.prod.K2xK2.case2", "branching", 6,
         "odd level-2 times even level-2 (label 2) over level-4 characters",
         equality_check(
             chmul((2, 1), (2, 2)),
             lambda o: ((C(o) - B(o)) * character(4, 1, o)).times_monomial(half)
             + ((C(o) + B(o)) * character(4, 3, o)).times_monomial(mhalf),
         ))


def _pindep_case(m: int, sector: str):
    def run(order):
        build = numerator_half if sector == "half" else numerator_int
        series = {}
        for p in (0, 1, 2):
            if sector == "half" and _half_divisor_degenerate(m, p):
                # divisor vanishes identically: the construction must refuse,
                # and the undivided combination must vanish identically
                try:
                    build(m, p, order)
                except DegenerateDivisorError:
                    pass
                else:
                    return False, (R0, R0)
                comb = undivided_half_combination(m, p, order).restrict(order)
                if not comb.is_zero_series():
                    q, z, _ = comb.monomials()[0]
                    return False, (q, z)
                continue
            series[p] = build(m, p, order)
        base = series[0]
        for p, f in series.items():
            ok, mm = base.equal_up_to(f, order)
            if not ok:
                return False, mm
        return True, None

    return run


def _build_s4(reg):
    for m in (1, 2, 3, 4, 5):
        _add(reg, f"S4.pindep.m{m}.half", "p-independence", 4,
             f"half-sector numerator shift-independence, level {m}",
             _pindep_case(m, "half"))
    for m in (1, 3, 5):
        _add(reg, f"S4.pindep.m{m}.int", "p-independence", 4,
             f"integer-sector numerator shift-independence, level {m}",
             _pindep_case(m, "int"))


def _ub(m, sector):
    return lambda k: u_basis(m, sector, k)


def _vgens(m, sector):
    """Deferred numerator family F[m, s], s <= (m+1)/2 in the sector."""
    ss = []
    s = rat(1, 2) if sector == "half" else rat(1)
    while s <= rat(m + 1, 2):
        ss.append(s)
        s += 1
    return lambda k: [numerator(m, s, k) for s in ss]


def _generator_multiples_check(factor, m, sector, m2, sector2):
    """factor times every level-m sector generator lies in the level-m2
    sector2 span."""

    def run(order):
        for i in range(len(u_basis(m, sector, order))):
            ok, wit = membership_check(
                _prod(factor, lambda o, i=i: u_basis(m, sector, o)[i]),
                _ub(m2, sector2),
            )(order)
            if not ok:
                return False, wit
        return True, None

    return run


def _build_s5(reg):
    # ladder steps
    for m, ss in ((2, (rat(1, 2), rat(3, 2))), (3, (rat(1, 2), rat(1), rat(3, 2)))):
        for s in ss:
            _add(reg, f"S5.ladder.m{m}.s{_fmt(s)}", "equality", 4,
                 f"numerator ladder step, level {m}, s={_fmt(s)}",
                 equality_check(
                     lambda o, m=m, s=s: numerator(m, s, o) - numerator(m, s + 1, o),
                     _gen(ladder_step, m, s),
                 ))
    _add(reg, "S5.ladder.degenerate.m1", "equality", 4,
         "vanishing ladder step at level 1",
         equality_check(lambda o: numerator(1, rat(1, 2), o),
                        lambda o: numerator(1, rat(3, 2), o)))

    # membership of shifted ratio pairs
    for m in _SMALL:
        for p in (-2, -1, 0, 1, 2):
            _add(reg, f"S5.member.half.m{m}.p{p}", "membership", 4,
                 f"shifted half-sector ratio pair in the level-{m} span, p={p}",
                 membership_check(_gen(ratio_pair, 2 * p + rat(1, 2), m + 1),
                                  _ub(m, "half")))
    for m in (1, 3):
        for p in (-2, -1, 0, 1, 2):
            _add(reg, f"S5.member.int.m{m}.p{p}", "membership", 4,
                 f"shifted integer-sector ratio pair in the level-{m} span, p={p}",
                 membership_check(_gen(ratio_pair, 2 * p + rat(1, 2) + m, m + 1),
                                  _ub(m, "integer")))
            _add(reg, f"S5.member707a.m{m}.p{p}", "membership", 4,
                 f"odd-level alternative ratio pair in the integer span, p={p}",
                 membership_check(_gen(ratio_pair, 2 * p - rat(1, 2), m + 1),
                                  _ub(m, "integer")))

    # simpler characterization of the odd-level integer span
    for m in (1, 3):
        def alt(k, m=m):
            return [ratio_pair(rat(-1, 2), m + 1, k)] + [
                bracket(kk, m, k) for kk in range(2, m, 2)
            ]

        _add(reg, f"S5.simpler.m{m}", "span", 4,
             f"two presentations of the level-{m} integer-sector span",
             span_check(_ub(m, "integer"), alt))

    # U = V
    for m in (1, 2, 3, 4):
        _add(reg, f"S5.UeqV.m{m}.half", "span", 4,
             f"numerator family spans the half-sector quotient space, level {m}",
             span_check(_vgens(m, "half"), _ub(m, "half")))
    for m in (1, 3):
        _add(reg, f"S5.UeqV.m{m}.integer", "span", 4,
             f"numerator family spans the integer-sector quotient space, "
             f"level {m}",
             span_check(_vgens(m, "integer"), _ub(m, "integer")))

    # closure of brackets under low-degree theta multiplication
    # n = 2 with odd j is excluded: the single theta_{1,2} times a bracket
    # is NOT in any level-(m+2) span (only the symmetrized 10-combination
    # closes; see the explicit counterexample in the test suite)
    for m in (2, 3):
        for k in range(1, m):
            for n, js in ((1, (0, 1)), (2, (0, 2))):
                for j in js:
                    sector = "half" if (k + j) % 2 else "integer"
                    _add(reg,
                         f"S5.thetaclosure.n{n}j{j}.m{m}k{k}",
                         "membership", 4,
                         f"degree-{n} theta (index {j}) times bracket "
                         f"(level {m}, index {k}) lands in the level-{m + n} "
                         f"{sector} span",
                         membership_check(
                             _prod(_gen(theta_jm, j, n), _gen(bracket, k, m)),
                             _ub(m + n, sector),
                         ))

    # explicit multiplication of ratio pairs by low-degree thetas:
    # (tag, factor, ratio-pair index, (level, constant level, count),
    # pair index (i0, i1), constant index (c0, c1))
    h = rat(1, 2)
    for m in _SMALL:
        f = 2 * (m + 1)
        lo = (m + 2, (m + 1) * (m + 2), m + 2)
        hi = (m + 3, f * (m + 3), m + 3)
        hi2 = (m + 3, f * (m + 3), 2 * (m + 3))
        # the printed coefficient index of items 5i/5ii reads
        # -1 + (1 -+ 2r)(m+1); the identity verifies (and is derivable from
        # the two-term degree-2 law) only with +1
        for tag, factor, a, (level, cl, count), index, (c0, c1) in (
            ("1i", _gen(theta_jm, 0, 1), h, lo, (h, 2), (h, -f)),
            ("1ii", _gen(theta_jm, 0, 1), -h, lo, (-h, 2), (h, f)),
            ("2i", _gen(theta_jm, 1, 1), h, lo, (-h, 2), (h + m + 1, -f)),
            ("2ii", _gen(theta_jm, 1, 1), -h, lo, (h, 2), (h + m + 1, f)),
            ("3i", _gen(theta_jm, 0, 2), h, hi, (h, 4), (1, -2 * f)),
            ("3ii", _gen(theta_jm, 0, 2), -h, hi, (-h, 4), (1, 2 * f)),
            ("4i", _gen(theta_jm, 2, 2), h, hi, (5 * h, 4), (1 - f, -2 * f)),
            ("4ii", _gen(theta_jm, 2, 2), -h, hi, (3 * h, 4), (1 + f, 2 * f)),
            ("5i", _gen(mumford, "10"), h, hi2, (-h, 2), (m + 2, -f)),
            ("5ii", _gen(mumford, "10"), -h, hi2, (h, 2), (m + 2, f)),
        ):
            _add(reg, f"S5.bigmult.item{tag}.m{m}", "equality", 4,
                 f"ratio-pair multiplication law item {tag}, level {m}",
                 equality_check(
                     _prod(factor, _gen(ratio_pair, a, m + 1)),
                     _law(ratio_pair, level, index, (c0, c1, cl), count),
                 ))

    # closure lemma: products stay inside the higher-level spans
    closure = []
    for m in _SMALL:
        closure.append((f"item1.m{m}", m, "half",
                        lambda o: theta_jm(0, 1, o), m + 1, "half"))
    closure.append(("item2i.m2", 2, "half", lambda o: theta_jm(1, 1, o), 3,
                    "integer"))
    for m in (1, 3):
        closure.append((f"item2ii.m{m}", m, "integer",
                        lambda o: theta_jm(1, 1, o), m + 1, "half"))
    for j in (0, 2):
        for m in _SMALL:
            closure.append((f"item3i.j{j}.m{m}", m, "half",
                            _gen(theta_jm, j, 2), m + 2, "half"))
        for m in (1, 3):
            closure.append((f"item3ii.j{j}.m{m}", m, "integer",
                            _gen(theta_jm, j, 2), m + 2, "integer"))
    for m in (1, 3):
        closure.append((f"item4i.m{m}", m, "half", lambda o: mumford("10", o),
                        m + 2, "integer"))
        closure.append((f"item4ii.m{m}", m, "integer", lambda o: mumford("10", o),
                        m + 2, "half"))
        for b in (0, 1):
            prod = _prod(_gen(mumford, "10"), _gen(mumford, f"0{b}"))
            closure.append((f"item5i.b{b}.m{m}", m, "half", prod, m + 4,
                            "integer"))
            closure.append((f"item5ii.b{b}.m{m}", m, "integer", prod, m + 4,
                            "half"))

    for tag, m, sector, factor, m2, sector2 in closure:
        _add(reg, f"S5.closure.{tag}", "membership", 4,
             f"theta multiple of every level-{m} {sector} generator lands in "
             f"the level-{m2} {sector2} span",
             _generator_multiples_check(factor, m, sector, m2, sector2))

    # character closure: U-version (f ranges over span generators) and
    # V-version (f is the numerator base of the sector)
    charclosure = []
    for m in _SMALL:
        charclosure.append(((1, 0), m, "half", m + 1, "half"))
    charclosure.append(((1, 1), 2, "half", 3, "integer"))
    for m in (1, 3):
        charclosure.append(((1, 1), m, "integer", m + 1, "half"))
    for lbl in ((2, 0), (2, 2)):
        for m in _SMALL:
            charclosure.append((lbl, m, "half", m + 2, "half"))
        for m in (1, 3):
            charclosure.append((lbl, m, "integer", m + 2, "integer"))
    for m in (1, 3):
        for sector, sector2 in (("half", "integer"), ("integer", "half")):
            charclosure.append(((2, 1), m, sector, m + 2, sector2))
            charclosure.append(((4, 1), m, sector, m + 4, sector2))
            charclosure.append(((4, 3), m, sector, m + 4, sector2))

    for lbl, m, sector, m2, sector2 in charclosure:
        _add(reg,
             f"S5.charclosure.U.ch{lbl[0]}-{lbl[1]}.m{m}.{sector}",
             "membership", 4,
             f"level-{lbl[0]} character (label {lbl[1]}) times every level-{m} "
             f"{sector} generator lands in the level-{m2} {sector2} span",
             _generator_multiples_check(
                 _gen(character, *lbl), m, sector, m2, sector2))
        base = numerator_half if sector == "half" else numerator_int
        _add(reg,
             f"S5.charclosure.V.ch{lbl[0]}-{lbl[1]}.m{m}.{sector}",
             "membership", 4,
             f"level-{lbl[0]} character (label {lbl[1]}) times the level-{m} "
             f"{sector} numerator lands in the level-{m2} {sector2} span",
             membership_check(_prod(_gen(character, *lbl), _gen(base, m, 0)),
                              _ub(m2, sector2)))

    # products of characters stay inside the character spaces
    conj_pairs = {
        1: [((1, 0), (1, 0)), ((1, 0), (2, 0)), ((1, 0), (2, 2))],
        2: [((1, 1), (1, 1)), ((1, 1), (2, 0)), ((1, 1), (2, 2))],
        3: [((2, 0), (1, 0)), ((2, 0), (2, 0)), ((2, 0), (2, 2)),
            ((2, 2), (1, 0)), ((2, 2), (2, 0)), ((2, 2), (2, 2))],
        4: [((2, 0), (1, 1)), ((2, 2), (1, 1))],
        5: [((2, 1), (1, 0)), ((2, 1), (1, 1))],
        6: [((4, 1), (1, 0)), ((4, 1), (1, 1)),
            ((4, 3), (1, 0)), ((4, 3), (1, 1))],
        7: [((1, 0), (1, 1))],
        8: [((2, 1), (2, 0)), ((2, 1), (2, 2))],
    }
    for case_no, pairs in conj_pairs.items():
        for left, right in pairs:
            lvl = left[0] + right[0]
            parity = (left[1] + right[1]) % 2
            cid = (f"S5.conj.case{case_no}."
                   f"{left[0]}-{left[1]}x{right[0]}-{right[1]}")
            if branching_basis(left, right):
                _add(reg, cid, "branching", 4,
                     f"character product decomposes over level-{lvl} "
                     f"characters of parity {parity}",
                     _branching(left, right))
            else:
                sector = "integer" if parity else "half"
                _add(reg, cid, "membership", 4,
                     f"denominator times character product lands in the "
                     f"level-{lvl} {sector} span",
                     membership_check(_denominator_times(left, right),
                                      _ub(lvl, sector)))

    # derived denominator structure and uses
    def zcoset_run(order):
        r = derived_denominator(order)
        bad = [
            (q, z)
            for q, z, _ in r.monomials()
            if (2 * z).denominator != 1 or int(2 * z) % 2 == 0
        ]
        return not bad, min(bad, default=None)

    _add(reg, "S5.denominator.zcoset", "zfree", 4,
         "derived denominator is supported on half-odd elliptic exponents",
         zcoset_run)
    _add(reg, "S5.denominator.span.m2", "span", 4,
         "denominator times even level-2 characters spans the level-2 "
         "numerator family",
         span_check(
             lambda k: [_denominator_times((2, m2))(k) for m2 in (0, 2)],
             lambda k: [numerator(2, s, k) for s in (rat(1, 2), rat(3, 2))],
         ))
    _add(reg, "S5.denominator.prop.m1-1", "membership", 4,
         "denominator times the odd level-1 character is proportional to the "
         "level-1 integer numerator",
         membership_check(
             _denominator_times((1, 1)),
             lambda k: [numerator(1, rat(1), k)],
         ))


def registry() -> dict:
    global _REGISTRY
    if _REGISTRY is None:
        reg: dict = {}
        _build_s2(reg)
        _build_s3(reg)
        _build_s4(reg)
        _build_s5(reg)
        _REGISTRY = dict(sorted(reg.items()))
    return _REGISTRY


def list_identities():
    """Deterministic (id, kind, default_order, anchor) listing."""
    return [
        (c.id, c.kind, c.default_order, c.anchor) for c in registry().values()
    ]


class UnknownIdentityError(KeyError):
    pass


def run_identity(id_: str, order=None) -> Report:
    reg = registry()
    case = reg.get(id_)
    if case is None:
        raise UnknownIdentityError(id_)
    order = case.default_order if order is None else rat(order)
    t0 = time.perf_counter()
    try:
        ok, mismatch = case.run(order)
        wall = (time.perf_counter() - t0) * 1000.0
        return Report(case.id, case.kind, "pass" if ok else "fail", order,
                      mismatch, wall)
    except Exception as exc:  # captured per report, runner keeps going
        wall = (time.perf_counter() - t0) * 1000.0
        return Report(case.id, case.kind, "error", R0, None, wall,
                      error=f"{type(exc).__name__}: {exc}")


def _worker(args):
    id_, order_str = args
    order = None if order_str is None else rat(order_str)
    return run_identity(id_, order)


def run_all(order_overrides=None, jobs: int = 1, ids=None) -> list[Report]:
    """Run every case (or the given ids), reports merged in id order."""
    reg = registry()
    if ids is None:
        ids = list(reg)
    overrides = order_overrides or {}

    def order_for(i):
        o = overrides.get(i, overrides.get("*"))
        return None if o is None else rat(o)

    if jobs <= 1:
        return [run_identity(i, order_for(i)) for i in ids]
    tasks = [
        (i, None if order_for(i) is None else str(order_for(i))) for i in ids
    ]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        chunk = max(1, len(tasks) // (jobs * 4))
        return list(pool.map(_worker, tasks, chunksize=chunk))


def summarize(reports) -> dict:
    counts = {"pass": 0, "fail": 0, "error": 0}
    for r in reports:
        counts[r.status] += 1
    counts["total"] = len(reports)
    return counts

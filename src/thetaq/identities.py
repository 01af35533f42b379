"""Registry of executable identity checks and the runner that certifies them.

Each case binds a named statement (theta multiplication laws, argument-shift
laws, character product formulas, numerator p-independence, span and closure
statements) to deferred series builders plus a default truncation order.
``run_identity`` produces a deterministic report; ``run_all`` fans the cases
out over a process pool and merges reports in id order.

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
from .linsolve import membership
from .numerators import (
    DegenerateDivisorError,
    _half_divisor_degenerate,
    branching_basis,
    certify,
    character,
    derived_denominator,
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


@dataclass
class CheckResult:
    status: str  # pass | fail
    certified_order: object
    first_mismatch: tuple | None = None


@dataclass(frozen=True)
class IdentityCase:
    id: str
    kind: str  # equality | p-independence | membership | span | zfree | branching
    default_order: object
    anchor: str
    run: object  # Callable[[rational], CheckResult]


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


def equality_check(lhs_builder, rhs_builder):
    """Builders are run at ``order`` and rebuilt higher on a shortfall."""

    def run(order):
        def attempt(k):
            ok, mm = lhs_builder(k).equal_up_to(rhs_builder(k), order)
            return CheckResult("pass" if ok else "fail", order, mm)

        return certify(attempt, order)

    return run


def membership_check(target_builder, basis_builder):
    """basis_builder(order) -> list of Series; retried on trust shortfalls."""

    def run(order):
        def attempt(k):
            ok, wit = membership(target_builder(k), basis_builder(k), order)
            return CheckResult("pass" if ok else "fail", order, wit)

        return certify(attempt, order)

    return run


def span_check(a_builder, b_builder):
    """Mutual membership of two generating families."""

    def run(order):
        def attempt(k):
            fam_a, fam_b = a_builder(k), b_builder(k)
            for xs, ys in ((fam_a, fam_b), (fam_b, fam_a)):
                for x in xs:
                    ok, wit = membership(x, ys, order)
                    if not ok:
                        return CheckResult("fail", order, wit)
            return CheckResult("pass", order)

        return certify(attempt, order)

    return run


def _e(c, p):
    return lambda o: eta(rat(c), p, o)


def _prod(*bs):
    def b(o):
        out = Series.one(rat(o))
        for x in bs:
            out = out * x(o)
        return out

    return b


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
    for n in _SMALL:
        for m in _SMALL:
            for j in _HALVES:
                for k in _HALVES:

                    def lhs(order, n=n, m=m, j=j, k=k):
                        return theta_jm(j, n, order) * theta_jm(k, m, order)

                    def rhs(order, n=n, m=m, j=j, k=k):
                        out = Series.zero(rat(order))
                        for r in range(m + n):
                            c = theta_zero_arg(
                                2 * m * n * r + k * n - j * m, m * n * (m + n), order
                            )
                            out = out + c * theta_jm(j + k + 2 * m * r, m + n, order)
                        return out

                    _add(
                        reg,
                        f"S2.mult-lemma.n{n}m{m}.j{_fmt(j)}k{_fmt(k)}",
                        "equality",
                        6,
                        f"theta multiplication law, degrees ({n},{m}), "
                        f"indices ({_fmt(j)},{_fmt(k)})",
                        equality_check(lhs, rhs),
                    )

    # degree-1 and degree-2 specializations
    for m in _SMALL:
        for k in _HALVES:

            def lhs1(order, m=m, k=k):
                return theta_jm(0, 1, order) * theta_jm(k, m, order)

            def rhs1(order, m=m, k=k):
                out = Series.zero(rat(order))
                for r in range(m + 1):
                    out = out + theta_jm(k + 2 * r, m + 1, order) * theta_zero_arg(
                        k - 2 * m * r, m * (m + 1), order
                    )
                return out

            def lhs2(order, m=m, k=k):
                return theta_jm(1, 1, order) * theta_jm(k, m, order)

            def rhs2(order, m=m, k=k):
                out = Series.zero(rat(order))
                for r in range(m + 1):
                    out = out + theta_jm(
                        k + 2 * r + 1, m + 1, order
                    ) * theta_zero_arg(k - (2 * r + 1) * m, m * (m + 1), order)
                return out

            _add(reg, f"S2.n1spec.i1.m{m}k{_fmt(k)}", "equality", 6,
                 f"index-0 degree-1 multiplication, level {m}, index {_fmt(k)}",
                 equality_check(lhs1, rhs1))
            _add(reg, f"S2.n1spec.i2.m{m}k{_fmt(k)}", "equality", 6,
                 f"index-1 degree-1 multiplication, level {m}, index {_fmt(k)}",
                 equality_check(lhs2, rhs2))

            for item, (jj, ishift, cshift) in enumerate(
                (
                    (0, 0, lambda m, r: -4 * m * r),
                    (2, 2, lambda m, r: -2 * m - 4 * m * r),
                    (1, 1, lambda m, r: -m - 4 * m * r),
                    (-1, -1, lambda m, r: m - 4 * m * r),
                ),
                start=1,
            ):

                def lhs3(order, m=m, k=k, jj=jj):
                    return theta_jm(jj, 2, order) * theta_jm(k, m, order)

                def rhs3(order, m=m, k=k, ishift=ishift, cshift=cshift):
                    out = Series.zero(rat(order))
                    for r in range(m + 2):
                        out = out + theta_jm(
                            k + ishift + 4 * r, m + 2, order
                        ) * theta_zero_arg(
                            2 * k + cshift(m, r), 2 * m * (m + 2), order
                        )
                    return out

                _add(reg, f"S2.n2spec.i{item}.m{m}k{_fmt(k)}", "equality", 6,
                     f"degree-2 multiplication item {item}, level {m}, "
                     f"index {_fmt(k)}",
                     equality_check(lhs3, rhs3))

            def lhs4(order, m=m, k=k):
                return (theta_jm(1, 2, order) + theta_jm(-1, 2, order)) * theta_jm(
                    k, m, order
                )

            def rhs4(order, m=m, k=k):
                out = Series.zero(rat(order))
                for r in range(2 * (m + 2)):
                    out = out + theta_jm(
                        k - 1 + 2 * r, m + 2, order
                    ) * theta_zero_arg(2 * k + m - 2 * m * r, 2 * m * (m + 2), order)
                return out

            _add(reg, f"S2.vt10spec.m{m}k{_fmt(k)}", "equality", 6,
                 f"two-term degree-2 multiplication, level {m}, index {_fmt(k)}",
                 equality_check(lhs4, rhs4))

    # classical two-variable thetas as index combinations
    combos = {
        "00": lambda o: theta_jm(0, 2, o) + theta_jm(2, 2, o),
        "01": lambda o: theta_jm(0, 2, o) - theta_jm(2, 2, o),
        "10": lambda o: theta_jm(1, 2, o) + theta_jm(-1, 2, o),
        "11": lambda o: (theta_jm(1, 2, o) - theta_jm(-1, 2, o)).times_monomial(
            cyclo.I
        ),
    }
    for label, combo in combos.items():
        _add(reg, f"S2.mumford-def.{label}", "equality", 6,
             f"two-variable theta {label} as degree-2 combination",
             equality_check(lambda o, label=label: mumford(label, o), combo))

    def mum2(label):
        return lambda o: mumford(label, o, qscale=2, zcoeff=2)

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

                def lhs_a(order, m=m, tsh=tsh):
                    return theta(
                        ThetaSpec(0, m + 1, zcoeff=0, tshift=tsh, cshift=rat(-1, 2)),
                        order,
                    )

                def mid_a(order, m=m, idx=idx, qpow=qpow, ph=ph):
                    t = theta(
                        ThetaSpec(idx, m + 1, zcoeff=0, cshift=rat(-1, 2)),
                        order - qpow,
                    )
                    return t.times_monomial(ph, qpow, R0)

                def rhs_b(order, m=m, idx=idx, qpow=qpow, twist=twist):
                    t = theta_pm(twist, idx, m + 1, order - qpow)
                    return t.times_monomial(cyclo.ONE, qpow, R0)

                _add(reg, f"S2.shift626a.item{tag}a.p{p}m{m}", "equality", 6,
                     f"half-period slice vs shifted index, m={m}, p={p}",
                     equality_check(lhs_a, mid_a))
                _add(reg, f"S2.shift626a.item{tag}b.p{p}m{m}", "equality", 6,
                     f"half-period slice vs twisted constant, m={m}, p={p}",
                     equality_check(lhs_a, rhs_b))

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

                def lhs_z(order, m=m, tsh=tsh, zsgn=zsgn):
                    return theta(
                        ThetaSpec(0, m + 1, zcoeff=zsgn, tshift=tsh), order
                    )

                def rhs_z(order, m=m, idx=idx, qpow=qpow, zpow=zpow):
                    return theta_jm(idx, m + 1, order - qpow).times_monomial(
                        cyclo.ONE, qpow, zpow
                    )

                _add(reg, f"S2.shift626a.item{tag}.p{p}m{m}", "equality", 6,
                     f"{what}, m={m}, p={p}, branch {tag}",
                     equality_check(lhs_z, rhs_z))

    for p in _SHIFTS:
        for tag, tsh, qpow, zpow, idx in (
            ("1", rat(4 * p + 1, 4), -rat(4 * p + 1, 4) ** 2,
             -rat(4 * p + 1, 4), rat(-1, 2)),
            ("2", -rat(4 * p + 1, 4), -rat(4 * p + 1, 4) ** 2,
             rat(4 * p + 1, 4), rat(1, 2)),
            ("3", rat(3 - 4 * p, 4), -rat(4 * p - 3, 4) ** 2,
             rat(4 * p - 3, 4), rat(1, 2)),
        ):

            def lhs_c(order, tsh=tsh):
                return mumford("10", order, qscale=2, tshift=2 * tsh)

            def rhs_c(order, idx=idx, qpow=qpow, zpow=zpow):
                return theta_jm(idx, 1, order - qpow).times_monomial(
                    cyclo.ONE, qpow, zpow
                )

            _add(reg, f"S2.shift626c.item{tag}.p{p}", "equality", 6,
                 f"doubled-argument 10-theta tau-shift, p={p}, item {tag}",
                 equality_check(lhs_c, rhs_c))

    for m in _SMALL:
        for p in _SHIFTS:
            qr = rat(m, m + 1) * rat(4 * p + 1, 4) ** 2
            qr2 = rat(m, m + 1) * rat(4 * p - 1, 4) ** 2 - rat(m, 4)
            # the denominators' tau-shifts (doubled 10-theta), per branch
            dsh1 = 2 * p + rat(1, 2)
            dsh2 = -(2 * p + rat(1, 2))
            dsh3 = rat(3, 2) - 2 * p

            def lhs_d(order, m=m, num_z=1, num_tsh=R0, den_tsh=R0):
                num = theta(
                    ThetaSpec(0, m + 1, zcoeff=num_z, tshift=num_tsh), order
                )
                return num * mumford(
                    "10", order, qscale=2, tshift=den_tsh
                ).inverse()

            def rhs_d(order, m=m, idx=R0, qpow=R0, zpow=R0, den_idx=R0):
                t = theta_jm(idx, m + 1, order) * theta_jm(
                    den_idx, 1, order
                ).inverse()
                return t.times_monomial(cyclo.ONE, qpow, zpow)

            branches = (
                ("1i", dict(num_z=1, num_tsh=rat(4 * p + 1, 2 * (m + 1)),
                            den_tsh=dsh1),
                 dict(idx=2 * p + rat(1, 2), qpow=qr, zpow=R0,
                      den_idx=rat(-1, 2))),
                ("1ii", dict(num_z=-1, num_tsh=rat(4 * p + 1, 2 * (m + 1)),
                             den_tsh=dsh2),
                 dict(idx=-(2 * p + rat(1, 2)), qpow=qr, zpow=R0,
                      den_idx=rat(1, 2))),
                ("2i", dict(num_z=1, num_tsh=rat(4 * p - 1, 2 * (m + 1)) + 1,
                            den_tsh=dsh1),
                 dict(idx=2 * p - rat(1, 2) + m + 1, qpow=qr2, zpow=-rat(m, 2),
                      den_idx=rat(-1, 2))),
                ("2ii", dict(num_z=-1, num_tsh=rat(4 * p - 1, 2 * (m + 1)) - 1,
                             den_tsh=dsh3),
                 dict(idx=-(2 * p - rat(1, 2) + m + 1), qpow=qr2,
                      zpow=-rat(m, 2), den_idx=rat(1, 2))),
            )
            for tag, lkw, rkw in branches:
                _add(reg, f"S2.shift626d.item{tag}.p{p}m{m}", "equality", 6,
                     f"shifted-theta over shifted-10 ratio, m={m}, p={p}, "
                     f"branch {tag}",
                     equality_check(
                         lambda o, f=lhs_d, lkw=lkw: f(o, **lkw),
                         lambda o, f=rhs_d, rkw=rkw: f(o, **rkw),
                     ))


def _build_s3(reg):
    _add(reg, "S3.coincide.00", "equality", 8,
         "doubled 00-theta equals the index-0 degree-1 theta",
         equality_check(lambda o: mumford("00", o, qscale=2),
                        lambda o: theta_jm(0, 1, o)))
    _add(reg, "S3.coincide.10", "equality", 8,
         "doubled 10-theta equals the index-1 degree-1 theta",
         equality_check(lambda o: mumford("10", o, qscale=2),
                        lambda o: theta_jm(1, 1, o)))

    for m2 in (0, 1):
        lbl = "00" if m2 == 0 else "10"
        coef = cyclo.MINUS_ONE if m2 == 0 else -cyclo.I

        def via_mumford(order, lbl=lbl, coef=coef):
            return (mumford(lbl, order, qscale=2) * eta(1, -1, order)).times_monomial(
                coef
            )

        _add(reg, f"S3.char-m1.{m2}", "equality", 6,
             f"level-1 character (label {m2}) built two ways",
             equality_check(lambda o, m2=m2: character(1, m2, o), via_mumford))

    def chmul(a, b):
        return lambda o: character(*a, o) * character(*b, o)

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
                    return CheckResult("fail", order, (R0, R0))
                comb = undivided_half_combination(m, p, order).restrict(order)
                if not comb.is_zero_series():
                    q, z, _ = comb.monomials()[0]
                    return CheckResult("fail", order, (q, z))
                continue
            series[p] = build(m, p, order)
        base = series[0]
        for p, f in series.items():
            ok, mm = base.equal_up_to(f, order)
            if not ok:
                return CheckResult("fail", order, mm)
        return CheckResult("pass", order)

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
            chk = membership_check(
                lambda o, i=i: factor(o) * u_basis(m, sector, o)[i],
                _ub(m2, sector2),
            )(order)
            if chk.status != "pass":
                return chk
        return CheckResult("pass", order)

    return run


def _build_s5(reg):
    # ladder steps
    for m, ss in ((2, (rat(1, 2), rat(3, 2))), (3, (rat(1, 2), rat(1), rat(3, 2)))):
        for s in ss:
            _add(reg, f"S5.ladder.m{m}.s{_fmt(s)}", "equality", 4,
                 f"numerator ladder step, level {m}, s={_fmt(s)}",
                 equality_check(
                     lambda o, m=m, s=s: numerator(m, s, o) - numerator(m, s + 1, o),
                     lambda o, m=m, s=s: ladder_step(m, s, o),
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
                 membership_check(
                     lambda o, m=m, p=p: ratio_pair(2 * p + rat(1, 2), m + 1, o),
                     _ub(m, "half"),
                 ))
    for m in (1, 3):
        for p in (-2, -1, 0, 1, 2):
            _add(reg, f"S5.member.int.m{m}.p{p}", "membership", 4,
                 f"shifted integer-sector ratio pair in the level-{m} span, p={p}",
                 membership_check(
                     lambda o, m=m, p=p: ratio_pair(2 * p + rat(1, 2) + m, m + 1, o),
                     _ub(m, "integer"),
                 ))
            _add(reg, f"S5.member707a.m{m}.p{p}", "membership", 4,
                 f"odd-level alternative ratio pair in the integer span, p={p}",
                 membership_check(
                     lambda o, m=m, p=p: ratio_pair(2 * p - rat(1, 2), m + 1, o),
                     _ub(m, "integer"),
                 ))

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
                             lambda o, j=j, n=n, k=k, m=m:
                             theta_jm(j, n, o) * bracket(k, m, o),
                             _ub(m + n, sector),
                         ))

    # explicit multiplication of ratio pairs by low-degree thetas
    def rp(a, mm):
        return lambda o, a=a, mm=mm: ratio_pair(rat(a), mm, o)

    for m in _SMALL:
        items = []
        mm1 = (m + 1) * (m + 2)
        mm2 = 2 * (m + 1) * (m + 3)

        def mk_sum(coef_idx, pair_idx, modulus, const_level, pair_level):
            def b(order):
                out = Series.zero(rat(order))
                for r in range(modulus):
                    c = theta_zero_arg(coef_idx(r), const_level, order)
                    out = out + c * ratio_pair(pair_idx(r), pair_level, order)
                return out

            return b

        items.append(("1i", lambda o, m=m: theta_jm(0, 1, o) * rp(rat(1, 2), m + 1)(o),
                      mk_sum(lambda r, m=m: rat(1, 2) - 2 * r * (m + 1),
                             lambda r: rat(1, 2) + 2 * r, m + 2, mm1, m + 2)))
        items.append(("1ii", lambda o, m=m: theta_jm(0, 1, o) * rp(rat(-1, 2), m + 1)(o),
                      mk_sum(lambda r, m=m: rat(1, 2) + 2 * r * (m + 1),
                             lambda r: rat(-1, 2) + 2 * r, m + 2, mm1, m + 2)))
        items.append(("2i", lambda o, m=m: theta_jm(1, 1, o) * rp(rat(1, 2), m + 1)(o),
                      mk_sum(lambda r, m=m: rat(1, 2) - (2 * r - 1) * (m + 1),
                             lambda r: rat(-1, 2) + 2 * r, m + 2, mm1, m + 2)))
        items.append(("2ii", lambda o, m=m: theta_jm(1, 1, o) * rp(rat(-1, 2), m + 1)(o),
                      mk_sum(lambda r, m=m: rat(1, 2) + (2 * r + 1) * (m + 1),
                             lambda r: rat(1, 2) + 2 * r, m + 2, mm1, m + 2)))
        items.append(("3i", lambda o, m=m: theta_jm(0, 2, o) * rp(rat(1, 2), m + 1)(o),
                      mk_sum(lambda r, m=m: 1 - 4 * r * (m + 1),
                             lambda r: rat(1, 2) + 4 * r, m + 3, mm2, m + 3)))
        items.append(("3ii", lambda o, m=m: theta_jm(0, 2, o) * rp(rat(-1, 2), m + 1)(o),
                      mk_sum(lambda r, m=m: 1 + 4 * r * (m + 1),
                             lambda r: rat(-1, 2) + 4 * r, m + 3, mm2, m + 3)))
        items.append(("4i", lambda o, m=m: theta_jm(2, 2, o) * rp(rat(1, 2), m + 1)(o),
                      mk_sum(lambda r, m=m: 1 - 2 * (2 * r + 1) * (m + 1),
                             lambda r: rat(1, 2) + 2 * (2 * r + 1), m + 3, mm2,
                             m + 3)))
        items.append(("4ii", lambda o, m=m: theta_jm(2, 2, o) * rp(rat(-1, 2), m + 1)(o),
                      mk_sum(lambda r, m=m: 1 + 2 * (2 * r + 1) * (m + 1),
                             lambda r: rat(-1, 2) + 2 * (2 * r + 1), m + 3, mm2,
                             m + 3)))
        # the printed coefficient index of the next two items reads
        # -1 + (1 -+ 2r)(m+1); the identity verifies (and is derivable from
        # the two-term degree-2 law) only with +1
        items.append(("5i", lambda o, m=m: mumford("10", o) * rp(rat(1, 2), m + 1)(o),
                      mk_sum(lambda r, m=m: 1 + (1 - 2 * r) * (m + 1),
                             lambda r: rat(-1, 2) + 2 * r, 2 * (m + 3), mm2,
                             m + 3)))
        items.append(("5ii", lambda o, m=m: mumford("10", o) * rp(rat(-1, 2), m + 1)(o),
                      mk_sum(lambda r, m=m: 1 + (1 + 2 * r) * (m + 1),
                             lambda r: rat(1, 2) + 2 * r, 2 * (m + 3), mm2,
                             m + 3)))
        for tag, lhs_b, rhs_b in items:
            _add(reg, f"S5.bigmult.item{tag}.m{m}", "equality", 4,
                 f"ratio-pair multiplication law item {tag}, level {m}",
                 equality_check(lhs_b, rhs_b))

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
                            lambda o, j=j: theta_jm(j, 2, o), m + 2, "half"))
        for m in (1, 3):
            closure.append((f"item3ii.j{j}.m{m}", m, "integer",
                            lambda o, j=j: theta_jm(j, 2, o), m + 2, "integer"))
    for m in (1, 3):
        closure.append((f"item4i.m{m}", m, "half", lambda o: mumford("10", o),
                        m + 2, "integer"))
        closure.append((f"item4ii.m{m}", m, "integer", lambda o: mumford("10", o),
                        m + 2, "half"))
        for b in (0, 1):
            closure.append((
                f"item5i.b{b}.m{m}", m, "half",
                lambda o, b=b: mumford("10", o) * mumford(f"0{b}", o),
                m + 4, "integer"))
            closure.append((
                f"item5ii.b{b}.m{m}", m, "integer",
                lambda o, b=b: mumford("10", o) * mumford(f"0{b}", o),
                m + 4, "half"))

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
                 lambda o, lbl=lbl: character(*lbl, o), m, sector, m2, sector2))

        def base_num(order, m=m, sector=sector):
            if sector == "half":
                return numerator_half(m, 0, order)
            return numerator_int(m, 0, order)

        _add(reg,
             f"S5.charclosure.V.ch{lbl[0]}-{lbl[1]}.m{m}.{sector}",
             "membership", 4,
             f"level-{lbl[0]} character (label {lbl[1]}) times the level-{m} "
             f"{sector} numerator lands in the level-{m2} {sector2} span",
             membership_check(
                 lambda o, lbl=lbl, base_num=base_num: character(*lbl, o)
                 * base_num(o),
                 _ub(m2, sector2),
             ))

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
            char_basis = branching_basis(left, right)
            if char_basis:
                _add(reg, cid, "branching", 4,
                     f"character product decomposes over level-{lvl} "
                     f"characters of parity {parity}",
                     membership_check(
                         lambda o, left=left, right=right:
                         character(*left, o) * character(*right, o),
                         lambda k, char_basis=tuple(char_basis): [
                             character(*lbl, k) for lbl in char_basis
                         ],
                     ))
            else:
                sector = "integer" if parity else "half"
                _add(reg, cid, "membership", 4,
                     f"denominator times character product lands in the "
                     f"level-{lvl} {sector} span",
                     membership_check(
                         lambda o, left=left, right=right:
                         derived_denominator(o + rat(1, 2))
                         * character(*left, o + rat(1, 2))
                         * character(*right, o + rat(1, 2)),
                         _ub(lvl, sector),
                     ))

    # derived denominator structure and uses
    def zcoset_run(order):
        r = derived_denominator(order)
        bad = [
            (q, z)
            for q, z, _ in r.monomials()
            if (2 * z).denominator != 1 or int(2 * z) % 2 == 0
        ]
        if bad:
            return CheckResult("fail", order, min(bad))
        return CheckResult("pass", order)

    _add(reg, "S5.denominator.zcoset", "zfree", 4,
         "derived denominator is supported on half-odd elliptic exponents",
         zcoset_run)
    _add(reg, "S5.denominator.span.m2", "span", 4,
         "denominator times even level-2 characters spans the level-2 "
         "numerator family",
         span_check(
             lambda k: [
                 derived_denominator(k + rat(1, 2))
                 * character(2, m2, k + rat(1, 2))
                 for m2 in (0, 2)
             ],
             lambda k: [numerator(2, s, k) for s in (rat(1, 2), rat(3, 2))],
         ))
    _add(reg, "S5.denominator.prop.m1-1", "membership", 4,
         "denominator times the odd level-1 character is proportional to the "
         "level-1 integer numerator",
         membership_check(
             lambda o: derived_denominator(o + rat(1, 2))
             * character(1, 1, o + rat(1, 2)),
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
        res = case.run(order)
        wall = (time.perf_counter() - t0) * 1000.0
        return Report(case.id, case.kind, res.status, res.certified_order,
                      res.first_mismatch, wall)
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
        chunk = max(1, len(tasks) // (jobs * 4) or 1)
        return list(pool.map(_worker, tasks, chunksize=chunk))


def summarize(reports) -> dict:
    counts = {"pass": 0, "fail": 0, "error": 0}
    for r in reports:
        counts[r.status] += 1
    counts["total"] = len(reports)
    return counts

"""Golden self-checks: every printed table and structural identity the
package is supposed to reproduce, re-derived at run time and compared.

Each check yields a VerificationReport.  Status is ``pass``/``fail`` for
facts the build must reproduce, and ``flagged`` for the one published digit
string that is internally inconsistent: the rank-one series table
1, 12, 330, 3400, 26295, 161628 does not match the closed form it is
printed next to, so it is surfaced as a discrepancy instead of graded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import invariants as inv
from . import lattice as lat
from . import modforms as mf
from .series import QSeries, product_family

#: published digit table for the rank-one series; disagrees with the
#: derived product E4 * prod(1-q^m)^-12 and is therefore only flagged
PRINTED_RANK1_DIGITS = (1, 12, 330, 3400, 26295, 161628)

#: published rank-two coefficients: q-exponent -> value
RANK2_TARGETS = (
    (0, Fraction(-1, 8)),
    (1, Fraction(18441, 2)),
    (2, Fraction(673760)),
    (3, Fraction(82133595, 4)),
)

_SECTION_FIBER_DIGITS = (1, 12, 90, 520, 2535, 10908)
_DEL_PEZZO_COUNTS = (1, 3, 6, 10, 16, 27, 56, 240)


@dataclass(frozen=True)
class VerificationReport:
    check_name: str
    status: str            # "pass" | "fail" | "flagged"
    expected: str
    actual: str
    citation: str

    def to_json_dict(self) -> dict:
        return {
            "check": self.check_name,
            "status": self.status,
            "expected": self.expected,
            "actual": self.actual,
            "citation": self.citation,
        }


def _report(name, ok, expected, actual, citation) -> VerificationReport:
    return VerificationReport(check_name=name,
                              status="pass" if ok else "fail",
                              expected=str(expected), actual=str(actual),
                              citation=citation)


def _ints(series, count):
    return tuple(int(c) if c.denominator == 1 else c
                 for c in series.coefficients()[:count])


def check_section_fiber_digits(order: int) -> list:
    f = mf.eta_quotient(-12, max(order, 5))
    got = _ints(f, 6)
    return [_report("eta-quotient-neg12-digits",
                    got == _SECTION_FIBER_DIGITS,
                    _SECTION_FIBER_DIGITS, got,
                    "published table of section-plus-fiber counts on the "
                    "rational elliptic surface")]


def check_half_k3_euler(order: int) -> list:
    blowup = 3 - 9 + 18
    hodge = 1 - 0 + 10 - 0 + 1
    surface = inv.SurfaceData.half_k3()
    return [
        _report("half-k3-euler-blowup", blowup == 12, 12, blowup,
                "nine-point blowup: chi = chi(P^2) - 9*chi(pt) + 9*chi(curve)"),
        _report("half-k3-euler-hodge", hodge == surface.chi_top, 12, hodge,
                "alternating Betti sum of the rational elliptic surface"),
    ]


def check_lattice_relations(order: int) -> list:
    g = lat.make_gamma19()
    names = lat.gamma19_named_vectors()
    f, b = names["F"], names["B"]
    reports = [
        _report("lattice-F.B", g.pair(f, b) == 1, 1, g.pair(f, b),
                "fiber-section pairing on the rational elliptic surface"),
        _report("lattice-B.B", g.pair(b, b) == -1, -1, g.pair(b, b),
                "section self-intersection"),
        _report("lattice-F.F", g.pair(f, f) == 0, 0, g.pair(f, f),
                "fiber self-intersection"),
        _report("lattice-signature", g.signature() == (1, 9), (1, 9),
                g.signature(), "odd unimodular lattice of signature (1,9)"),
    ]
    basis = lat.e8_minus_basis()
    sub = g.sublattice(basis)
    neg_cartan = tuple(tuple(-x for x in row) for row in lat.e8_cartan_matrix())
    ortho = all(g.pair(v, f) == 0 and g.pair(v, b) == 0 for v in basis)
    reports.append(_report("lattice-e8-gram", sub.gram == neg_cartan,
                           "negated E8 Cartan matrix",
                           "matches" if sub.gram == neg_cartan else sub.gram,
                           "Gram matrix of the orthogonal complement of F and B"))
    reports.append(_report("lattice-e8-orthogonal", ortho, True, ortho,
                           "E8 block is orthogonal to fiber and section"))
    return reports


def check_goettsche_specialization(order: int) -> list:
    reports = []
    for name, make in inv.SURFACES.items():
        s = make()
        spec = inv.goettsche_series(s, order).eval_t(-1)
        hilb = inv.hilb_euler_series(s, order)
        reports.append(_report(
            f"goettsche-t-neg1-{name}", spec == hilb,
            "Euler-characteristic series", "matches" if spec == hilb
            else _ints(spec, 6),
            "Göttsche product at t = -1 equals the Euler series"))
    return reports


def check_ramanujan(order: int) -> list:
    n = max(order, 8)
    e2, e4, e6 = (mf.eisenstein(w, n) for w in (2, 4, 6))
    checks = (
        ("ramanujan-E2", e2.q_d_dq() == (e2 * e2 - e4) / 12),
        ("ramanujan-E4", e4.q_d_dq() == (e2 * e4 - e6) / 3),
        ("ramanujan-E6", e6.q_d_dq() == (e2 * e6 - e4 * e4) / 2),
    )
    return [_report(name, ok, "identity holds", "holds" if ok else "fails",
                    "Ramanujan derivative identities for E2, E4, E6")
            for name, ok in checks]


def check_discriminant(order: int) -> list:
    n = max(order, 8)
    e4, e6 = mf.eisenstein(4, n + 1), mf.eisenstein(6, n + 1)
    delta = (e4 ** 3 - e6 ** 2) / 1728
    eta24 = mf.eta_quotient(24, n)
    ok = (delta.coefficient(0) == 0 and
          all(delta.coefficient(k + 1) == eta24.coefficient(k)
              for k in range(n)))
    return [_report("discriminant-eta24", ok,
                    "E4^3 - E6^2 = 1728 eta^24", "holds" if ok else "fails",
                    "discriminant cusp form as the 24th eta power")]


def check_theta_cross_method(order: int) -> list:
    n = min(order, 10)
    a = mf.theta_e8(n, method="lattice")
    b = mf.theta_e8(n, method="eisenstein")
    ok = a == b
    return [_report("theta-e8-cross-method", ok,
                    f"lattice counts = E4 to order {n}",
                    "agree" if ok else (_ints(a, 5), _ints(b, 5)),
                    "E8 theta series equals the weight-4 Eisenstein series")]


def check_del_pezzo_counts(order: int) -> list:
    found = [lat.exceptional_classes(k, 7) for k in range(1, 9)]
    got = tuple(map(len, found))
    margin = all(max(abs(c[0]) for c in classes) <= 6 for classes in found)
    return [_report("del-pezzo-counts", got == _DEL_PEZZO_COUNTS,
                    _DEL_PEZZO_COUNTS, got,
                    "classical counts of (-1)-classes on blowups "
                    "of the plane, 240 lines on the E8 del Pezzo"),
            _report("del-pezzo-degree-margin", margin,
                    "no class of degree > 6 at bound 7", margin,
                    "degree-bound saturation check for the search")]


def check_sw_plane(order: int) -> list:
    table = ((3, "+", 1), (1, "+", 0), (-3, "-", -1), (1, "-", 0))
    want = [w for *_, w in table]
    got = [inv.sw_p2(c, ch) for c, ch, _ in table]
    reports = [_report("sw-plane-table", got == want, want, got,
                       "chamber values of the plane Seiberg-Witten invariants")]
    wall = all(inv.sw_p2(c, "+") - inv.sw_p2(c, "-") == 1
               for c in (3, 5, -3, -5))
    reports.append(_report("sw-plane-wall-crossing", wall,
                           "SW+ - SW- = 1 for c in {±3h, ±5h}", wall,
                           "wall-crossing difference on a rational surface"))
    return reports


def check_sw_closed_form(order: int) -> list:
    cases = (((0, 3), 1), ((1, 3), -2), ((5, 3), 0))
    got = tuple(inv.sw_closed_form(d, pg) for (d, pg), _ in cases)
    want = tuple(w for _, w in cases)
    return [_report("sw-closed-form", got == want, want, got,
                    "binomial closed form of Seiberg-Witten invariants "
                    "for positive geometric genus")]


def check_rank2_fit(order: int) -> list:
    fit = mf.fit_quasi_homogeneous(10, -24, RANK2_TARGETS)
    reports = [_report("rank2-fit-consistent", fit.consistent,
                       "consistent linear system",
                       f"consistent={fit.consistent}, "
                       f"nullspace dimension {fit.nullity}",
                       "published rank-two coefficients lie in the span of "
                       "weight-10 quasi-modular monomials over eta^-24")]
    if fit.consistent:
        eta = product_family(lambda m: -24, max(e for e, _ in RANK2_TARGETS))
        rep = None
        for c, mono in zip(fit.particular, fit.basis.monomials):
            term = mf.monomial_series(mono, eta.order) * eta * c
            rep = term if rep is None else rep + term
        ok = all(rep.coefficient(e) == v for e, v in RANK2_TARGETS)
        reports.append(_report("rank2-fit-reproduces", ok,
                               [str(v) for _, v in RANK2_TARGETS],
                               [str(rep.coefficient(e))
                                for e, _ in RANK2_TARGETS],
                               "representative solution reproduces the "
                               "published coefficients exactly"))
    return reports


def check_rank1_printed_digits(order: int) -> list:
    derived = inv.half_k3_z1(5)
    got = _ints(derived, 6)
    return [VerificationReport(
        check_name="rank1-printed-digits",
        status="flagged",
        expected=str(PRINTED_RANK1_DIGITS),
        actual=str(got),
        citation="published rank-one expansion disagrees with the closed "
                 "form printed beside it (E4 times the inverse twelfth "
                 "eta power); derived coefficients shown",
    )]


_CHECKS = (
    check_section_fiber_digits,
    check_half_k3_euler,
    check_lattice_relations,
    check_goettsche_specialization,
    check_ramanujan,
    check_discriminant,
    check_theta_cross_method,
    check_del_pezzo_counts,
    check_sw_plane,
    check_sw_closed_form,
    check_rank2_fit,
    check_rank1_printed_digits,
)

SUITES = {fn.__name__.removeprefix("check_").replace("_", "-"): (fn,)
          for fn in _CHECKS}
SUITES["all"] = _CHECKS


def run_suite(name: str, order: int = 20) -> list:
    """Run a named golden suite; 'all' bundles every check."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; have "
                       f"{', '.join(sorted(SUITES))}")
    reports = []
    for fn in SUITES[name]:
        reports.extend(fn(order))
    return reports

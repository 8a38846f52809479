"""Command-line front end.

Subcommands: expand (series tables), verify (golden self-checks),
lattice (pairings, signatures, vector counts, exceptional classes),
sw (Seiberg-Witten values and wall-crossing sums), fit (exact linear
fitting of quasi-modular polynomials).

Each request builds only its own command's parsers: the root, the group
(``lattice`` or ``sw``) if there is one, and the leaf.  Argparse errors, and
help on the root or a group, come from the full tree, so their text is the
same as when every parser is built.

Each request also imports only the modules its command runs: ``expand``
imports ``invariants`` and ``modforms``, ``sw`` imports ``invariants``,
``fit`` imports ``modforms``, ``verify`` imports the ``verify`` module, and
``lattice`` imports none of them.  ``json`` is imported only for
``--format json`` and ``sw mochizuki``.  The full tree, built for help and
usage errors, imports them all.

Each command returns ``(rc, text)``: its exit code and its whole stdout,
without the final newline, and writes nothing to stdout itself.  ``main``
writes the text in one call after the command returns, so a request that
exits 2 leaves stdout empty and prints one ``error:`` line on stderr.

Exit codes: 0 success, 1 failed verification, 2 malformed input.
The environment variable ENUMGEO_ORDER overrides the default order 20.
The surfaces named by ``--surface`` are those of ``invariants.SURFACES``.
Output is deterministic: fixed orderings, sorted JSON keys, no timestamps.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from fractions import Fraction

from . import lattice as lat
from .series import QSeries


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {text!r}: {exc}") from None


def _parse_vector(text: str) -> tuple:
    named = lat.gamma19_named_vectors()
    if text in named:
        return named[text]
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(
            f"vector must be a name ({', '.join(sorted(named))}) "
            f"or comma-separated integers, got {text!r}") from None


def _resolve_order(args) -> int:
    order = args.order
    if order is None:
        env = os.environ.get("ENUMGEO_ORDER")
        try:
            order = int(env) if env is not None else 20
        except ValueError:
            raise ValueError(f"ENUMGEO_ORDER={env!r} is not an integer") from None
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    return order


def _json(payload) -> str:
    import json
    return json.dumps(payload, sort_keys=True, indent=2)


# -- expand ----------------------------------------------------------------

#: expand target -> (series, header words after the target), given the
#: arguments, the order and the modules ``invariants`` and ``modforms``; the
#: words are empty or start with a space
_EXPAND = {
    "eta-quotient": lambda a, n, inv, mf: (
        mf.eta_quotient(a.exponent, n), f" exponent={a.exponent}"),
    "eisenstein": lambda a, n, inv, mf: (
        mf.eisenstein(a.weight, n), f" weight={a.weight}"),
    "theta-e8": lambda a, n, inv, mf: (
        mf.theta_e8(n, method=a.method), f" method={a.method}"),
    "hilb-euler": lambda a, n, inv, mf: (
        inv.hilb_euler_series(s := inv.SURFACES[a.surface](), n),
        f" surface={a.surface} chi={s.chi_top}"),
    "goettsche": lambda a, n, inv, mf: (
        inv.goettsche_series(inv.SURFACES[a.surface](), n),
        f" surface={a.surface}"),
    "bryan-leung": lambda a, n, inv, mf: (
        inv.bryan_leung_series(a.genus, n), f" genus={a.genus}"),
    "half-k3-z1": lambda a, n, inv, mf: (inv.half_k3_z1(n), ""),
}


def _cmd_expand(args) -> tuple:
    from . import invariants as inv, modforms as mf
    order = _resolve_order(args)
    series, words = _EXPAND[args.target](args, order, inv, mf)
    if args.format == "json":
        return 0, _json(series.to_json_dict())
    header, body = f"# {args.target}{words} order={order}", series
    if isinstance(series, QSeries):
        header += f" shift={series.shift}"
        body = ", ".join(map(str, series.coefficients()))
    return 0, f"{header}\n{body}"


# -- verify ----------------------------------------------------------------

def _cmd_verify(args) -> tuple:
    from . import verify as ver
    order = _resolve_order(args)
    reports = ver.run_suite(args.suite, order)
    failed = sum(r.status == "fail" for r in reports)
    rc = 1 if failed else 0
    if args.format == "json":
        return rc, _json({
            "suite": args.suite,
            "order": order,
            "reports": [r.to_json_dict() for r in reports],
            "failed": failed,
        })
    lines = []
    for r in reports:
        line = f"{r.status.upper():7s} {r.check_name}"
        if r.status != "pass":
            line += f"  expected={r.expected}  actual={r.actual}"
        lines.append(f"{line}  [{r.citation}]")
    passed = sum(r.status == "pass" for r in reports)
    flagged = sum(r.status == "flagged" for r in reports)
    lines.append(f"# {passed} passed, {failed} failed, {flagged} flagged")
    return rc, "\n".join(lines)


# -- lattice ---------------------------------------------------------------

def _cmd_lattice_pair(args) -> tuple:
    g = lat.make_gamma19()
    return 0, g.pair(_parse_vector(args.u), _parse_vector(args.v))


def _cmd_lattice_genus(args) -> tuple:
    g = lat.make_gamma19()
    return 0, g.adjunction_genus(_parse_vector(args.beta))


def _cmd_lattice_signature(args) -> tuple:
    g = lat.make_gamma19()
    if args.sublattice == "full":
        sig = g.signature()
    elif args.sublattice == "fiber-section":
        names = lat.gamma19_named_vectors()
        sig = g.sublattice([names["F"], names["B"]], ["F", "B"]).signature()
    else:  # e8
        sig = g.sublattice(lat.e8_minus_basis()).signature()
    return 0, f"({sig[0]}, {sig[1]})"


def _cmd_lattice_enumerate(args) -> tuple:
    counts = lat.enumerate_vectors(lat.e8_lattice(), args.norm_max)
    if args.format == "json":
        return 0, _json({"norm_max": args.norm_max,
                         "counts": {str(n): counts[n] for n in counts},
                         "backend": lat.enumeration_backend()})
    return 0, "\n".join([f"# E8 vector counts up to norm {args.norm_max} "
                         f"({lat.enumeration_backend()} backend)",
                         *(f"{n} {counts[n]}" for n in sorted(counts))])


def _cmd_lattice_exceptional(args) -> tuple:
    classes = lat.exceptional_classes(args.k, args.bound)
    if args.format == "json":
        return 0, _json({"k": args.k, "bound": args.bound,
                         "count": len(classes),
                         "classes": [list(c) for c in classes]})
    dp = lat.make_del_pezzo(args.k)
    return 0, "\n".join([f"# {len(classes)} exceptional classes on the "
                         f"{args.k}-point blowup (degree bound {args.bound})",
                         *map(dp.format_vector, classes)])


# -- sw ----------------------------------------------------------------------

def _cmd_sw_p2(args) -> tuple:
    from . import invariants as inv
    chamber = {"plus": "+", "minus": "-"}.get(args.chamber, args.chamber)
    return 0, inv.sw_p2(args.c, chamber)


def _cmd_sw_closed_form(args) -> tuple:
    from . import invariants as inv
    return 0, inv.sw_closed_form(args.d, args.pg)


def _cmd_sw_dimension(args) -> tuple:
    from . import invariants as inv
    return 0, inv.sw_dimension(args.c_sq, args.chi_top, args.sigma)


def _wall(value, kind: type):
    if type(value) is not kind:  # exact: bool is an int, int() truncates 2.7
        raise ValueError(f"wall file: expected {kind.__name__}, got {value!r}")
    return value


def _pair_to_fraction(pair) -> Fraction:
    if len(_wall(pair, list)) != 2 or _wall(pair[1], int) == 0:
        raise ValueError("wall file: expected [numerator, nonzero "
                         f"denominator], got {pair!r}")
    return Fraction(_wall(pair[0], int), pair[1])


def _cmd_sw_mochizuki(args) -> tuple:
    import json
    from . import invariants as inv
    with open(args.file, encoding="utf-8") as fh:
        try:
            data = _wall(json.load(fh), dict)
        except RecursionError as exc:  # nesting deeper than the stack
            raise ValueError(f"wall file: {exc}") from None
    vdata = _wall(data["v"], dict)
    v = inv.ChernVector(*[_wall(vdata[k], int)
                          for k in ("r", "a_h", "a_K", "a_sq")],
                        n=_pair_to_fraction(vdata["n"]))
    chi = _pair_to_fraction(data["chi_v"])
    decomps = [inv.SWDecomposition(
        *[_wall(_wall(d, dict)[k], int) for k in ("a1_h", "a2_h", "sw")],
        a_value=_pair_to_fraction(d["A"]))
        for d in _wall(data["decomps"], list)]
    k_dot_h = data.get("k_dot_h")
    if k_dot_h is not None:
        k_dot_h = _wall(k_dot_h, int)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = inv.mochizuki_sum(v, chi, decomps, k_dot_h=k_dot_h)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    if args.format == "json":
        return 0, _json({"result": [str(result.numerator),
                                    str(result.denominator)],
                         "hypothesis_warnings": [str(w.message)
                                                 for w in caught]})
    return 0, result


# -- fit ---------------------------------------------------------------------

def _parse_target(text: str) -> tuple:
    if "=" not in text:
        raise ValueError(f"target must look like EXPONENT=VALUE, got {text!r}")
    e, v = text.split("=", 1)
    return int(e), _parse_rational(v)


def _cmd_fit(args) -> tuple:
    from . import modforms as mf
    targets = [_parse_target(t) for t in args.target]
    fit = mf.fit_quasi_homogeneous(args.weight, args.eta_exponent, targets)
    if args.format == "json":
        return 0, _json(fit.to_json_dict())
    lines = [f"# weight={args.weight} eta-exponent={args.eta_exponent} "
             f"consistent={fit.consistent} nullspace-dimension={fit.nullity}"]
    labels = fit.basis.labels()
    if fit.particular is not None:
        lines += (f"{label}: {c}" for label, c in zip(labels, fit.particular))
    else:
        lines.append("inconsistent system; no particular solution")
    for i, vec in enumerate(fit.nullspace):
        body = ", ".join(f"{label}: {c}" for label, c in zip(labels, vec))
        lines.append(f"nullspace[{i}]: {body}")
    return 0, "\n".join(lines)


# -- parser ------------------------------------------------------------------

def _cut(line: str) -> str:
    """``line``, or past 400 characters its first 400 and its length: a
    huge bad input is quoted only in part."""
    if len(line) > 400:
        return f"{line[:400]}... [{len(line)} characters]"
    return line


class _Fallback(Exception):
    """Raised by a path tree's parsers instead of printing an error."""


class _TreeParser(argparse.ArgumentParser):
    def error(self, message):
        super().error(_cut(message))


class _PathParser(argparse.ArgumentParser):
    def error(self, message):
        raise _Fallback(message)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The full argparse tree, or, given argv, only the parsers on argv's
    command path: the root, the group (``lattice`` or ``sw``) if there is
    one, and the leaf.  A path tree's parsers raise ``_Fallback`` from
    ``error()`` instead of printing, and argv that names no leaf gets the
    full tree; the full tree prints every error, cut as ``main`` cuts its
    own, and all group help."""
    words = None if argv is None else list(argv[:2])
    parser = (_TreeParser if words is None else _PathParser)(
        prog="enumgeo",
        description="Exact q-series, modular forms and surface-lattice "
                    "arithmetic for enumerative invariants.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    leaves = []

    def subparser(sub, path, **kwargs):
        """The parser of ``path`` ("sw p2"), or None off argv's path."""
        names = path.split()
        if sub is None or words is not None and words[:len(names)] != names:
            return None
        return sub.add_parser(names[-1], **kwargs)

    def group(sub, path, **kwargs):
        p = subparser(sub, path, **kwargs)
        return p and p.add_subparsers(dest="query", required=True)

    def command(sub, path, func, **kwargs):
        p = subparser(sub, path, **kwargs)
        if p:
            p.set_defaults(func=func)
            leaves.append(p)
        return p

    if p := command(sub, "expand", _cmd_expand,
                    help="print a series expansion"):
        from . import invariants as inv
        p.add_argument("target", choices=tuple(_EXPAND))
        p.add_argument("--exponent", type=int, default=-12,
                       help="eta-quotient exponent")
        p.add_argument("--weight", type=int, choices=(2, 4, 6), default=4,
                       help="Eisenstein weight")
        p.add_argument("--method", choices=("eisenstein", "lattice"),
                       default="eisenstein", help="theta-e8 method")
        p.add_argument("--surface", choices=tuple(inv.SURFACES),
                       default="b9", help="surface for hilb-euler / goettsche")
        p.add_argument("--genus", type=int, default=0,
                       help="bryan-leung genus")

    if p := command(sub, "verify", _cmd_verify, help="run golden self-checks"):
        from . import verify as ver
        p.add_argument("suite", nargs="?", default="all",
                       choices=tuple(sorted(ver.SUITES)))

    lat_sub = group(sub, "lattice", help="surface-lattice queries")

    if p := command(lat_sub, "lattice pair", _cmd_lattice_pair,
                    help="pairing of two classes"):
        p.add_argument("--u", required=True)
        p.add_argument("--v", required=True)

    if p := command(lat_sub, "lattice genus", _cmd_lattice_genus,
                    help="adjunction genus of a class"):
        p.add_argument("--beta", required=True)

    if p := command(lat_sub, "lattice signature", _cmd_lattice_signature,
                    help="signature of a sublattice"):
        p.add_argument("--sublattice", choices=("full", "fiber-section", "e8"),
                       default="full")

    if p := command(lat_sub, "lattice enumerate", _cmd_lattice_enumerate,
                    help="E8 vector counts by norm"):
        p.add_argument("--norm-max", type=int, required=True)

    if p := command(lat_sub, "lattice exceptional", _cmd_lattice_exceptional,
                    help="classes with K.b = b.b = -1"):
        p.add_argument("--k", type=int, required=True,
                       help="number of blown-up points (1..8)")
        p.add_argument("--bound", type=int, default=6,
                       help="search bound on |b . e0|")

    sw_sub = group(sub, "sw", help="Seiberg-Witten values")

    if p := command(sw_sub, "sw p2", _cmd_sw_p2,
                    help="plane invariant by chamber"):
        p.add_argument("--c", type=int, required=True,
                       help="coefficient of the line class (odd)")
        p.add_argument("--chamber", required=True,
                       choices=("+", "-", "plus", "minus"))

    if p := command(sw_sub, "sw closed-form", _cmd_sw_closed_form,
                    help="binomial closed form for p_g > 0"):
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--pg", type=int, required=True)

    if p := command(sw_sub, "sw dimension", _cmd_sw_dimension,
                    help="moduli dimension"):
        p.add_argument("--c-sq", type=int, required=True)
        p.add_argument("--chi-top", type=int, required=True)
        p.add_argument("--sigma", type=int, required=True)

    if p := command(sw_sub, "sw mochizuki", _cmd_sw_mochizuki,
                    help="wall-crossing sum from JSON"):
        p.add_argument("--file", required=True,
                       help="JSON with v, chi_v and the decompositions")

    if p := command(sub, "fit", _cmd_fit, help="fit quasi-modular monomials"):
        p.add_argument("--weight", type=int, required=True)
        p.add_argument("--eta-exponent", type=int, required=True)
        p.add_argument("--target", action="append", required=True,
                       metavar="EXP=VALUE",
                       help="coefficient constraint, repeatable")

    if words is not None and not leaves:  # -h, --, sw -h, a typo
        return build_parser()
    # last, so that usage and --help list them after each command's own
    for p in leaves:
        p.add_argument("--order", type=int, default=None,
                       help="truncation order (default 20, or ENUMGEO_ORDER)")
        p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv).parse_args(argv)
    except _Fallback:  # the full tree prints the error and exits 2
        args = build_parser().parse_args(argv)
    try:
        rc, out = args.func(args)
        sys.stdout.write(f"{out}\n")
    except (ValueError, KeyError, OSError) as exc:
        print(_cut(f"error: {exc}"), file=sys.stderr)
        return 2
    return rc


if __name__ == "__main__":
    sys.exit(main())

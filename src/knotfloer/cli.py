"""Command-line front end.

Commands: `report` (invariant tables, bounds, certificates), `plotdata`
(exact breakpoint tables for the concordance function), `validate`
(structural checks of a complex file).

Exit codes: 0 success, 1 out of memory or an error of no narrower kind,
2 expression syntax or usage error, 3 validation or file error,
4 internal-consistency failure, 5 plotdata on a non-torus-sum expression.
Structured output is emitted only on success, all at once.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .bounds import (
    clasp_bounds,
    format_exact,
    genus_bounds,
    lt_signature_of_expr,
    plot_rows,
    signature_clasp_bound,
    upsilon_of_expr,
    upsilon_ratio_bound,
)
from .errors import (
    ConsistencyError,
    FileFormatError,
    KnotFloerError,
    ParseError,
    UnsupportedInputError,
    ValidationError,
)
from .expressions import FileRef, expr_to_string, parse_knot_expr, torus_terms
from .fileio import load_complex
from .invariants import compute_invariant_table, level_split, release_to_dual, require_knot_complex
from .involutive import mirror_iota, realize_with_iota, v0_bar_under
from .linalg import iter_bits

CYCLE_CERTIFICATE_LIMIT = 2000


def _table_payload(table) -> Dict:
    return {
        "V": {str(s): v for s, v in table.v.items()},
        "Y": {str(n): y for n, y in table.y.items()},
        "nu_plus": table.nu_plus,
        "omega_plus": table.omega_plus,
        "tau": table.tau,
        "nu": table.nu_hat,
        "omega": table.omega_hat,
    }


def _pair_payload(pair) -> Optional[Dict]:
    return None if pair is None else {"v0_bar": pair[0], "v0_under": pair[1]}


def _tower_certificate(c) -> Optional[List[Dict]]:
    if len(c) > CYCLE_CERTIFICATE_LIMIT:
        return None
    # Level 0 has one tower: the table read V_0 off its model M_0, which has the same towers.
    # Its cycle sits at bigrading (top, top), which fixes the monomial of each term.
    split = level_split(c, 0)
    labels, top = c.labels, split.top_grading()
    terms = sorted(iter_bits(split.cycle()), key=labels.__getitem__)
    return [{"gen": labels[i], "u": (c.grw[i] - top) // 2, "v": (c.grz[i] - top) // 2} for i in terms]


def _side(c, iota, name: str):
    """The table, involutive pair and level-0 certificate of c.

    A rejected iota is named by its input and the flag that skips it.
    """
    table = compute_invariant_table(c)
    try:
        pair = None if iota is None else v0_bar_under(iota)
    except ValidationError as exc:
        raise ValidationError(f"{name}: {exc} (--involutive off skips the involutive pair)") from None
    return table, pair, _tower_certificate(c)


def _build_report(args) -> Dict:
    expr = parse_knot_expr(args.expr)
    complex_, iota = realize_with_iota(expr)
    # A sum joins its summands' ids with "|", so ids that contain "|" can collide.
    if len(set(complex_.labels)) < len(complex_):
        raise ValidationError(f"generator label {complex_.repeated_label()!r} is repeated in the sum")
    require_knot_complex(complex_)
    if args.involutive == "on" and iota is None:
        raise ValidationError("--involutive on: no involution available for this input")
    if args.involutive == "off":
        iota = None

    name = expr_to_string(expr)
    table, involutive, certificate = _side(complex_, iota, name)
    # The knot's memos are released before its mirror is built, which reads
    # its quotients off the knot's: only the knot's size is read again.
    mirror = release_to_dual(complex_)
    mirror_io = None if iota is None else mirror_iota(iota, mirror)
    generator_count = len(complex_)
    del complex_, iota
    mtable, m_involutive, m_certificate = _side(mirror, mirror_io, f"mirror of {name}")
    del mirror, mirror_io

    # Cross-checks between independently computed quantities. The mirror's
    # tau is read off the knot's quotients (`release_to_dual`), so its check
    # guards that wiring; its V, Y, nu and omega come from its own levels,
    # and `consistency_violations` held them to that tau.
    problems: List[str] = []
    if table.tau != -mtable.tau:
        problems.append(f"tau mirror asymmetry: {table.tau} vs {mtable.tau}")
    ratio = signature = upsilon_payload = signature_payload = None
    if torus_terms(expr) is not None:
        upsilon = upsilon_of_expr(expr)
        signature = lt_signature_of_expr(expr)
        ratio = upsilon_ratio_bound(upsilon)
        slope = upsilon.initial_slope()
        if slope != -table.tau:
            problems.append(f"initial slope {slope} != -tau = {-table.tau}")
        # _signed_merge drops zero slope changes, so every interior breakpoint
        # is a kink, and f(t) = f(2 - t) holds exactly when the kinks and
        # their values are symmetric: the table is checked against its mirror.
        points = dict(zip(upsilon.breakpoints, upsilon.values))
        for t, y in points.items():
            if points.get(2 - t) != y:
                problems.append(f"concordance function asymmetric at t = {t}")
                break
        upsilon_payload = {
            "points": [[format_exact(t), format_exact(y)] for t, y in points.items()],
            "value_at_1": format_exact(upsilon(1)),
            "initial_slope": format_exact(slope),
            "ratio_clasp_bound": format_exact(ratio),
        }
        hi, lo, bound = signature_clasp_bound(signature)
        signature_payload = {
            "jumps": [[format_exact(x), s] for x, s in signature.jumps],
            "max": hi,
            "min": lo,
            "clasp_bound": bound,
        }
    if problems:
        raise ConsistencyError("; ".join(problems))

    return {
        "expression": name,
        "generator_count": generator_count,
        "invariants": _table_payload(table),
        "mirror_invariants": _table_payload(mtable),
        "involutive": _pair_payload(involutive),
        "mirror_involutive": _pair_payload(m_involutive),
        "upsilon": upsilon_payload,
        "signature": signature_payload,
        "bounds": {
            "genus": genus_bounds(table, involutive),
            "clasp": clasp_bounds(table, mtable, ratio, signature, involutive),
        },
        "certificates": {"v0_tower_cycle": certificate, "v0_tower_cycle_mirror": m_certificate},
    }


def _flatten(prefix: str, obj, rows: List[Tuple[str, str]]) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(f"{prefix}.{key}" if prefix else str(key), obj[key], rows)
    elif isinstance(obj, (list, tuple)):
        rows.append((prefix, json.dumps(obj, sort_keys=True)))
    else:
        rows.append((prefix, json.dumps(obj)))


def _emit_report(report: Dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=1) + "\n")
        return
    if fmt == "csv":
        rows: List[Tuple[str, str]] = []
        _flatten("", report, rows)
        for key, value in rows:
            sys.stdout.write(f"{key},{value}\n")
        return
    inv = report["invariants"]
    minv = report["mirror_invariants"]
    print(f"knot: {report['expression']}  ({report['generator_count']} generators)")
    print(
        f"tau = {inv['tau']}   nu = {inv['nu']}   omega = {inv['omega']}   "
        f"nu+ = {inv['nu_plus']}   omega+ = {inv['omega_plus']}"
    )
    print("V:", " ".join(f"{s}:{v}" for s, v in inv["V"].items()))
    print("Y:", " ".join(f"{n}:{y}" for n, y in inv["Y"].items()))
    print(
        f"mirror: tau = {minv['tau']}   nu+ = {minv['nu_plus']}   "
        f"omega+ = {minv['omega_plus']}"
    )
    print("mirror V:", " ".join(f"{s}:{v}" for s, v in minv["V"].items()))
    print("mirror Y:", " ".join(f"{n}:{y}" for n, y in minv["Y"].items()))
    if report["involutive"]:
        print(
            f"involutive: v0_bar = {report['involutive']['v0_bar']}   "
            f"v0_under = {report['involutive']['v0_under']}"
        )
    if report["upsilon"]:
        ups = report["upsilon"]
        print(
            f"upsilon: value(1) = {ups['value_at_1']}   slope(0+) = "
            f"{ups['initial_slope']}   ratio clasp bound = {ups['ratio_clasp_bound']}"
        )
    if report["signature"]:
        sig = report["signature"]
        print(
            f"signature: max = {sig['max']}   min = {sig['min']}   "
            f"clasp bound = {sig['clasp_bound']}"
        )
    genus = report["bounds"]["genus"]
    clasp = report["bounds"]["clasp"]
    print(f"genus lower bound: {genus['max']}")
    for name in sorted(genus["sources"]):
        print(f"  {name}: {genus['sources'][name]['bound']}")
    print(f"clasp lower bound: {clasp['max']}")
    for name in sorted(clasp["sources"]):
        src = clasp["sources"][name]
        print(f"  {name}: {src['bound']}")
    print(f"  positive clasp: {clasp['positive']['max']}   negative clasp: {clasp['negative']['max']}")


def _cmd_report(args) -> int:
    report = _build_report(args)
    _emit_report(report, args.format)
    return 0


def _cmd_plotdata(args) -> int:
    expr = parse_knot_expr(args.expr)
    if torus_terms(expr) is None:
        print("plotdata requires a torus-knot sum expression", file=sys.stderr)
        return 5
    ups = upsilon_of_expr(expr)
    upto = Fraction(2) if args.full else Fraction(1)
    rows = plot_rows(ups, upto)
    out = sys.stdout
    out.write("# t\tupsilon\n")
    for t, v in rows:
        out.write(f"{format_exact(t)}\t{format_exact(v)}\n")
    out.write("# t\tupsilon_over_t\n")
    for t, v in rows:
        ratio = ups.initial_slope() if t == 0 else v / t
        out.write(f"{format_exact(t)}\t{format_exact(ratio)}\n")
    return 0


def _cmd_validate(args) -> int:
    expr = parse_knot_expr(args.expr)
    if not isinstance(expr, FileRef):
        print("validate expects a file input: --expr "
              "'@path/to/file'", file=sys.stderr)
        return 2
    # load_complex has already checked d^2 = 0, homogeneity and iota.
    complex_, iota = load_complex(expr.path)
    require_knot_complex(complex_)
    print(f"ok: {len(complex_)} generators"
          + (", involution verified" if iota is not None else ""))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knotfloer",
        description="Exact concordance invariants of bigraded knot complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="invariant tables and bound reports")
    rep.add_argument("--expr", required=True, help="knot expression or '@file'")
    rep.add_argument("--involutive", choices=["on", "off", "auto"], default="auto")
    rep.add_argument("--format", choices=["human", "json", "csv"], default="human")
    rep.set_defaults(func=_cmd_report)

    plot = sub.add_parser("plotdata", help="breakpoint tables for plotting")
    plot.add_argument("--expr", required=True)
    plot.add_argument("--full", action="store_true", help="table on [0,2]")
    plot.set_defaults(func=_cmd_plotdata)

    val = sub.add_parser("validate", help="validate a complex file")
    val.add_argument("--expr", required=True, help="'@path/to/file'")
    val.set_defaults(func=_cmd_validate)
    return parser


def _attach_expr_values(argv: List[str]) -> List[str]:
    """Join `--expr VALUE` into `--expr=VALUE` when VALUE starts with '-'.

    argparse reads a separate `-T(2,3)` as an unknown flag; a mirrored
    summand is a value, not a flag.
    """
    out: List[str] = []
    for tok in argv:
        if out and out[-1] == "--expr" and tok.startswith("-") and not tok.startswith("--"):
            out[-1] = f"--expr={tok}"
        else:
            out.append(tok)
    return out


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of `build_parser`, built once per process."""
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parser().parse_args(_attach_expr_values(list(argv)))
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, FileFormatError, UnsupportedInputError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 4
    except KnotFloerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(
            f"out of memory: {args.command} needs more memory than this process may use",
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())

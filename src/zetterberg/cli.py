"""Command-line interface.

Subcommands: field, radius, mindist, thresholds, classify.  Exit codes:
0 success, 1 internal error (a verify-mode disagreement, or any other fault
of the program), 2 usage or config error, 3 cap exceeded, 4 undecidable.
All output is deterministic; `radius --no-timing` drops the elapsed-time
field so byte-identical reruns can be asserted.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .caps import load_caps
from .classify import reports_to_csv, reports_to_markdown, sweep
from .code import build_code, min_distance_exhaustive, min_distance_formula
from .radius import covering_radius
from .thresholds import table_to_csv, table_to_markdown, threshold_table
from .errors import (FormulaMismatch, PreconditionViolated, SizeCapExceeded,
                     Undecidable)
from .gf import is_prime, make_field, make_field_for_q0, prime_power_split

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_UNDECIDABLE = 4


def _cmd_field(args, caps) -> int:
    if not is_prime(args.p):
        print(f"error: p={args.p} is not prime", file=sys.stderr)
        return EXIT_USAGE
    ctx = make_field(args.p, args.m, args.s, caps=caps)
    out = {
        "p": ctx.p, "m": ctx.m, "s": ctx.s,
        "q0": ctx.q0, "q": ctx.q, "ambient_order": ctx.order,
        "subgroup_orders": {
            "H": ctx.subgroup_order("H"),
            "Fq_star": ctx.subgroup_order("Fq_star"),
            "Fq0_star": ctx.subgroup_order("Fq0_star"),
        },
    }
    if args.dump:
        out.update(ctx.to_json())
        out["order_factorization"] = [[p, e] for p, e in ctx.order_factorization]
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def _emit_radius(report, fmt: str, timing: bool):
    data = report.to_json(timing=timing)
    if fmt == "json":
        print(json.dumps(data, sort_keys=True))
    elif fmt == "csv":
        print("q0,s,rho,method")
        print(f"{data['q0']},{data['s']},{data['rho']},{data['method']}")
    else:
        print(f"| q0 | s | rho | method |\n|---|---|---|---|\n"
              f"| {data['q0']} | {data['s']} | {data['rho']} | {data['method']} |")


def _cmd_radius(args, caps) -> int:
    report = covering_radius(args.q0, args.s, args.method, caps)
    _emit_radius(report, args.format, timing=not args.no_timing)
    return EXIT_OK


def _cmd_mindist(args, caps) -> int:
    formula = min_distance_formula(args.q0, args.s, args.variant)
    out = {"q0": args.q0, "s": args.s, "variant": args.variant, "formula": formula}
    if args.exhaustive:
        ctx = make_field_for_q0(args.q0, args.s, caps=caps)
        cd = build_code(ctx, args.variant)
        found = min_distance_exhaustive(cd, max_weight=args.max_weight)
        out["exhaustive"] = found
        # a search bounded below the formula's d that finds nothing decides nothing
        unreached = found is None and formula is not None and formula > args.max_weight
        out["verified"] = None if unreached else found == formula
        print(json.dumps(out, sort_keys=True))
        if out["verified"] is False:
            print(f"error: exhaustive search found d={found}, formula says {formula}",
                  file=sys.stderr)
            return EXIT_INCONSISTENT
        return EXIT_OK
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def _cmd_thresholds(args, caps) -> int:
    rows = threshold_table(args.parity, args.q0_max)
    if args.format == "csv":
        sys.stdout.write(table_to_csv(args.parity, rows))
    elif args.format == "markdown":
        sys.stdout.write(table_to_markdown(args.parity, rows))
    else:
        print(json.dumps([asdict(r) for r in rows], sort_keys=True))
    return EXIT_OK


def _cmd_classify(args, caps) -> int:
    reports = sweep(args.q0, args.s_max, args.variant, caps)
    if args.format == "markdown":
        sys.stdout.write(reports_to_markdown(reports))
    elif args.format == "csv":
        sys.stdout.write(reports_to_csv(reports))
    else:
        print(json.dumps([r.to_json() for r in reports], sort_keys=True))
    return EXIT_OK


def _positive_int(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"{v} is not a positive integer")
    return v


def _prime_power(text: str) -> int:
    v = int(text)
    try:
        prime_power_split(v)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from e
    return v


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="zetterberg",
        description="Generalized Zetterberg codes: distance, covering radius, "
                    "thresholds, classification")
    sub = ap.add_subparsers(dest="command", required=True)

    p_field = sub.add_parser("field", help="build and describe a field context")
    p_field.add_argument("--p", type=_positive_int, required=True)
    p_field.add_argument("--m", type=_positive_int, required=True)
    p_field.add_argument("--s", type=_positive_int, required=True)
    p_field.add_argument("--dump", action="store_true",
                         help="include modulus, generator and factorization")
    p_field.set_defaults(func=_cmd_field)

    p_rad = sub.add_parser("radius", help="covering radius")
    p_rad.add_argument("--q0", type=_prime_power, required=True)
    p_rad.add_argument("--s", type=_positive_int, required=True)
    p_rad.add_argument("--method", default="auto",
                       choices=["auto", "oracle", "criterion", "shortcut", "verify"])
    p_rad.add_argument("--format", default="json", choices=["json", "csv", "markdown"])
    p_rad.add_argument("--no-timing", action="store_true",
                       help="omit elapsed_ms for byte-stable output")
    p_rad.set_defaults(func=_cmd_radius)

    p_md = sub.add_parser("mindist", help="minimum distance")
    p_md.add_argument("--q0", type=_prime_power, required=True)
    p_md.add_argument("--s", type=_positive_int, required=True)
    p_md.add_argument("--variant", required=True, choices=["full", "half"])
    p_md.add_argument("--exhaustive", action="store_true",
                      help="also run the exhaustive search and compare")
    p_md.add_argument("--max-weight", type=_positive_int, default=5)
    p_md.set_defaults(func=_cmd_mindist)

    p_th = sub.add_parser("thresholds", help="threshold tables")
    p_th.add_argument("--parity", required=True, choices=["odd", "even"])
    p_th.add_argument("--q0-max", dest="q0_max", type=_positive_int, required=True)
    p_th.add_argument("--format", default="csv", choices=["csv", "json", "markdown"])
    p_th.set_defaults(func=_cmd_thresholds)

    p_cl = sub.add_parser("classify", help="quasi-perfect / maximal classification")
    p_cl.add_argument("--q0", type=_prime_power, required=True)
    p_cl.add_argument("--s-max", dest="s_max", type=_positive_int, required=True)
    p_cl.add_argument("--variant", required=True, choices=["full", "half"])
    p_cl.add_argument("--format", default="markdown",
                      choices=["markdown", "csv", "json"])
    p_cl.set_defaults(func=_cmd_classify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        caps = load_caps()
    except (OSError, ValueError) as e:
        print(f"error: config: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args, caps)
    except SizeCapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP
    except Undecidable as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_UNDECIDABLE
    except FormulaMismatch as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except PreconditionViolated as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ArithmeticError) as e:
        # user input is validated by the parser, so this is a program fault
        print(f"error: internal: {e}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())

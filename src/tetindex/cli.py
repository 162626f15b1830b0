"""Command-line surface.

All precision flags take the bound H in half-units: coefficients are
reported for every exponent strictly below H/2.

Exit codes: 0 computed/verified, 1 identity mismatch, 2 usage or parse
error, 3 summation window/box not stabilized (wider than its cap, a
divergent sum, or a lattice sum that could not be certified).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import bailey, identities, lattice
from .errors import ExprSyntaxError, StabilizationError, TetIndexError
from .identities import CheckReport
from .series import QSeries, format_series, half_exp_str
from .tetrahedron import tet_index

__all__ = ["run", "main", "series_to_json", "series_from_json"]

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_UNSTABLE = 3


def series_to_json(s: QSeries) -> dict:
    """Coefficients as decimal strings: deep chains overflow 64-bit."""
    return {
        "lead_half_exp": s.lead,
        "prec_half_exp": s.prec,
        "coeffs": [str(c) for c in s.coeffs],
    }


def series_from_json(d: dict) -> QSeries:
    return QSeries(
        d["lead_half_exp"], tuple(int(c) for c in d["coeffs"]), d["prec_half_exp"]
    )


def report_to_json(r: CheckReport) -> dict:
    d = {"verified_to_half_exp": r.verified_to, "holds": r.holds}
    if r.first_mismatch is not None:
        h, lc, rc = r.first_mismatch
        d["first_mismatch"] = {"half_exp": h, "lhs": str(lc), "rhs": str(rc)}
    else:
        d["first_mismatch"] = None
    return d


def _report_text(r: CheckReport) -> str:
    if r.holds:
        return f"holds to order q^{half_exp_str(r.verified_to)}"
    h, lc, rc = r.first_mismatch
    return (
        f"MISMATCH at q^{half_exp_str(h)}: lhs coefficient {lc}, "
        f"rhs coefficient {rc}"
    )


def _emit(meta: dict, result, fmt: str, out) -> None:
    """Print `result`, a QSeries or a list of CheckReports, as one JSON
    record with `meta`, as text or as LaTeX."""
    series = isinstance(result, QSeries)
    if fmt == "json":
        record = {"meta": meta, "kind": "series" if series else "report"}
        if series:
            record["series"] = series_to_json(result)
        else:
            record["reports"] = [report_to_json(r) for r in result]
        print(json.dumps(record, indent=2), file=out)
    elif series:
        print(format_series(result, fmt == "latex"), file=out)
    else:
        for r in result:
            line = _report_text(r)
            print(r"\text{" + line + "}" if fmt == "latex" else line, file=out)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every call:
    each parse_args fills a fresh namespace, so no call sees another's
    options."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--prec",
        type=int,
        required=True,
        metavar="H",
        help="precision bound in HALF-units: coefficients are computed for "
        "all exponents strictly below H/2",
    )
    common.add_argument(
        "--format", choices=("text", "json", "latex"), default="text"
    )
    # truncation flags, only on the subcommands that read them
    margin = argparse.ArgumentParser(add_help=False)
    margin.add_argument("--margin", type=int, default=identities.DEFAULT_MARGIN)

    p = argparse.ArgumentParser(
        prog="tetindex",
        description="Exact q-series computations with the tetrahedron index.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("tet", parents=[common], help="tetrahedron index I(m,e)")
    sp.add_argument("-m", type=int, required=True)
    sp.add_argument("-e", type=int, required=True)

    sp = sub.add_parser("triality", parents=[common], help="triality relations")
    sp.add_argument("-m", type=int, required=True)
    sp.add_argument("-e", type=int, required=True)

    sp = sub.add_parser("pentagon", parents=[common, margin], help="pentagon identity")
    sp.add_argument("--window-cap", type=int, default=identities.DEFAULT_WINDOW_CAP)
    for name in ("--m1", "--m2", "--e1", "--e2"):
        sp.add_argument(name, type=int, required=True)
    sp.add_argument("--e0", type=int, default=None)
    sp.add_argument("--shifted", action="store_true")

    sp = sub.add_parser("bailey", parents=[common], help="Bailey chain verification")
    sp.add_argument("--n0", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--steps", type=str, default="")
    sp.add_argument("--m-range", type=str, default="-3..3")
    sp = sub.add_parser("eval", parents=[common, margin], help="evaluate an expression file")
    sp.add_argument("--file", required=True)
    sp.add_argument("--box-cap", type=int, default=None)

    sp = sub.add_parser("ind41", parents=[common, margin], help="figure-eight-knot index")
    sp.add_argument("--box-cap", type=int, default=None)
    return p


def _parse_steps(text: str):
    if not text.strip():
        return []
    return [int(x) for x in text.split(",")]


def _parse_range(text: str):
    lo, _, hi = text.partition("..")
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise ValueError(f"empty range {text!r}: lo must not exceed hi")
    return lo, hi


def run(argv) -> int:
    """Dispatch one invocation; results on stdout, diagnostics on stderr."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # values that would make a check vacuous or a cap meaningless
    for flag, value, lo in (
        ("--prec", args.prec, 0),
        ("--margin", getattr(args, "margin", None), 1),
        ("--window-cap", getattr(args, "window_cap", None), 0),
        ("--box-cap", getattr(args, "box_cap", None), 0),
    ):
        if value is not None and value < lo:
            print(f"error: {flag} must be at least {lo}", file=sys.stderr)
            return EXIT_USAGE
    if args.command == "pentagon" and args.e0 is not None and not args.shifted:
        print("error: --e0 applies only with --shifted", file=sys.stderr)
        return EXIT_USAGE

    meta = {"command": " ".join(["tetindex"] + list(argv)), "prec_half_exp": args.prec}
    try:
        if args.command == "tet":
            result = tet_index(args.m, args.e, args.prec)
        elif args.command == "triality":
            result = [identities.triality_check(args.m, args.e, args.prec)]
        elif args.command == "pentagon":
            if args.shifted:
                rep = identities.pentagon_shifted_check(
                    args.m1, args.m2, args.e1, args.e2, args.e0 or 0,
                    args.prec, args.margin, args.window_cap,
                )
            else:
                rep = identities.pentagon_check(
                    args.m1, args.m2, args.e1, args.e2,
                    args.prec, args.margin, args.window_cap,
                )
            meta["window"] = rep.window
            result = [rep]
        elif args.command == "bailey":
            state = bailey.bailey_seed_delta(args.n0, args.t)
            m_range = _parse_range(args.m_range)
            result = [bailey.bailey_verify(state, m_range, args.prec)]
            extents = dict(state.window_extents)
            for s in _parse_steps(args.steps):
                state = bailey.bailey_step(state, s)
                result.append(bailey.bailey_verify(state, m_range, args.prec))
                extents.update(state.window_extents)
            meta["window"] = max(extents.values(), default=0)
        else:
            if args.command == "eval":
                expr = lattice.load_expr_file(args.file)
            else:
                expr = lattice.parse_expr(lattice.IND41_TEXT)
            result, meta["box"] = lattice.eval_expr_with_box(
                expr, args.prec, args.margin, args.box_cap
            )
    except ExprSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StabilizationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except (TetIndexError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    _emit(meta, result, args.format, sys.stdout)
    if isinstance(result, QSeries) or all(r.holds for r in result):
        return EXIT_OK
    return EXIT_MISMATCH


def main() -> None:
    sys.exit(run(sys.argv[1:]))

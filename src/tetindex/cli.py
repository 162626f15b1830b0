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
from .series import QSeries, half_exp_str
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


def _series_to_latex(s: QSeries) -> str:
    parts = []
    for i, c in enumerate(s.coeffs):
        if c == 0:
            continue
        h = s.lead + i
        if h == 0:
            mono = ""
        elif h % 2 == 0:
            e = h // 2
            mono = "q" if e == 1 else f"q^{{{e}}}"
        else:
            mono = f"q^{{{h}/2}}"
        mag = abs(c)
        body = mono if mag == 1 and mono else (f"{mag}{mono}" if mono else str(mag))
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        text = "0"
    else:
        sign0, body0 = parts[0]
        text = ("-" if sign0 == "-" else "") + body0
        for sg, body in parts[1:]:
            text += f" {sg} {body}"
    p = s.prec
    otail = f"q^{{{p // 2}}}" if p % 2 == 0 else f"q^{{{p}/2}}"
    return f"{text} + O({otail})"


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


def _emit(record: dict, fmt: str, out) -> None:
    if fmt == "json":
        print(json.dumps(record, indent=2), file=out)
        return
    kind = record["kind"]
    if kind == "series":
        s = series_from_json(record["series"])
        print(str(s) if fmt == "text" else _series_to_latex(s), file=out)
    else:
        for rep in record["reports"]:
            r = CheckReport(
                rep["verified_to_half_exp"],
                rep["holds"],
                None
                if rep["first_mismatch"] is None
                else (
                    rep["first_mismatch"]["half_exp"],
                    int(rep["first_mismatch"]["lhs"]),
                    int(rep["first_mismatch"]["rhs"]),
                ),
            )
            line = _report_text(r)
            if fmt == "latex":
                line = r"\text{" + line + "}"
            print(line, file=out)


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
    common.add_argument("--window-cap", type=int, default=identities.DEFAULT_WINDOW_CAP)
    common.add_argument("--box-cap", type=int, default=None)
    common.add_argument("--margin", type=int, default=identities.DEFAULT_MARGIN)

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

    sp = sub.add_parser("pentagon", parents=[common], help="pentagon identity")
    for name in ("--m1", "--m2", "--e1", "--e2"):
        sp.add_argument(name, type=int, required=True)
    sp.add_argument("--e0", type=int, default=None)
    sp.add_argument("--shifted", action="store_true")

    sp = sub.add_parser("bailey", parents=[common], help="Bailey chain verification")
    sp.add_argument("--n0", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--steps", type=str, default="")
    sp.add_argument("--m-range", type=str, default="-3..3")
    sp = sub.add_parser("eval", parents=[common], help="evaluate an expression file")
    sp.add_argument("--file", required=True)

    sub.add_parser("ind41", parents=[common], help="figure-eight-knot index")
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
        ("--margin", args.margin, 1),
        ("--window-cap", args.window_cap, 0),
        ("--box-cap", args.box_cap, 0),
    ):
        if value is not None and value < lo:
            print(f"error: {flag} must be at least {lo}", file=sys.stderr)
            return EXIT_USAGE
    if args.command == "pentagon" and args.e0 is not None and not args.shifted:
        print("error: --e0 applies only with --shifted", file=sys.stderr)
        return EXIT_USAGE

    meta = {"command": " ".join(["tetindex"] + list(argv)), "prec_half_exp": args.prec}
    record = {"meta": meta}
    code = EXIT_OK
    try:
        if args.command == "tet":
            record["kind"] = "series"
            record["series"] = series_to_json(tet_index(args.m, args.e, args.prec))
        elif args.command == "triality":
            record["kind"] = "report"
            rep = identities.triality_check(args.m, args.e, args.prec)
            record["reports"] = [report_to_json(rep)]
            code = EXIT_OK if rep.holds else EXIT_MISMATCH
        elif args.command == "pentagon":
            record["kind"] = "report"
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
            record["reports"] = [report_to_json(rep)]
            code = EXIT_OK if rep.holds else EXIT_MISMATCH
        elif args.command == "bailey":
            record["kind"] = "report"
            state = bailey.bailey_seed_delta(args.n0, args.t)
            m_range = _parse_range(args.m_range)
            reports = [bailey.bailey_verify(state, m_range, args.prec)]
            extents = dict(state.window_extents)
            for s in _parse_steps(args.steps):
                state = bailey.bailey_step(state, s)
                reports.append(bailey.bailey_verify(state, m_range, args.prec))
                extents.update(state.window_extents)
            record["reports"] = [report_to_json(r) for r in reports]
            meta["window"] = max(extents.values(), default=0)
            code = EXIT_OK if all(r.holds for r in reports) else EXIT_MISMATCH
        elif args.command in ("eval", "ind41"):
            record["kind"] = "series"
            if args.command == "eval":
                expr = lattice.load_expr_file(args.file)
            else:
                expr = lattice.parse_expr(lattice.IND41_TEXT)
            s, extent = lattice.eval_expr_with_box(
                expr, args.prec, args.margin, args.box_cap
            )
            record["series"] = series_to_json(s)
            meta["box"] = extent
    except ExprSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StabilizationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except (TetIndexError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    _emit(record, args.format, sys.stdout)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))

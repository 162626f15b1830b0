"""Command-line surface.

All precision flags take the bound H in half-units: coefficients are
reported for every exponent strictly below H/2.

Exit codes: 0 computed/verified, 1 identity mismatch, 2 usage or parse
error, 3 a charge sum not truncated: it diverges, it could not be
certified, or its certified low points lie among more lattice points
than the work bound `lattice.POINT_BUDGET`.  A usage
error after a known command is reported by that command's parser
("tetindex bailey: error: ..."); a missing or unknown command, or an
option before it, by the top-level parser ("tetindex: error: ...").
The identity checks (triality, pentagon, bailey) need --prec of at
least 1: below that they would compare no coefficient.

An argv of a command's full flag names with well-formed values is read
straight from the option table `_COMMANDS`; every other argv goes to
argparse, which gives the same result and writes all help and errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import bailey, identities, lattice
from .errors import ExprSyntaxError, StabilizationError, TetIndexError
from .identities import CheckReport
from .series import QSeries, format_series, monomial_str
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


def _report_text(r: CheckReport, latex: bool) -> str:
    """One report as a line of text, or of LaTeX with the words in text
    mode and the monomial in math mode."""
    if r.holds:
        words, h, tail = "holds to order", r.verified_to, ""
    else:
        h, lc, rc = r.first_mismatch
        words, tail = "MISMATCH at", f": lhs coefficient {lc}, rhs coefficient {rc}"
    mono = monomial_str(h, latex)
    if latex:
        return rf"\text{{{words} }} {mono}" + (rf"\text{{{tail}}}" if tail else "")
    return f"{words} {mono}{tail}"


def _emit(meta: dict, result, fmt: str, out) -> None:
    """Print `result`, a QSeries or a list of CheckReports, as one JSON
    record with `meta` on one line, as text or as LaTeX."""
    series = isinstance(result, QSeries)
    if fmt == "json":
        record = {"meta": meta, "kind": "series" if series else "report"}
        if series:
            record["series"] = series_to_json(result)
        else:
            record["reports"] = [report_to_json(r) for r in result]
        print(json.dumps(record), file=out)
    elif series:
        print(format_series(result, fmt == "latex"), file=out)
    else:
        for r in result:
            print(_report_text(r, fmt == "latex"), file=out)


def _parse_steps(text: str) -> list[int]:
    """--steps: the step parameters, separated by commas, or none."""
    if not text.strip():
        return []
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected integers separated by commas, got {text!r}"
        ) from None


def _parse_range(text: str) -> tuple[int, int]:
    """--m-range: LO..HI, both ends included."""
    lo, _, hi = text.partition("..")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO..HI, got {text!r}") from None


# Every command's options, each flag with the keywords of its
# add_argument call: `_parser` builds argparse from this table and
# `_quick_parse` reads well-formed argv straight from it.
_INT = {"type": int, "required": True}
_COMMON = {
    "--prec": {**_INT, "metavar": "H",
               "help": "precision bound in HALF-units: coefficients are computed "
               "for all exponents strictly below H/2"},
    "--format": {"choices": ("text", "json", "latex"), "default": "text"},
}
# the commands, in the order `tetindex -h` lists them, with their help
# and their options
_COMMANDS = {
    "tet": ("tetrahedron index I(m,e)", {**_COMMON, "-m": _INT, "-e": _INT}),
    "triality": ("triality relations", {**_COMMON, "-m": _INT, "-e": _INT}),
    "pentagon": ("pentagon identity", {
        **_COMMON, "--m1": _INT, "--m2": _INT, "--e1": _INT, "--e2": _INT,
        "--e0": {"type": int, "default": None},
        "--shifted": {"action": "store_true"},
    }),
    "bailey": ("Bailey chain verification", {
        **_COMMON, "--n0": _INT, "--t": _INT,
        "--steps": {"type": _parse_steps, "default": ""},
        "--m-range": {"type": _parse_range, "default": "-3..3"},
    }),
    "eval": ("evaluate an expression file", {**_COMMON, "--file": {"required": True}}),
    "ind41": ("figure-eight-knot index", _COMMON),
}
# the identity checks: below --prec 1 they would compare no coefficient
_CHECKS = ("triality", "pentagon", "bailey")


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


@functools.cache
def _parser(command: str) -> argparse.ArgumentParser:
    """The parser of one command, built on first use and shared by every
    call: each parse_args fills a fresh namespace, so no call sees
    another's options."""
    p = argparse.ArgumentParser(prog=f"tetindex {command}")
    for flag, keywords in _COMMANDS[command][1].items():
        p.add_argument(flag, dest=_dest(flag), **keywords)
    return p


def _quick_parse(command: str, args: list[str]) -> argparse.Namespace | None:
    """The namespace `_parser(command)` makes of `args`, read straight from
    the option table, or None unless every token is one of the command's
    own flags, or `flag=value`, with a well-formed value.  A value in the
    next token may start with "-" only as a negative integer, as argparse
    reads it; every other argv is left to argparse."""
    options = _COMMANDS[command][1]
    given = {}
    i = 0
    while i < len(args):
        flag, eq, value = args[i].partition("=")
        keywords = options.get(flag)
        if keywords is None:
            return None
        i += 1
        if "action" in keywords:  # a switch: store_true
            if eq:
                return None
            given[flag] = True
            continue
        if not eq:
            if i == len(args):
                return None
            value = args[i]
            i += 1
            digits = value[1:]
            if value.startswith("-") and not (digits.isascii() and digits.isdigit()):
                return None
        try:
            value = keywords.get("type", str)(value)
        except (ValueError, argparse.ArgumentTypeError):
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        given[flag] = value
    namespace = argparse.Namespace(command=command)
    for flag, keywords in options.items():
        if flag in given:
            value = given[flag]
        elif keywords.get("required"):
            return None
        elif "action" in keywords:
            value = False
        else:
            # argparse passes a string default through the option's type
            value = keywords.get("default")
            if isinstance(value, str):
                value = keywords.get("type", str)(value)
        setattr(namespace, _dest(flag), value)
    return namespace


class _Deferred:
    """A command's entry in the top-level parser.  That parser hands it
    arguments only when an option precedes the command; the command's
    parser is built then."""

    def __init__(self, prog, **_):
        self.command = prog.rpartition(" ")[2]

    def parse_known_args(self, args, namespace=None):
        return _parser(self.command).parse_known_args(args, namespace)


@functools.cache
def _top_parser() -> argparse.ArgumentParser:
    """The parser of an argv that does not start with a command: it
    lists the commands for -h and names a missing or unknown one."""
    p = argparse.ArgumentParser(
        prog="tetindex",
        description="Exact q-series computations with the tetrahedron index.",
    )
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Deferred)
    for command, (help_text, _) in _COMMANDS.items():
        sub.add_parser(command, help=help_text)
    return p


def run(argv) -> int:
    """Dispatch one invocation; results on stdout, diagnostics on stderr."""
    argv = list(argv)
    command = argv[0] if argv else None
    try:
        if command in _COMMANDS:
            args = _quick_parse(command, argv[1:])
            if args is None:
                args = _parser(command).parse_args(
                    argv[1:], argparse.Namespace(command=command)
                )
        else:
            args = _top_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # a precision that would make a check vacuous
    lo = 1 if args.command in _CHECKS else 0
    if args.prec < lo:
        print(f"error: --prec must be at least {lo}", file=sys.stderr)
        return EXIT_USAGE
    if args.command == "pentagon" and args.e0 is not None and not args.shifted:
        print("error: --e0 applies only with --shifted", file=sys.stderr)
        return EXIT_USAGE

    meta = {"command": " ".join(["tetindex"] + argv), "prec_half_exp": args.prec}
    try:
        if args.command == "tet":
            result = tet_index(args.m, args.e, args.prec)
        elif args.command == "triality":
            result = [identities.triality_check(args.m, args.e, args.prec)]
        elif args.command == "pentagon":
            if args.shifted:
                rep = identities.pentagon_shifted_check(
                    args.m1, args.m2, args.e1, args.e2, args.e0 or 0, args.prec
                )
            else:
                rep = identities.pentagon_check(
                    args.m1, args.m2, args.e1, args.e2, args.prec
                )
            result = [rep]
        elif args.command == "bailey":
            result = bailey.bailey_chain(
                args.n0, args.t, args.steps, args.m_range, args.prec
            )
        else:
            if args.command == "eval":
                expr = lattice.load_expr_file(args.file)
            else:
                expr = lattice.parse_expr(lattice.IND41_TEXT)
            result, meta["box"] = lattice.eval_expr_with_box(expr, args.prec)
    except ExprSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StabilizationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except (TetIndexError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if not isinstance(result, QSeries):
        # the widest charge-sum window any report summed over
        windows = [r.window for r in result if r.window is not None]
        if windows:
            meta["window"] = max(windows)
    _emit(meta, result, args.format, sys.stdout)
    if isinstance(result, QSeries) or all(r.holds for r in result):
        return EXIT_OK
    return EXIT_MISMATCH


def main() -> None:
    sys.exit(run(sys.argv[1:]))

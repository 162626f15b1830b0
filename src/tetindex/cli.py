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
Every command needs --prec of at least 0.  An identity check whose
sides all start at or above --prec compares no coefficient and exits 2
(`identities.compare_series`).

Each command is one row of the table `_COMMANDS`: its help, its options
and the call that answers it.  An argv of a command's full flag names
with well-formed values is read straight from that table; every other
argv goes to argparse, whose parsers are built from the table on the
first such argv and give the same result and write all help and errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import bailey, identities, lattice
from .errors import StabilizationError, TetIndexError
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


def _pentagon(a) -> list[CheckReport]:
    """The pentagon check, or with --shifted the shifted one."""
    charges = (a.m1, a.m2, a.e1, a.e2)
    if a.shifted:
        return [identities.pentagon_shifted_check(*charges, a.e0 or 0, a.prec)]
    if a.e0 is not None:
        raise ValueError("--e0 applies only with --shifted")
    return [identities.pentagon_check(*charges, a.prec)]


# Every command's options, each flag with the keywords of its
# add_argument call: `_parsers` builds argparse from this table and
# `_quick_parse` reads well-formed argv straight from it.
_INT = {"type": int, "required": True}
_COMMON = {
    "--prec": {**_INT, "metavar": "H",
               "help": "precision bound in HALF-units: coefficients are computed "
               "for all exponents strictly below H/2"},
    "--format": {"choices": ("text", "json", "latex"), "default": "text"},
}
# the commands, in the order `tetindex -h` lists them, with their help,
# their options and the call that answers a namespace: a series, a
# (series, box half-width) pair or a list of reports.  Each call looks
# its layer function up when it runs, so a rebinding of that name (as
# bench/spans.py makes to trace it) is seen.
_COMMANDS = {
    "tet": ("tetrahedron index I(m,e)", {**_COMMON, "-m": _INT, "-e": _INT},
            lambda a: tet_index(a.m, a.e, a.prec)),
    "triality": ("triality relations", {**_COMMON, "-m": _INT, "-e": _INT},
                 lambda a: [identities.triality_check(a.m, a.e, a.prec)]),
    "pentagon": ("pentagon identity", {
        **_COMMON, "--m1": _INT, "--m2": _INT, "--e1": _INT, "--e2": _INT,
        "--e0": {"type": int, "default": None},
        "--shifted": {"action": "store_true"},
    }, _pentagon),
    "bailey": ("Bailey chain verification", {
        **_COMMON, "--n0": _INT, "--t": _INT,
        "--steps": {"type": _parse_steps, "default": ()},
        "--m-range": {"type": _parse_range, "default": (-3, 3)},
    }, lambda a: bailey.bailey_chain(a.n0, a.t, a.steps, a.m_range, a.prec)),
    "eval": ("evaluate an expression file", {**_COMMON, "--file": {"required": True}},
             lambda a: lattice.eval_expr_with_box(lattice.load_expr_file(a.file), a.prec)),
    "ind41": ("figure-eight-knot index", _COMMON, lambda a: lattice.eval_expr_with_box(
        lattice.parse_expr(lattice.IND41_TEXT), a.prec)),
}


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's parser, built together on
    first use and shared by every call: each parse_args fills a fresh
    namespace, so no call sees another's options."""
    top = argparse.ArgumentParser(
        prog="tetindex",
        description="Exact q-series computations with the tetrahedron index.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for command, (help_text, options, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag, keywords in options.items():
            p.add_argument(flag, dest=_dest(flag), **keywords)
    return top, sub.choices


def _quick_parse(command: str, args: list[str]) -> argparse.Namespace | None:
    """The namespace `command`'s parser makes of `args`, read straight from
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
            value = keywords.get("default")
        setattr(namespace, _dest(flag), value)
    return namespace


def run(argv) -> int:
    """Dispatch one invocation; results on stdout, diagnostics on stderr."""
    argv = list(argv)
    command = argv[0] if argv else None
    try:
        if command in _COMMANDS:
            args = _quick_parse(command, argv[1:])
            if args is None:
                args = _parsers()[1][command].parse_args(
                    argv[1:], argparse.Namespace(command=command)
                )
        else:
            args = _parsers()[0].parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.prec < 0:
        print("error: --prec must be at least 0", file=sys.stderr)
        return EXIT_USAGE

    meta = {"command": " ".join(["tetindex"] + argv), "prec_half_exp": args.prec}
    try:
        result = _COMMANDS[args.command][2](args)
    except StabilizationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except (TetIndexError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if isinstance(result, tuple):
        result, meta["box"] = result
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

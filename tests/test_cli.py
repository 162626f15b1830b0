import argparse
import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tetindex

from tetindex import cli
from tetindex.cli import run, series_from_json, series_to_json
from tetindex import bailey, identities, lattice
from tetindex.identities import CheckReport
from tetindex.series import QSeries
from tetindex.tetrahedron import tet_index


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIVERGENT_FILE = os.path.join(REPO, "bench", "exprs", "divergent.txt")


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSeriesJson:
    def test_round_trip(self):
        s = tet_index(1, -1, 9)
        assert series_from_json(series_to_json(s)) == s

    def test_coefficients_are_strings(self):
        d = series_to_json(QSeries(0, (10**30,), 1))
        assert d["coeffs"] == [str(10**30)]


class TestTet:
    def test_text_output(self, capsys):
        code, out, _ = invoke(capsys, "tet", "-m", "0", "-e", "0", "--prec", "10")
        assert code == 0
        assert out.strip() == str(tet_index(0, 0, 10))

    def test_json_output(self, capsys):
        code, out, _ = invoke(
            capsys, "tet", "-m", "1", "-e", "0", "--prec", "12", "--format", "json"
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["kind"] == "series"
        assert series_from_json(rec["series"]) == tet_index(1, 0, 12)
        assert rec["meta"]["prec_half_exp"] == 12

    @pytest.mark.parametrize(
        "argv, record",
        [
            (("tet", "-m", "1", "-e", "0", "--prec", "12"),
             {"meta": {"command": "tetindex tet -m 1 -e 0 --prec 12 --format json",
                       "prec_half_exp": 12},
              "kind": "series",
              "series": {"lead_half_exp": 2, "prec_half_exp": 12,
                         "coeffs": ["-1", "0", "-1", "0", "0", "0", "1", "0", "3", "0"]}}),
            (("pentagon", "--m1", "1", "--m2", "0", "--e1", "1", "--e2", "0",
              "--prec", "8"),
             {"meta": {"command": "tetindex pentagon --m1 1 --m2 0 --e1 1 --e2 0 "
                                  "--prec 8 --format json",
                       "prec_half_exp": 8, "window": 2},
              "kind": "report",
              "reports": [{"verified_to_half_exp": 8, "holds": True,
                           "first_mismatch": None}]}),
        ],
    )
    def test_json_record_is_one_line(self, capsys, argv, record):
        code, out, _ = invoke(capsys, *argv, "--format", "json")
        assert code == 0
        line, end, rest = out.partition("\n")
        assert end == "\n" and rest == ""
        assert json.loads(line) == record

    def test_latex_output_half_exponent(self, capsys):
        code, out, _ = invoke(
            capsys, "tet", "-m", "1", "-e", "1", "--prec", "8", "--format", "latex"
        )
        assert code == 0
        assert "q^{" in out and "O(" in out

    @pytest.mark.parametrize(
        "s, text, latex",
        [
            (QSeries(-3, (1, 0, -2, 5, 0, 1, 0), 4),
             "q^(-3/2) - 2*q^(-1/2) + 5 + q + O(q^2)",
             "q^{-3/2} - 2q^{-1/2} + 5 + q + O(q^{2})"),
            (QSeries(-4, (-1, 0, 0, 0, 0, -7), 2), "-q^(-2) - 7*q^(1/2) + O(q)",
             "-q^{-2} - 7q^{1/2} + O(q^{1})"),
            (QSeries(0, (), 0), "0 + O(1)", "0 + O(q^{0})"),
            (QSeries(5, (), 5), "0 + O(q^(5/2))", "0 + O(q^{5/2})"),
        ],
    )
    def test_text_and_latex_styles(self, capsys, monkeypatch, s, text, latex):
        monkeypatch.setattr(cli, "tet_index", lambda m, e, prec: s)
        for fmt, want in (("text", text), ("latex", latex)):
            code, out, _ = invoke(capsys, "tet", "-m", "0", "-e", "0", "--prec", "8",
                                  "--format", fmt)
            assert code == 0 and out == want + "\n"

    @pytest.mark.parametrize(
        "report, text, latex",
        [
            (CheckReport(5, True), "holds to order q^(5/2)",
             r"\text{holds to order } q^{5/2}"),
            (CheckReport(6, True), "holds to order q^3",
             r"\text{holds to order } q^{3}"),
            (CheckReport(2, True), "holds to order q",
             r"\text{holds to order } q^{1}"),
            (CheckReport(8, False, (3, 1, -2)),
             "MISMATCH at q^(3/2): lhs coefficient 1, rhs coefficient -2",
             r"\text{MISMATCH at } q^{3/2}\text{: lhs coefficient 1, rhs coefficient -2}"),
            (CheckReport(8, False, (-4, 0, 7)),
             "MISMATCH at q^(-2): lhs coefficient 0, rhs coefficient 7",
             r"\text{MISMATCH at } q^{-2}\text{: lhs coefficient 0, rhs coefficient 7}"),
        ],
        ids=["holds-half", "holds-integer", "holds-q", "mismatch-half", "mismatch-negative"],
    )
    def test_report_text_and_latex_styles(self, capsys, monkeypatch, report, text, latex):
        # the words in LaTeX text mode, the monomial in math mode, in the
        # form format_series writes it
        monkeypatch.setattr(cli.identities, "triality_check", lambda m, e, prec: report)
        for fmt, want in (("text", text), ("latex", latex)):
            code, out, _ = invoke(capsys, "triality", "-m", "0", "-e", "0", "--prec", "8",
                                  "--format", fmt)
            assert code == (0 if report.holds else 1) and out == want + "\n"

    def test_report_json_unchanged(self, capsys, monkeypatch):
        report = CheckReport(5, False, (3, 1, -2))
        monkeypatch.setattr(cli.identities, "triality_check", lambda m, e, prec: report)
        code, out, _ = invoke(capsys, "triality", "-m", "0", "-e", "0", "--prec", "8",
                              "--format", "json")
        assert code == 1
        assert json.loads(out)["reports"] == [{
            "verified_to_half_exp": 5, "holds": False,
            "first_mismatch": {"half_exp": 3, "lhs": "1", "rhs": "-2"},
        }]

    def test_formats_agree_on_series(self, capsys):
        args = ("tet", "-m", "0", "-e", "-1", "--prec", "10")
        _, text_out, _ = invoke(capsys, *args)
        _, json_out, _ = invoke(capsys, *args, "--format", "json")
        s = series_from_json(json.loads(json_out)["series"])
        assert text_out.strip() == str(s)


class TestExitCodes:
    def test_verified_identity_is_zero(self, capsys):
        code, out, _ = invoke(
            capsys,
            "pentagon", "--m1", "1", "--m2", "0", "--e1", "0", "--e2", "-1",
            "--prec", "8",
        )
        assert code == 0 and "holds" in out

    def test_mismatch_is_one(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli.identities,
            "triality_check",
            lambda m, e, prec: CheckReport(prec, False, (3, 1, 2)),
        )
        code, out, _ = invoke(capsys, "triality", "-m", "0", "-e", "0", "--prec", "8")
        assert code == 1 and "MISMATCH" in out

    def test_usage_error_is_two(self, capsys):
        code, _, _ = invoke(capsys, "tet", "-m", "0", "--prec", "8")
        assert code == 2

    def test_negative_precision_is_two(self, capsys):
        code, out, err = invoke(capsys, "tet", "-m", "0", "-e", "0", "--prec", "-1")
        assert (code, out, err) == (2, "", "error: --prec must be at least 0\n")

    def test_unknown_command_is_two(self, capsys):
        code, out, err = invoke(capsys, "frobnicate", "--prec", "8")
        assert code == 2 and out == "" and "invalid choice: 'frobnicate'" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("triality", "-m", "0", "-e", "0"),
            ("pentagon", "--m1", "1", "--m2", "0", "--e1", "0", "--e2", "-1"),
            ("bailey", "--n0", "0", "--t", "1"),
        ],
    )
    def test_check_below_precision_one_is_two(self, capsys, argv):
        # at --prec 0 these checks compare no coefficient and prove
        # nothing; the comparer refuses them, as it does in the library
        code, out, err = invoke(capsys, *argv, "--prec", "0")
        assert code == 2 and out == ""
        assert err == (
            "error: a check to half-exponent 0 would compare no coefficient: "
            "no side starts below it, and the precision must be at least 1\n"
        )

    def test_shifted_check_starting_below_zero_is_compared_at_zero(self, capsys):
        # this left side is -q^(-1) + O(1), so --prec 0 still compares
        # coefficients, as pentagon_shifted_check does
        argv = ("pentagon", "--shifted", "--m1", "1", "--m2", "-1", "--e1", "0",
                "--e2", "1", "--e0", "1")
        assert identities.pentagon_shifted_lhs(1, -1, 0, 1, 1, 0).lead < 0
        code, out, err = invoke(capsys, *argv, "--prec", "0")
        assert (code, out, err) == (0, "holds to order 1\n", "")

    @pytest.mark.parametrize(
        "argv", [("tet", "-m", "1", "-e", "0"), ("ind41",)]
    )
    def test_series_at_precision_zero_is_empty(self, capsys, argv):
        code, out, _ = invoke(capsys, *argv, "--prec", "0")
        assert code == 0 and out == "0 + O(1)\n"

    def test_parse_error_is_two(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("sum k : I(k/2, k)\n")
        code, _, err = invoke(capsys, "eval", "--file", str(p), "--prec", "6")
        assert code == 2 and "integer-valued" in err

    def test_missing_file_is_two(self, capsys, tmp_path):
        code, _, _ = invoke(
            capsys, "eval", "--file", str(tmp_path / "nope.txt"), "--prec", "6"
        )
        assert code == 2

    def test_empty_m_range_is_two(self, capsys):
        code, out, err = invoke(
            capsys, "bailey", "--n0", "0", "--t", "1", "--m-range=3..-3", "--prec", "6"
        )
        assert code == 2 and out == "" and "range" in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--m-range", "3", "expected LO..HI, got '3'"),
            ("--m-range", "a..b", "expected LO..HI, got 'a..b'"),
            ("--m-range", "1..2..3", "expected LO..HI, got '1..2..3'"),
            ("--steps", "1,,2", "expected integers separated by commas, got '1,,2'"),
        ],
    )
    def test_malformed_m_range_or_steps_names_its_flag(self, capsys, flag, value, message):
        code, out, err = invoke(
            capsys, "bailey", "--n0", "0", "--t", "1", f"{flag}={value}", "--prec", "8"
        )
        assert code == 2 and out == ""
        assert f"tetindex bailey: error: argument {flag}: {message}\n" in err

    @pytest.mark.parametrize("margin", ["0", "-2"])
    def test_margin_below_one_is_two(self, capsys, margin):
        # no command takes --margin: the box is the farthest low point
        code, out, err = invoke(capsys, "ind41", "--prec", "6", "--margin", margin)
        assert code == 2 and out == "" and "--margin" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("pentagon", "--m1", "0", "--m2", "0", "--e1", "0", "--e2", "0",
             "--window-cap", "-1"),
            ("ind41", "--box-cap", "-1"),
        ],
    )
    def test_negative_cap_is_two(self, capsys, argv):
        # no command takes a cap: the one truncation bound is on work
        code, out, err = invoke(capsys, *argv, "--prec", "8")
        assert code == 2 and out == "" and "cap" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("bailey", "--n0", "0", "--t", "1", "--window-cap", "1", "--margin", "40"),
             "--window-cap 1 --margin 40"),
            (("tet", "-m", "1", "-e", "0", "--box-cap", "0"), "--box-cap"),
            (("ind41", "--window-cap", "0"), "--window-cap"),
        ],
    )
    def test_flag_the_command_does_not_read_is_two(self, capsys, argv, flag):
        # no command reads a truncation flag; accepted, it would be
        # ignored without a word. The command's own parser names it.
        code, out, err = invoke(capsys, *argv, "--prec", "6")
        assert code == 2 and out == ""
        assert f"tetindex {argv[0]}: error: unrecognized arguments: {flag}" in err

    def test_unstable_window_is_three(self, capsys, monkeypatch):
        monkeypatch.setattr(lattice, "POINT_BUDGET", 0)
        code, _, err = invoke(
            capsys,
            "pentagon", "--m1", "0", "--m2", "0", "--e1", "0", "--e2", "0",
            "--prec", "8",
        )
        assert code == 3 and "pentagon window converges" in err and "POINT_BUDGET" in err

    def test_unstable_box_is_three(self, capsys, monkeypatch):
        # ind41 at H = 80 tests 76 points: past the work bound, a sum
        # proved convergent is not reported as one that may diverge
        monkeypatch.setattr(lattice, "POINT_BUDGET", 75)
        code, out, err = invoke(capsys, "ind41", "--prec", "80")
        assert code == 3 and out == ""
        assert "POINT_BUDGET = 75" in err and "may not converge" not in err
        monkeypatch.setattr(lattice, "POINT_BUDGET", 76)
        code, out, err = invoke(capsys, "ind41", "--prec", "80")
        assert code == 0 and err == "" and out

    def test_e0_without_shifted_is_two(self, capsys):
        # --e0 only enters the shifted pentagon; accepting it otherwise
        # would report a check that never used it
        code, out, err = invoke(
            capsys, "pentagon", "--m1", "0", "--m2", "0", "--e1", "0", "--e2", "0",
            "--e0", "5", "--prec", "8",
        )
        assert code == 2 and out == "" and "--e0" in err

    def test_shifted_e0_defaults_to_zero(self, capsys):
        base = ["pentagon", "--shifted", "--m1", "1", "--m2", "0", "--e1", "1",
                "--e2", "0", "--prec", "8", "--format", "json"]
        code, out, _ = invoke(capsys, *base)
        code0, out0, _ = invoke(capsys, *base, "--e0", "0")
        assert code == code0 == 0
        assert json.loads(out)["reports"] == json.loads(out0)["reports"]

    def test_translated_rank2_sum(self, capsys, tmp_path):
        # a translate of ind41 whose low terms lie about 100 shells out
        p = tmp_path / "translated.txt"
        p.write_text("sum a b : I(a - 100, b) * I(b, a - 100)\n")
        code, out, _ = invoke(capsys, "eval", "--file", str(p), "--prec", "6")
        assert code == 0
        assert out == invoke(capsys, "ind41", "--prec", "6")[1]
        code, out, _ = invoke(capsys, "eval", "--file", str(p), "--prec", "10", "--format", "json")
        rec = json.loads(out)
        assert code == 0 and rec["meta"]["box"] == 102
        ind41 = json.loads(invoke(capsys, "ind41", "--prec", "10", "--format", "json")[1])
        assert rec["series"] == ind41["series"]

    def test_divergent_rank2_sum_is_three(self, capsys, tmp_path):
        p = tmp_path / "divergent.txt"
        p.write_text("sum a b : I(a,b)\n")
        code, out, err = invoke(capsys, "eval", "--file", str(p), "--prec", "6")
        assert code == 3 and out == "" and "diverges" in err

    def test_divergence_is_named_before_the_cap(self, capsys, tmp_path, monkeypatch):
        # a work bound that allows no point must not hide the divergent line
        monkeypatch.setattr(lattice, "POINT_BUDGET", 0)
        p = tmp_path / "divergent.txt"
        p.write_text("sum a b : I(a,b)\n")
        code, out, err = invoke(capsys, "eval", "--file", str(p), "--prec", "6")
        assert code == 3 and out == ""
        assert "diverges" in err and "POINT_BUDGET" not in err


def test_python_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(tetindex.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "tetindex", "ind41", "--prec", "10"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        check=False, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1 - 8*q - 9*q^2 + 18*q^3 + 46*q^4 + O(q^5)"


class TestEvalFileEndToEnd:
    """`python -m tetindex eval --file`, each in a fresh interpreter."""

    @staticmethod
    def tetindex(*argv):
        src = os.path.dirname(os.path.dirname(tetindex.__file__))
        return subprocess.run(
            [sys.executable, "-m", "tetindex", *argv],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
            check=False, timeout=60,
        )

    def test_syntax_error_exits_two_with_its_position(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_bytes(b"# a bad denominator\r\nsum k :\r\n  I(k, 1/3)\r\n")
        proc = self.tetindex("eval", "--file", str(p), "--prec", "6")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: only /2 denominators are allowed (at position 15)\n"

    def test_crlf_file_with_a_comment_is_the_one_line_sum(self, tmp_path):
        one, crlf = tmp_path / "one.txt", tmp_path / "crlf.txt"
        one.write_bytes(b"sum e3 : q^(e3) * I(1, e3 - 1) * I(-2, e3 + 2) * I(-1, e3)\n")
        crlf.write_bytes(
            b"# a pentagon right-hand side\r\nsum e3 :\r\n"
            b"  q^(e3) * I(1, e3 - 1)\r\n  * I(-2, e3 + 2) * I(-1, e3)\r\n"
        )
        procs = [self.tetindex("eval", "--file", str(p), "--prec", "12", "--format", "json")
                 for p in (one, crlf)]
        assert [proc.returncode for proc in procs] == [0, 0]
        a, b = (json.loads(proc.stdout) for proc in procs)
        assert a["series"] == b["series"] and a["meta"]["box"] == b["meta"]["box"]
        assert len(a["series"]["coeffs"]) > 1


class TestBaileyEndToEnd:
    """Bailey chains through `python -m tetindex bailey` in a fresh
    interpreter, with a RuntimeWarning fatal so that no bound that warns
    creeps back: every level holds, in text and in JSON, and JSON
    `meta.window` is the widest step window of any level, each level's
    own over the checked m."""

    @pytest.mark.parametrize(
        "argv, levels, window",
        [
            # the deepest documented chain
            ("--n0 0 --t 1 --steps=1,-1,2,0,1,-1 --m-range=-3..3 --prec 12", 7, 2),
            # its depth-2 step needs beta_1(-3), a term a heuristic beta
            # degree bound once dropped
            ("--n0 2 --t 1 --steps=-2,1 --m-range=-2..2 --prec 8", 3, 3),
            # from an odd seed point the sign (-1)^n of each step's alpha
            # factor alternates
            ("--n0 1 --t 0 --steps=1,-1,2,0,1 --m-range=-3..3 --prec 10", 6, 3),
        ],
        ids=["depth-6", "certified-step", "odd-seed"],
    )
    def test_every_level_holds(self, argv, levels, window):
        src = os.path.dirname(os.path.dirname(tetindex.__file__))
        procs = [
            subprocess.run(
                [sys.executable, "-X", "dev", "-W", "error::RuntimeWarning", "-m",
                 "tetindex", "bailey", *argv.split(), *fmt],
                capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
                check=False, timeout=120,
            )
            for fmt in ((), ("--format", "json"))
        ]
        assert [p.returncode for p in procs] == [0, 0], [p.stderr for p in procs]
        text, rec = procs[0].stdout, json.loads(procs[1].stdout)
        assert text.count("holds to order") == levels, text
        assert len(rec["reports"]) == levels and all(r["holds"] for r in rec["reports"])
        assert rec["meta"]["window"] == window, rec["meta"]


class TestDispatch:
    """An argv that starts with a command is parsed by that command's
    parser; any other argv by the top-level parser."""

    def test_no_arguments(self, capsys):
        code, out, err = invoke(capsys)
        assert code == 2 and out == "" and "required: command" in err

    def test_help_lists_every_command(self, capsys):
        code, out, _ = invoke(capsys, "-h")
        assert code == 0
        for command in ("tet", "triality", "pentagon", "bailey", "eval", "ind41"):
            assert f"    {command} " in out

    def test_option_before_the_command(self, capsys):
        code, out, err = invoke(capsys, "--prec", "8", "tet", "-m", "0", "-e", "0")
        assert code == 2 and out == "" and err.startswith("usage: tetindex [-h]")

    def test_command_help(self, capsys):
        code, out, _ = invoke(capsys, "pentagon", "-h")
        assert code == 0 and out.startswith("usage: tetindex pentagon [-h]")
        assert "--m1" in out and "--window-cap" not in out


class TestParserReuse:
    def test_second_call_sees_only_its_own_options(self, capsys, monkeypatch):
        # each parser is built once per process; a fresh interpreter builds
        # its own, so each in-process output must match a fresh call's
        base = ["pentagon", "--m1", "1", "--m2", "0", "--e1", "1", "--e2", "0",
                "--prec", "8", "--format", "json"]
        shifted = base[:1] + ["--shifted"] + base[1:] + ["--e0", "1"]
        usage_error = base + ["--box-cap", "1"]
        # usage lines wrap at the terminal width: give both sides the same
        monkeypatch.setenv("COLUMNS", "80")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tetindex.__file__)))
        for argv in (usage_error, shifted, base):
            code, out, err = invoke(capsys, *argv)
            fresh = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from tetindex.cli import run; sys.exit(run(sys.argv[1:]))",
                 *argv],
                capture_output=True, text=True, env=env, check=False,
            )
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        rec = json.loads(out)
        assert rec["reports"][0]["holds"]
        assert rec["meta"]["window"] == identities.pentagon_check(1, 0, 1, 0, 8).window

    def test_each_parser_is_built_once(self, capsys, monkeypatch):
        # a well-formed argv is read from the option table and builds no
        # parser; the first help or usage error builds the whole tree, the
        # top-level parser and every command's, and later ones build none
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, **kwargs):
            built.append(kwargs["prog"])
            init(self, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._parsers.cache_clear()
        try:
            for _ in range(2):
                assert invoke(capsys, "tet", "-m", "0", "-e", "0", "--prec", "4")[0] == 0
                assert invoke(capsys, "triality", "-m", "0", "-e", "0", "--prec", "4")[0] == 0
            assert built == []
            assert invoke(capsys, "tet", "-h")[0] == 0
            assert built == ["tetindex"] + [f"tetindex {c}" for c in cli._COMMANDS]
            for _ in range(2):
                assert invoke(capsys, "tet", "-h")[0] == 0
                assert invoke(capsys, "triality", "-m", "0", "--prec", "4")[0] == 2
                assert invoke(capsys, "-h")[0] == 0
                assert invoke(capsys, "frobnicate")[0] == 2
            assert len(built) == 1 + len(cli._COMMANDS)
        finally:
            cli._parsers.cache_clear()


# each command's layer function, as the module attribute its row must look
# up when it runs; bench/spans.py traces a function by rebinding that name
_LAYER_CALLS = [
    (["tet", "-m", "0", "-e", "0", "--prec", "4"], cli, "tet_index"),
    (["triality", "-m", "0", "-e", "0", "--prec", "4"], identities, "triality_check"),
    (["pentagon", "--m1", "1", "--m2", "0", "--e1", "1", "--e2", "0", "--prec", "8"],
     identities, "pentagon_check"),
    (["pentagon", "--shifted", "--m1", "1", "--m2", "0", "--e1", "1", "--e2", "0",
      "--e0", "1", "--prec", "8"], identities, "pentagon_shifted_check"),
    (["bailey", "--n0", "0", "--t", "1", "--steps", "1", "--m-range=-2..2", "--prec", "6"],
     bailey, "bailey_chain"),
    (["eval", "--file", os.path.join(REPO, "bench", "exprs", "rank3.txt"), "--prec", "4"],
     lattice, "eval_expr_with_box"),
    (["ind41", "--prec", "4"], lattice, "eval_expr_with_box"),
]


class TestLateBinding:
    def test_every_command_is_covered(self):
        assert {argv[0] for argv, _, _ in _LAYER_CALLS} == set(cli._COMMANDS)

    @pytest.mark.parametrize(
        "argv, module, name", _LAYER_CALLS, ids=[f"{a[0]}-{n}" for a, _, n in _LAYER_CALLS]
    )
    def test_row_calls_the_rebound_name(self, capsys, monkeypatch, argv, module, name):
        # a row that stored the function object would miss the spy
        real, calls = getattr(module, name), []

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
        assert invoke(capsys, *argv)[0] == 0
        assert calls


def _argparse_parse(command, args):
    """What the command's argparse parser makes of `args`: its namespace,
    or None where it exits with help or a usage error."""
    parser = cli._parsers()[1][command]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return parser.parse_args(args, argparse.Namespace(command=command))
        except SystemExit:
            return None


# values a flag may meet: ints in spellings int() reads or refuses (an
# Arabic-Indic three, a superscript two), ranges, step lists, the empty string
_VALUES = ("0", "7", "-3", "+5", " 5", "1_0", "\u0663", "\u00b2", "-\u0663",
           "-2..2", "1,-1", "1,,2", "", "json", "latex", "x")
_STRAYS = ("-", "-h", "--", "stray", "-m3", "-5")


@st.composite
def _command_argv(draw):
    """A command and an argv: its required flags with good values, and a few
    of its flags or their abbreviations, in the space, equals or bare form,
    or stray tokens, in any order."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    options = cli._COMMANDS[command][1]
    flags = list(options)
    spelling = st.sampled_from(
        flags + [f[:k] for f in flags if f.startswith("--") for k in range(3, len(f))]
    )
    value = st.sampled_from(_VALUES)
    item = st.one_of(
        st.tuples(spelling, value).map(list),
        st.builds(lambda f, v: [f"{f}={v}"], spelling, value),
        spelling.map(lambda f: [f]),
        st.sampled_from(_STRAYS).map(lambda t: [t]),
    )
    good = st.sampled_from(("0", "-2", "12"))
    items = [[flag, draw(good)] for flag, keywords in options.items()
             if keywords.get("required")]
    items = draw(st.permutations(items + draw(st.lists(item, max_size=4))))
    return command, [token for it in items for token in it]


class TestQuickParse:
    """An argv of a command's full flag names with well-formed values is
    read straight from the option table; any other is left to argparse."""

    _PENTAGON = ["--m1", "1", "--m2", "0", "--e1", "1", "--e2", "0", "--prec", "8"]

    @settings(max_examples=400, deadline=None)
    @given(_command_argv())
    @example(("pentagon", _PENTAGON + ["--shifted=1"]))
    @example(("pentagon", _PENTAGON + ["--shifted="]))
    @example(("pentagon", _PENTAGON + ["--shifted", "--shifted", "--e0=-1"]))
    @example(("bailey", ["--n0", "0", "--t", "1", "--prec", "8", "--m-range", "-2..2"]))
    @example(("eval", ["--file", "-", "--prec", "8"]))
    @example(("eval", ["--file=-", "--prec=8", "--prec", "9"]))
    @example(("tet", ["-m", "0", "-e", "0", "--prec", "8", "--format", "json", "--format", "x"]))
    def test_quick_parse_agrees_with_argparse(self, case):
        command, args = case
        quick = cli._quick_parse(command, args)
        full = _argparse_parse(command, args)
        assert quick is None or quick == full
        if full is None:
            assert quick is None

    def test_every_benchmark_argv_takes_the_quick_path(self):
        # a mistyped table entry would send these jobs to argparse quietly
        spec = importlib.util.spec_from_file_location(
            "workloads", os.path.join(REPO, "bench", "workloads.py")
        )
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        for name in workloads.WORKLOADS:
            for job in workloads.universe(name):
                command, *args = job["argv"] + ["--format", "json"]
                quick = cli._quick_parse(command, args)
                assert quick is not None and quick == _argparse_parse(command, args), args

    @pytest.mark.parametrize(
        "args, quick",
        [
            (["-m", "-3", "-e", "7", "--prec", "20"], True),
            (["-m=-3", "-e=7", "--prec=20"], True),
            (["--prec", "20", "-e", "7", "-m", "-3", "--format", "json", "--format=text"], True),
            (["-m", "-3", "-e", "7", "--pre", "20"], False),
            (["-m", "-3 ", "-e", "7", "--prec", "20"], False),
            (["-m", "-\u0663", "-e", "7", "--prec", "20"], False),
        ],
    )
    def test_spellings_of_one_tet(self, args, quick):
        want = argparse.Namespace(command="tet", m=-3, e=7, prec=20, format="text")
        if quick:
            assert cli._quick_parse("tet", args) == want
        else:
            assert cli._quick_parse("tet", args) is None
        assert _argparse_parse("tet", args) == want

    def test_defaults_are_parsed_values(self):
        # both parse paths take --steps and --m-range defaults as they are
        args = ["--n0", "0", "--t", "1", "--prec", "6"]
        ns = cli._quick_parse("bailey", args)
        assert ns == _argparse_parse("bailey", args)
        assert (ns.steps, ns.m_range) == ((), (-3, 3))


class TestCommands:
    def test_triality(self, capsys):
        code, out, _ = invoke(
            capsys, "triality", "-m", "-2", "-e", "3", "--prec", "12"
        )
        assert code == 0 and "holds" in out

    def test_triality_of_a_dipping_charge_at_high_precision(self, capsys):
        # the sides of (20, 7) have summand leads far below their degree
        code, out, _ = invoke(
            capsys, "triality", "-m", "20", "-e", "7", "--prec", "600",
            "--format", "json",
        )
        assert code == 0
        (report,) = json.loads(out)["reports"]
        assert report["holds"] is True
        assert report["verified_to_half_exp"] == 600

    def test_pentagon_shifted(self, capsys):
        code, out, _ = invoke(
            capsys,
            "pentagon", "--shifted", "--m1", "1", "--m2", "0", "--e1", "1",
            "--e2", "0", "--e0", "-1", "--prec", "8", "--format", "json",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["reports"][0]["holds"] is True
        assert rec["meta"]["window"] == 1

    def test_bailey_chain(self, capsys):
        code, out, _ = invoke(
            capsys,
            "bailey", "--n0", "0", "--t", "1", "--steps", "1",
            "--m-range=-2..2", "--prec", "6", "--format", "json",
        )
        assert code == 0
        rec = json.loads(out)
        assert len(rec["reports"]) == 2
        assert all(r["holds"] for r in rec["reports"])

    @pytest.mark.parametrize(
        "argv, levels, window",
        [
            (("--n0", "0", "--t", "1", "--steps=1,-1,2,0,1,-1", "--m-range=-3..3",
              "--prec", "12"), 7, 2),
            (("--n0", "2", "--t", "1", "--steps=-2,1", "--m-range=-2..2",
              "--prec", "8"), 3, 3),
        ],
    )
    def test_bailey_window_is_the_widest_level(self, capsys, argv, levels, window):
        # each level reports its own step window over the checked m, and
        # meta.window is the widest of them; the second chain's last step
        # sums beta_1(-3), outside the checked range, over a window of 4,
        # which no level reports
        code, out, _ = invoke(capsys, "bailey", *argv, "--format", "json")
        rec = json.loads(out)
        assert code == 0 and len(rec["reports"]) == levels
        assert all(r["holds"] for r in rec["reports"])
        assert rec["meta"]["window"] == window
        ns = cli._quick_parse("bailey", list(argv))
        state = bailey.bailey_seed_delta(ns.n0, ns.t)
        for s in ns.steps:
            state = bailey.bailey_step(state, s)
            report = bailey.bailey_verify(state, ns.m_range, ns.prec)
            assert {level for level, _ in state.window_extents} == {state.depth}
            assert report.window <= window

    def test_ind41_json_has_box(self, capsys):
        code, out, _ = invoke(capsys, "ind41", "--prec", "10", "--format", "json")
        assert code == 0
        rec = json.loads(out)
        s = series_from_json(rec["series"])
        assert [s.coefficient(2 * j) for j in range(5)] == [1, -8, -9, 18, 46]
        assert rec["meta"]["box"] == 2

    def test_eval_file(self, capsys, tmp_path):
        p = tmp_path / "expr.txt"
        p.write_text("# knot\nsum k1 k2 : I(k1,k2)*I(k2,k1)\n")
        code, out, _ = invoke(capsys, "eval", "--file", str(p), "--prec", "6")
        assert code == 0 and out.strip().startswith("1 - 8*q")

    def test_divergent_sum_is_three(self, capsys):
        code, out, err = invoke(
            capsys, "eval", "--file", DIVERGENT_FILE, "--prec", "10", "--format", "json"
        )
        assert code == 3 and out == "" and "line j * (1,) diverges" in err

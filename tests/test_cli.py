import json
import os
import subprocess
import sys

import pytest

import tetindex

from tetindex import cli
from tetindex.cli import run, series_from_json, series_to_json
from tetindex import identities
from tetindex.identities import CheckReport
from tetindex.series import QSeries
from tetindex.tetrahedron import tet_index


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
        code, _, err = invoke(capsys, "tet", "-m", "0", "-e", "0", "--prec", "-1")
        assert code == 2 and "prec" in err

    def test_unknown_command_is_two(self, capsys):
        code, _, _ = invoke(capsys, "frobnicate", "--prec", "8")
        assert code == 2

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

    @pytest.mark.parametrize("margin", ["0", "-2"])
    def test_margin_below_one_is_two(self, capsys, margin):
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
        # a truncation flag is accepted only where it is read; elsewhere
        # it would be ignored without a word
        code, out, err = invoke(capsys, *argv, "--prec", "6")
        assert code == 2 and out == "" and f"unrecognized arguments: {flag}" in err

    def test_unstable_window_is_three(self, capsys):
        code, _, err = invoke(
            capsys,
            "pentagon", "--m1", "0", "--m2", "0", "--e1", "0", "--e2", "0",
            "--prec", "8", "--window-cap", "0",
        )
        assert code == 3 and "not stabilized" in err

    def test_unstable_box_is_three(self, capsys):
        code, _, err = invoke(capsys, "ind41", "--prec", "8", "--box-cap", "1")
        assert code == 3 and "not stabilized" in err

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
        code, out, err = invoke(capsys, "eval", "--file", str(p), "--prec", "6")
        assert code == 3 and out == "" and "not stabilized" in err
        code, out, _ = invoke(
            capsys, "eval", "--file", str(p), "--prec", "6", "--box-cap", "110"
        )
        assert code == 0
        assert out == invoke(capsys, "ind41", "--prec", "6")[1]

    def test_divergent_rank2_sum_is_three(self, capsys, tmp_path):
        p = tmp_path / "divergent.txt"
        p.write_text("sum a b : I(a,b)\n")
        code, out, err = invoke(capsys, "eval", "--file", str(p), "--prec", "6")
        assert code == 3 and out == "" and "diverges" in err


def test_python_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(tetindex.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "tetindex", "ind41", "--prec", "10"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        check=False, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1 - 8*q - 9*q^2 + 18*q^3 + 46*q^4 + O(q^5)"


class TestParserReuse:
    def test_second_call_sees_only_its_own_options(self, capsys):
        # the parser is built once per process; a fresh interpreter builds
        # its own, so each in-process output must match a fresh call's
        base = ["pentagon", "--m1", "1", "--m2", "0", "--e1", "1", "--e2", "0",
                "--prec", "8", "--format", "json"]
        shifted = base[:1] + ["--shifted"] + base[1:] + ["--e0", "1"]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tetindex.__file__)))
        for argv in (shifted, base):
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
        assert rec["meta"]["window"] == identities.pentagon_window_extent(1, 0, 1, 0, 8)

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()


class TestCommands:
    def test_triality(self, capsys):
        code, out, _ = invoke(
            capsys, "triality", "-m", "-2", "-e", "3", "--prec", "12"
        )
        assert code == 0 and "holds" in out

    def test_pentagon_shifted(self, capsys):
        code, out, _ = invoke(
            capsys,
            "pentagon", "--shifted", "--m1", "1", "--m2", "0", "--e1", "1",
            "--e2", "0", "--e0", "-1", "--prec", "8", "--format", "json",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["reports"][0]["holds"] is True
        assert rec["meta"]["window"] >= 1

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

    def test_ind41_json_has_box(self, capsys):
        code, out, _ = invoke(capsys, "ind41", "--prec", "10", "--format", "json")
        assert code == 0
        rec = json.loads(out)
        s = series_from_json(rec["series"])
        assert [s.coefficient(2 * j) for j in range(5)] == [1, -8, -9, 18, 46]
        assert rec["meta"]["box"] >= 3

    def test_eval_file(self, capsys, tmp_path):
        p = tmp_path / "expr.txt"
        p.write_text("# knot\nsum k1 k2 : I(k1,k2)*I(k2,k1)\n")
        code, out, _ = invoke(capsys, "eval", "--file", str(p), "--prec", "6")
        assert code == 0 and out.strip().startswith("1 - 8*q")

    def test_divergent_sum_is_three(self, capsys, tmp_path):
        p = tmp_path / "divergent.txt"
        p.write_text("sum k : q^(-k) * I(0,k)\n")
        code, out, err = invoke(
            capsys, "eval", "--file", str(p), "--prec", "10", "--format", "json"
        )
        assert code == 3 and out == "" and "diverges" in err

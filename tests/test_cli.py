import json

import pytest

from tetindex import cli
from tetindex.cli import run, series_from_json, series_to_json
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

import json

import numpy as np
import pytest

import rootradii as rr
from rootradii.cli import main

SECT5 = "4\n3\n-30\n-23\n16\n16\n16\n8\n"


@pytest.fixture()
def sect5_file(tmp_path):
    path = tmp_path / "sect5.txt"
    path.write_text("# worked example\n" + SECT5)
    return str(path)


class TestGen:
    def test_round_trip_through_every_command(self, tmp_path, capsys):
        out = tmp_path / "fam.txt"
        assert main(["gen", "--type", "1", "--n", "12", "--r", "4", "--seed", "7", "--out", str(out)]) == 0
        p = rr.read_coefficients(out)
        assert p.degree == 12
        assert main(["radii", str(out)]) == 0
        radii = json.loads(capsys.readouterr().out)
        assert len(radii["radii"]) == 12
        assert main(["isolate-real", str(out)]) == 0
        real = json.loads(capsys.readouterr().out)
        assert len(real["roots"]) >= 4

    def test_gen_stdout(self, capsys):
        assert main(["gen", "--type", "3", "--n", "6", "--r", "4", "--seed", "0"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 7

    def test_gen_complex_two_columns(self, capsys):
        assert main(["gen", "--type", "2", "--n", "5", "--r", "2", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert any(len(l.split()) == 2 for l in out.splitlines() if l.strip())

    @pytest.mark.parametrize("family", ["1", "2"])
    def test_gen_stdout_equals_out_file(self, tmp_path, capsys, family):
        args = ["gen", "--type", family, "--n", "9", "--r", "3", "--seed", "4"]
        assert main(args) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "fam.txt"
        assert main(args + ["--out", str(out)]) == 0
        assert out.read_bytes() == printed.encode()

    def test_gen_out_to_missing_directory_exit_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "fam.txt"
        assert main(["gen", "--type", "1", "--n", "8", "--r", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestRadiiCommand:
    def test_sect5_brackets(self, sect5_file, capsys):
        assert main(["radii", sect5_file, "--target-rel-error", "0.001"]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got["squarings_used"] <= 14
        assert abs(got["radii"][0] - 1.65062919) < 5e-4

    def test_pure_power_zeros(self, tmp_path, capsys):
        path = tmp_path / "x3.txt"
        path.write_text("0\n0\n0\n1\n")
        assert main(["radii", str(path)]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got["radii"] == [0.0, 0.0, 0.0]

    def test_radius_past_float_range_exit_3(self, tmp_path, capsys):
        path = tmp_path / "far.txt"
        path.write_text("1e300\n1e-300\n")  # root -1e600
        assert main(["radii", str(path)]) == 3
        assert "outside the float range" in capsys.readouterr().err

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("not a number\n")
        assert main(["radii", str(path)]) == 2

    def test_missing_file_exit_2(self):
        assert main(["radii", "/nonexistent/file.txt"]) == 2


class TestIsolateRealCommand:
    def test_sect5_five_roots(self, sect5_file, capsys):
        assert main(["isolate-real", sect5_file]) == 0
        got = json.loads(capsys.readouterr().out)
        values = sorted(r["value"] for r in got["roots"])
        want = [-1.65062919, -0.92387953, -0.38268343, 0.38268343, 0.92387953]
        assert len(values) == 5
        assert all(abs(a - b) < 1e-7 for a, b in zip(values, want))
        assert got["suspects"] == []
        assert set(got["stats"]) == {"squarings", "sign_evals", "newton_steps"}

    def test_no_real_roots_ok_exit(self, tmp_path, capsys):
        path = tmp_path / "x2p1.txt"
        path.write_text("1\n0\n1\n")
        assert main(["isolate-real", str(path)]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got["roots"] == []

    def test_complex_input_rejected(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("1 1\n1\n")
        assert main(["isolate-real", str(path)]) == 2

    def test_zero_polynomial_exit_2(self, tmp_path, capsys):
        path = tmp_path / "zero.txt"
        path.write_text("0\n0\n0\n")
        assert main(["isolate-real", str(path)]) == 2
        assert capsys.readouterr().out == ""

    def test_bits_past_mantissa_exit_2(self, sect5_file, capsys):
        assert main(["isolate-real", sect5_file, "--bits", "53"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "precision_bits" in captured.err


class TestIsolateComplexCommand:
    def test_fourth_roots_of_unity(self, tmp_path, capsys):
        path = tmp_path / "x4m1.txt"
        path.write_text("-1\n0\n0\n0\n1\n")
        assert main(["isolate-complex", str(path), "--rho", "1e-3", "--seed", "5"]) == 0
        got = json.loads(capsys.readouterr().out)
        assert len(got["inclusions"]) == 4
        assert "phi" in got and "separation_bound" in got

    def test_degree_one(self, tmp_path, capsys):
        path = tmp_path / "lin.txt"
        path.write_text("-2\n1\n")
        assert main(["isolate-complex", str(path)]) == 0
        got = json.loads(capsys.readouterr().out)
        assert len(got["inclusions"]) == 1
        assert abs(got["inclusions"][0]["re"] - 2.0) < 1e-2

    def test_sect5_small_rho_seven(self, sect5_file, capsys):
        assert main(["isolate-complex", sect5_file, "--rho", "1e-4", "--seed", "3"]) == 0
        got = json.loads(capsys.readouterr().out)
        assert len(got["inclusions"]) == 7

    def test_degree_513_disjoint_discs(self, tmp_path, capsys):
        # the distance queries give up on this input (test_radii), the
        # certified path isolates all 513 roots of unity
        path = tmp_path / "x513m1.txt"
        path.write_text("-1\n" + "0\n" * 512 + "1\n")
        assert main(["isolate-complex", str(path)]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got["unresolved"] == [] and len(got["inclusions"]) == 513
        c = np.array([complex(i["re"], i["im"]) for i in got["inclusions"]])
        r = np.array([i["radius"] for i in got["inclusions"]])
        assert all(i["multiplicity"] == 1 for i in got["inclusions"])
        d = np.abs(c[:, None] - c[None, :]) - r[:, None] - r[None, :]
        np.fill_diagonal(d, 1.0)
        assert (d > 0).all()
        assert np.abs(np.abs(c) - 1.0).max() <= 1e-12

    def test_stats_keys(self, sect5_file, capsys):
        assert main(["isolate-complex", sect5_file]) == 0
        stats = json.loads(capsys.readouterr().out)["stats"]
        assert set(stats) == {"sweeps", "frozen", "components_by_size", "counted", "unresolved"}
        assert stats["components_by_size"] == {"1": 7} and stats["unresolved"] == 0
        assert stats["sweeps"] > 0 and stats["frozen"] == 7

    @pytest.mark.parametrize("text", ["1e300\n1e-300\n", "1\n5e-324\n"])
    def test_root_bound_past_float_range_exit_3(self, tmp_path, capsys, text):
        path = tmp_path / "far.txt"
        path.write_text(text)
        assert main(["isolate-complex", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "outside the float range" in captured.err

    @pytest.mark.parametrize("eta", ["0", "-5"])
    def test_nonpositive_eta_exit_2(self, sect5_file, capsys, eta):
        assert main(["isolate-complex", sect5_file, "--eta", eta]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "eta must be positive" in captured.err

    @pytest.mark.parametrize("rho", ["0", "-1", "inf", "nan"])
    def test_bad_rho_exit_2(self, sect5_file, capsys, rho):
        assert main(["isolate-complex", sect5_file, "--rho", rho]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "rho must be positive and finite" in captured.err

    def test_eta_knob(self, tmp_path, capsys):
        path = tmp_path / "x4m1.txt"
        path.write_text("-1\n0\n0\n0\n1\n")
        assert main(["isolate-complex", str(path), "--eta", "20", "--seed", "1"]) == 0
        got = json.loads(capsys.readouterr().out)
        assert len(got["inclusions"]) == 4


class TestBenchCommand:
    def test_single_cell_csv_schema(self, capsys):
        assert main(["bench", "--sizes", "64", "--rs", "4", "--types", "1", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,r,type,iter,error"
        n, r, t, it, err = lines[1].split(",")
        assert (n, r, t) == ("64", "4", "1")
        assert float(err) < 1e-2

    def test_deterministic_same_seed(self, capsys):
        args = ["bench", "--sizes", "64", "--rs", "4", "--types", "1", "--seed", "3", "--format", "csv"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_text_table(self, capsys):
        assert main(["bench", "--sizes", "64", "--rs", "4,8", "--types", "1"]) == 0
        out = capsys.readouterr().out
        assert "type1-iter" in out and "type1-error" in out

    def test_json_format(self, capsys):
        assert main(["bench", "--sizes", "64", "--rs", "4", "--types", "2", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["n"] == 64 and rows[0]["type"] == 2
        assert set(rows[0]) >= {"n", "r", "type", "iter", "error", "oracle_converged"}

    def test_bad_grid_exit_2(self, capsys):
        assert main(["bench", "--sizes", "", "--rs", "4", "--types", "1"]) == 2

    @pytest.mark.parametrize("sizes, rs", [("4", "8"), ("64", "0"), ("64", "4,64")])
    def test_r_outside_degree_exit_2(self, capsys, sizes, rs):
        assert main(["bench", "--sizes", sizes, "--rs", rs, "--types", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "1 <= r < n" in captured.err


class TestUsageErrors:
    def test_unknown_command_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2

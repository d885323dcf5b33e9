"""Command-line interface: schemas, builtins, determinism, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from tribell.cli import EXIT_CONSISTENCY, EXIT_INPUT, EXIT_OK, main

SQ2 = np.sqrt(2.0)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_state_pure(path, amplitudes):
    data = {"kind": "pure", "data": [[z.real, z.imag] for z in amplitudes]}
    path.write_text(json.dumps(data))
    return str(path)


def write_settings(path, a, b):
    path.write_text(json.dumps({"a": a, "b": b}))
    return str(path)


ALL_X = [[1.0, 0.0, 0.0]] * 3
ALL_Z = [[0.0, 0.0, 1.0]] * 3


class TestDecompose:
    def test_ghz_q111(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "builtin:ghz")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["Q"][0][0][0] == pytest.approx(1.0)
        assert payload["Q"][0][1][1] == pytest.approx(-1.0)
        assert payload["invariant_norms"]["two_body"] == pytest.approx(3.0)
        assert payload["invariant_norms"]["q_local"] == pytest.approx(4.0)
        assert payload["q_norm"] == pytest.approx(2.0)

    def test_maximally_mixed_all_zero(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "builtin:mixed-identity")
        payload = json.loads(out)
        assert code == EXIT_OK
        assert np.allclose(payload["alpha"], 0.0)
        assert np.allclose(payload["Q"], 0.0)
        assert payload["invariant_norms"] == {"two_body": 0.0, "q_local": 0.0}

    def test_malformed_norm_named(self, tmp_path, capsys):
        amp = np.zeros(8, dtype=complex)
        amp[0] = 0.9
        path = write_state_pure(tmp_path / "bad.json", amp)
        code, _, err = run_cli(capsys, "decompose", path)
        assert code == EXIT_INPUT
        assert "norm" in err

    def test_boolean_amplitude_rejected(self, tmp_path, capsys):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({"kind": "pure", "data": [[True, False]] + [[0.0, 0.0]] * 7}))
        code, _, err = run_cli(capsys, "decompose", str(path))
        assert code == EXIT_INPUT
        assert "amplitude 0" in err

    def test_builtin_acin(self, capsys):
        name = "builtin:acin:" + ",".join(str(x) for x in [1 / np.sqrt(5)] * 5) + ",1.5707963267948966"
        code, out, _ = run_cli(capsys, "decompose", name)
        assert code == EXIT_OK

    def test_unknown_builtin(self, capsys):
        code, _, err = run_cli(capsys, "decompose", "builtin:bell-pair")
        assert code == EXIT_INPUT
        assert "builtin" in err


class TestEvaluate:
    def test_ghz_all_x(self, tmp_path, capsys):
        settings = write_settings(tmp_path / "allx.json", ALL_X, ALL_X)
        code, out, _ = run_cli(capsys, "evaluate", "builtin:ghz", settings, "1")
        assert code == EXIT_OK
        assert json.loads(out)["value"] == pytest.approx(1.0)

    def test_000_all_z(self, tmp_path, capsys):
        settings = write_settings(tmp_path / "allz.json", ALL_Z, ALL_Z)
        code, out, _ = run_cli(capsys, "evaluate", "builtin:000", settings, "2")
        assert json.loads(out)["value"] == pytest.approx(1.0)

    def test_mixed_identity_vanishes(self, tmp_path, capsys):
        settings = write_settings(tmp_path / "allz.json", ALL_Z, ALL_Z)
        code, out, _ = run_cli(capsys, "evaluate", "builtin:mixed-identity", settings, "3")
        assert json.loads(out)["value"] == pytest.approx(0.0)

    def test_non_unit_settings_rejected(self, tmp_path, capsys):
        settings = write_settings(tmp_path / "bad.json", [[1.0, 1.0, 0.0]] * 3, ALL_Z)
        code, _, err = run_cli(capsys, "evaluate", "builtin:ghz", settings, "1")
        assert code == EXIT_INPUT
        assert "unit" in err

    def test_settings_missing_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "half.json"
        path.write_text(json.dumps({"a": ALL_X}))
        code, _, err = run_cli(capsys, "evaluate", "builtin:ghz", str(path), "1")
        assert code == EXIT_INPUT
        assert "'b'" in err

    @pytest.mark.parametrize(
        "a, shown",
        [
            ([["x", 0.0, 0.0]] * 3, "'x'"),
            ([[1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], "[1.0, 0.0]"),
            ([["1", "0", "0"]] * 3, "'1'"),
            ([[True, False, False]] * 3, "True"),
        ],
        ids=["non-numeric", "ragged", "numeric-string", "boolean"],
    )
    def test_settings_bad_rows_rejected(self, tmp_path, capsys, a, shown):
        settings = write_settings(tmp_path / "bad.json", a, ALL_X)
        code, _, err = run_cli(capsys, "evaluate", "builtin:ghz", settings, "1")
        assert code == EXIT_INPUT
        assert "'a'" in err
        assert shown in err

    def test_dual_path_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        import tribell.cli as cli_mod

        monkeypatch.setattr(cli_mod, "expectation_bell_fast", lambda *a, **k: 123.0)
        settings = write_settings(tmp_path / "allx.json", ALL_X, ALL_X)
        code, _, err = run_cli(capsys, "evaluate", "builtin:ghz", settings, "1")
        assert code == EXIT_CONSISTENCY
        assert "dual-path" in err


class TestOptimize:
    def test_ghz_axis1(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "builtin:ghz", "1", "--seed", "0")
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["value"] == pytest.approx(SQ2, abs=1e-6)
        assert len(payload["per_start_values"]) == 32
        a = np.asarray(payload["settings"]["a"])
        np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-8)

    def test_000_axis1(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "builtin:000", "1")
        assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-6)

    def test_starts_flag(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "builtin:000", "2", "--starts", "5")
        assert len(json.loads(out)["per_start_values"]) == 5

    def test_omega_product_state(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "builtin:000", "--omega")
        assert json.loads(out)["value"] == pytest.approx(3.0, abs=1e-6)

    def test_index_and_omega_exclusive(self, capsys):
        code, _, err = run_cli(capsys, "optimize", "builtin:ghz", "1", "--omega")
        assert code == EXIT_INPUT
        assert "exactly one" in err
        code, _, err = run_cli(capsys, "optimize", "builtin:ghz")
        assert code == EXIT_INPUT


class TestClassify:
    def test_ghz_excludes_all(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "builtin:ghz")
        payload = json.loads(out)
        assert payload["excluded"] == ["fully-separable", "1-23", "2-13", "12-3"]
        assert payload["genuine_tripartite_indicated"] is True
        assert payload["flags"]
        assert "not certified separable" in payload["note"]

    def test_pair_state_pattern(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "builtin:phi-plus-otimes-0")
        payload = json.loads(out)
        assert payload["excluded"] == ["fully-separable", "1-23", "2-13"]
        assert payload["m"][2] == pytest.approx(SQ2, abs=1e-6)

    def test_product_excludes_nothing(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "builtin:000")
        payload = json.loads(out)
        assert payload["excluded"] == []
        assert payload["genuine_tripartite_indicated"] is False

    @pytest.mark.parametrize("margin", ["nan", "inf", "0"])
    def test_bad_margin_exits_2(self, capsys, margin):
        code, out, err = run_cli(capsys, "classify", "builtin:000", "--margin", margin)
        assert code == EXIT_INPUT
        assert out == ""
        assert f"got {float(margin)}" in err


class TestSampleAndFigure:
    def test_sample_fully_separable_cube(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--class", "fully-separable", "-n", "100", "--seed", "1"
        )
        lines = out.strip().split("\n")
        assert lines[0] == "d1,d2,d3,class"
        assert len(lines) == 101
        for line in lines[1:]:
            d1, d2, d3, label = line.split(",")
            assert label == "fully-separable"
            assert max(abs(float(d1)), abs(float(d2)), abs(float(d3))) <= 1.0 + 1e-9

    def test_sample_haar_ball(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--class", "haar-pure", "-n", "100", "--seed", "2")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        for d1, d2, d3, _ in rows:
            assert float(d1) ** 2 + float(d2) ** 2 + float(d3) ** 2 <= 3.0 + 1e-9

    def test_sample_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "sample", "--class", "ghz-family", "-n", "20", "--seed", "9")
        _, out2, _ = run_cli(capsys, "sample", "--class", "ghz-family", "-n", "20", "--seed", "9")
        assert out1 == out2

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "sample", "--class", "haar-pure", "-n", "5", "--seed", "-1")
        assert code == EXIT_INPUT
        assert out == ""
        assert "seed" in err and "-1" in err

    def test_unknown_class_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["sample", "--class", "nonsense", "-n", "5"])
        assert info.value.code == EXIT_INPUT
        capsys.readouterr()

    def test_figure_roundtrip(self, tmp_path, capsys):
        csv = tmp_path / "points.csv"
        csv.write_text(
            "d1,d2,d3,class\n"
            "0.5,0.5,0,sep\n"
            "1.3,0.2,0,left\n"
            "0.2,1.3,0,top\n"
            "1.2,1.2,0,corner\n"
        )
        code, out, _ = run_cli(capsys, "figure", str(csv), "--plane", "12")
        lines = out.strip().split("\n")
        assert lines[0] == "u,v,region,class"
        regions = [line.split(",")[2] for line in lines[1:]]
        assert regions == ["I", "II", "III", "corner"]

    def test_figure_plane_13(self, tmp_path, capsys):
        csv = tmp_path / "points.csv"
        csv.write_text("d1,d2,d3,class\n0.0,9.0,1.2,x\n")
        code, out, _ = run_cli(capsys, "figure", str(csv), "--plane", "13")
        assert out.strip().split("\n")[1] == "0,1.2,III,x"

    def test_figure_malformed_row_names_line(self, tmp_path, capsys):
        csv = tmp_path / "points.csv"
        csv.write_text("d1,d2,d3,class\n0.1,0.2,0.3,ok\nnot-a-number,0,0,bad\n")
        code, _, err = run_cli(capsys, "figure", str(csv))
        assert code == EXIT_INPUT
        assert "line 3" in err

    def test_figure_bad_header(self, tmp_path, capsys):
        csv = tmp_path / "points.csv"
        csv.write_text("a,b,c\n")
        code, _, err = run_cli(capsys, "figure", str(csv))
        assert code == EXIT_INPUT
        assert "line 1" in err

    def test_figure_reads_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO("d1,d2,d3,class\n1.3,0.2,0,left\n"))
        code, out, _ = run_cli(capsys, "figure", "-")
        assert code == EXIT_OK
        assert out.strip().split("\n")[1] == "1.3,0.2,II,left"


class TestFormatting:
    def test_nine_significant_digits(self, capsys):
        _, out, _ = run_cli(capsys, "optimize", "builtin:ghz", "1")
        value = json.loads(out)["value"]
        assert value == float(f"{value:.9g}")

    def test_pure_file_at_nine_digits_flows_through(self, tmp_path, capsys):
        """A pure state rounded to 9 significant digits must evaluate cleanly."""
        amp = np.zeros(8)
        amp[0] = amp[7] = float(f"{1 / np.sqrt(2):.9g}")
        path = tmp_path / "ghz9.json"
        path.write_text(json.dumps({"kind": "pure", "data": [[x, 0.0] for x in amp]}))
        settings = write_settings(tmp_path / "allx.json", ALL_X, ALL_X)
        code, out, _ = run_cli(capsys, "evaluate", str(path), settings, "1")
        assert code == EXIT_OK
        assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-8)
        code, out, _ = run_cli(capsys, "decompose", str(path))
        assert code == EXIT_OK
        code, out, _ = run_cli(capsys, "classify", str(path))
        assert code == EXIT_OK

    def test_density_file_roundtrip(self, tmp_path, capsys):
        # write GHZ as a density file at 9 significant digits and reload it
        from tribell.states import ghz, to_density

        rho = to_density(ghz()).matrix
        data = {
            "kind": "density",
            "data": [
                [[float(f"{z.real:.9g}"), float(f"{z.imag:.9g}")] for z in row]
                for row in rho
            ],
        }
        path = tmp_path / "ghz_density.json"
        path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "decompose", str(path))
        assert code == EXIT_OK
        assert json.loads(out)["Q"][0][0][0] == pytest.approx(1.0, abs=1e-7)

    def test_installed_entry_point(self):
        """The console script drives the same main()."""
        proc = subprocess.run(
            [sys.executable, "-m", "tribell.cli", "decompose", "builtin:w"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        payload = json.loads(proc.stdout)
        assert payload["invariant_norms"]["two_body"] == pytest.approx(3.0)

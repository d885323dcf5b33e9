"""Command-line interface: schemas, builtins, determinism, exit codes."""

import copy
import functools
import io
import json
import os
import re
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest

from test_classify import capture_draws, open_1_23

import tribell
from tribell.bell import expectation_bell, random_settings
from tribell.classify import CLASSIFICATION_NOTE, GENUINE_FLAG, SOURCE_CLASSES
from tribell.cli import EXIT_CONSISTENCY, EXIT_INPUT, EXIT_OK, load_state, main
from tribell.optimize import OptimizerConfig, maximize_omega

SQ2 = np.sqrt(2.0)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_process(argv, extra_env=None, **kwargs):
    """``python -m tribell.cli argv`` in a child process, its output captured.

    The child gets the directory this process imported tribell from, so it
    also runs on a checkout that is not pip-installed.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(tribell.__file__)))
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p), **(extra_env or {})}
    return subprocess.run([sys.executable, "-m", "tribell.cli", *argv], capture_output=True, env=env, **kwargs)


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
        code, out, err = run_cli(capsys, "decompose", str(path))
        assert code == EXIT_INPUT
        assert out == ""
        assert err == "error: pure state data must be numbers, got a bool\n"

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
        "a, line",
        [
            ([["x", 0.0, 0.0]] * 3, "error: a must be numbers, got dtype <U32\n"),
            (
                [[1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                "error: a must be numbers, got a ragged nest\n",
            ),
            ([["1", "0", "0"]] * 3, "error: a must be numbers, got dtype <U1\n"),
            ([[True, False, False]] * 3, "error: a must be numbers, got dtype bool\n"),
        ],
        ids=["non-numeric", "ragged", "numeric-string", "boolean"],
    )
    def test_settings_bad_rows_rejected(self, tmp_path, capsys, a, line):
        settings = write_settings(tmp_path / "bad.json", a, ALL_X)
        code, out, err = run_cli(capsys, "evaluate", "builtin:ghz", settings, "1")
        assert code == EXIT_INPUT
        assert out == ""
        assert err == line

    def test_settings_within_file_tolerance_evaluate(self, tmp_path, capsys):
        """Rows with |a|^2 = 1 + 5e-9 pass the 1e-8 file tolerance and evaluate."""
        a = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1 / SQ2, -1 / SQ2, 0.0]])
        b = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1 / SQ2, 1 / SQ2, 0.0]]
        exact = write_settings(tmp_path / "exact.json", a.tolist(), b)
        near = write_settings(tmp_path / "near.json", (a * np.sqrt(1 + 5e-9)).tolist(), b)
        _, out, _ = run_cli(capsys, "evaluate", "builtin:ghz", exact, "1")
        code, out_near, err = run_cli(capsys, "evaluate", "builtin:ghz", near, "1")
        assert code == EXIT_OK, err
        assert json.loads(out_near)["value"] == pytest.approx(json.loads(out)["value"], abs=1e-8)

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
        assert list(payload) == ["value", "settings", "converged", "upper"]
        a = np.asarray(payload["settings"]["a"])
        np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-8)

    def test_000_axis1(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "builtin:000", "1")
        assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-6)

    def test_starts_flag(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "builtin:000", "--omega", "--starts", "5")
        assert len(json.loads(out)["per_start_values"]) == 5

    def test_upper_only_for_operator_index(self, capsys):
        """Each search prints its own record: the certified upper end is ``optimize <i>``'s alone."""
        _, out, _ = run_cli(capsys, "optimize", "builtin:ghz", "1")
        payload = json.loads(out)
        assert payload["value"] <= payload["upper"] <= SQ2 + 1e-8
        _, out, _ = run_cli(capsys, "optimize", "builtin:000", "--omega", "--starts", "2")
        payload = json.loads(out)
        assert list(payload) == [
            "value", "settings", "newton_iterations", "converged", "per_start_values",
        ]
        res = maximize_omega(load_state("builtin:000"), OptimizerConfig(n_starts=2))
        assert payload["newton_iterations"] == res.sweeps_used <= OptimizerConfig.max_sweeps

    @pytest.mark.parametrize("seed", ["2", "5"])
    def test_settings_rounding_noise_prints_as_zero(self, capsys, seed):
        """The ascent ends a few ulp off exact zeros (-3.7e-18, 2.8e-26, ...); those print as 0.0."""
        code, out, _ = run_cli(
            capsys, "optimize", "builtin:phi-plus-otimes-0", "--omega", "--seed", seed
        )
        payload = json.loads(out)
        rows = np.array([payload["settings"]["a"], payload["settings"]["b"]])
        assert code == EXIT_OK
        assert np.all((rows == 0.0) | (np.abs(rows) >= 1e-12))
        assert np.count_nonzero(rows == 0.0) >= 2
        np.testing.assert_allclose(np.linalg.norm(rows, axis=-1), 1.0, atol=1e-8)

    def test_negative_zero_prints_as_zero(self, capsys):
        """The closed-form settings of W on axis 1 hold a -0.0, which prints as 0.0 like any noise."""
        code, out, _ = run_cli(capsys, "optimize", "builtin:w", "1")
        assert code == EXIT_OK
        assert "-0.0" not in [line.strip().rstrip(",") for line in out.splitlines()]

    # omega of the parameter-free built-ins under the default ascent, as printed
    OMEGA_PINNED = {
        "ghz": 3.94669546,
        "w": 3.3904604,
        "000": 3.0,
        "mixed-identity": 0.0,
        "phi-plus-otimes-0": 3.22251709,
    }

    @pytest.mark.parametrize("name", sorted(OMEGA_PINNED))
    def test_builtin_omega_is_pinned(self, capsys, name):
        code, out, _ = run_cli(capsys, "optimize", f"builtin:{name}", "--omega")
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["value"] == self.OMEGA_PINNED[name]
        assert payload["converged"] is True

    def test_open_bracket_prints_as_open(self, tmp_path, capsys):
        """A search stopped at ``MAX_LIVE`` prints ``converged`` false and its open upper end.

        Draw 125 of ``_draw_state("1-23", default_rng(7))`` is open on axis 1
        alone.  ROADMAP item 2 will close this bracket on purpose and restate
        these pins then.
        """
        rho = open_1_23().matrix
        path = tmp_path / "open.json"
        data = [[[float(z.real), float(z.imag)] for z in row] for row in rho]
        path.write_text(json.dumps({"kind": "density", "data": data}))
        code, out, _ = run_cli(capsys, "optimize", str(path), "1")
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["converged"] is False
        assert (payload["value"], payload["upper"]) == (0.859149071, 0.859203518)
        code, out, _ = run_cli(capsys, "classify", str(path))
        assert code == EXIT_OK
        assert json.loads(out)["converged"] == [False, True, True]

    def test_index_and_omega_exclusive(self, capsys):
        code, _, err = run_cli(capsys, "optimize", "builtin:ghz", "1", "--omega")
        assert code == EXIT_INPUT
        assert "exactly one" in err
        code, _, err = run_cli(capsys, "optimize", "builtin:ghz")
        assert code == EXIT_INPUT


class TestClassify:
    def test_tiny_margin_prints_as_given(self, capsys):
        """Only settings entries lose their rounding noise; a margin of 1e-13 prints as it is."""
        code, out, _ = run_cli(capsys, "classify", "builtin:000", "--margin", "1e-13")
        assert code == EXIT_OK
        assert json.loads(out)["margin"] == 1e-13

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

    # (m, excluded) of the parameter-free built-ins, as printed; their omega is
    # pinned on ``optimize --omega``, its one entry point
    PINNED = {
        "ghz": ([1.41421356] * 3, ["fully-separable", "1-23", "2-13", "12-3"]),
        "w": ([1.20185043] * 3, ["fully-separable", "1-23", "2-13", "12-3"]),
        "000": ([1.0, 1.0, 1.0], []),
        "mixed-identity": ([0.0, 0.0, 0.0], []),
        "phi-plus-otimes-0": ([1.0, 1.0, 1.41421356], ["fully-separable", "1-23", "2-13"]),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_builtin_output_is_pinned(self, capsys, name):
        m, excluded = self.PINNED[name]
        genuine = len(excluded) == 4
        expected = {
            "m": m,
            "excluded": excluded,
            "margin": 1e-06,
            "genuine_tripartite_indicated": genuine,
            "flags": [GENUINE_FLAG] if genuine else [],
            "converged": [True] * 3,
            "note": CLASSIFICATION_NOTE,
        }
        code, out, _ = run_cli(capsys, "classify", f"builtin:{name}")
        assert code == EXIT_OK
        assert out == json.dumps(expected, indent=2) + "\n"

    @pytest.mark.parametrize("angle", ["inf", "-inf", "nan"])
    def test_non_finite_ghz_angle_exits_2(self, capsys, angle):
        """Only the error line reaches stderr: no numpy warning from the trigonometry."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "classify", f"builtin:generalized-ghz:{angle}")
        assert code == EXIT_INPUT
        assert out == ""
        assert err == f"error: generalized-ghz angle must be a finite number, got {float(angle)}\n"
        assert caught == []

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

    @pytest.mark.parametrize("source", SOURCE_CLASSES)
    def test_fixed_settings_rows_are_the_per_state_traces(self, source, capsys, monkeypatch):
        """Each CSV row prints the single-state dense traces at 9 significant digits."""
        drawn, shared = capture_draws(monkeypatch)
        code, out, _ = run_cli(
            capsys, "sample", "--class", source, "-n", "12", "--seed", "3", "--mode", "fixed-settings"
        )
        assert code == EXIT_OK
        (m,) = shared
        expected = [
            ",".join([format(expectation_bell(rho, m, i), ".9g") for i in (1, 2, 3)] + [source])
            for rho in drawn
        ]
        assert out.strip().split("\n") == ["d1,d2,d3,class"] + expected

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

    @pytest.mark.parametrize("row", ["nan,0.5,0.2,x", "inf,-inf,0,y"], ids=["nan", "inf"])
    def test_figure_non_finite_row_names_line(self, tmp_path, capsys, row):
        csv = tmp_path / "points.csv"
        csv.write_text(f"d1,d2,d3,class\n0.1,0.2,0.3,ok\n{row}\n")
        code, out, err = run_cli(capsys, "figure", str(csv))
        assert code == EXIT_INPUT
        assert out == ""
        assert "line 3" in err and "non-finite" in err

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


def _with_first_entry(arr, value):
    arr = copy.deepcopy(arr)
    inner = arr
    while isinstance(inner[0], list):
        inner = inner[0]
    inner[0] = value
    return arr


# A string "@text" is written to the file as the raw JSON text ``text``.
FILE_SPOILERS = {
    "string": lambda arr: _with_first_entry(arr, "0.5"),
    "bool": lambda arr: _with_first_entry(arr, True),
    "ragged": lambda arr: [arr[0][:-1]] + arr[1:],
    "wrong-shape": lambda arr: arr[:-1],
    "nan": lambda arr: _with_first_entry(arr, "@NaN"),
    "huge-int": lambda arr: _with_first_entry(arr, "@1" + "0" * 400),
    "not-a-list": lambda arr: {"re": 1.0, "im": 0.0},
    "deep-nest": lambda arr: functools.reduce(lambda nest, _: [nest], range(40), arr),
    "too-deep-to-parse": lambda arr: "@" + "[" * 100_000 + "]" * 100_000,
}

VALID_FILES = {
    "pure": ("state", "data", {"kind": "pure", "data": [[1.0, 0.0]] + [[0.0, 0.0]] * 7}),
    "density": (
        "state",
        "data",
        {"kind": "density", "data": [[[0.125 * (r == c), 0.0] for c in range(8)] for r in range(8)]},
    ),
    "a": ("settings", "a", {"a": ALL_X, "b": ALL_X}),
    "b": ("settings", "b", {"a": ALL_X, "b": ALL_X}),
}


def _spoiled(target, spoiler) -> bytes:
    _, key, doc = VALID_FILES[target]
    doc = dict(doc, **{key: FILE_SPOILERS[spoiler](doc[key])})
    return re.sub(r'"@([^"]*)"', r"\1", json.dumps(doc)).encode()


NOT_UTF8 = b"\xff\xfe"
CSV = b"d1,d2,d3,class\n0.1,0.2,0.3,x\n"

MALFORMED_INPUTS = [
    pytest.param(VALID_FILES[target][0], _spoiled(target, spoiler), id=f"{target}-{spoiler}")
    for target in VALID_FILES
    for spoiler in FILE_SPOILERS
] + [
    pytest.param(reader, NOT_UTF8 + content, id=f"{reader}-not-utf8")
    for reader, content in [
        ("state", json.dumps(VALID_FILES["pure"][2]).encode()),
        ("settings", json.dumps(VALID_FILES["a"][2]).encode()),
        ("csv", CSV),
        ("stdin", CSV),
    ]
]

INPUT_ARGV = {
    "state": ["decompose", "{path}"],
    "settings": ["evaluate", "builtin:ghz", "{path}", "1"],
    "csv": ["figure", "{path}"],
    "stdin": ["figure", "-"],
}


class TestMalformedInput:
    @pytest.mark.parametrize("reader, content", MALFORMED_INPUTS)
    def test_malformed_input_exits_2(self, tmp_path, capsys, monkeypatch, reader, content):
        """Every malformed or undecodable input is one error line and exit 2, never a traceback."""
        path = tmp_path / "input"
        path.write_bytes(content)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(content), encoding="utf-8"))
        argv = [arg.format(path=path) for arg in INPUT_ARGV[reader]]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1

    def test_unspoiled_files_are_accepted(self, tmp_path, capsys):
        """Each malformed case above differs from an accepted file by its one spoiler."""
        for kind, _, doc in VALID_FILES.values():
            path = tmp_path / "input"
            path.write_text(json.dumps(doc))
            code, _, err = run_cli(capsys, *[arg.format(path=path) for arg in INPUT_ARGV[kind]])
            assert code == EXIT_OK, err

    def test_repr_density_file_reloads_bit_exact(self, tmp_path):
        """Floats written with repr come back as the same bits: a file round trip loses nothing."""
        from tribell.states import random_in_class

        rho = random_in_class("1-23", 3, seed=4).matrix
        path = tmp_path / "rho.json"
        data = [[[float(z.real), float(z.imag)] for z in row] for row in rho]
        path.write_text(json.dumps({"kind": "density", "data": data}))
        assert load_state(str(path)).matrix.tobytes() == rho.tobytes()


class TestFormatting:
    def test_nine_significant_digits(self, capsys):
        _, out, _ = run_cli(capsys, "optimize", "builtin:ghz", "1")
        value = json.loads(out)["value"]
        assert value == float(f"{value:.9g}")

    @pytest.mark.parametrize("name", ["ghz", "w", "000", "mixed-identity", "phi-plus-otimes-0"])
    def test_every_json_output_is_plain_and_rounded(self, tmp_path, capsys, name):
        """Every JSON subcommand prints plain JSON whose every number has at most 9 significant digits.

        The output layer rounds Python floats only, so a numpy scalar or
        array reaching it would fail to serialize or print unrounded.
        """
        m = random_settings(3)
        settings = write_settings(tmp_path / "settings.json", m.a.tolist(), m.b.tolist())
        state = f"builtin:{name}"
        calls = [["decompose", state], ["classify", state], ["optimize", state, "--omega", "--starts", "4"]]
        calls += [["evaluate", state, settings, str(i)] for i in (1, 2, 3)]
        calls += [["optimize", state, str(i)] for i in (1, 2, 3)]
        for argv in calls:
            code, out, err = run_cli(capsys, *argv)
            assert code == EXIT_OK, err
            floats = []
            json.loads(out, parse_float=lambda text: floats.append(text) or text,
                       parse_constant=lambda text: pytest.fail(f"{argv}: non-standard {text}"))
            assert floats, argv
            for text in floats:
                assert float(format(float(text), ".9g")) == float(text), (argv, text)

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

    def test_installed_entry_point(self, tmp_path):
        """The console script drives the same main(), and a bad file is exit status 2.

        Only the process's own exit status shows a crash inside main().
        """

        def cli(*argv):
            return cli_process(argv, text=True)

        proc = cli("decompose", "builtin:w")
        assert proc.returncode == EXIT_OK
        payload = json.loads(proc.stdout)
        assert payload["invariant_norms"]["two_body"] == pytest.approx(3.0)
        not_utf8 = tmp_path / "not_utf8.json"
        not_utf8.write_bytes(b"\xff\xfe{}")
        for path in (tmp_path / "missing.json", not_utf8):
            proc = cli("decompose", str(path))
            assert proc.returncode == EXIT_INPUT, proc.stderr
            assert "Traceback" not in proc.stderr

    def test_stdin_decoded_strictly_in_utf8_mode(self, tmp_path):
        """Under PYTHONUTF8=1 stdin's own text layer would pass an undecodable byte through.

        ``figure -`` decodes stdin's bytes itself, so the byte is refused on
        stdin as it is in a file: exit status 2 and nothing on stdout.
        """
        content = b"d1,d2,d3,class\n0.1,0.2,0.3,\xff\n"
        path = tmp_path / "points.csv"
        path.write_bytes(content)
        for source, stdin in (("-", content), (str(path), b"")):
            proc = cli_process(["figure", source], input=stdin, extra_env={"PYTHONUTF8": "1"})
            assert proc.returncode == EXIT_INPUT, proc.stderr
            assert proc.stdout == b""
            assert proc.stderr.startswith(f"error: cannot read CSV file {source!r}: ".encode())
            assert proc.stderr.count(b"\n") == 1


def run_cli_exit(capsys, argv):
    """(exit code, stdout, stderr) of ``main(argv)``, an argparse exit included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_parser_per_call():
    """Within this context every ``main`` call builds its own parser."""
    return mock.patch.object(tribell.cli, "_build_parser", tribell.cli._build_parser.__wrapped__)


SUBCOMMANDS = ("decompose", "evaluate", "optimize", "classify", "sample", "figure")


class TestParserReuse:
    """main() builds its parser once per process; every call behaves as with a fresh parser."""

    SEQUENCE = (
        ("sample", "--class", "nonsense"),
        ("optimize", "builtin:ghz", "--omega", "--seed", "5"),
        ("optimize", "builtin:ghz", "1"),  # must not inherit --omega
        ("classify", "builtin:w"),
        ("classify", "builtin:w"),
    )
    HELP = (("--help",),) + tuple((name, "--help") for name in SUBCOMMANDS)

    def test_one_parser_per_process(self):
        assert tribell.cli._build_parser() is tribell.cli._build_parser()

    def test_calls_in_one_process_match_a_fresh_parser(self, capsys):
        reused = [run_cli_exit(capsys, argv) for argv in self.SEQUENCE]
        with fresh_parser_per_call():
            fresh = [run_cli_exit(capsys, argv) for argv in self.SEQUENCE]
        assert reused == fresh
        code, out, err = reused[0]
        assert (code, out) == (EXIT_INPUT, "")
        assert err.startswith("usage: tribell sample")
        assert "invalid choice: 'nonsense'" in err
        assert [code for code, _, _ in reused[1:]] == [EXIT_OK] * 4
        assert "upper" not in json.loads(reused[1][1])
        assert "upper" in json.loads(reused[2][1])
        assert reused[3] == reused[4]

    def test_help_texts_match_a_fresh_parser(self, capsys):
        reused = [run_cli_exit(capsys, argv) for argv in self.HELP]
        with fresh_parser_per_call():
            fresh = [run_cli_exit(capsys, argv) for argv in self.HELP]
        assert reused == fresh
        for (code, out, err), argv in zip(reused, self.HELP):
            assert (code, err) == (EXIT_OK, ""), argv
            assert out.startswith(f"usage: {' '.join(('tribell',) + argv[:-1])}"), argv

"""Self-test of the benchmark: oracle values, verifier verdicts, smoke runs.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import run  # noqa: E402

GHZ = run._basis({0: 2**-0.5, 7: 2**-0.5})
W = run._basis({1: 3**-0.5, 2: 3**-0.5, 4: 3**-0.5})
ZERO = run._basis({0: 1.0})


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_oracle_reference_values():
    lower, upper = oracle.m_bounds(np.stack([GHZ, ZERO, W, run.trapped_state()]))
    assert np.allclose(lower[0], np.sqrt(2.0), atol=1e-12)
    assert np.allclose(upper[0], np.sqrt(2.0), atol=1e-12)
    assert np.allclose(lower[1], 1.0, atol=1e-12) and np.allclose(upper[1], 1.0, atol=1e-12)
    assert np.allclose(lower[2], 1.2018504, atol=1e-6)
    assert lower[3, 0] == pytest.approx(1.16262, abs=5e-6)
    assert np.allclose(lower[3, 1:], 1.0, atol=1e-12)
    assert np.all(lower <= upper + 1e-12)


def test_oracle_contraction_matches_dense_path():
    import tribell as tb

    rng = np.random.default_rng(3)
    rhos = [tb.to_density(tb.random_pure(int(s))) for s in rng.integers(0, 2**31, 4)]
    settings = tb.random_settings(11)
    expected = [[tb.expectation_bell(r, settings, i) for i in (1, 2, 3)] for r in rhos]
    got = oracle.d_values(np.stack([r.matrix for r in rhos]), settings.a, settings.b)
    assert np.allclose(got, expected, atol=1e-12)


def test_verifier_counts_corrupted_results():
    lower, upper = oracle.m_bounds(W[None])
    check = run.classify_call("builtin:w", W, run.ANY_STATE).check
    honest = check(json.dumps({"m": list(lower[0])}))
    assert (honest.failed, honest.shortfall) == (0, 0)
    too_high = check(json.dumps({"m": [upper[0, 0] + 1e-3, lower[0, 1], lower[0, 2]]}))
    assert (too_high.failed, too_high.shortfall) == (1, 0)
    short = check(json.dumps({"m": [lower[0, 0] - 1e-3, lower[0, 1], lower[0, 2]]}))
    assert (short.failed, short.shortfall) == (0, 1)
    assert check("not json").failed == 3


def test_verifier_applies_class_caps():
    lower, _ = oracle.m_bounds(GHZ[None])
    assert run.verify_m(lower, GHZ[None], run.ANY_STATE).failed == 0
    assert run.verify_m(lower, GHZ[None], run.CLASS_CAPS["1-23"]).failed == 2
    assert run.verify_m(lower, GHZ[None], run.CLASS_CAPS["fully-separable"]).failed == 3


def _run_bench(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(list(argv))
    lines = buf.getvalue().strip().splitlines()
    return code, json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run(workload):
    code, info, result = _run_bench(
        "--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", "0", "--scale", "0.02"
    )
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in _spec()["end_to_end"]}
    assert info["env"]["seed"] == 1


def test_smoke_traced_run_reports_every_layer():
    code, _, result = _run_bench(
        "--workload", "sample-biseparable", "--seed", "2", "--seconds", "0.1", "--trace", "1",
        "--scale", "0.02",
    )
    assert code == 0 and result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in _spec()["per_layer"]}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    # each sample_region call runs the batched see-saw once per index
    assert metrics["optimize.seesaw.calls"] == 3 * metrics["classify.calls"] > 0
    assert metrics["optimize.omega.calls"] == 0


def test_same_seed_same_stdout():
    argv = ("--workload", "sample-fixed", "--seed", "4", "--seconds", "0.1", "--trace", "0",
            "--scale", "0.01")
    assert _run_bench(*argv)[1]["stdout_sha256"] == _run_bench(*argv)[1]["stdout_sha256"]


def test_stdout_hash_must_match_earlier_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    assert run.same_as_earlier_runs("sample-fixed:1:1.0", "aa").failed == 0
    assert run.same_as_earlier_runs("sample-fixed:1:1.0", "aa").failed == 0
    assert run.same_as_earlier_runs("sample-fixed:1:1.0", "bb").failed == 1
    assert run.same_as_earlier_runs("sample-fixed:2:1.0", "bb").failed == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    spec = _spec()
    out = subprocess.run(
        spec["command"] + ["--workload", "sample-fixed", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout

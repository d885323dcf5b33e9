"""The names the benchmark's tracer rebinds and reads still exist and still work.

``bench/tracer.py`` wraps package entry points by module and attribute name
and reads fields of the optimizers' results.  The benchmark's own tests sit
outside ``testpaths``, so this module guards that interface here; it only
imports the tracer and never writes under ``bench/``.
"""

import contextlib
import importlib
import io
import os
import types

import pytest

from tribell import cli

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_TRACER_PATH = os.path.join(_ROOT, "bench", "tracer.py")


@pytest.fixture(scope="module")
def tracer_module():
    """The tracer, executed from its source so that no bytecode is written next to it."""
    module = types.ModuleType("bench_tracer")
    with open(_TRACER_PATH, encoding="utf-8") as fh:
        exec(compile(fh.read(), _TRACER_PATH, "exec"), module.__dict__)
    return module


def test_every_traced_name_exists(tracer_module):
    for mod_name, attr, _ in tracer_module._PATCHES:
        assert hasattr(importlib.import_module(mod_name), attr), f"{mod_name}.{attr}"


def test_traced_cli_runs_and_restores_the_bindings(tracer_module):
    targets = [(importlib.import_module(m), attr) for m, attr, _ in tracer_module._PATCHES]
    states = importlib.import_module("tribell.states")
    targets += [(getattr(states, name), "__post_init__") for name in tracer_module._VALIDATED]
    before = [getattr(owner, attr) for owner, attr in targets]
    tracer = tracer_module.Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["classify", "builtin:000"]) == 0
        assert cli.main(["optimize", "builtin:000", "--omega", "--starts", "2"]) == 0
        assert cli.main(["sample", "--class", "1-23", "-n", "2", "--seed", "0", "--mode", "optimized"]) == 0
    assert [getattr(owner, attr) for owner, attr in targets] == before
    for layer in ("optimize.seesaw", "optimize.omega"):
        counters = tracer.optimizer_counters(layer)
        assert counters["rows"] > 0, layer
        assert set(counters) >= {"sweeps_p50", "capped", "nonconverged", "degenerate", "start_hit_ratio"}
    for layer in ("classify", "pauli.decompose", "bell.dense", "states.draw", "states.validate"):
        assert tracer.calls[layer] > 0, layer


def test_one_traced_seesaw_call_holds_every_m_i_of_a_sample(tracer_module):
    """An optimized sample of two states is one traced m_i call with all six (state, axis) results.

    These are the per-layer counts that the benchmark's traced sample run
    reads: one m_i call per sample call, one row per (state, axis), no omega.
    """
    tracer = tracer_module.Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["sample", "--class", "1-23", "-n", "2", "--seed", "0", "--mode", "optimized"]) == 0
    assert tracer.calls["optimize.seesaw"] == tracer.calls["classify"] == 1
    assert len(tracer.results["optimize.seesaw"]) == 6
    assert tracer.optimizer_counters("optimize.seesaw")["rows"] == 6
    assert tracer.calls["optimize.omega"] == 0


def test_one_traced_seesaw_call_holds_every_m_i_of_a_classify(tracer_module):
    """A classify is one traced m_i call holding its three results, and no omega call."""
    tracer = tracer_module.Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["classify", "builtin:w"]) == 0
    assert tracer.calls["optimize.seesaw"] == tracer.calls["classify"] == 1
    assert len(tracer.results["optimize.seesaw"]) == 3
    assert tracer.calls["optimize.omega"] == 0

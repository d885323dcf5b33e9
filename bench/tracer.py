"""Per-layer spans and counters, recorded from outside the package.

The tracer wraps each layer's public entry points by rebinding the name
where the caller looks it up (``tribell.classify.seesaw_max_abs_d_many``
and so on), so nothing inside ``tribell`` changes.  Spans nest: a layer's
self time is its inclusive time minus the time of the spans it encloses.
Optimizer counters are read from the returned ``OptimizationResult``s.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import numpy as np

#: a start "hits" when its value is within this of the best start's value
HIT_TOL = 1e-6

# (module, attribute, layer); each rebinding is undone when the trace ends
_PATCHES = (
    ("tribell.cli", "classify", "classify"),
    ("tribell.cli", "sample_region", "classify"),
    ("tribell.cli", "seesaw_max_abs_d", "optimize.seesaw"),
    ("tribell.classify", "seesaw_max_abs_d", "optimize.seesaw"),
    ("tribell.classify", "seesaw_max_abs_d_many", "optimize.seesaw"),
    ("tribell.cli", "maximize_omega", "optimize.omega"),
    ("tribell.classify", "maximize_omega", "optimize.omega"),
    ("tribell.cli", "expectation_bell", "bell.dense"),
    ("tribell.classify", "expectation_bell", "bell.dense"),
    ("tribell.optimize", "expectation_bell", "bell.dense"),
    ("tribell.bell", "expectation_bell", "bell.dense"),
    ("tribell.cli", "decompose", "pauli.decompose"),
    ("tribell.optimize", "decompose", "pauli.decompose"),
    ("tribell.classify", "random_in_class", "states.draw"),
    ("tribell.classify", "random_pure", "states.draw"),
    ("tribell.classify", "to_density", "states.draw"),
    ("tribell.classify", "apply_local_unitaries", "states.draw"),
)
_VALIDATED = ("DensityMatrix", "PureState")


class Tracer:
    """Inclusive time, self time and call count per layer, plus optimizer results."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.results = defaultdict(list)
        self._children = [0.0]

    @contextlib.contextmanager
    def span(self, layer: str):
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            inner = self._children.pop()
            self._children[-1] += elapsed
            self.total[layer] += elapsed
            self.self_time[layer] += elapsed - inner
            self.calls[layer] += 1

    def wrap(self, fn, layer: str):
        def traced(*args, **kwargs):
            with self.span(layer):
                out = fn(*args, **kwargs)
            if layer.startswith("optimize."):
                self.results[layer].extend(out if isinstance(out, list) else [out])
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced entry point for the duration of the block."""
        import importlib

        saved = []
        try:
            for mod_name, attr, layer in _PATCHES:
                mod = importlib.import_module(mod_name)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.wrap(getattr(mod, attr), layer))
            states = importlib.import_module("tribell.states")
            for cls_name in _VALIDATED:
                cls = getattr(states, cls_name)
                saved.append((cls, "__post_init__", cls.__dict__["__post_init__"]))
                cls.__post_init__ = self.wrap(cls.__post_init__, "states.validate")
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def optimizer_counters(self, layer: str) -> dict:
        """Sweep, cap, convergence and start-quality counters of one optimizer.

        The CLI never sets ``max_sweeps``, so a run is capped when its best
        start used the default number of sweeps.
        """
        from tribell.optimize import OptimizerConfig

        results = self.results[layer]
        sweeps = [r.sweeps_used for r in results]
        cap = OptimizerConfig().max_sweeps
        starts = sum(len(r.per_start_values) for r in results)
        hits = sum(
            int(np.sum(np.asarray(r.per_start_values) >= max(r.per_start_values) - HIT_TOL))
            for r in results
        )
        return {
            "rows": starts,
            "sweeps_p50": float(np.median(sweeps)) if sweeps else 0.0,
            "sweeps_max": max(sweeps, default=0),
            "capped": sum(s >= cap for s in sweeps),
            "nonconverged": sum(not r.converged for r in results),
            "degenerate": sum(r.degenerate_updates for r in results),
            "start_hit_ratio": hits / starts if starts else 0.0,
        }

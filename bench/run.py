"""Benchmark of the tribell command line, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every workload is a fixed list of CLI calls
built from the seed; ``tribell.cli.main(argv)`` runs in this process with
stdout captured, on one thread (the BLAS pools are pinned to 1 below, before
numpy loads).  The list is repeated while another repetition still fits in
``--seconds`` (at least once) and ``wall_s`` is the median repetition, scaled
to a reference machine speed by ``SpeedProbe``.  Every
captured output is then checked against the independent oracle in
``oracle.py``, outside the timed region, and every repetition must print
byte-identical stdout.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` one more repetition runs under the tracer of ``tracer.py`` and
the last line reports the per-layer metrics instead.  The line before it
records the environment, the stdout hash and the quality details.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "bench", ".work")

#: a reported m_i below the oracle's lower bound by more than this is a shortfall;
#: far above the 9-significant-digit print resolution (5e-9) and the
#: unconverged tails of capped Haar runs (up to ~5e-6 seen), below nearly
#: all degenerate-trap gaps (1e-3 to 0.41)
SHORTFALL_TOL = 1e-4
#: slack on upper bounds and class bounds, for printing and rounding
BOUND_TOL = 1e-6
#: printed fixed-settings values against the oracle's own contraction
VALUE_TOL = 2e-8
GHZ_OMEGA = 3.946695464
SETUP_REPS = 9
#: the speed probe runs every PROBE_PERIOD seconds of a timed region; on the
#: machine the benchmark was tuned on (2 shared vCPUs, Xeon at 2.0 GHz) one
#: probe took REFERENCE_PROBE_S at the faster of the two speeds it ran at
PROBE_PERIOD = 0.05
REFERENCE_PROBE_S = 210e-6
MIN_PROBES = 5
#: a fresh interpreter importing numpy on that machine at its faster speed
REFERENCE_NUMPY_IMPORT_S = 0.12

SQRT2 = oracle.SQRT2
# caps on (|d_1|, |d_2|, |d_3|) per source class: cube, cuboids, Tsirelson
CLASS_CAPS = {
    "fully-separable": (1.0, 1.0, 1.0),
    "1-23": (SQRT2, 1.0, 1.0),
    "2-13": (1.0, SQRT2, 1.0),
    "12-3": (1.0, 1.0, SQRT2),
}
ANY_STATE = (SQRT2, SQRT2, SQRT2)
SIX_CLASSES = ("fully-separable", "1-23", "2-13", "12-3", "haar-pure", "ghz-family")

# fixed classify-named inputs: acin's classify time swings 3-13 s with its
# parameters, which would swamp wall_s, so only the GHZ angle follows the seed
ACIN = (0.5, 0.5, 0.5, 0.5, 0.0, 0.0)
TRAP_DRAW = (5, ["fully-separable"] * 5 + ["1-23"] * 5, 8)


@dataclass
class Verdict:
    """Outcome of checking one call's output: operations, failures, shortfall pairs."""

    ops: int = 0
    failed: int = 0
    shortfall: int = 0
    max_gap: float = 0.0

    def add(self, other: "Verdict") -> None:
        self.ops += other.ops
        self.failed += other.failed
        self.shortfall += other.shortfall
        self.max_gap = max(self.max_gap, other.max_gap)


@dataclass
class Call:
    argv: list
    check: Callable[[str], Verdict]


def _basis(entries) -> np.ndarray:
    """Density matrix of the pure state with the given {basis index: amplitude}."""
    psi = np.zeros(8, dtype=complex)
    for index, amp in entries.items():
        psi[index] = amp
    return np.outer(psi, psi.conj())


def verify_m(reported, rhos, caps) -> Verdict:
    """Check |d| per (state, i) against the oracle bracket and the class caps.

    Above the oracle's upper bound, above sqrt(2) or above a class cap is a
    failed operation; below the oracle's lower bound by more than
    SHORTFALL_TOL is a shortfall.
    """
    m = np.abs(np.asarray(reported, dtype=float))
    lower, upper = oracle.m_bounds(rhos)
    bad = (m > upper + BOUND_TOL) | (m > np.asarray(caps) + BOUND_TOL)
    gap = np.where(bad, 0.0, lower - m)
    return Verdict(
        ops=m.size,
        failed=int(bad.sum()),
        shortfall=int((gap > SHORTFALL_TOL).sum()),
        max_gap=float(max(gap.max(), 0.0)),
    )


def parse_sample(text: str, source_class: str, n: int) -> np.ndarray:
    lines = text.splitlines()
    if lines[:1] != ["d1,d2,d3,class"] or len(lines) != n + 1:
        raise ValueError("sample output has the wrong header or row count")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != 4 or r[3] != source_class for r in rows):
        raise ValueError("sample row with the wrong field count or class")
    return np.array([[float(x) for x in r[:3]] for r in rows])


def sample_inputs(source_class: str, n: int, seed: int):
    """The states and shared settings ``sample`` draws, regenerated from its seed."""
    from tribell.classify import _draw_state

    rng = np.random.default_rng(seed)
    shared = np.random.default_rng(int(rng.integers(0, 2**63))).standard_normal((2, 3, 3))
    shared /= np.linalg.norm(shared, axis=2, keepdims=True)
    rhos = np.stack([_draw_state(source_class, rng).matrix for _ in range(n)])
    return rhos, shared


def _guarded(check, ops_if_unreadable: int):
    def run(text: str) -> Verdict:
        try:
            return check(text)
        except (ValueError, KeyError, TypeError, IndexError):
            return Verdict(ops=ops_if_unreadable, failed=ops_if_unreadable)

    return run


def sample_call(source_class: str, n: int, seed: int, mode: str) -> Call:
    def check(text: str) -> Verdict:
        d = parse_sample(text, source_class, n)
        rhos, shared = sample_inputs(source_class, n, seed)
        caps = CLASS_CAPS.get(source_class, ANY_STATE)
        if mode == "optimized":
            return verify_m(d, rhos, caps)
        expected = oracle.d_values(rhos, shared[0], shared[1])
        cap = np.minimum(oracle.m_upper(rhos), caps)
        bad = (np.abs(d - expected) > VALUE_TOL) | (np.abs(d) > cap + BOUND_TOL)
        return Verdict(ops=d.size, failed=int(bad.sum()))

    argv = ["sample", "--class", source_class, "-n", str(n), "--seed", str(seed), "--mode", mode]
    return Call(argv, _guarded(check, 3 * n))


def classify_call(source: str, rho: np.ndarray, caps) -> Call:
    def check(text: str) -> Verdict:
        m = json.loads(text)["m"]
        if len(m) != 3:
            raise ValueError("classify must report three maxima")
        return verify_m([m], rho[None], caps)

    return Call(["classify", source], _guarded(check, 3))


def omega_call(seed: int) -> Call:
    ghz = _basis({0: 2**-0.5, 7: 2**-0.5})

    def check(text: str) -> Verdict:
        out = json.loads(text)
        settings = out["settings"]
        at_settings = float(np.sum(oracle.d_values(ghz[None], settings["a"], settings["b"]) ** 2))
        ok = abs(out["value"] - GHZ_OMEGA) <= 1e-8 and abs(at_settings - out["value"]) <= BOUND_TOL
        return Verdict(ops=1, failed=int(not ok))

    return Call(["optimize", "builtin:ghz", "--omega", "--seed", str(seed)], _guarded(check, 1))


def trapped_state() -> np.ndarray:
    """The state the see-saw reports m1 = 1 for, though the sphere formula gives 1.16262."""
    from tribell.classify import _draw_state

    seed, classes, index = TRAP_DRAW
    rng = np.random.default_rng(seed)
    return [_draw_state(c, rng) for c in classes][index].matrix


def write_state(path: str, rho: np.ndarray) -> None:
    data = [[[float(z.real), float(z.imag)] for z in row] for row in rho]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"kind": "density", "data": data}, fh)


def _scaled(n: int, scale: float) -> int:
    return max(1, round(n * scale))


def sample_calls(source_class, calls, n, seed, mode, scale) -> list:
    """``calls`` sample calls of ``n`` states, each under its own CLI seed.

    The see-saw shares one set of starts across a call's batch, so the
    workload spreads its states over several calls to average over start
    sets; one call's starts decide the trap rate and the sweep count of the
    whole batch.
    """
    return [
        sample_call(source_class, _scaled(n, scale), seed * 100 + k, mode)
        for k in range(_scaled(calls, scale))
    ]


def build_calls(workload: str, seed: int, scale: float) -> list:
    if workload == "sample-haar":
        return sample_calls("haar-pure", 2, 32, seed, "optimized", scale)
    if workload == "sample-biseparable":
        return [
            call
            for c, calls, n in (("1-23", 5, 140), ("2-13", 2, 25), ("fully-separable", 2, 25))
            for call in sample_calls(c, calls, n, seed, "optimized", scale)
        ]
    if workload == "sample-fixed":
        return [
            call for c in SIX_CLASSES for call in sample_calls(c, 1, 400, seed, "fixed-settings", scale)
        ]
    if workload == "classify-named":
        angle = float(np.random.default_rng(seed).uniform(np.pi / 16, 7 * np.pi / 16))
        lam, phi = np.array(ACIN[:5]), ACIN[5]
        acin = {0: lam[0], 4: lam[1] * np.exp(1j * phi), 5: lam[2], 6: lam[3], 7: lam[4]}
        os.makedirs(WORK, exist_ok=True)
        trap_path = os.path.join(WORK, "trapped.json")
        trap = trapped_state()
        write_state(trap_path, trap)
        named = [
            ("builtin:ghz", _basis({0: 2**-0.5, 7: 2**-0.5}), ANY_STATE),
            ("builtin:w", _basis({1: 3**-0.5, 2: 3**-0.5, 4: 3**-0.5}), ANY_STATE),
            ("builtin:000", _basis({0: 1.0}), CLASS_CAPS["fully-separable"]),
            ("builtin:mixed-identity", np.eye(8, dtype=complex) / 8, CLASS_CAPS["fully-separable"]),
            ("builtin:phi-plus-otimes-0", _basis({0: 2**-0.5, 6: 2**-0.5}), CLASS_CAPS["12-3"]),
            (f"builtin:generalized-ghz:{angle!r}", _basis({0: np.cos(angle), 7: np.sin(angle)}), ANY_STATE),
            ("builtin:acin:" + ",".join(repr(x) for x in ACIN), _basis(acin), ANY_STATE),
            (trap_path, trap, CLASS_CAPS["1-23"]),
        ]
        return [classify_call(src, rho, caps) for src, rho, caps in named] + [omega_call(seed)]
    raise SystemExit(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


WORKLOADS = ("sample-haar", "sample-biseparable", "classify-named", "sample-fixed")


class SpeedProbe:
    """Times a fixed numpy snippet every PROBE_PERIOD s while the CLI runs.

    The shared vCPUs the benchmark was tuned on ran the same code at two
    speeds about 1.8x apart, switching every few seconds to minutes with the
    load on the sibling hyperthread; raw times of one input varied by 20 %
    from run to run.  The snippet is small-array numpy work like the
    package's own, so a region's time scaled by REFERENCE_PROBE_S / (mean
    probe time) is the time it would have taken at the reference speed;
    the same runs then agreed to about 3 %.  The probes' own time is
    subtracted first (about 1 % of the region).
    """

    _a = np.random.default_rng(0).random((16, 3, 3, 3))
    _b = np.random.default_rng(1).random((16, 3))

    def __init__(self):
        self.samples = []

    def sample(self, *_):
        start = time.perf_counter()
        for _ in range(40):
            np.einsum("nijk,nj->nik", self._a, self._b)
        self.samples.append(time.perf_counter() - start)

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, seconds: float) -> float:
        """``seconds`` measured since the last reset, at the reference speed."""
        net = seconds - sum(self.samples)
        while len(self.samples) < MIN_PROBES:
            self.sample()
        return net * REFERENCE_PROBE_S / statistics.fmean(self.samples)


def run_calls(cli, calls, tracer: Tracer | None = None):
    """Run every call once.

    Returns (seconds at the reference speed, raw wall seconds,
    [(exit code, stdout, raw seconds)]) for the whole list.
    """
    outputs = []
    probe = SpeedProbe()
    start = time.perf_counter()
    with probe.running():
        for call in calls:
            call_start = time.perf_counter()
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), (tracer.span("cli") if tracer else contextlib.nullcontext()):
                try:
                    code = cli.main(call.argv)
                except SystemExit as exc:  # argparse rejected the arguments
                    code = exc.code
                except Exception:  # a crash is a failed operation, not a lost run
                    traceback.print_exc()
                    code = -1
            outputs.append((code, buf.getvalue(), time.perf_counter() - call_start))
    raw = time.perf_counter() - start
    return probe.scaled(raw), raw, outputs


def measure_setup() -> tuple[float, float]:
    """Set-up time of a fresh interpreter importing tribell.cli: (scaled, raw).

    Interpreter start-up is memory-bound and slowed by 2.5x under a busy
    neighbour, which the numpy probe does not see.  So each import of
    tribell.cli is paired with an import of numpy alone, run right before
    it, and the median ratio times REFERENCE_NUMPY_IMPORT_S is reported.
    Under a busy neighbour the ratio moved 7 % where the raw time moved
    150 %.  Work added to tribell's own import still raises the ratio.
    """
    env = dict(os.environ, PYTHONPATH=SRC)

    def child(module: str) -> float:
        start = time.perf_counter()
        # no timeout: with one, wait() polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", f"import {module}"], env=env, check=True)
        return time.perf_counter() - start

    child("tribell.cli")  # writes the bytecode cache
    pairs = [(child("numpy"), child("tribell.cli")) for _ in range(SETUP_REPS)]
    ratio = statistics.median(ours / base for base, ours in pairs)
    return REFERENCE_NUMPY_IMPORT_S * ratio, statistics.median(ours for _, ours in pairs)


def same_as_earlier_runs(key: str, digest: str) -> Verdict:
    """Compare this run's stdout hash with earlier runs of the same inputs.

    Hashes live under ``bench/.work`` in the checkout, keyed by workload,
    seed, scale and a hash of the package sources, so an edit to the program
    starts a fresh record instead of tripping over an old one.
    """
    sources = hashlib.sha256()
    package = os.path.join(SRC, "tribell")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                sources.update(name.encode() + fh.read())
    key = f"{key}:{sources.hexdigest()[:16]}"
    path = os.path.join(WORK, "stdout_hashes.json")
    os.makedirs(WORK, exist_ok=True)
    try:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        record = {}
    earlier = record.setdefault(key, digest)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return Verdict(ops=1, failed=int(earlier != digest))


def per_layer(tracer: Tracer, speed: float, overhead: float) -> dict:
    """The per-layer metrics; span times are scaled by the traced repetition's ``speed``."""
    seesaw = tracer.optimizer_counters("optimize.seesaw")
    omega = tracer.optimizer_counters("optimize.omega")
    dense_calls = tracer.calls["bell.dense"]
    values = {
        "cli.self_s": (speed * tracer.self_time["cli"], "s"),
        "classify.self_s": (speed * tracer.self_time["classify"], "s"),
        "classify.calls": (tracer.calls["classify"], "count"),
        "optimize.seesaw.self_s": (speed * tracer.self_time["optimize.seesaw"], "s"),
        "optimize.seesaw.calls": (tracer.calls["optimize.seesaw"], "count"),
        "optimize.omega.self_s": (speed * tracer.self_time["optimize.omega"], "s"),
        "optimize.omega.calls": (tracer.calls["optimize.omega"], "count"),
        "bell.dense.s": (speed * tracer.total["bell.dense"], "s"),
        "bell.dense.calls": (dense_calls, "count"),
        "bell.dense.us_per_call": (1e6 * speed * tracer.total["bell.dense"] / max(dense_calls, 1), "us"),
        "pauli.decompose.s": (speed * tracer.total["pauli.decompose"], "s"),
        "pauli.decompose.calls": (tracer.calls["pauli.decompose"], "count"),
        "states.validate.s": (speed * tracer.total["states.validate"], "s"),
        "states.validate.calls": (tracer.calls["states.validate"], "count"),
        "states.draw.s": (speed * tracer.total["states.draw"], "s"),
        "trace.overhead_s": (overhead, "s"),
    }
    units = {"rows": "count", "sweeps_p50": "sweeps", "sweeps_max": "sweeps", "capped": "count",
             "nonconverged": "count", "degenerate": "count", "start_hit_ratio": "ratio"}
    for key, value in seesaw.items():
        values[f"optimize.seesaw.{key}"] = (value, units[key])
    for key in ("sweeps_p50", "capped", "degenerate", "start_hit_ratio"):
        values[f"optimize.omega.{key}"] = (omega[key], units[key])
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies the sample sizes (the self-test uses a small value)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "tribell", "cli.py")):
        print(f"error: no tribell sources under {SRC}", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)

    setup_s, setup_raw_s = measure_setup() if not args.trace else (None, None)
    import tribell.cli as cli

    calls = build_calls(args.workload, args.seed, args.scale)
    times, raw_times, reps = [], [], []
    started = time.perf_counter()
    while True:
        scaled, raw, outputs = run_calls(cli, calls)
        times.append(scaled)
        raw_times.append(raw)
        reps.append(outputs)
        if time.perf_counter() - started + raw > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = statistics.median(times)

    tracer = None
    if args.trace:
        tracer = Tracer()
        with tracer.installed():
            traced_s, traced_raw_s, outputs = run_calls(cli, calls, tracer)
        reps.append(outputs)

    # every call of every repetition: exit code 0 and stdout equal to the first
    verdict = Verdict()
    first = reps[0]
    for outputs in reps:
        for (code, text, _), (_, text0, _) in zip(outputs, first):
            verdict.add(Verdict(ops=1, failed=int(code != 0 or text != text0)))
    for call, (code, text, _) in zip(calls, first):
        verdict.add(call.check(text) if code == 0 else Verdict())

    digest = hashlib.sha256("".join(text for _, text, _ in first).encode()).hexdigest()
    verdict.add(same_as_earlier_runs(f"{args.workload}:{args.seed}:{args.scale}", digest))
    print(json.dumps({
        "workload": args.workload,
        "seconds": args.seconds,
        "scale": args.scale,
        "repetitions": len(times),
        "repetition_s": times,
        "repetition_raw_s": raw_times,
        "call_raw_s": [seconds for _, _, seconds in first],
        "setup_raw_s": setup_raw_s,
        "stdout_sha256": digest,
        "shortfall_pairs": verdict.shortfall,
        "shortfall_tol": SHORTFALL_TOL,
        "max_shortfall_gap": verdict.max_gap,
        "env": environment(args.seed),
    }))
    if tracer is None:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            # 1 + pairs, so the metric is never 0 and a first shortfall doubles it
            "m_shortfall": {"value": 1 + verdict.shortfall, "unit": "count"},
        }
    else:
        metrics = per_layer(tracer, traced_s / traced_raw_s, traced_s - wall_s)
    print(json.dumps({
        "correct": verdict.failed == 0,
        "attempted": verdict.ops,
        "failed": verdict.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

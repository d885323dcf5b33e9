"""Command-line front end: state/settings files, six subcommands, CSV/JSON output.

State files are JSON: ``{"kind": "pure", "data": [[re, im] x 8]}`` or
``{"kind": "density", "data": [[[re, im] x 8] x 8]}``.  Settings files are
``{"a": [[x,y,z] x 3], "b": [[x,y,z] x 3]}`` with unit rows.  Wherever a state
path is accepted, a built-in name may be used instead via the ``builtin:``
prefix: ghz, w, 000, mixed-identity, phi-plus-otimes-0,
generalized-ghz:<alpha>, acin:<l0,l1,l2,l3,l4,phi>.

All numeric output is printed with 9 significant digits and reruns with
identical inputs and seeds are byte-identical.  Exit codes: 0 success,
2 input/validation error, 3 internal consistency (dual-path) failure.
Inputs are never auto-normalized; invariant violations are hard errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bell import MeasurementSettings, expectation_bell, expectation_bell_fast
from .classify import (
    CLASSIFICATION_NOTE,
    GENUINE_FLAG,
    SOURCE_CLASSES,
    classify,
    figure_projection,
    sample_region,
)
from .core import ConsistencyError, ValidationError
from .optimize import OptimizerConfig, maximize_omega, seesaw_max_abs_d
from .pauli import decompose, invariant_norms, q_norm
from .states import (
    AcinParameters,
    DensityMatrix,
    PureState,
    acin_state,
    generalized_ghz,
    ghz,
    maximally_mixed,
    phi_plus_otimes_zero,
    w_state,
)

FILE_TOL = 1e-8
DUAL_PATH_TOL = 1e-10

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONSISTENCY = 3


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _rounded(obj):
    """Round every float to 9 significant digits for stable JSON output."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (float, np.floating)):
        return float(_fmt(obj))
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_rounded(v) for v in obj]
    return obj


def _emit_json(obj, stream) -> None:
    json.dump(_rounded(obj), stream, indent=2)
    stream.write("\n")


def _is_number(x) -> bool:
    """True for a JSON number; JSON booleans load as bool, an int subclass, and are refused."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _complex_pair(entry, where: str) -> complex:
    if (
        not isinstance(entry, (list, tuple))
        or len(entry) != 2
        or not all(_is_number(x) for x in entry)
    ):
        raise ValidationError(f"{where} must be a [re, im] pair of numbers, got {entry!r}")
    return complex(entry[0], entry[1])


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {what} file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{what} file {path!r} must contain a JSON object")
    return data


def _parse_builtin(name: str):
    if name == "ghz":
        return ghz()
    if name == "w":
        return w_state()
    if name == "000":
        amp = np.zeros(8, dtype=complex)
        amp[0] = 1.0
        return PureState(amp)
    if name == "mixed-identity":
        return maximally_mixed()
    if name == "phi-plus-otimes-0":
        return phi_plus_otimes_zero()
    if name.startswith("generalized-ghz:"):
        try:
            alpha = float(name.split(":", 1)[1])
        except ValueError as exc:
            raise ValidationError(f"bad generalized-ghz angle in {name!r}") from exc
        return generalized_ghz(alpha)
    if name.startswith("acin:"):
        parts = name.split(":", 1)[1].split(",")
        if len(parts) != 6:
            raise ValidationError(
                f"builtin acin needs 6 comma-separated values l0..l4,phi, got {len(parts)}"
            )
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise ValidationError(f"bad acin parameter in {name!r}") from exc
        return acin_state(AcinParameters(np.array(values[:5]), values[5]))
    raise ValidationError(f"unknown builtin state {name!r}")


def load_state(source: str):
    """Load a state from a JSON file path or a ``builtin:`` name."""
    if source.startswith("builtin:"):
        return _parse_builtin(source[len("builtin:"):])
    data = _load_json(source, "state")
    kind = data.get("kind")
    payload = data.get("data")
    if kind == "pure":
        if not isinstance(payload, list) or len(payload) != 8:
            raise ValidationError("pure state data must be a list of 8 [re, im] pairs")
        amp = np.array(
            [_complex_pair(e, f"amplitude {k}") for k, e in enumerate(payload)]
        )
        return PureState(amp, tol=FILE_TOL)
    if kind == "density":
        if not isinstance(payload, list) or len(payload) != 8:
            raise ValidationError("density data must be an 8x8 grid of [re, im] pairs")
        rows = []
        for r, row in enumerate(payload):
            if not isinstance(row, list) or len(row) != 8:
                raise ValidationError(f"density row {r} must hold 8 [re, im] pairs")
            rows.append([_complex_pair(e, f"entry ({r},{k})") for k, e in enumerate(row)])
        return DensityMatrix(np.array(rows), tol=FILE_TOL)
    raise ValidationError(f"state kind must be 'pure' or 'density', got {kind!r}")


def load_settings(path: str) -> MeasurementSettings:
    """Load measurement settings from a JSON file."""
    data = _load_json(path, "settings")
    rows = []
    for key in ("a", "b"):
        if key not in data:
            raise ValidationError(f"settings file missing key {key!r}")
        value = data[key]
        bad = ValidationError(f"settings {key!r} must be three numeric 3-vectors, got {value!r}")
        if not isinstance(value, list) or not all(
            isinstance(row, list) and all(_is_number(x) for x in row) for row in value
        ):
            raise bad
        try:
            rows.append(np.asarray(value, dtype=float))
        except ValueError as exc:
            raise bad from exc
    return MeasurementSettings(*rows, tol=FILE_TOL)


def _settings_payload(m: MeasurementSettings) -> dict:
    return {"a": m.a.tolist(), "b": m.b.tolist()}


def _cmd_decompose(args, out) -> int:
    d = decompose(load_state(args.state))
    two_body, q_local = invariant_norms(d)
    _emit_json(
        {
            "alpha": d.alpha.tolist(),
            "beta": d.beta.tolist(),
            "gamma": d.gamma.tolist(),
            "R": d.R.tolist(),
            "S": d.S.tolist(),
            "T": d.T.tolist(),
            "Q": d.Q.tolist(),
            "invariant_norms": {"two_body": two_body, "q_local": q_local},
            "q_norm": q_norm(d),
        },
        out,
    )
    return EXIT_OK


def _cmd_evaluate(args, out) -> int:
    rho = load_state(args.state)
    settings = load_settings(args.settings)
    value = expectation_bell(rho, settings, args.i)
    fast = expectation_bell_fast(decompose(rho), settings, args.i)
    if abs(value - fast) > DUAL_PATH_TOL:
        raise ConsistencyError(
            f"dual-path mismatch: matrix {value!r} vs pauli {fast!r} exceeds {DUAL_PATH_TOL:g}"
        )
    _emit_json({"value": value}, out)
    return EXIT_OK


def _result_payload(res) -> dict:
    return {
        "value": res.value,
        "settings": _settings_payload(res.settings),
        "sweeps_used": res.sweeps_used,
        "converged": res.converged,
        "per_start_values": list(res.per_start_values),
        "degenerate_updates": res.degenerate_updates,
    }


def _cmd_optimize(args, out) -> int:
    if (args.i is None) == (not args.omega):
        raise ValidationError("provide exactly one of: an operator index i, or --omega")
    rho = load_state(args.state)
    cfg = OptimizerConfig(n_starts=args.starts, seed=args.seed)
    if args.omega:
        res = maximize_omega(rho, cfg)
    else:
        res = seesaw_max_abs_d(rho, args.i, cfg)
    _emit_json(_result_payload(res), out)
    return EXIT_OK


def _cmd_classify(args, out) -> int:
    rho = load_state(args.state)
    report = classify(rho, margin=args.margin)
    _emit_json(
        {
            "m": list(report.m),
            "omega_max": report.omega_max,
            "excluded": list(report.excluded),
            "margin": report.margin,
            "genuine_tripartite_indicated": report.genuine_indicated,
            "flags": [GENUINE_FLAG] if report.genuine_indicated else [],
            "converged": list(report.converged),
            "note": CLASSIFICATION_NOTE,
        },
        out,
    )
    return EXIT_OK


def _cmd_sample(args, out) -> int:
    points = sample_region(args.source_class, args.n, args.seed, args.mode)
    out.write("d1,d2,d3,class\n")
    for pt in points:
        out.write(f"{_fmt(pt.d1)},{_fmt(pt.d2)},{_fmt(pt.d3)},{pt.source_class}\n")
    return EXIT_OK


def _read_sample_csv(stream):
    from .classify import RegionPoint

    header = stream.readline().strip()
    if header != "d1,d2,d3,class":
        raise ValidationError(f"line 1: expected header 'd1,d2,d3,class', got {header!r}")
    points = []
    for lineno, line in enumerate(stream, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ValidationError(f"line {lineno}: expected 4 comma-separated fields")
        try:
            d1, d2, d3 = (float(p) for p in parts[:3])
        except ValueError as exc:
            raise ValidationError(f"line {lineno}: non-numeric coordinate") from exc
        if not np.all(np.isfinite((d1, d2, d3))):
            raise ValidationError(f"line {lineno}: non-finite coordinate")
        points.append(RegionPoint(d1, d2, d3, parts[3]))
    return points


def _cmd_figure(args, out) -> int:
    if args.input == "-":
        points = _read_sample_csv(sys.stdin)
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                points = _read_sample_csv(fh)
        except OSError as exc:
            raise ValidationError(f"cannot read CSV file {args.input!r}: {exc}") from exc
    rows = figure_projection(points, args.plane)
    out.write("u,v,region,class\n")
    for u, v, region, label in rows:
        out.write(f"{_fmt(u)},{_fmt(v)},{region},{label}\n")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tribell",
        description="Tripartite Bell operators: evaluate, optimize and classify 3-qubit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="Pauli coefficients and invariant norms of a state")
    p.add_argument("state", help="state file path or builtin:<name>")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("evaluate", help="<D_i> at fixed settings (dual-path checked)")
    p.add_argument("state")
    p.add_argument("settings", help="settings JSON file")
    p.add_argument("i", type=int, choices=(1, 2, 3), help="operator index")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("optimize", help="maximize |<D_i>| or omega over settings")
    p.add_argument("state")
    p.add_argument("i", type=int, choices=(1, 2, 3), nargs="?", help="operator index")
    p.add_argument("--omega", action="store_true", help="maximize the quadratic form instead")
    p.add_argument("--starts", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("classify", help="separability-class exclusion report")
    p.add_argument("state")
    p.add_argument("--margin", type=float, default=1e-6)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("sample", help="sample one source class as d1,d2,d3 CSV")
    p.add_argument("--class", dest="source_class", required=True, choices=SOURCE_CLASSES)
    p.add_argument("-n", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("fixed-settings", "optimized"), default="fixed-settings")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("figure", help="project sampled points onto a coordinate plane")
    p.add_argument("input", help="CSV from the sample subcommand, or - for stdin")
    p.add_argument("--plane", choices=("12", "13", "23"), default="12")
    p.set_defaults(func=_cmd_figure)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY


if __name__ == "__main__":
    sys.exit(main())

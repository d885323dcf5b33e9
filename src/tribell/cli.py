"""Command-line front end: state/settings files, six subcommands, CSV/JSON output.

State files are JSON: ``{"kind": "pure", "data": [[re, im] x 8]}`` or
``{"kind": "density", "data": [[[re, im] x 8] x 8]}``.  Settings files are
``{"a": [[x,y,z] x 3], "b": [[x,y,z] x 3]}`` with unit rows.  Wherever a state
path is accepted, a built-in name may be used instead via the ``builtin:``
prefix: ghz, w, 000, mixed-identity, phi-plus-otimes-0,
generalized-ghz:<alpha>, acin:<l0,l1,l2,l3,l4,phi>.

Every file is read as UTF-8 by one reader, and every number array in it goes
through ``core``'s intake (numbers only, the exact shape, finite entries).  An
unreadable, undecodable or malformed file exits 2 with one ``error:`` line.

All numeric output is printed with 9 significant digits and reruns with
identical inputs and seeds are byte-identical.  Exit codes: 0 success,
2 input/validation error, 3 internal consistency (dual-path) failure.
Inputs are never auto-normalized; invariant violations are hard errors.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from functools import cache

import numpy as np

from .bell import DUAL_PATH_TOL, MeasurementSettings, expectation_bell, expectation_bell_fast
from .classify import (
    CLASSIFICATION_NOTE,
    GENUINE_FLAG,
    SOURCE_CLASSES,
    RegionPoint,
    classify,
    figure_projection,
    sample_region,
)
from .core import ConsistencyError, ValidationError, _frozen_array
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

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONSISTENCY = 3


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _rounded(obj):
    """Round every float to 9 significant digits for stable JSON output."""
    if isinstance(obj, (float, np.floating)):
        return float(_fmt(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_rounded(v) for v in obj]
    return obj


def _emit_json(obj, stream) -> None:
    json.dump(_rounded(obj), stream, indent=2)
    stream.write("\n")


def _read_text(source, what: str) -> str:
    """The text of file path or open stream ``source``; unreadable or non-UTF-8 is a ValidationError."""
    try:
        if isinstance(source, str):
            with open(source, "r", encoding="utf-8") as fh:
                return fh.read()
        if hasattr(source, "buffer"):  # stdin: strict UTF-8, universal newlines, as a file is read
            return io.StringIO(source.buffer.read().decode("utf-8"), newline=None).read()
        return source.read()
    except (OSError, UnicodeDecodeError) as exc:
        name = source if isinstance(source, str) else "-"
        raise ValidationError(f"cannot read {what} file {name!r}: {exc}") from exc


def _load_json(path: str, what: str) -> dict:
    try:
        data = json.loads(_read_text(path, what))
    except (json.JSONDecodeError, RecursionError) as exc:  # a nest too deep for the parser
        raise ValidationError(f"{what} file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{what} file {path!r} must contain a JSON object")
    return data


_BUILTINS = {"ghz": ghz, "w": w_state, "000": lambda: generalized_ghz(0.0),
             "mixed-identity": maximally_mixed, "phi-plus-otimes-0": phi_plus_otimes_zero}


def _parse_builtin(name: str):
    if name in _BUILTINS:
        return _BUILTINS[name]()
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
    kinds = {"pure": ((8,), PureState), "density": ((8, 8), DensityMatrix)}
    if not isinstance(kind, str) or kind not in kinds:
        raise ValidationError(f"state kind must be 'pure' or 'density', got {kind!r}")
    shape, cls = kinds[kind]
    pairs = _frozen_array(data.get("data"), f"{kind} state data", shape + (2,))
    # each [re, im] pair read as one complex: the same bits as complex(re, im)
    return cls(pairs.view(complex)[..., 0], tol=FILE_TOL)


def load_settings(path: str) -> MeasurementSettings:
    """Load measurement settings from a JSON file."""
    data = _load_json(path, "settings")
    for key in ("a", "b"):
        if key not in data:
            raise ValidationError(f"settings file missing key {key!r}")
    return MeasurementSettings(data["a"], data["b"], tol=FILE_TOL)


def _settings_payload(m: MeasurementSettings) -> dict:
    """Rows a and b; an entry below 1e-12 in magnitude (rounding noise, or -0.0) prints as 0.0."""
    return {key: np.where(np.abs(rows) < 1e-12, 0.0, rows).tolist()
            for key, rows in (("a", m.a), ("b", m.b))}


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
    # --starts and --seed are checked for either form; only the omega ascent reads them
    cfg = OptimizerConfig(n_starts=args.starts, seed=args.seed)
    if args.omega:
        payload = _result_payload(maximize_omega(rho, cfg))
    else:
        res = seesaw_max_abs_d(rho, args.i)
        payload = dict(_result_payload(res), upper=res.upper)
    _emit_json(payload, out)
    return EXIT_OK


def _cmd_classify(args, out) -> int:
    rho = load_state(args.state)
    report = classify(rho, margin=args.margin)
    _emit_json(
        {
            "m": list(report.m),
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


def _read_sample_csv(text: str):
    lines = text.split("\n")
    header = lines[0].strip()
    if header != "d1,d2,d3,class":
        raise ValidationError(f"line 1: expected header 'd1,d2,d3,class', got {header!r}")
    points = []
    for lineno, line in enumerate(lines[1:], start=2):
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
    source = sys.stdin if args.input == "-" else args.input
    points = _read_sample_csv(_read_text(source, "CSV"))
    rows = figure_projection(points, args.plane)
    out.write("u,v,region,class\n")
    for u, v, region, label in rows:
        out.write(f"{_fmt(u)},{_fmt(v)},{region},{label}\n")
    return EXIT_OK


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built by the first :func:`main` call and reused by every later one.

    Parsing reads the parser and writes only the namespace it returns, so
    one parser serves every call in a process.  Each subcommand's ``func``
    is a ``_cmd_*`` function, which looks up its library calls by name when
    it runs, so rebinding those names in this module still takes effect.
    """
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
    p.add_argument("--starts", type=int, default=32,
                   help="random starts of the --omega ascent (the |<D_i>| search has none)")
    p.add_argument("--seed", type=int, default=0, help="seed of the --omega starts")
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

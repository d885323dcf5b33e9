"""Fingerprint of tribell's numerical output, to check that a refactor changes nothing.

    python3 tools/fingerprint.py > fingerprint.json

It takes no options, imports the package from the ``src`` directory of the
checkout it sits in and prints one JSON object with seven entries:

* ``m_i``: one sha256 over the value, upper end, converged flag and settings
  bytes of the 366 m_i problems of GHZ, W and 20 draws of each of the six
  source classes from ``default_rng(5)``, on all three axes;
* ``m_i_printed``: one sha256 over the same problems' value and upper end
  as the CLI prints them (its own ``_fmt``, 9 significant digits) and their
  converged flags;
* ``search_points``: the number of sphere points the m_i search evaluates
  over those 366 problems, counted as ``s[..., 0].size`` per
  ``_sphere_values`` call, so it reads the same whether a call takes its
  points flat (points, 3) or in rows (rows, width, 3);
* ``search_passes``: the number of those ``_sphere_values`` calls, each one
  evaluation pass of at most ``VERTEX_BLOCK`` points;
* ``omega``: for each of 63 states (GHZ, W, phi+ (x) 0, I/8 and 59 draws
  from ``default_rng(5)`` cycling haar-pure, 1-23, fully-separable and
  ghz-family), the sha256 of every start's iteration count and certificate
  and of the best row of the Newton ascent from the 32 default starts at
  seeds 0 and 31, and the best omega at each seed;
* ``json_keys``: for each JSON command form it runs (``classify``,
  ``optimize <i>`` and ``optimize --omega``), the ordered key list of the
  output; every call of a form must print the same keys, or the tool exits
  with an error naming the form;
* ``stdout``: the exit code and the sha256 of the stdout of every
  ``classify``, ``optimize <i>`` and ``optimize --omega --seed s`` call (s in
  0, 1, 2, 5, 31, 32) on the eight built-in states below, then of the
  front end's own calls: the top-level ``--help``, each subcommand's
  ``--help``, and two rejected calls, one that argparse refuses and one
  that the library's input checks refuse (``classify builtin:nope``).  All
  run in this one process, so every call after the first reuses the CLI's
  parser.  An argparse exit is caught as its exit code, and a call that
  writes to stderr also gets the sha256 of its stderr.  Help text is
  formatted at 80 columns whatever the terminal.

Run it on two checkouts and diff the two outputs: equal ``m_i`` and
``stdout`` entries mean bit-identical m_i and byte-identical CLI output,
the ``omega`` entries show which states' ascents took another course, and
an equal ``m_i_printed`` under a changed ``m_i`` means that m_i moved only
below the printed digits.  An equal ``search_points`` means that the search
evaluated as many points: a refactor that keeps the same search keeps it.
``search_passes`` counts how the search split that work: the same points in
fewer passes mean larger blocks or chunks, more passes a search that splits
its work again.
A changed ``json_keys`` list names an interface change directly, where
``stdout`` shows only which calls' digests changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from unittest import mock

import numpy as np

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

BUILTINS = ("ghz", "w", "000", "mixed-identity", "phi-plus-otimes-0", "generalized-ghz:0.3",
            "generalized-ghz:0.7", "acin:0.5,0.5,0.5,0.5,0.0,0.0")
OMEGA_SEEDS = (0, 1, 2, 5, 31, 32)
ASCENT_CYCLE = ("haar-pure", "1-23", "fully-separable", "ghz-family")
# draw 37 (a 1-23 state) sits on a flat omega maximum where starts creep to the
# 500-iteration cap, so its iteration counts follow the last bit of any change
FLAT_DRAW = 37
SUBCOMMANDS = ("decompose", "evaluate", "optimize", "classify", "sample", "figure")


def _sha(*arrays) -> str:
    digest = hashlib.sha256()
    for x in arrays:
        digest.update(np.ascontiguousarray(x).tobytes())
    return digest.hexdigest()


def m_i_digests() -> dict:
    from tribell import optimize as opt
    from tribell.classify import SOURCE_CLASSES, _draw_state
    from tribell.cli import _fmt
    from tribell.states import ghz, to_density, w_state

    rng = np.random.default_rng(5)
    states = [to_density(ghz()), to_density(w_state())]
    states += [_draw_state(c, rng) for c in SOURCE_CLASSES for _ in range(20)]
    points = []
    values = opt._sphere_values

    def counted(alpha, q, owner, s):
        points.append(s[..., 0].size)
        return values(alpha, q, owner, s)

    with mock.patch.object(opt, "_sphere_values", counted):
        results = opt.seesaw_max_abs_d_many(states, (1, 2, 3))
    printed = " ".join(f"{_fmt(r.value)},{_fmt(r.upper)},{r.converged}" for r in results)
    return {
        "m_i": _sha(*(x for r in results for x in (np.float64(r.value), np.float64(r.upper),
                                                   np.bool_(r.converged), r.settings.a, r.settings.b))),
        "m_i_printed": hashlib.sha256(printed.encode()).hexdigest(),
        "search_points": sum(points),
        "search_passes": len(points),
    }


def omega_ascents() -> dict:
    from tribell import optimize as opt
    from tribell.bell import multiaffine_form
    from tribell.classify import _draw_state
    from tribell.pauli import decompose
    from tribell.states import ghz, maximally_mixed, phi_plus_otimes_zero, to_density, w_state

    rng = np.random.default_rng(5)
    draws = [_draw_state(ASCENT_CYCLE[k % 4], rng) for k in range(60)]
    states = {"ghz": to_density(ghz()), "w": to_density(w_state()),
              "phi-plus-otimes-0": phi_plus_otimes_zero(), "mixed-identity": maximally_mixed()}
    states.update((f"draw-{k:02d}", rho) for k, rho in enumerate(draws) if k != FLAT_DRAW)
    out = {}
    for name, rho in states.items():
        form = multiaffine_form(decompose(rho))
        runs, best = [], []
        for seed in (0, 31):
            cfg = opt.OptimizerConfig(seed=seed)
            obj, _, used, certified = opt._sum_of_squares_ascent(form, opt._initial_vectors(cfg),
                                                                 cfg.max_sweeps)
            runs += [used.astype(np.int64), certified, np.int64(opt._best_row(obj))]
            best.append(float(obj.max()))
        out[name] = {"courses": _sha(*runs), "best_omega": best}
    return out


def stdout_digests() -> tuple[dict, dict]:
    """The ``stdout`` digests of every call, and the ``json_keys`` of each JSON command form."""
    from tribell.cli import main

    forms = {
        "classify": [["classify", f"builtin:{name}"] for name in BUILTINS],
        "optimize <i>": [["optimize", f"builtin:{name}", str(i)] for name in BUILTINS for i in (1, 2, 3)],
        "optimize --omega": [["optimize", f"builtin:{name}", "--omega", "--seed", str(seed)]
                             for name in BUILTINS for seed in OMEGA_SEEDS],
    }
    calls = [argv for argvs in forms.values() for argv in argvs]
    calls += [["--help"]] + [[name, "--help"] for name in SUBCOMMANDS]
    calls += [["sample", "--class", "nonsense"], ["classify", "builtin:nope"]]
    out, texts = {}, {}
    for argv in calls:
        text, errors = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(errors):
            try:
                code = main(argv)
            except SystemExit as exc:  # --help, and argparse's refusals
                code = exc.code
        entry = f"exit {code} " + hashlib.sha256(text.getvalue().encode()).hexdigest()
        if errors.getvalue():
            entry += " stderr " + hashlib.sha256(errors.getvalue().encode()).hexdigest()
        out[" ".join(argv)] = entry
        texts[" ".join(argv)] = text.getvalue()
    keys = {}
    for form, argvs in forms.items():
        seen = {tuple(json.loads(texts[" ".join(argv)])) for argv in argvs}
        if len(seen) != 1:
            raise SystemExit(f"fingerprint: the {form!r} calls print different JSON keys: {sorted(seen)}")
        keys[form] = list(seen.pop())
    return out, keys


def main() -> int:
    sys.path.insert(0, SRC)
    os.environ["COLUMNS"] = "80"  # argparse wraps help text at the terminal's width otherwise
    stdout, keys = stdout_digests()
    print(json.dumps({**m_i_digests(), "omega": omega_ascents(), "json_keys": keys, "stdout": stdout},
                     indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

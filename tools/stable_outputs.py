"""Write every file the CLI keeps byte stable, so two source trees can be compared.

    PYTHONPATH=src python tools/stable_outputs.py OUT_DIR

The runs use the ``subspace_limits`` on the import path, in this process:

* ``analyze`` and ``suite`` on parity-split, both variants under the finite,
  density and blocks ideals;
* ``suite`` on parity-split with the eight-eps grid ``SWEEP_EPS``, both
  variants under the three ideals;
* ``analyze`` and ``suite`` on orthogonal-constant;
* ``analyze`` and ``suite`` on a rotating config (d=40, k=8, power_decay
  0.45/n^2, density tau 0.01, horizon 2000, seed 0) with no ``out_dir`` key
  and ``--out-dir`` given; the suite's report holds per-vector evidence for
  all eight basis vectors;
* ``analyze`` and ``suite`` on three configs whose ``limit_basis`` replaces
  the candidate limit: parity-split in both variants (the amended one drops
  its certificate, which bounds the gaps to its own limit) and a small
  rotating one;
* ``gap`` on a whitespace-separated and a comma-separated basis file;
* ``example`` with no name, and ``example NAME --emit-config`` for both
  built-ins;
* a library run per parity-split variant on one traces object (horizon 10^4):
  ``equivalence_suite`` and ``self_projection_volume_check`` under the three
  ideals at ``SWEEP_EPS``, then at the default grid, then at ``SWEEP_EPS``
  again, each pair written through ``report_to_dict`` as the ``suite``
  command writes it. Later calls on one traces object reuse what earlier ones
  kept, so these files must equal what fresh calls write;
* a library run of a rotating sequence (d=6, k=2, seed 3, 0.5/n) against a
  foreign limit, the sequence at its constant sine 0.1, which it meets at
  n = 5: the trace pass takes the bases' path, as the closed-form frames hold
  only against the family's own limit. Its ``trace.csv`` and, per ideal, the
  ``suite`` report with the volume check at the default grid.

OUT_DIR must not exist. Each run writes into its own directory under it, and
``runs.txt`` records every run's arguments, exit code and standard output.
Paths are relative to OUT_DIR, so the trees of two source checkouts differ
only where their outputs do:

    PYTHONPATH=../parent/src python tools/stable_outputs.py /tmp/parent
    PYTHONPATH=src python tools/stable_outputs.py /tmp/change
    diff -r /tmp/parent /tmp/change

Exits 1 if any run fails with an error (exit code above 2), else 0.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from subspace_limits import (
    DEFAULT_EPS_GRID,
    Ideal,
    criterion_traces,
    equivalence_suite,
    parity_split_example,
    self_projection_volume_check,
)
from subspace_limits.cli import (
    BUILTIN_SEQUENCES,
    EXIT_INCONCLUSIVE,
    main,
    report_to_dict,
    write_report,
    write_trace_csv,
)
from subspace_limits.sequences import rotating_family

SWEEP_EPS = "0.5,0.3,0.2,0.1,0.05,0.02,0.01,0.005"
LIBRARY_HORIZON = 10_000
LIBRARY_SWEEP = tuple(float(eps) for eps in SWEEP_EPS.split(","))
# in this order on one traces object per variant
LIBRARY_GRIDS = {"sweep": LIBRARY_SWEEP, "default": DEFAULT_EPS_GRID, "sweep-again": LIBRARY_SWEEP}
CONFIGS = {
    "rotating": {
        "sequence": {
            "family": "rotating",
            "params": {
                "ambient_dim": 40,
                "k": 8,
                "seed": 0,
                "profile": {"kind": "power_decay", "scale": 0.45, "exponent": 2.0},
            },
        },
        "ideal": {"kind": "density", "tau": 0.01},
        "horizon": 2000,
        "eps_grid": [0.5, 0.1, 0.01],
    },
    "parity-limit": {
        "sequence": {"builtin": "parity-split", "variant": "printed"},
        "ideal": {"kind": "density"},
        "horizon": 500,
        "eps_grid": [0.5, 0.1, 0.01],
        "limit_basis": [[0.0, 2.0, 0.5]],
    },
    "parity-amended-limit": {
        "sequence": {"builtin": "parity-split", "variant": "amended"},
        "ideal": {"kind": "blocks"},
        "horizon": 500,
        "eps_grid": [0.5, 0.1, 0.01],
        "limit_basis": [[0.0, 2.0, 0.5]],
    },
    "rotating-limit": {
        "sequence": {
            "family": "rotating",
            "params": {
                "ambient_dim": 6,
                "k": 2,
                "seed": 3,
                "profile": {"kind": "power_decay", "scale": 0.5, "exponent": 1.0},
            },
        },
        "ideal": {"kind": "finite"},
        "horizon": 200,
        "eps_grid": [0.5, 0.1, 0.01],
        "limit_basis": [[1.0, 1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0, 0.0, 0.0]],
    },
}
FOREIGN_HORIZON = 2000
BASIS_FILES = {"basis-u.txt": "1 0 0\n0 1 0.5\n", "basis-v.csv": "1,0.1,0\n0,1,0\n"}


def runs() -> list[list[str]]:
    argvs = []
    for command in ("analyze", "suite"):
        for variant in ("amended", "printed"):
            for ideal in ("finite", "density", "blocks"):
                out = f"{command}-parity-split-{variant}-{ideal}"
                argvs.append([command, "parity-split", "--variant", variant,
                              "--ideal", ideal, "--out-dir", out])
        argvs.append([command, "orthogonal-constant", "--out-dir", f"{command}-orthogonal-constant"])
    for variant in ("amended", "printed"):
        for ideal in ("finite", "density", "blocks"):
            out = f"sweep-parity-split-{variant}-{ideal}"
            argvs.append(["suite", "parity-split", "--variant", variant, "--ideal", ideal,
                          "--eps", SWEEP_EPS, "--out-dir", out])
    for name in CONFIGS:
        for command in ("analyze", "suite"):
            argvs.append([command, "--config", f"{name}.json", "--out-dir", f"{command}-{name}"])
    argvs.append(["gap", *BASIS_FILES])
    argvs.append(["example"])
    for name in sorted(BUILTIN_SEQUENCES):
        argvs.append(["example", name, "--emit-config", f"example-{name}.json"])
    return argvs


def write_library_runs() -> None:
    for variant in ("amended", "printed"):
        seq, V, _ = parity_split_example(variant)
        traces = criterion_traces(seq, V, LIBRARY_HORIZON)
        out = Path(f"library-parity-split-{variant}")
        out.mkdir()
        for name, grid in LIBRARY_GRIDS.items():
            for kind in ("finite", "density", "blocks"):
                args = (seq, V, getattr(Ideal, kind)(), grid, LIBRARY_HORIZON, traces)
                suite = equivalence_suite(*args)
                volume = self_projection_volume_check(*args)
                doc = report_to_dict(suite, "suite", volume_check=volume)
                write_report(out / f"{name}-{kind}.json", doc)
    profile = {"kind": "power_decay", "scale": 0.5, "exponent": 1.0}
    seq, _ = rotating_family(6, 2, profile, seed=3)
    V = rotating_family(6, 2, {"kind": "constant", "value": 0.1}, seed=3)[0].rule(1)
    traces = criterion_traces(seq, V, FOREIGN_HORIZON)
    out = Path("library-rotating-foreign-limit")
    out.mkdir()
    write_trace_csv(out / "trace.csv", traces)
    for kind in ("finite", "density", "blocks"):
        args = (seq, V, getattr(Ideal, kind)(), DEFAULT_EPS_GRID, FOREIGN_HORIZON, traces)
        doc = report_to_dict(equivalence_suite(*args), "suite",
                             volume_check=self_projection_volume_check(*args))
        write_report(out / f"{kind}.json", doc)


def write_outputs(out_dir: Path) -> int:
    out_dir.mkdir(parents=True)
    os.chdir(out_dir)
    for name, doc in CONFIGS.items():
        Path(f"{name}.json").write_bytes(json.dumps(doc, indent=2, sort_keys=True).encode() + b"\n")
    for name, text in BASIS_FILES.items():
        Path(name).write_bytes(text.encode())
    log, failed = [], 0
    for argv in runs():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(argv)
        failed += code > EXIT_INCONCLUSIVE
        log.append(f"$ subspace-limits {' '.join(argv)}\nexit {code}\n{out.getvalue()}")
    Path("runs.txt").write_bytes("\n".join(log).encode())
    write_library_runs()
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT_DIR")
    sys.exit(write_outputs(Path(sys.argv[1]).resolve()))

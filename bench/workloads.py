"""The benchmark's three workloads.

Each workload is one closed-loop client: an operation starts only when
the previous one has finished and been checked. A workload has four
steps. ``prepare`` writes its input files and imports nothing from the
library. ``setup`` builds the inputs and is timed as set-up. ``op`` is
the timed operation. ``check`` reads what the operation produced and
returns ``(problems, fingerprint)``; fingerprints of later operations
must equal the first one's.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import checks

PARITY_HORIZON = 10_000
ROTATING = {"ambient_dim": 40, "k": 8, "scale": 0.45, "exponent": 2.0, "horizon": 2000}
SWEEP_EPS = (0.5, 0.3, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005)
SWEEP_IDEALS = ("finite", "density", "blocks")
SWEEP_VARIANTS = ("amended", "printed")


class CliWorkload:
    """One in-process ``subspace-limits`` invocation per operation."""

    name = ""
    uses_seed = False
    setup_samples = 9
    files: tuple[str, ...] = ()

    def prepare(self, seed: int, work: Path) -> None:
        self.out = work / "out"
        self.config = work / "config.json"
        self.config.write_text(json.dumps(self.config_doc(seed), indent=2, sort_keys=True))

    def config_doc(self, seed: int) -> dict:
        raise NotImplementedError

    def argv(self) -> list[str]:
        raise NotImplementedError

    def setup(self, lib):
        lib.cli.build_experiment(lib.cli.load_config(self.config))

    def setup_problems(self, lib, state) -> list[str]:
        return []

    def op(self, lib, state) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return lib.cli.main(self.argv())

    def check(self, code: int, reference) -> tuple[list[str], dict]:
        files = {name: (self.out / name).read_bytes() for name in self.files}
        problems = checks.exit_problems(code, 0)
        report_name = self.files[0]
        doc, bad_json = checks.parse_json(report_name, files[report_name])
        problems += bad_json or self.report_problems(doc)
        gap, bad_csv = checks.trace_csv_gap(files["trace.csv"])
        problems += bad_csv or checks.gap_problems("trace.csv", gap, self.expected_gap())
        if reference is not None:
            problems += checks.identity_problems(files, reference)
        return problems, files


class ParitySuite(CliWorkload):
    """k=1 in d=3 over 10^4 indices: per-index Python overhead dominates."""

    name = "parity-suite"
    files = ("suite_report.json", "trace.csv")

    def config_doc(self, seed: int) -> dict:
        # the same experiment the op's flags describe; no seed enters it
        return {
            "sequence": {"builtin": "parity-split", "variant": "amended"},
            "ideal": {"kind": "blocks"},
            "horizon": PARITY_HORIZON,
            "eps_grid": [0.5, 0.1, 0.01],
            "out_dir": str(self.out),
        }

    def argv(self) -> list[str]:
        return [
            "suite", "parity-split", "--variant", "amended", "--ideal", "blocks",
            "--horizon", str(PARITY_HORIZON), "--out-dir", str(self.out),
        ]

    def report_problems(self, doc: dict) -> list[str]:
        return checks.suite_report_problems(doc)

    def expected_gap(self):
        return checks.parity_gap(PARITY_HORIZON)


class RotatingAnalyze(CliWorkload):
    """k=8 in d=40 over 2000 indices: Gram-determinant kernels dominate."""

    name = "rotating-analyze"
    uses_seed = True
    files = ("report.json", "trace.csv")

    def config_doc(self, seed: int) -> dict:
        return {
            "sequence": {
                "family": "rotating",
                "params": {
                    "ambient_dim": ROTATING["ambient_dim"],
                    "k": ROTATING["k"],
                    "seed": seed,
                    "profile": {
                        "kind": "power_decay",
                        "scale": ROTATING["scale"],
                        "exponent": ROTATING["exponent"],
                    },
                },
            },
            "ideal": {"kind": "density", "tau": 0.01},
            "horizon": ROTATING["horizon"],
            "eps_grid": [0.5, 0.1, 0.01],
            "out_dir": str(self.out),
        }

    def argv(self) -> list[str]:
        return ["analyze", "--config", str(self.config)]

    def report_problems(self, doc: dict) -> list[str]:
        return checks.analyze_report_problems(doc)

    def expected_gap(self):
        return checks.rotating_gap(ROTATING["horizon"], ROTATING["scale"], ROTATING["exponent"])


class VerdictSweep:
    """Library API: every checker under three ideals on two cached trace sets.

    Set-up runs the one trace pass per variant; the operations only decide
    membership, so certificate validation and the empirical rules dominate.
    """

    name = "verdict-sweep"
    uses_seed = False
    setup_samples = 3

    def prepare(self, seed: int, work: Path) -> None:
        pass

    def setup(self, lib):
        cases = {}
        for variant in SWEEP_VARIANTS:
            seq, V, _ = lib.convergence.parity_split_example(variant)
            traces = lib.convergence.criterion_traces(seq, V, PARITY_HORIZON)
            cases[variant] = (seq, V, traces)
        return cases

    def setup_problems(self, lib, cases) -> list[str]:
        return [
            problem
            for variant, (_, _, traces) in cases.items()
            for problem in checks.gap_problems(
                f"{variant} traces", traces.gap, checks.parity_gap(PARITY_HORIZON, variant)
            )
        ]

    def op(self, lib, cases):
        # looked up through the modules at call time, where tracing wraps them
        conv, Ideal = lib.convergence, lib.ideals.Ideal
        out = []
        for variant, (seq, V, traces) in cases.items():
            for kind in SWEEP_IDEALS:
                ideal = getattr(Ideal, kind)()
                suite = conv.equivalence_suite(
                    seq, V, ideal, SWEEP_EPS, PARITY_HORIZON, traces=traces
                )
                volume = conv.self_projection_volume_check(
                    seq, V, ideal, SWEEP_EPS, PARITY_HORIZON, traces=traces
                )
                out.append((variant, kind, suite, volume))
        return out

    def check(self, out, reference) -> tuple[list[str], list]:
        results = [
            {
                "variant": variant,
                "ideal": kind,
                "overall": suite.overall.value,
                "criteria_agree": suite.criteria_agree(),
                "by_criterion": {k: v.value for k, v in suite.overall_by_criterion().items()},
                "per_epsilon": [
                    [[v.status.value for _, v in rep.per_epsilon] for rep in crit.per_vector]
                    for crit in suite.criteria + (volume.volume,)
                ],
                "implication_holds": volume.implication_holds,
            }
            for variant, kind, suite, volume in out
        ]
        problems = checks.sweep_problems(results)
        if reference is not None and results != reference:
            problems.append("verdicts differ from the first operation's")
        return problems, results


WORKLOADS = {w.name: w for w in (ParitySuite(), RotatingAnalyze(), VerdictSweep())}

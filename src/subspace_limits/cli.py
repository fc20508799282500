"""Command-line interface.

Four subcommands:

* ``gap BASIS_U BASIS_V`` prints the gap between the row spans of two
  numeric matrix files.
* ``analyze`` runs a convergence experiment (built-in sequence or JSON
  config) and writes a verdict report plus a per-index trace CSV. The
  exit code encodes the verdict: 0 converges, 1 does not converge,
  2 inconclusive, greater than 2 means an error.
* ``suite`` runs all five equivalence criteria plus the volume check and
  exits 0 exactly when every criterion that reached a verdict agrees.
* ``example`` lists the built-in sequences or emits a ready-made config.

Reports are JSON, traces are CSV with a fixed header, and both are byte
stable: re-running the same config reproduces identical files. Each
subcommand evaluates the sequence once and feeds every check from that
one trace pass.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import warnings
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import _g17, linalg
from .convergence import (
    DEFAULT_EPS_GRID,
    ConvergenceReport,
    CriterionReport,
    CriterionTraces,
    ScalarLimitReport,
    Verdict,
    VolumeCheckReport,
    _validate_eps_grid,
    criterion_traces,
    equivalence_suite,
    self_projection_volume_check,
    subspace_i_converges,
)
from .ideals import IDEALS
from .linalg import RankDeficiencyError, orthonormalize
from .sequences import (
    BUILTIN_SEQUENCES,
    ConfigError,
    RuleEvaluationError,
    _builtin,
    _kind,
    _number,
    _object,
    rotating_family,
)

EXIT_CONVERGES = 0
EXIT_DOES_NOT_CONVERGE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_RUNTIME = 4

TRACE_HEADER = "n,gap,crit2_max_i,crit3_min_i,crit4_min_i,crit5_max_i"
REPORT_SCHEMA = "subspace-limits/report-v1"


# --------------------------------------------------------------------------
# Experiment configuration


def _builtin_config(name) -> dict:
    """The config document a built-in runs with when no flag overrides its defaults."""
    entry = _builtin(name)
    variant = {"variant": entry["variants"][0]} if entry["variants"] else {}
    return {
        "sequence": {"builtin": name, **variant},
        "ideal": {"kind": entry["ideal"]},
        "horizon": entry["horizon"],
        "eps_grid": list(DEFAULT_EPS_GRID),
        "out_dir": "out",
    }


@dataclass
class ExperimentConfig:
    sequence: dict
    ideal: dict
    horizon: int
    eps_grid: list[float]
    out_dir: str = "out"
    limit_basis: Optional[list] = None

    def validate(self) -> None:
        """Check the document's shape; build_experiment checks the values it builds."""
        if not isinstance(self.sequence, dict):
            raise ConfigError("sequence", "must be an object")
        if len({"builtin", "family"} & set(self.sequence)) != 1:
            raise ConfigError("sequence", "needs exactly one of 'builtin' or 'family'")
        if "builtin" in self.sequence:
            _object(self.sequence, "sequence", ("builtin", "variant"))
        else:
            _object(self.sequence, "sequence", ("family", "params"))
            if self.sequence["family"] != "rotating":
                raise ConfigError(
                    "sequence.family", "the only parametric family is 'rotating'"
                )
            known = ("ambient_dim", "k", "profile", "seed")
            _object(self.sequence.get("params"), "sequence.params", known, known[:3])
        ideal = _kind(self.ideal, "ideal", IDEALS)
        _object(self.ideal, "ideal", ["kind", *(f.name for f in fields(ideal))])
        if not isinstance(self.horizon, int) or self.horizon < 16:
            raise ConfigError("horizon", "must be an integer >= 16")
        with _config_field("eps_grid"):
            _validate_eps_grid(self.eps_grid)
        if not isinstance(self.out_dir, str) or not self.out_dir:
            raise ConfigError("out_dir", "must be a non-empty string")


def _read_document(path: str | Path) -> dict:
    try:  # bytes: json detects UTF-8/16/32 itself, so the locale plays no part
        doc = json.loads(Path(path).read_bytes())
    except UnicodeDecodeError as exc:
        raise ConfigError("<document>", f"not UTF-8, UTF-16 or UTF-32 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("<document>", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("<document>", "top level must be an object")
    return doc


def _validated(doc: dict) -> ExperimentConfig:
    """The one way a config document, from a file or from flags, becomes a config."""
    keys = fields(ExperimentConfig)
    _object(doc, "", [f.name for f in keys], [f.name for f in keys if f.default is MISSING])
    cfg = ExperimentConfig(**doc)
    cfg.validate()
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a JSON experiment config."""
    return _validated(_read_document(path))


@contextlib.contextmanager
def _config_field(field: str):
    """Re-raise a library constructor's rejection of a value as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(field, str(exc)) from None


def _limit_rows(value) -> np.ndarray:
    """``limit_basis`` as a matrix: equal-length lists of finite config numbers."""
    if not (isinstance(value, list) and all(isinstance(row, list) for row in value)
            and len({len(row) for row in value}) == 1):
        raise ConfigError("limit_basis", "must be a list of equal-length basis rows")
    rows = np.array([[_number(x, "limit_basis") for x in row] for row in value])
    if not np.all(np.isfinite(rows)):
        raise ConfigError("limit_basis", "vector has non-finite coordinates")
    return rows


def build_experiment(cfg: ExperimentConfig):
    """Materialize (sequence, candidate limit, ideal) from a validated config."""
    params = {key: value for key, value in cfg.ideal.items() if key != "kind"}
    # an ideal has at most one field, so a rejected value is the one named here
    with _config_field(".".join(["ideal", *params])):
        ideal = IDEALS[cfg.ideal["kind"]](**params)
    if "builtin" in cfg.sequence:
        name, variant = cfg.sequence["builtin"], cfg.sequence.get("variant")
        entry = _builtin(name)
        if variant is not None and not entry["variants"]:
            raise ConfigError("sequence.variant", f"{name!r} takes no variant")
        with _config_field("sequence.variant"):
            seq, V = (entry["builder"]() if variant is None else entry["builder"](variant))[:2]
        if cfg.limit_basis is not None:
            limit_rows = _limit_rows(cfg.limit_basis)
            if limit_rows.shape != (seq.k, seq.ambient_dim):
                expected = f"expected {seq.k} rows of length {seq.ambient_dim}"
                raise ConfigError("limit_basis", expected)
            with _config_field("limit_basis"):
                limit = orthonormalize(limit_rows)
            if linalg.gap(limit, V) > 0:  # the certificate bounds the gaps to the built-in's V
                seq = replace(seq, exceptional_certificate=None)
            V = limit
    else:  # the rotating family orthonormalizes the limit rows in its frame
        limit_rows = None if cfg.limit_basis is None else _limit_rows(cfg.limit_basis)
        params = cfg.sequence["params"]
        try:
            seq, V = rotating_family(**params, limit_basis=limit_rows)  # keys checked by validate
        except RankDeficiencyError as exc:
            if exc.index >= params["k"]:  # a drawn companion row, not the config's
                raise
            raise ConfigError("limit_basis", str(exc)) from None
    return seq, V, ideal


# --------------------------------------------------------------------------
# Output files


_BLOCK_VALUES = 2048  # float fields formatted per block; bounds the writer's memory


def write_trace_csv(path: Path, traces: CriterionTraces) -> None:
    """Per-index worst-case trace of all criteria, byte stable across runs.

    Every float field is exactly ``"%.17g" % value`` and every line ends in
    "\\n". The file is written as bytes, so no platform newline or locale
    setting changes it.
    """
    worst = traces.residual.max(axis=1)
    # fields after n: gap, the residual, mass, projection norm, and the
    # residual again as crit5_max_i, the joint volume
    columns = [traces.gap, worst, traces.coefficient_mass.min(axis=1),
               traces.projection_norm.min(axis=1)]
    # a gap column bit-equal to the residual shares its text; bits, since 0.0 == -0.0 prints apart
    shared = int(np.array_equal(traces.gap.view(np.uint64), worst.view(np.uint64)))
    columns = columns[shared:]
    index_words = 1 if traces.horizon < 10**8 else 2
    rows = _BLOCK_VALUES // len(columns)
    line = np.empty((rows, index_words + 5 * _g17.WORDS), _g17.WORD)
    fields = line[:, index_words:].reshape(rows, 5, _g17.WORDS)
    values = np.empty((len(columns), rows))
    with path.open("wb") as f:  # block by block: the whole text is never held in memory
        f.write(TRACE_HEADER.encode() + b"\n")
        for start in range(0, traces.horizon, rows):
            m = min(rows, traces.horizon - start)
            for k, column in enumerate(columns):
                values[k, :m] = column[start : start + m]
            line[:m, :index_words] = _g17.format_indices(start + 1, m, index_words)
            _g17.format_floats(values[:, :m], fields[:m, shared:4].transpose(1, 2, 0))
            fields[:m, 4] = fields[:m, 1]
            if shared:
                fields[:m, 0] = fields[:m, 1]
            fields[:m, 4, -1] |= ord("\n") << 56  # the free last byte of the line's last field
            text = line[:m].view(np.uint8)
            f.write(text[text != 0])  # dropping the pads leaves the lines


def _scalar_limit_to_dict(rep: ScalarLimitReport) -> dict:
    return {
        "candidate": rep.candidate,
        "overall": rep.overall.value,
        "per_epsilon": [
            {
                "epsilon": eps,
                "status": verdict.status.value,
                "mode": verdict.mode.value,
                "evidence": {key: list(value) if isinstance(value, tuple) else value
                             for key, value in verdict.evidence.items()},  # lists, as built
            }
            for eps, verdict in rep.per_epsilon
        ],
    }


def _criterion_to_dict(crit: CriterionReport) -> dict:
    return {
        "name": crit.name,
        "candidate": crit.candidate,
        "overall": crit.overall.value,
        "per_vector": [_scalar_limit_to_dict(r) for r in crit.per_vector],
        "thresholds": list(crit.thresholds),
    }


def report_to_dict(
    report: ConvergenceReport,
    command: str,
    volume_check: Optional[VolumeCheckReport] = None,
) -> dict:
    doc = {
        "schema": REPORT_SCHEMA,
        "command": command,
        "ideal": report.ideal.describe(),
        "horizon": report.horizon,
        "eps_grid": list(report.eps_grid),
        "criteria": [_criterion_to_dict(c) for c in report.criteria],
        "overall": report.overall.value,
        "evidence": dict(report.evidence),
    }
    if len(report.criteria) > 1:
        doc["agreement"] = {
            "overall_by_criterion": {
                name: verdict.value
                for name, verdict in report.overall_by_criterion().items()
            },
            "matrix": report.agreement_matrix(),
            "consistent": report.criteria_agree(),
        }
    if volume_check is not None:
        doc["volume_check"] = {
            "volume": _criterion_to_dict(volume_check.volume),
            "subspace_overall": volume_check.subspace_overall.value,
            "implication_holds": volume_check.implication_holds,
            "converse_falsified": volume_check.converse_falsified,
        }
    return doc


def write_report(path: Path, doc: dict) -> None:
    """Sorted, indented ASCII JSON ending in "\\n", written as bytes like the trace."""
    path.write_bytes(json.dumps(doc, indent=2, sort_keys=True).encode() + b"\n")


# --------------------------------------------------------------------------
# Subcommands


def _verdict_exit(verdict: Verdict) -> int:
    return {
        Verdict.CONVERGES: EXIT_CONVERGES,
        Verdict.DOES_NOT_CONVERGE: EXIT_DOES_NOT_CONVERGE,
        Verdict.INCONCLUSIVE: EXIT_INCONCLUSIVE,
    }[verdict]


def _parse_eps(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError("eps_grid", f"could not parse {text!r}") from None


# the experiment flags and the config fields they set; a config file sets them all
_FLAG_FIELDS = {"horizon": "horizon", "eps": "eps_grid", "ideal": "ideal.kind",
                "tau": "ideal.tau", "variant": "sequence.variant"}


def _config_from_args(args) -> ExperimentConfig:
    if args.config is not None:
        if args.builtin is not None:
            raise ConfigError("sequence", "give either a config file or a builtin name")
        for flag, field in _FLAG_FIELDS.items():
            if getattr(args, flag) is not None:
                raise ConfigError(
                    field, f"--{flag} cannot be combined with --config; set it in the file"
                )
        doc = _read_document(args.config)
    elif args.builtin is None:
        raise ConfigError("sequence", "give a builtin name or --config FILE")
    else:
        # the built-in's own config, with only the flags given laid over it
        doc = _builtin_config(args.builtin)
        for flag, field in _FLAG_FIELDS.items():
            value = getattr(args, flag)
            if value is not None:
                *section, key = field.split(".")
                place = doc[section[0]] if section else doc
                place[key] = _parse_eps(value) if flag == "eps" else value
    if args.out_dir is not None:
        doc["out_dir"] = args.out_dir
    return _validated(doc)


def _prepare(args):
    cfg = _config_from_args(args)
    seq, V, ideal = build_experiment(cfg)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    traces = criterion_traces(seq, V, cfg.horizon)
    print(f"sequence: {seq.description}")
    print(f"ideal: {ideal.kind}   horizon: {cfg.horizon}   eps: {cfg.eps_grid}")
    return cfg, seq, V, ideal, out_dir, traces


def cmd_analyze(args) -> int:
    cfg, seq, V, ideal, out_dir, traces = _prepare(args)
    report = subspace_i_converges(seq, V, ideal, cfg.eps_grid, cfg.horizon, traces=traces)
    doc = report_to_dict(report, "analyze")
    write_report(out_dir / "report.json", doc)
    write_trace_csv(out_dir / "trace.csv", traces)
    for eps, verdict in report.criteria[0].per_vector[0].per_epsilon:
        print(f"  eps={eps:g}: {verdict.status.value} ({verdict.mode.value})")
    print(f"verdict: {report.overall.value}")
    print(f"wrote {out_dir / 'report.json'} and {out_dir / 'trace.csv'}")
    return _verdict_exit(report.overall)


def cmd_suite(args) -> int:
    cfg, seq, V, ideal, out_dir, traces = _prepare(args)
    report = equivalence_suite(seq, V, ideal, cfg.eps_grid, cfg.horizon, traces=traces)
    volume = self_projection_volume_check(seq, V, ideal, cfg.eps_grid, cfg.horizon, traces)
    doc = report_to_dict(report, "suite", volume_check=volume)
    write_report(out_dir / "suite_report.json", doc)
    write_trace_csv(out_dir / "trace.csv", traces)
    names = [c.name for c in report.criteria]
    width = max(len(n) for n in names)
    for crit in report.criteria:
        print(f"  {crit.name:<{width}}  {crit.overall.value}")
    matrix = report.agreement_matrix()
    print("agreement matrix (rows/cols in criterion order):")
    for row in matrix:
        print("  " + " ".join("=" if cell else "x" for cell in row))
    print(
        f"volume check: {volume.volume.overall.value} "
        f"(implication holds: {volume.implication_holds}, "
        f"converse falsified: {volume.converse_falsified})"
    )
    agree = report.criteria_agree()
    print(f"criteria agree: {agree}")
    print(f"wrote {out_dir / 'suite_report.json'} and {out_dir / 'trace.csv'}")
    return EXIT_CONVERGES if agree else EXIT_DOES_NOT_CONVERGE


def _load_matrix(path: str) -> np.ndarray:
    try:  # decoded here, not by the locale; a leading BOM is dropped, as json does for configs
        lines = Path(path).read_bytes().decode("utf-8-sig").splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"basis file {path} is not UTF-8 text: {exc}") from None
    with warnings.catch_warnings():
        # an empty file is reported below, by name, instead of by numpy's warning
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            matrix = np.loadtxt(lines, ndmin=2)
        except ValueError:
            matrix = np.loadtxt(lines, ndmin=2, delimiter=",")
    if matrix.size == 0:
        raise ValueError(f"basis file {path} holds no vectors")
    if not np.all(np.isfinite(matrix)):
        raise ValueError(f"basis file {path} has non-finite entries")
    return matrix


def cmd_gap(args) -> int:
    mu = _load_matrix(args.basis_u)
    mv = _load_matrix(args.basis_v)
    if mu.shape != mv.shape:
        raise ValueError(
            f"basis files must have matching shapes, got {mu.shape} and {mv.shape}"
        )
    U = orthonormalize(mu)
    V = orthonormalize(mv)
    print(f"{linalg.gap(U, V):.12g}")
    return EXIT_CONVERGES


def cmd_example(args) -> int:
    if args.name is None:
        for name, entry in sorted(BUILTIN_SEQUENCES.items()):
            print(f"{name}")
            print(f"    {entry['summary']}")
        return EXIT_CONVERGES
    entry = _builtin(args.name)
    print(f"{args.name}: {entry['summary']}")
    if args.emit_config:
        path = Path(args.emit_config)
        write_report(path, _builtin_config(args.name))
        print(f"wrote {path}")
    return EXIT_CONVERGES


# --------------------------------------------------------------------------
# Parser and entry point


class _Parser(argparse.ArgumentParser):
    # exit code 2 is reserved for inconclusive verdicts; usage errors use 3
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_experiment_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "builtin",
        nargs="?",
        help=f"built-in sequence name ({', '.join(sorted(BUILTIN_SEQUENCES))})",
    )
    sub.add_argument(
        "--config", help="JSON experiment config file; of the flags below, takes only --out-dir"
    )
    sub.add_argument(
        "--variant",
        choices=list(dict.fromkeys(v for e in BUILTIN_SEQUENCES.values() for v in e["variants"])),
        help="variant for built-ins that take one (default: the built-in's first)",
    )
    sub.add_argument(
        "--ideal",
        choices=list(IDEALS),
        help="ideal to judge exceptional sets against (default: the built-in's choice)",
    )
    sub.add_argument("--tau", type=float, help="density threshold (density ideal only)")
    sub.add_argument("--horizon", type=int, help="indices to evaluate (default: the built-in's)")
    sub.add_argument("--eps", help="comma-separated, strictly decreasing epsilon grid")
    sub.add_argument("--out-dir", help="directory for report and trace files")


@functools.cache  # one parser per process, built by the first main() call, not at import
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="subspace-limits",
        description="Subspace gap computations and ideal-based convergence analysis.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_analyze = sub.add_parser(
        "analyze", help="run one experiment and report the convergence verdict"
    )
    _add_experiment_flags(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_suite = sub.add_parser(
        "suite", help="run all five equivalence criteria plus the volume check"
    )
    _add_experiment_flags(p_suite)
    p_suite.set_defaults(func=cmd_suite)

    p_gap = sub.add_parser("gap", help="gap between the row spans of two matrix files")
    p_gap.add_argument("basis_u", help="file with one spanning vector per row")
    p_gap.add_argument("basis_v", help="file with one spanning vector per row")
    p_gap.set_defaults(func=cmd_gap)

    p_example = sub.add_parser("example", help="describe built-in sequences")
    p_example.add_argument("name", nargs="?", help="built-in sequence name")
    p_example.add_argument(
        "--emit-config", metavar="FILE", help="write a ready-to-run config for NAME"
    )
    p_example.set_defaults(func=cmd_example)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except RuleEvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except RankDeficiencyError as exc:
        print(f"error: rank-deficient input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

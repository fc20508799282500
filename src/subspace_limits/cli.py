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
import numbers
import operator
import random
import sys
import warnings
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import _g17, linalg
from .convergence import (
    DEFAULT_EPS_GRID,
    PARITY_VARIANTS,
    ConvergenceReport,
    CriterionReport,
    CriterionTraces,
    RuleEvaluationError,
    ScalarLimitReport,
    SubspaceSequence,
    Verdict,
    VolumeCheckReport,
    _validate_eps_grid,
    constant_orthogonal_example,
    criterion_traces,
    equivalence_suite,
    parity_split_example,
    self_projection_volume_check,
    subspace_i_converges,
)
from .ideals import IDEALS
from .linalg import RankDeficiencyError, Subspace, orthonormalize

EXIT_CONVERGES = 0
EXIT_DOES_NOT_CONVERGE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_RUNTIME = 4

TRACE_HEADER = "n,gap,crit2_max_i,crit3_min_i,crit4_min_i,crit5_max_i"
REPORT_SCHEMA = "subspace-limits/report-v1"


class ConfigError(ValueError):
    """A config document failed validation; names the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field '{field}': {message}")


def _object(value, field: str, known, required=()) -> None:
    """Check a config object: a dict with only ``known`` keys and every ``required`` one."""
    if not isinstance(value, dict):
        raise ConfigError(field, "must be an object")
    prefix = f"{field}." if field else ""
    unknown = sorted(set(value) - set(known))
    if unknown:
        raise ConfigError(prefix + unknown[0], "is not a recognized key")
    for key in required:
        if key not in value:
            raise ConfigError(prefix + key, "is required")


def _kind(value, field: str, kinds: dict):
    """The ``kinds`` entry a config object's "kind" names, checked before its other keys."""
    if not isinstance(value, dict):
        raise ConfigError(field, "must be an object")
    kind = value.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        got = f", got {kind!r}" if "kind" in value else ""
        raise ConfigError(f"{field}.kind", f"must be one of {list(kinds)}{got}")
    return kinds[kind]


def _number(value, field: str, integer: bool = False):
    """A config value as a float, or as an int if ``integer``; a bool is neither."""
    kind, what = (numbers.Integral, "an integer") if integer else (numbers.Real, "a real number")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(field, f"expected {what}, got {value!r}")
    return int(value) if integer else float(value)


# --------------------------------------------------------------------------
# Built-in sequences and parametric families

# One row per built-in: its builder, the variants the builder takes (the first
# is the default), the default ideal kind and horizon, and a summary.
BUILTIN_SEQUENCES = {
    "parity-split": {
        "builder": parity_split_example,
        "variants": PARITY_VARIANTS,
        "ideal": "blocks",
        "horizon": 10000,
        "summary": (
            "line in R^3: orthogonal to the limit on odd n, tilted toward it "
            "on even n; converges under the block ideal (amended variant) but "
            "not statistically and not in the usual sense"
        ),
    },
    "orthogonal-constant": {
        "builder": constant_orthogonal_example,
        "variants": (),
        "ideal": "density",
        "horizon": 1000,
        "summary": (
            "constant line span{e1} in R^2 against V = span{e2}: gap is "
            "identically 1, the self-projection volumes are identically 0; "
            "witnesses the one-way direction of the volume check"
        ),
    },
}


def _builtin(name) -> dict:
    """The BUILTIN_SEQUENCES entry for a name, or a ConfigError."""
    entry = BUILTIN_SEQUENCES.get(name) if isinstance(name, str) else None
    if entry is None:
        raise ConfigError(
            "sequence.builtin",
            f"unknown name {name!r}; choose from {sorted(BUILTIN_SEQUENCES)}",
        )
    return entry


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


_PROFILE_KEYS = {
    "constant": ("kind", "value"),
    "power_decay": ("kind", "scale", "exponent"),
    "parity": ("kind", "odd_value", "even_scale", "even_exponent"),
}


def _sine_profile(profile: dict, k: int):
    """Compile a profile spec into a function ns (m,) -> per-vector sines (m, k)."""
    field = "sequence.params.profile"
    _object(profile, field, _kind(profile, field, _PROFILE_KEYS))

    def per_vector(value, name) -> np.ndarray:
        values = value if isinstance(value, list) else [value]
        arr = np.array([_number(v, f"{field}.{name}") for v in values])
        arr = np.repeat(arr, k) if arr.size == 1 else arr
        if arr.size != k:
            raise ConfigError(f"{field}.{name}", f"expected a scalar or {k} values")
        if not np.all((arr >= 0) & (arr <= 1)):
            raise ConfigError(f"{field}.{name}", "sine magnitudes must lie in [0, 1]")
        return arr

    def decay(scale, exponent):
        a = per_vector(profile.get(scale, 1.0), scale)
        p = _number(profile.get(exponent, 1.0), f"{field}.{exponent}")
        if not p > 0:
            raise ConfigError(f"{field}.{exponent}", "must be positive")
        # n ** p in Python floats: numpy's array power can differ in the last ulp
        return lambda ns: np.minimum(1.0, a / np.array([n**p for n in ns.tolist()])[:, None])

    if profile["kind"] == "constant":
        g = per_vector(profile.get("value", 0.0), "value")
        return lambda ns: np.broadcast_to(g, (len(ns), k))
    if profile["kind"] == "power_decay":
        return decay("scale", "exponent")
    g = per_vector(profile.get("odd_value", 1.0), "odd_value")  # parity
    even = decay("even_scale", "even_exponent")
    return lambda ns: np.where((ns % 2 == 1)[:, None], g, even(ns))


def rotating_family(
    ambient_dim: int,
    k: int,
    profile: dict,
    seed: int = 0,
    limit_basis: Optional[np.ndarray] = None,
):
    """Sequences rotating each limit direction toward a fixed companion.

    A deterministic orthonormal frame is drawn from ``seed``: its first k
    rows span the candidate limit unless ``limit_basis`` overrides them, and
    the next k are the companion directions. Only these 2k rows are drawn and
    orthonormalized. Their entries are ``2u - 1``, uniform in [-1, 1), with
    u read row by row from the standard library's ``random.Random(seed)``,
    whose stream Python keeps across versions: a seed names the same frame
    under any NumPy version, though not the one it named when NumPy's normal
    generator drew the frame. The rows equal the first 2k rows of a full
    d-row frame, as Gram-Schmidt row i depends only on the rows before it and
    the stream's prefix does not depend on how many rows are drawn. ``seed``
    is an integer (``operator.index``); a float seed is a TypeError.
    Basis vector i of U_n is cos(theta) v_i + sin(theta) w_i where w_i is
    the i-th companion direction and sin(theta) = profile(n)[i], so the
    gap to the limit is exactly max_i profile(n)[i]. Profiles:

    * ``{"kind": "constant", "value": g}``
    * ``{"kind": "power_decay", "scale": a, "exponent": p}``  (a / n^p)
    * ``{"kind": "parity", "odd_value": g, "even_scale": a,
      "even_exponent": p}``

    Values are real numbers (not bools), or lists of k for ``value``, ``scale``,
    ``odd_value`` and ``even_scale``; anything else is a ConfigError.
    """
    if k < 1:
        raise ConfigError("sequence.params.k", "must be >= 1")
    if ambient_dim < 2 * k:
        raise ConfigError(
            "sequence.params.ambient_dim", f"rotating family needs ambient_dim >= 2k = {2 * k}"
        )
    if seed < 0:
        raise ConfigError("sequence.params.seed", "must be >= 0")
    limit_rows = np.empty((0, ambient_dim))
    if limit_basis is not None:
        limit_rows = np.asarray(limit_basis, dtype=float)
        if limit_rows.shape != (k, ambient_dim):
            raise ConfigError(
                "limit_basis", f"expected {k} rows of length {ambient_dim}"
            )
    rng = random.Random(operator.index(seed))
    rows = 2 * k - len(limit_rows)
    uniforms = np.array([rng.random() for _ in range(rows * ambient_dim)])
    randoms = (2.0 * uniforms - 1.0).reshape(rows, ambient_dim)  # exact: [-1, 1) on a 2^-52 grid
    frame = orthonormalize(np.vstack([limit_rows, randoms])).basis
    V = Subspace(frame[:k])
    companions = frame[k:]
    sines = _sine_profile(profile, k)

    def batch_rule(ns: np.ndarray) -> np.ndarray:
        s = sines(ns)[..., None]
        return np.sqrt(1.0 - s * s) * V.basis + s * companions

    seq = SubspaceSequence(
        batch_rule=batch_rule,
        description=f"rotating family (k={k}, d={ambient_dim}, seed={seed}, "
        f"profile={profile.get('kind')})",
    )
    return seq, V


# --------------------------------------------------------------------------
# Experiment configuration


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
        keys = {"builtin", "family"} & set(self.sequence)
        if len(keys) != 1:
            raise ConfigError("sequence", "needs exactly one of 'builtin' or 'family'")
        if "builtin" in self.sequence:
            _object(self.sequence, "sequence", ("builtin", "variant"))
            name = self.sequence["builtin"]
            if self.sequence.get("variant") is not None and not _builtin(name)["variants"]:
                raise ConfigError("sequence.variant", f"{name!r} takes no variant")
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
        if not isinstance(self.eps_grid, list):
            raise ConfigError("eps_grid", "must be a list of numbers")
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


def build_experiment(cfg: ExperimentConfig):
    """Materialize (sequence, candidate limit, ideal) from a validated config."""
    params = {key: value for key, value in cfg.ideal.items() if key != "kind"}
    # an ideal has at most one field, so a rejected value is the one named here
    with _config_field(".".join(["ideal", *params])):
        ideal = IDEALS[cfg.ideal["kind"]](**params)
    limit_rows = limit = None
    if cfg.limit_basis is not None:
        try:
            limit_rows = np.asarray(cfg.limit_basis, dtype=float)
        except (TypeError, ValueError):
            raise ConfigError("limit_basis", "must be a numeric matrix (rows)") from None
        if limit_rows.ndim != 2:
            raise ConfigError("limit_basis", "must be a list of basis rows")
        if not np.all(np.isfinite(limit_rows)):
            raise ConfigError("limit_basis", "vector has non-finite coordinates")
        if "builtin" in cfg.sequence:  # the rotating family orthonormalizes them in its frame
            with _config_field("limit_basis"):
                limit = orthonormalize(limit_rows)

    if "builtin" in cfg.sequence:
        builder = _builtin(cfg.sequence["builtin"])["builder"]
        variant = cfg.sequence.get("variant")
        with _config_field("sequence.variant"):
            seq, V = (builder() if variant is None else builder(variant))[:2]
        if limit is not None:
            V = limit
            if V.ambient_dim != seq.ambient_dim or V.k != seq.k:
                raise ConfigError(
                    "limit_basis",
                    f"expected {seq.k} rows of length {seq.ambient_dim}",
                )
    else:
        params = cfg.sequence["params"]
        d = _number(params["ambient_dim"], "sequence.params.ambient_dim", integer=True)
        k = _number(params["k"], "sequence.params.k", integer=True)
        seed = _number(params.get("seed", 0), "sequence.params.seed", integer=True)
        try:
            seq, V = rotating_family(d, k, params["profile"], seed, limit_rows)
        except RankDeficiencyError as exc:
            if exc.index >= k:  # a drawn companion row, not the config's
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
                "evidence": verdict.evidence,
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
        "evidence": report.evidence,
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
        grid = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError("eps_grid", f"could not parse {text!r}") from None
    return grid


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
    volume = self_projection_volume_check(seq, V, ideal, cfg.eps_grid, cfg.horizon, traces, report)
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

"""Convergence of subspace sequences under pluggable ideals on N.

A sequence of k-dimensional subspaces converges to a candidate limit V
under an ideal when, for every eps > 0, the set of indices whose gap to V
is at least eps belongs to the ideal. With the finite ideal this is plain
convergence; with the zero-density ideal it is statistical convergence;
with the block ideal it is a strictly weaker notion that tolerates whole
residue classes of bad indices.

Besides the gap criterion itself, four per-basis-vector criteria are
equivalent to it and are evaluated side by side by
:func:`equivalence_suite`:

* each basis vector's residual ||u_i - P_V(u_i)|| tends to 0,
* each coefficient mass sum_j <u_i, v_j>^2 tends to 1,
* each projection norm ||P_V(u_i)|| tends to 1,
* each joint volume ||u_i, v_1, ..., v_k|| tends to 0.

The three checkers, :func:`subspace_i_converges`, :func:`equivalence_suite`
and :func:`self_projection_volume_check`, are row sets of one judging
path over the criterion table: the certificate is read once per eps, each
column is thresholded once into a trail of nested exceptional sets (one
level per index: how many of the grid's thresholds it meets), and each
distinct trail is judged once per eps, whichever columns share it. They
are the module's only verdict entry points; each takes an eps grid of
finite positive real numbers in strictly decreasing order, and rejects a
string, a bool or any other non-real entry rather than converting it.

All evaluation is deterministic; identical inputs produce identical
reports. Each index is evaluated once per trace pass, in chunks sized
by an element budget, whose bases go through batched kernels.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from . import linalg
from .ideals import (
    CertificateError,
    EmptyTail,
    Ideal,
    IdealVerdict,
    IndexSet,
    Status,
    SubsetOfBlocks,
    SubsetOfUnion,
    TailCertificate,
    _integer,
    certificate_describe,
    decide_membership,
)
from .linalg import Subspace

DEFAULT_EPS_GRID = (0.5, 0.1, 0.01)
DEFAULT_HORIZON = 1000

# Elements per chunk of the (k, d) basis stack: 64 indices at k=8, d=40. A
# chunk costs ~20 numpy calls, so small chunks are bound by call overhead: at
# k=8, d=40, horizon 2000 the pass took 38, 32, 30 and 29 ms at 16, 32, 64 and
# 128 indices (2-vCPU x86_64); 64 kept the CLI's peak RSS, 128 raised it 0.4 MiB.
TRACE_CHUNK_ELEMENTS = 64 * 8 * 40
_SQRT_TINY = math.sqrt(np.finfo(float).tiny)  # a norm below it lost its squares to underflow


class Verdict(enum.Enum):
    CONVERGES = "converges"
    DOES_NOT_CONVERGE = "does_not_converge"
    INCONCLUSIVE = "inconclusive"


class RuleEvaluationError(RuntimeError):
    """A sequence rule failed or returned a malformed subspace."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(f"sequence rule failed at index {index}: {message}")


@dataclass(frozen=True)
class SubspaceSequence:
    """A deterministic rule n -> Subspace with fixed per-n bases.

    Give ``rule`` or ``batch_rule``, not both. ``batch_rule`` maps ns (m,) to bases
    (m, k, d), checked per trace chunk as ``Subspace`` checks one; ``rule`` derives from it.
    ``k`` and ``ambient_dim`` are read off ``rule(1)``; every index must match them.
    ``exceptional_certificate`` optionally maps eps to a tail certificate
    for the set {n : gap(U_n, V) >= eps} against the sequence's intended
    limit, or to None where it has none; it is what makes exact
    convergence verdicts possible. It is read once per eps of a grid.
    """

    rule: Optional[Callable[[int], Subspace]] = None
    exceptional_certificate: Optional[Callable[[float], TailCertificate]] = None
    description: str = ""
    batch_rule: Optional[Callable[[np.ndarray], np.ndarray]] = None
    k: int = field(init=False)
    ambient_dim: int = field(init=False)

    def __post_init__(self):
        derived = isinstance(self.rule, partial) and self.rule.func is _batch_rule_at
        if (self.rule is not None and not derived) == (self.batch_rule is not None):
            raise ValueError("a sequence takes exactly one of rule and batch_rule")
        if self.batch_rule is not None:  # derived anew: replace() copies the old derived rule
            object.__setattr__(self, "rule", partial(_batch_rule_at, self.batch_rule))
        probe = _call_rule(self.rule, 1)
        if not isinstance(probe, Subspace):
            raise ValueError(f"rule(1) returned {probe!r}, expected a Subspace")
        object.__setattr__(self, "k", probe.k)
        object.__setattr__(self, "ambient_dim", probe.ambient_dim)


def _batch_rule_at(batch_rule, n: int) -> Subspace:
    return Subspace(batch_rule(np.array([n]))[0])


def _call_rule(rule, arg, index=None):
    try:
        return rule(arg)
    except RuleEvaluationError:
        raise
    except Exception as exc:
        raise RuleEvaluationError(arg if index is None else index, str(exc)) from exc


def _checked_basis(seq: SubspaceSequence, n: int) -> np.ndarray:
    U = _call_rule(seq.rule, n)
    if isinstance(U, Subspace) and U.basis.shape == (seq.k, seq.ambient_dim):
        return U.basis
    raise RuleEvaluationError(n, f"rule returned {U!r}, expected k={seq.k}, d={seq.ambient_dim}")


def gap_trace(seq: SubspaceSequence, V: Subspace, horizon: int) -> list[tuple[int, float]]:
    """The per-index gap to V: [(n, gap(U_n, V)) for n = 1..horizon].

    Kept public under this name because ``bench/spans.py`` wraps it by name.
    """
    return list(enumerate(criterion_traces(seq, V, horizon).gap.tolist(), start=1))


def _levels(values: np.ndarray, thresholds: Sequence[float]) -> np.ndarray:
    """The exceptional sets of ``values`` at non-increasing thresholds, as one trail.

    Returns each index's level: level[n - 1] is how many thresholds
    values[n - 1] meets, in the smallest unsigned type that holds their
    count. The set at thresholds[i] is the n whose level is >=
    len(thresholds) - i. NaN meets no threshold.
    """
    level = np.zeros(values.size, dtype=np.min_scalar_type(len(thresholds)))
    for t in thresholds:
        level += values >= t
    return level


def _level_set(level: np.ndarray, least: int) -> IndexSet:
    """The set of n whose level[n - 1] is at least ``least``."""
    members = np.flatnonzero(level >= least)  # sorted, distinct, in [0, size)
    members += 1
    return IndexSet._sorted(level.size, members)


# --------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class ScalarLimitReport:
    candidate: float
    per_epsilon: tuple[tuple[float, IdealVerdict], ...]
    overall: Verdict


@dataclass(frozen=True)
class CriterionReport:
    """Verdicts for one convergence criterion, conjoined over basis vectors.

    ``thresholds[i]`` is the bound on |value - candidate| that stands for
    the i-th eps of the grid in this criterion's exceptional sets.
    """

    name: str
    candidate: float
    per_vector: tuple[ScalarLimitReport, ...]
    overall: Verdict
    thresholds: tuple[float, ...]


@dataclass(frozen=True)
class ConvergenceReport:
    ideal: Ideal
    horizon: int
    eps_grid: tuple[float, ...]
    criteria: tuple[CriterionReport, ...]
    overall: Verdict
    evidence: dict = field(default_factory=dict)

    def overall_by_criterion(self) -> dict[str, Verdict]:
        return {c.name: c.overall for c in self.criteria}

    def agreement_matrix(self) -> list[list[bool]]:
        v = [c.overall for c in self.criteria]
        return [[a == b for b in v] for a in v]

    def criteria_agree(self) -> bool:
        """All criteria that reached a verdict reached the same one."""
        decided = {c.overall for c in self.criteria if c.overall is not Verdict.INCONCLUSIVE}
        return len(decided) <= 1


# One eps whose exceptional set is outside the ideal already disproves
# convergence; every eps inside it establishes convergence.
_VERDICT_OF_STATUS = {
    Status.IN_IDEAL: Verdict.CONVERGES,
    Status.NOT_IN_IDEAL: Verdict.DOES_NOT_CONVERGE,
    Status.INCONCLUSIVE: Verdict.INCONCLUSIVE,
}


def _conjoin(verdicts: Sequence[Verdict]) -> Verdict:
    if any(v is Verdict.DOES_NOT_CONVERGE for v in verdicts):
        return Verdict.DOES_NOT_CONVERGE
    if verdicts and all(v is Verdict.CONVERGES for v in verdicts):
        return Verdict.CONVERGES
    return Verdict.INCONCLUSIVE


def _validate_eps_grid(eps_grid: Sequence[float]) -> tuple[float, ...]:
    # float() would read the grid "21" as (2.0, 1.0), "0.5" as 0.5 and True as 1.0
    entries = () if isinstance(eps_grid, (str, bytes)) else tuple(eps_grid)
    if not entries or any(isinstance(e, bool) or not isinstance(e, numbers.Real) for e in entries):
        raise ValueError(f"eps grid must be a non-empty sequence of real numbers, got {eps_grid!r}")
    grid = tuple(float(e) for e in entries)
    if not all(0 < e < math.inf for e in grid):
        raise ValueError(f"eps grid must be finite and strictly positive, got {grid}")
    if any(a <= b for a, b in zip(grid, grid[1:])):
        raise ValueError(f"eps grid must be strictly decreasing, got {grid}")
    return grid


def _certificates(certificate, grid: tuple[float, ...]) -> tuple:
    """The certificate at each eps of the grid, read once; None where there is none."""
    if certificate is None:
        return (None,) * len(grid)
    certs = []
    for eps in grid:
        try:
            cert = certificate(eps)
            if cert is not None:
                certificate_describe(cert)  # a TypeError outside the certificate grammar
        except Exception as exc:
            raise CertificateError(f"certificate function failed at eps={eps!r}: {exc}") from exc
        certs.append(cert)
    return tuple(certs)


def _limit_from_values(
    values: np.ndarray,
    candidate: float,
    ideal: Ideal,
    eps_grid: tuple[float, ...],
    thresholds: tuple[float, ...],
    certs: tuple[Optional[TailCertificate], ...],
    decided: dict,
) -> ScalarLimitReport:
    """Per-eps verdicts on {n : |values[n-1] - candidate| >= threshold}.

    ``decided`` maps each trail already decided under these ideal and
    certificates to its verdicts; a column with an equal trail reuses them.
    """
    # |values - 0| is the column itself unless an entry is negative or NaN (not >= 0)
    if candidate != 0 or not values.min() >= 0:
        values = np.subtract(values, candidate)
        np.abs(values, out=values)
    level = _levels(values, thresholds)
    # the columns of one call share their length, so the levels alone are the trail
    key = level.tobytes()
    verdicts = decided.get(key)
    if verdicts is None:
        top = len(thresholds)
        verdicts = decided[key] = tuple(
            decide_membership(ideal, _level_set(level, top - i), cert)
            for i, cert in enumerate(certs)
        )
    overall = _conjoin([_VERDICT_OF_STATUS[v.status] for v in verdicts])
    return ScalarLimitReport(float(candidate), tuple(zip(eps_grid, verdicts)), overall)


# --------------------------------------------------------------------------
# Per-index criterion traces


@dataclass(frozen=True)
class CriterionTraces:
    """Raw per-index values feeding all five criteria plus the volume check.

    Row n-1 of each array corresponds to index n; the columns of the
    two-dimensional arrays follow the basis vectors of U_n. The two volumes
    are derived from the residual: for an orthonormal basis of V the Gram
    determinants factorise, so ||u_i, v_1, ..., v_k|| = ||u_i - P_V(u_i)||
    and ||u_i, P_V(u_i)|| = ||P_V(u_i)|| ||u_i - P_V(u_i)||.
    """

    horizon: int
    k: int
    gap: np.ndarray               # (horizon,)
    residual: np.ndarray          # (horizon, k): ||u_i - P_V(u_i)||
    coefficient_mass: np.ndarray  # (horizon, k): sum_j <u_i, v_j>^2
    projection_norm: np.ndarray   # (horizon, k): ||P_V(u_i)||

    @property
    def joint_volume(self) -> np.ndarray:
        """(horizon, k): ||u_i, v_1, ..., v_k||."""
        return self.residual

    @property
    def self_volume(self) -> np.ndarray:
        """(horizon, k): ||u_i, P_V(u_i)||."""
        return self.projection_norm * self.residual


def criterion_traces(seq: SubspaceSequence, V: Subspace, horizon: int) -> CriterionTraces:
    """Evaluate every criterion's raw values for n = 1..horizon in one pass."""
    horizon = _integer(horizon, "horizon")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if V.ambient_dim != seq.ambient_dim or V.k != seq.k:
        raise linalg.DimensionMismatchError(
            f"candidate limit has k={V.k}, d={V.ambient_dim}; "
            f"sequence has k={seq.k}, d={seq.ambient_dim}"
        )
    k, d = seq.k, seq.ambient_dim
    B = V.basis
    # a sequence given per index is stacked per chunk, then checked like any other
    rule = seq.batch_rule or (lambda ns: [_checked_basis(seq, n) for n in ns.tolist()])
    gap = np.empty(horizon)
    residual, coefficient_mass, projection_norm = (np.empty((horizon, k)) for _ in range(3))
    chunk = min(horizon, max(1, TRACE_CHUNK_ELEMENTS // (k * d)))
    for lo in range(0, horizon, chunk):
        ns = np.arange(lo + 1, min(lo + chunk, horizon) + 1)
        A = _call_rule(lambda ns: np.ascontiguousarray(rule(ns), dtype=float), ns, lo + 1)
        if A.shape != (len(ns), k, d):
            raise RuleEvaluationError(
                lo + 1, f"batch rule returned shape {A.shape}, expected {(len(ns), k, d)}"
            )
        bad = linalg.first_non_orthonormal(A)
        if bad is not None:
            raise RuleEvaluationError(lo + 1 + bad[0], bad[1])
        rows = slice(lo, lo + len(ns))
        # each (m, k, d) array is dropped once read and none outlives its chunk,
        # which at k=8, d=40 cuts the pass's temporaries from ~1.0 to ~0.5 MiB
        C, P, R = linalg.cross_residual(A, B)
        del A
        coefficient_mass[rows] = np.einsum("nij,nij->ni", C, C)
        projection_norm[rows] = np.linalg.norm(P, axis=-1)
        del P
        gap[rows] = linalg.residual_gap(R)
        r = residual[rows]
        r[:] = np.linalg.norm(R, axis=-1)
        if (small := r < _SQRT_TINY).any():  # squares underflowed: rescale as residual_gap does
            s = np.abs(R[small]).max(axis=-1, keepdims=True)
            r[small] = s[:, 0] * np.linalg.norm(R[small] / np.where(s > 0, s, 1.0), axis=-1)
        del R
    return CriterionTraces(horizon, k, gap, residual, coefficient_mass, projection_norm)


# --------------------------------------------------------------------------
# Convergence checkers


# Coefficient masses and projection norms are compared with 1, and their
# distance from 1 carries a few units of round-off (at most 7e-16 measured
# for k <= 50, d <= 400). A threshold below this floor would count that
# noise, so these two criteria resolve residuals down to ~6e-8.
_NEAR_ONE_FLOOR = 16 * np.finfo(float).eps


def _mass_threshold(eps: float) -> float:
    return max(eps * eps, _NEAR_ONE_FLOOR)


def _projection_threshold(eps: float) -> float:
    if eps >= 1.0:
        return eps
    # 1 - sqrt(1 - eps^2), written without the cancellation at small eps
    return max(eps * eps / (1.0 + math.sqrt(1.0 - eps * eps)), _NEAR_ONE_FLOOR)


def _eps_threshold(eps: float) -> float:
    return eps


# The five equivalent criteria: name, CriterionTraces column, candidate, and
# the map from eps to the threshold on |value - candidate|. For a basis
# vector with residual r, |mass - 1| = r^2, 1 - ||P_V(u)|| = 1 - sqrt(1 - r^2)
# and the joint volume is r, so every per-vector exceptional set equals the
# residual's at the same eps, up to round-off. The joint volume is the
# residual column itself, so the suite judges it once for both rows.
_CRITERIA = (
    ("gap", "gap", 0.0, _eps_threshold),
    ("vector_residual", "residual", 0.0, _eps_threshold),
    ("coefficient_mass", "coefficient_mass", 1.0, _mass_threshold),
    ("projection_norm", "projection_norm", 1.0, _projection_threshold),
    ("joint_volume", "residual", 0.0, _eps_threshold),
)
_SELF_VOLUME = ("self_projection_volume", "self_volume", 0.0, _eps_threshold)


def _judge(rows, seq, V, ideal, eps_grid, horizon, traces) -> ConvergenceReport:
    """Table rows judged on the traces, the one path behind every checker.

    Each row is judged on every column of its trace and conjoined. Rows that
    share a column, candidate and threshold share one report, renamed per row,
    and columns whose exceptional sets agree at every eps share one trail's
    verdicts: a verdict depends only on the set, the ideal and the
    certificate, and the last two are fixed for the call.
    """
    grid = _validate_eps_grid(eps_grid)
    horizon = _integer(horizon, "horizon")
    if traces is None:
        traces = criterion_traces(seq, V, horizon)
    # the labels alone would let arrays of another length or k be judged
    shapes = [a.shape for a in (traces.gap, traces.residual, traces.coefficient_mass,
                                traces.projection_norm)]
    expected = [(horizon,)] + [(horizon, seq.k)] * 3
    if (traces.horizon, traces.k, shapes) != (horizon, seq.k, expected):
        raise ValueError(
            f"precomputed traces have horizon {traces.horizon}, k={traces.k} and column "
            f"shapes {shapes}; expected horizon {horizon} with k={seq.k}"
        )
    # Each basis vector of U_n is a unit vector of U_n, so its residual is
    # at most the gap, and every criterion's exceptional set at eps is the
    # residual's; a certificate for the gap's exceptional sets therefore
    # covers the exceptional sets of every criterion at the same eps.
    certs = _certificates(seq.exceptional_certificate, grid)
    judged: dict[tuple, CriterionReport] = {}
    decided: dict[bytes, tuple[IdealVerdict, ...]] = {}
    for name, column, candidate, threshold in rows:
        if (column, candidate, threshold) in judged:
            continue
        thresholds = tuple(threshold(eps) for eps in grid)
        reps = tuple(
            _limit_from_values(values, candidate, ideal, grid, thresholds, certs, decided)
            for values in getattr(traces, column).reshape(horizon, -1).T
        )
        overall = _conjoin([r.overall for r in reps])
        judged[column, candidate, threshold] = CriterionReport(
            name, candidate, reps, overall, thresholds
        )
    criteria = tuple(replace(judged[row[1:]], name=row[0]) for row in rows)
    evidence = {
        "sequence": seq.description,
        "gap_max": float(traces.gap.max()),
        "gap_final": float(traces.gap[-1]),
    }
    return ConvergenceReport(ideal, horizon, grid, criteria, criteria[0].overall, evidence)


def subspace_i_converges(
    seq: SubspaceSequence,
    V: Subspace,
    ideal: Ideal,
    eps_grid: Sequence[float] = DEFAULT_EPS_GRID,
    horizon: int = DEFAULT_HORIZON,
    traces: Optional[CriterionTraces] = None,
) -> ConvergenceReport:
    """Decide convergence of the sequence to V under the ideal (gap criterion).

    Pass precomputed ``traces`` to reuse their gap column instead of
    evaluating the sequence again.
    """
    return _judge(_CRITERIA[:1], seq, V, ideal, eps_grid, horizon, traces)


def equivalence_suite(
    seq: SubspaceSequence,
    V: Subspace,
    ideal: Ideal,
    eps_grid: Sequence[float] = DEFAULT_EPS_GRID,
    horizon: int = DEFAULT_HORIZON,
    traces: Optional[CriterionTraces] = None,
) -> ConvergenceReport:
    """Evaluate all five equivalent convergence criteria side by side.

    Criteria two to five are judged per basis vector and conjoined; each
    maps eps to the threshold that makes its exceptional sets the vector
    residual's (see ``CriterionReport.thresholds``). Pass precomputed
    ``traces`` to amortize evaluation across several ideals.
    """
    return _judge(_CRITERIA, seq, V, ideal, eps_grid, horizon, traces)


@dataclass(frozen=True)
class VolumeCheckReport:
    """One-way check: convergence forces the self-projection volumes to 0.

    ``volume`` reports whether ||u_i, P_V(u_i)|| tends to 0 for every i.
    That is necessary for convergence but not sufficient (the volumes also
    vanish when the projections collapse to zero), so only the forward
    implication is asserted; ``converse_falsified`` flags inputs that
    witness the failure of the reverse direction.
    """

    volume: CriterionReport
    subspace_overall: Verdict
    implication_holds: bool
    converse_falsified: bool


def self_projection_volume_check(
    seq: SubspaceSequence,
    V: Subspace,
    ideal: Ideal,
    eps_grid: Sequence[float] = DEFAULT_EPS_GRID,
    horizon: int = DEFAULT_HORIZON,
    traces: Optional[CriterionTraces] = None,
    report: Optional[ConvergenceReport] = None,
) -> VolumeCheckReport:
    """Evaluate the necessary-condition trace ||u_i, P_V(u_i)|| -> 0.

    Pass the ``report`` of ``equivalence_suite`` or ``subspace_i_converges``
    for the same ideal, eps grid and horizon to reuse its gap verdicts.
    """
    mine = (ideal, _validate_eps_grid(eps_grid), horizon)
    if report is not None and (theirs := (report.ideal, report.eps_grid, report.horizon)) != mine:
        raise ValueError(f"report judged (ideal, eps grid, horizon) {theirs}, not {mine}")
    rows = ((_CRITERIA[0],) if report is None else ()) + (_SELF_VOLUME,)
    judged = _judge(rows, seq, V, ideal, eps_grid, horizon, traces)
    volume = judged.criteria[-1]
    subspace_overall = (judged if report is None else report).overall
    implication_holds = not (
        subspace_overall is Verdict.CONVERGES and volume.overall is not Verdict.CONVERGES
    )
    converse_falsified = (
        volume.overall is Verdict.CONVERGES
        and subspace_overall is Verdict.DOES_NOT_CONVERGE
    )
    return VolumeCheckReport(volume, subspace_overall, implication_holds, converse_falsified)


# --------------------------------------------------------------------------
# Built-in sequences

# parity_split_example's variants; the first is its default
PARITY_VARIANTS = ("amended", "printed")


def parity_split_example(variant: str = "amended"):
    """Line sequence in R^3 whose behavior depends on the parity of n.

    On odd n the line is span{e3}, orthogonal to the candidate limit
    V = span{e2}, so the gap is 1 there. On even n the line is the
    normalization of a tilt away from e2:

    * ``amended``: raw coefficients (sin(n)/n, 1, 0); after normalizing,
      the gap to V is |sin n| / sqrt(n^2 + sin^2 n) <= 1/n, which decays.
    * ``printed``: raw coefficients (sin(n)/n, 1/n, 0); the common 1/n
      factor cancels under normalization, leaving direction
      (sin n, 1, 0) / sqrt(1 + sin^2 n) whose gap to V oscillates with
      |sin n| and never decays.

    The amended variant carries an exceptional-set certificate: for each
    eps the bad indices lie in the odd block union a finite prefix, which
    puts them inside the block ideal but leaves them of density 1/2. The
    printed variant gets no certificate because its even-index gaps do
    not decay. Returns (sequence, candidate limit, recommended ideal).
    """
    if variant not in PARITY_VARIANTS:
        raise ValueError(f"variant must be one of {PARITY_VARIANTS}, got {variant!r}")
    V = Subspace(np.array([[0.0, 1.0, 0.0]]))

    def batch_rule(ns: np.ndarray) -> np.ndarray:
        raw = np.zeros((len(ns), 1, 3))
        even = ns % 2 == 0  # the odd rows are span{e3}, set below
        raw[even, 0, 0] = [math.sin(n) / n for n in ns[even].tolist()]  # libm's sin, as per index
        raw[:, 0, 1] = 1.0 if variant == "amended" else 1.0 / ns
        # a stacked dot matches the 1-d np.linalg.norm bit for bit; norm(axis=-1) does not
        bases = raw / np.sqrt(raw @ raw.swapaxes(1, 2))
        bases[~even] = [[0.0, 0.0, 1.0]]
        return bases

    certificate = None
    if variant == "amended":

        def certificate(eps: float) -> TailCertificate:
            # even-index gaps are below 1/n, so they clear eps past 1/eps
            return SubsetOfUnion(
                (SubsetOfBlocks((1,)), EmptyTail(max(1, math.ceil(1.0 / eps))))
            )

    seq = SubspaceSequence(
        batch_rule=batch_rule,
        exceptional_certificate=certificate,
        description=f"parity-split line in R^3 ({variant} variant)",
    )
    return seq, V, Ideal.blocks()


def constant_orthogonal_example():
    """The constant line span{e1} in R^2 against the limit V = span{e2}.

    The gap to V is identically 1, so the sequence converges under no
    admissible ideal; yet every self-projection volume ||u, P_V(u)|| is
    identically 0 because the projection itself vanishes. This is the
    standard witness that the volume check is one-directional. Returns
    (sequence, candidate limit).
    """
    V = Subspace(np.array([[0.0, 1.0]]))
    seq = SubspaceSequence(
        batch_rule=lambda ns: np.broadcast_to([[1.0, 0.0]], (len(ns), 1, 2)),
        description="constant line span{e1} in R^2",
    )
    return seq, V

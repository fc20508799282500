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
path over the criterion table: the certificate is read once per eps. The
read-only traces keep each column's trails of nested exceptional sets (one
level per index: how many of the grid's thresholds it meets) at the last
grid it was judged at, whatever the ideal. Columns with equal levels share
one trail, which keeps its verdicts under the last ideal and certificates.
The checkers are the module's only verdict entry points; each takes an eps grid of
finite positive real numbers in strictly decreasing order, and rejects a
string, a bool or any other non-real entry rather than converting it.

All evaluation is deterministic; identical inputs produce identical
reports. Each index is evaluated once per trace pass, in element-budget
chunks whose ``SubspaceSequence.frames`` go through batched kernels.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from . import linalg
from .ideals import (
    CertificateError,
    Ideal,
    IdealVerdict,
    IndexSet,
    Status,
    _FrozenEvidence,
    _integer,
    certificate_describe,
    decide_membership,
)
from .linalg import Subspace
from .sequences import SubspaceSequence, parity_split_example  # the latter for bench/workloads.py

DEFAULT_EPS_GRID = (0.5, 0.1, 0.01)
DEFAULT_HORIZON = 1000

# Elements per chunk of the (k, d) basis stack: 64 indices at k=8, d=40. Measured
# on the bases' path, where small chunks are bound by call overhead: at k=8, d=40,
# horizon 2000 the pass took 38, 32, 30 and 29 ms at 16, 32, 64 and 128 indices
# (2-vCPU x86_64); 64 kept the CLI's peak RSS, 128 raised it 0.4 MiB. Closed-form
# frames take chunks of the same indices, as k x k arrays.
TRACE_CHUNK_ELEMENTS = 64 * 8 * 40
_SQRT_TINY = math.sqrt(np.finfo(float).tiny)  # a norm below it lost its squares to underflow


class Verdict(enum.Enum):
    CONVERGES = "converges"
    DOES_NOT_CONVERGE = "does_not_converge"
    INCONCLUSIVE = "inconclusive"


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
class ConvergenceReport(_FrozenEvidence):
    ideal: Ideal
    horizon: int
    eps_grid: tuple[float, ...]
    criteria: tuple[CriterionReport, ...]
    overall: Verdict
    evidence: Mapping = field(default_factory=dict)

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
    try:
        entries = () if isinstance(eps_grid, (str, bytes)) else tuple(eps_grid)
    except TypeError:  # not iterable: 0.5 or None
        entries = ()
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


class _Trail:
    """The sets {n : |values[n-1] - candidate| >= t} at each threshold, as levels (see
    ``_levels``), and the verdicts of the last ideal and certificates they were judged under."""

    __slots__ = ("level", "judged")

    def __init__(self, values: np.ndarray, candidate: float, thresholds: tuple[float, ...]):
        # |values - 0| is the column itself unless an entry is negative or NaN (not >= 0)
        if candidate != 0 or not values.min() >= 0:
            values = np.subtract(values, candidate)
            np.abs(values, out=values)
        self.level, self.judged = _levels(values, thresholds), None

    def verdicts(self, ideal: Ideal, certs: tuple) -> tuple[IdealVerdict, ...]:
        # a verdict depends only on the set, the ideal and the certificate
        if not (self.judged and self.judged[0] == ideal and self.judged[1] == certs):
            top = len(certs)
            self.judged = (ideal, certs, tuple(
                decide_membership(ideal, _level_set(self.level, top - i), cert)
                for i, cert in enumerate(certs)
            ))
        return self.judged[2]


# --------------------------------------------------------------------------
# Per-index criterion traces


@dataclass(frozen=True)
class CriterionTraces:
    """Raw per-index values of ``sequence`` against the candidate limit ``limit``.

    They feed all five criteria plus the volume check, and a checker pairs
    them only with that sequence object, a limit of that basis and their
    horizon; any other pairing raises ValueError. Row n-1 of each array is
    index n; the columns of the two-dimensional arrays follow the basis
    vectors of U_n. The two volumes are derived from the residual: for an
    orthonormal basis of V the Gram determinants factorise, so
    ||u_i, v_1, ..., v_k|| = ||u_i - P_V(u_i)|| and
    ||u_i, P_V(u_i)|| = ||P_V(u_i)|| ||u_i - P_V(u_i)||.

    The columns are read-only, and an array that is not already read-only
    and its own memory is copied, so the traces keep each column's trails at
    the last eps grid it was judged at, for every later checker call.
    """

    sequence: SubspaceSequence
    limit: Subspace
    gap: np.ndarray               # (horizon,)
    residual: np.ndarray          # (horizon, k): ||u_i - P_V(u_i)||
    coefficient_mass: np.ndarray  # (horizon, k): sum_j <u_i, v_j>^2
    projection_norm: np.ndarray   # (horizon, k): ||P_V(u_i)||
    # column -> (the eps grid it was last judged at, its trail per basis vector)
    _judged: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # the trails hold only while no column changes: keep only arrays nothing else can write
        for name in ("gap", "residual", "coefficient_mass", "projection_norm"):
            a = getattr(self, name)
            if not (isinstance(a, np.ndarray) and a.base is None and not a.flags.writeable):
                object.__setattr__(self, name, a := np.array(a))
                a.flags.writeable = False

    @property
    def horizon(self) -> int:
        return len(self.gap)

    @property
    def joint_volume(self) -> np.ndarray:
        """(horizon, k): ||u_i, v_1, ..., v_k||."""
        return self.residual

    @property
    def self_volume(self) -> np.ndarray:
        """(horizon, k): ||u_i, P_V(u_i)||."""
        return self.projection_norm * self.residual

    def _trails(self, column: str, candidate: float, grid: tuple, thresholds: tuple) -> tuple:
        """Each basis vector's trail of the column, made once per grid; equal levels share one."""
        slot = self._judged.get(column)
        if slot is None or slot[0] != grid:
            known = {t.level.tobytes(): t for _, ts in self._judged.values() for t in ts}
            trails = (_Trail(v, candidate, thresholds)
                      for v in getattr(self, column).reshape(self.horizon, -1).T)
            slot = (grid, tuple(known.setdefault(t.level.tobytes(), t) for t in trails))
            self._judged[column] = slot
        return slot[1]


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
    gap = np.empty(horizon)
    residual, coefficient_mass, projection_norm = (np.empty((horizon, seq.k)) for _ in range(3))
    chunk = min(horizon, max(1, TRACE_CHUNK_ELEMENTS // (seq.k * seq.ambient_dim)))
    for lo in range(0, horizon, chunk):
        ns = np.arange(lo + 1, min(lo + chunk, horizon) + 1)
        rows = slice(lo, lo + len(ns))
        C, T = seq.frames(ns, V)  # |P_V(u_i)| = |C_i| and |u_i - P_V(u_i)| = |T_i|
        coefficient_mass[rows] = np.einsum("nij,nij->ni", C, C)
        projection_norm[rows] = np.linalg.norm(C, axis=-1)
        gap[rows] = linalg.residual_gap(T)
        r = residual[rows]
        r[:] = np.linalg.norm(T, axis=-1)
        if (small := r < _SQRT_TINY).any():  # squares underflowed: rescale as residual_gap does
            s = np.abs(T[small]).max(axis=-1, keepdims=True)
            r[small] = s[:, 0] * np.linalg.norm(T[small] / np.where(s > 0, s, 1.0), axis=-1)
        del C, T  # no chunk's (m, k, d) residual lives on into the next chunk
    for column in (gap, residual, coefficient_mass, projection_norm):
        column.flags.writeable = False
    return CriterionTraces(seq, V, gap, residual, coefficient_mass, projection_norm)


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


# Four of the five equivalent criteria: name, CriterionTraces column,
# candidate, and the map from eps to the threshold on |value - candidate|.
# For a basis vector with residual r, |mass - 1| = r^2 and 1 - ||P_V(u)|| =
# 1 - sqrt(1 - r^2), so every per-vector exceptional set equals the
# residual's at the same eps, up to round-off. The fifth, the joint volume,
# is the residual column itself; the suite reports it under its own name.
_CRITERIA = (
    ("gap", "gap", 0.0, _eps_threshold),
    ("vector_residual", "residual", 0.0, _eps_threshold),
    ("coefficient_mass", "coefficient_mass", 1.0, _mass_threshold),
    ("projection_norm", "projection_norm", 1.0, _projection_threshold),
)
_SELF_VOLUME = ("self_projection_volume", "self_volume", 0.0, _eps_threshold)


def _criterion(traces, row, grid, ideal, certs) -> CriterionReport:
    """One table row judged on the trail of each basis vector's column, conjoined."""
    name, column, candidate, threshold = row
    thresholds = tuple(threshold(eps) for eps in grid)
    reps = []
    for trail in traces._trails(column, candidate, grid, thresholds):
        verdicts = trail.verdicts(ideal, certs)
        overall = _conjoin([_VERDICT_OF_STATUS[v.status] for v in verdicts])
        reps.append(ScalarLimitReport(float(candidate), tuple(zip(grid, verdicts)), overall))
    return CriterionReport(name, candidate, tuple(reps), _conjoin([r.overall for r in reps]),
                           thresholds)


def _judge(rows, seq, V, ideal, eps_grid, horizon, traces) -> ConvergenceReport:
    """Table rows judged on the traces, the one path behind every checker.

    Each row is judged on every column of its trace and conjoined. The traces
    keep each column's trails at the grid it was last judged at, and each trail
    keeps its last verdicts, so no call thresholds a column again at that grid,
    nor decides a trail again under an equal ideal and equal certificates.
    """
    grid = _validate_eps_grid(eps_grid)
    horizon = _integer(horizon, "horizon")
    if traces is None:
        traces = criterion_traces(seq, V, horizon)
    shapes = [a.shape for a in (traces.gap, traces.residual, traces.coefficient_mass,
                                traces.projection_norm)]
    if not (traces.sequence is seq and np.array_equal(traces.limit.basis, V.basis)
            and shapes == [(horizon,)] + [(horizon, seq.k)] * 3):
        raise ValueError(
            f"precomputed traces of {traces.sequence.description!r} (column shapes {shapes}) "
            f"do not pair with {seq.description!r}, this limit and horizon {horizon}, k={seq.k}"
        )
    # Each basis vector of U_n is a unit vector of U_n, so its residual is
    # at most the gap, and every criterion's exceptional set at eps is the
    # residual's; a certificate for the gap's exceptional sets therefore
    # covers the exceptional sets of every criterion at the same eps.
    certs = _certificates(seq.exceptional_certificate, grid)
    criteria = [_criterion(traces, row, grid, ideal, certs) for row in rows]
    evidence = {
        "sequence": seq.description,
        "gap_max": float(traces.gap.max()),
        "gap_final": float(traces.gap[-1]),
    }
    return ConvergenceReport(ideal, horizon, grid, tuple(criteria), criteria[0].overall, evidence)


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
    report = _judge(_CRITERIA, seq, V, ideal, eps_grid, horizon, traces)
    joint_volume = replace(report.criteria[1], name="joint_volume")  # the residual column
    return replace(report, criteria=report.criteria + (joint_volume,))


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
) -> VolumeCheckReport:
    """Evaluate the necessary-condition trace ||u_i, P_V(u_i)|| -> 0.

    On ``traces`` that a checker last judged under an equal ideal and equal
    certificates, the gap verdicts are that call's, not decided again.
    """
    judged = _judge((_CRITERIA[0], _SELF_VOLUME), seq, V, ideal, eps_grid, horizon, traces)
    volume, subspace_overall = judged.criteria[-1], judged.overall
    implication_holds = not (
        subspace_overall is Verdict.CONVERGES and volume.overall is not Verdict.CONVERGES
    )
    converse_falsified = (
        volume.overall is Verdict.CONVERGES
        and subspace_overall is Verdict.DOES_NOT_CONVERGE
    )
    return VolumeCheckReport(volume, subspace_overall, implication_holds, converse_falsified)

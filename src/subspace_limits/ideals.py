"""Ideals on the natural numbers with finite-horizon membership verdicts.

Three ideal families are supported, one class each, which owns the
family's parameters, the tail certificates that settle membership and the
empirical rules; :data:`IDEALS` maps each class's ``kind`` to the class:

* ``finite``, all finite subsets of N;
* ``density``, the subsets of natural density 0;
* ``blocks``, the subsets meeting only finitely many of the dyadic blocks
  D_j = {2^(j-1) * (2s - 1) : s in N}, which partition N by the lowest set
  bit n & -n = 2^(j-1); block membership is tested with masks.

Whether an infinite set belongs to an ideal is undecidable from a finite
enumeration, so :func:`decide_membership` returns a tri-state verdict and
marks it *exact* or *empirical*. Exact verdicts require a tail
certificate, a symbolic description of everything the set could contain
beyond the enumerated horizon; empirical verdicts extrapolate from the
enumerated prefix using stabilization windows and dyadic density
checkpoints, and should be read as "what the data suggests".
"""

from __future__ import annotations

import abc
import enum
import itertools
import numbers
from dataclasses import asdict, dataclass, field
from types import MappingProxyType
from typing import ClassVar, Mapping, Optional, Sequence, Union

import numpy as np

DEFAULT_TAU = 0.01             # density threshold separating small from large
STABILIZATION_FRACTION = 0.2   # trailing window free of new members (or new block indices)
DYADIC_CHECKPOINTS = 5         # partial densities at horizon / 2^i, i = 0..4


class CertificateError(ValueError):
    """A tail certificate contradicts the enumerated members, or a
    sequence's certificate function raised or returned a non-certificate.
    """


def _integer(x, what: str) -> int:
    """``x`` as an int; a bool or a non-integer is a ValueError, never truncated."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return int(x)


def block_index(n: int) -> int:
    """Index j of the dyadic block containing n.

    n belongs to block j exactly when its lowest set bit n & -n, the
    largest power of two dividing n, is 2^(j-1).
    """
    n = _integer(n, "n")
    if n < 1:
        raise ValueError(f"naturals start at 1, got {n}")
    return (n & -n).bit_length()


@dataclass(frozen=True)
class IndexSet:
    """A finite-horizon enumeration of a subset of N.

    ``members`` holds every element of the underlying set that is <= the
    horizon, sorted and deduplicated. Nothing is known about the set
    beyond the horizon unless a tail certificate says otherwise.
    """

    horizon: int
    members: np.ndarray

    def __post_init__(self):
        horizon = _integer(self.horizon, "horizon")
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        object.__setattr__(self, "horizon", horizon)
        if isinstance(self.members, np.ndarray):
            if self.members.size and self.members.dtype.kind not in "iu":
                raise ValueError(f"members must be integers, got dtype {self.members.dtype}")
        else:  # entry by entry: a bool or a float among ints would pass as an int
            for x in np.array(self.members, dtype=object).flat:
                _integer(x, "member")
        m = np.unique(np.asarray(self.members, dtype=np.int64))
        if m.size and (m[0] < 1 or m[-1] > self.horizon):
            raise ValueError(
                f"members must lie in [1, {self.horizon}], got range "
                f"[{m[0]}, {m[-1]}]"
            )
        m.setflags(write=False)
        object.__setattr__(self, "members", m)

    @classmethod
    def _sorted(cls, horizon: int, members: np.ndarray) -> "IndexSet":
        """The set of int64 ``members`` that are already sorted, distinct and
        in [1, horizon], held as a read-only view: no copy and no checks."""
        self = object.__new__(cls)
        m = members.view()
        m.setflags(write=False)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "members", m)
        return self

    def __len__(self) -> int:
        return int(self.members.size)

    def last(self) -> int:
        """Largest member, or 0 for the empty set."""
        return int(self.members[-1]) if len(self) else 0

    def union(self, other: "IndexSet") -> "IndexSet":
        if self.horizon != other.horizon:
            raise ValueError("union requires a shared horizon")
        return IndexSet(self.horizon, np.concatenate([self.members, other.members]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IndexSet)
            and self.horizon == other.horizon
            and np.array_equal(self.members, other.members)
        )


# --------------------------------------------------------------------------
# Tail certificates


@dataclass(frozen=True)
class EmptyTail:
    """The set has no elements beyond ``bound``."""

    bound: int

    def __post_init__(self):
        bound = _integer(self.bound, "bound")
        if bound < 0:
            raise ValueError("bound must be >= 0")
        object.__setattr__(self, "bound", bound)


@dataclass(frozen=True)
class SubsetOfBlocks:
    """The set is contained in the union of the listed dyadic blocks."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        blocks = tuple(sorted(set(_integer(b, "block index") for b in self.blocks)))
        if not blocks or blocks[0] < 1:
            raise ValueError("need at least one block index, all >= 1")
        object.__setattr__(self, "blocks", blocks)


@dataclass(frozen=True)
class SubsetOfUnion:
    """The set is covered by the union of the component certificates' sets."""

    parts: tuple["TailCertificate", ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValueError("need at least one component certificate")
        for part in parts:
            if not isinstance(part, (EmptyTail, SubsetOfBlocks, SubsetOfUnion)):
                raise TypeError(f"not a tail certificate: {part!r}")
        object.__setattr__(self, "parts", parts)


TailCertificate = Union[EmptyTail, SubsetOfBlocks, SubsetOfUnion]


def certificate_covers(cert: TailCertificate, members: np.ndarray) -> np.ndarray:
    """Mask of the members that lie in the superset the certificate describes."""
    if isinstance(cert, EmptyTail):
        return members <= cert.bound
    if isinstance(cert, SubsetOfBlocks):
        mask = sum(1 << (j - 1) for j in cert.blocks if j <= 63)  # no int64 > 0 is past 63
        return (members & -members & mask) != 0
    if isinstance(cert, SubsetOfUnion):
        covered = certificate_covers(cert.parts[0], members)  # a fresh mask, ORed in place
        for part in cert.parts[1:]:
            covered |= certificate_covers(part, members)
        return covered
    raise TypeError(f"not a tail certificate: {cert!r}")


def certificate_describe(cert: TailCertificate) -> str:
    if isinstance(cert, EmptyTail):
        return f"empty beyond {cert.bound}"
    if isinstance(cert, SubsetOfBlocks):
        return f"subset of blocks {list(cert.blocks)}"
    if isinstance(cert, SubsetOfUnion):
        return " | ".join(certificate_describe(p) for p in cert.parts)
    raise TypeError(f"not a tail certificate: {cert!r}")


def validate_certificate(cert: TailCertificate, index_set: IndexSet) -> None:
    """Raise :class:`CertificateError` if any enumerated member escapes it."""
    escaped = index_set.members[~certificate_covers(cert, index_set.members)]
    if escaped.size:
        raise CertificateError(
            f"member {int(escaped[0])} is outside the certified superset "
            f"({certificate_describe(cert)})"
        )


# --------------------------------------------------------------------------
# Verdicts


class Status(enum.Enum):
    IN_IDEAL = "in_ideal"
    NOT_IN_IDEAL = "not_in_ideal"
    INCONCLUSIVE = "inconclusive"


class Mode(enum.Enum):
    EXACT = "exact"
    EMPIRICAL = "empirical"


class _FrozenEvidence:
    def __post_init__(self):  # a read-only copy, lists as tuples: one verdict sits in many reports
        object.__setattr__(self, "evidence", MappingProxyType(
            {k: tuple(v) if isinstance(v, list) else v for k, v in self.evidence.items()}))

    def __reduce__(self):  # a mappingproxy does not pickle: rebuild via __init__, in field order
        return type(self), tuple({**vars(self), "evidence": dict(self.evidence)}.values())


@dataclass(frozen=True)
class IdealVerdict(_FrozenEvidence):
    status: Status
    mode: Mode
    evidence: Mapping = field(default_factory=dict)


# --------------------------------------------------------------------------
# Densities and dyadic windows


def _dyadic_checkpoints(horizon: int) -> list[int]:
    """horizon // 2^i for i = DYADIC_CHECKPOINTS - 1 down to 0, increasing."""
    return [horizon // 2**i for i in range(DYADIC_CHECKPOINTS - 1, -1, -1)]


def _in_every_window(values, horizon: int) -> bool:
    """Whether sorted naturals meet every window (lo, hi] cut at 0 and the dyadic checkpoints."""
    counts = np.searchsorted(values, [0, *_dyadic_checkpoints(horizon)], side="right").tolist()
    return all(lo < hi for lo, hi in zip(counts, counts[1:]))


def _block_first_occurrences(P: IndexSet) -> list[int]:
    """Member values at which a previously unseen block index appears."""
    m = P.members
    seen = np.negative(m)  # one array: each lowest set bit m & -m, then their running OR
    seen &= m
    np.bitwise_or.accumulate(seen, out=seen)  # a new block adds a bit
    new = np.empty(m.size, dtype=bool)
    new[:1] = True  # the first member's block is always new
    np.not_equal(seen[1:], seen[:-1], out=new[1:])
    return m[new].tolist()


# --------------------------------------------------------------------------
# Ideals


class Ideal(abc.ABC):
    """An ideal on N: one frozen subclass ``Ideal.<kind>`` per family; fields are its parameters."""

    kind: ClassVar[str]

    def describe(self) -> dict:
        return {"kind": self.kind, **asdict(self)}

    def settles(self, cert: TailCertificate) -> bool:
        """Whether the certified superset, and so every set inside it, is in the ideal.

        A union settles when each part does. By default only a finite superset,
        one that names no block, settles: every admissible ideal holds it.
        """
        if isinstance(cert, SubsetOfUnion):
            return all(self.settles(p) for p in cert.parts)
        return isinstance(cert, EmptyTail)

    @abc.abstractmethod
    def empirical(self, P: IndexSet, evidence: dict) -> IdealVerdict:
        """The verdict the enumerated prefix suggests, with ``evidence`` extended."""


@dataclass(frozen=True)
class FiniteIdeal(Ideal):
    """All finite subsets of N; I-convergence under it is plain convergence.

    Empirically, InIdeal needs the trailing ``STABILIZATION_FRACTION`` of the
    horizon free of members, NotInIdeal members in every dyadic window.
    """

    kind: ClassVar[str] = "finite"

    def empirical(self, P: IndexSet, evidence: dict) -> IdealVerdict:
        window = max(1, int(STABILIZATION_FRACTION * P.horizon))
        last = P.last()
        evidence = {**evidence, "last_member": last, "window": window}
        if last <= P.horizon - window:
            return IdealVerdict(Status.IN_IDEAL, Mode.EMPIRICAL, evidence)
        if _in_every_window(P.members, P.horizon):
            evidence["note"] = "members keep appearing at every dyadic checkpoint"
            return IdealVerdict(Status.NOT_IN_IDEAL, Mode.EMPIRICAL, evidence)
        return IdealVerdict(Status.INCONCLUSIVE, Mode.EMPIRICAL, evidence)


@dataclass(frozen=True)
class DensityIdeal(Ideal):
    """Subsets of density zero; I-convergence under it is statistical convergence.

    Only a finite certified superset settles membership: a block D_j has
    density 2^-j > 0. Empirically, InIdeal needs a final partial density of
    at most ``tau`` and a non-increasing trail of them at the dyadic
    checkpoints (horizon >= 16), NotInIdeal at least 2 ``tau`` at each.
    """

    kind: ClassVar[str] = "density"
    tau: float = DEFAULT_TAU

    def __post_init__(self):
        if not isinstance(self.tau, numbers.Real) or not 0.0 < self.tau < 0.5:
            raise ValueError(f"tau must be a number in (0, 0.5), got {self.tau!r}")

    def empirical(self, P: IndexSet, evidence: dict) -> IdealVerdict:
        if P.horizon < 16:
            evidence = {**evidence, "note": "horizon too small for a density trend"}
            return IdealVerdict(Status.INCONCLUSIVE, Mode.EMPIRICAL, evidence)
        js = _dyadic_checkpoints(P.horizon)
        counts = np.searchsorted(P.members, js, side="right").tolist()
        trail = [(j, count / j) for j, count in zip(js, counts)]
        final = trail[-1][1]
        evidence = {**evidence, "final_density": final, "checkpoints": trail, "tau": self.tau}
        # 1/j slack absorbs the quantization of a single member
        non_increasing = all(d2 <= d1 + 1.0 / j1 for (j1, d1), (_, d2) in zip(trail, trail[1:]))
        if final <= self.tau and non_increasing:
            return IdealVerdict(Status.IN_IDEAL, Mode.EMPIRICAL, evidence)
        # a direction test on consecutive checkpoints is too brittle here: a
        # dense set plus a small prefix drifts slightly downward while its
        # density clearly stays put, so "persistently large" is judged by
        # the level at every dyadic scale instead
        if all(d >= 2.0 * self.tau for _, d in trail):
            evidence["note"] = "density at least 2*tau at every dyadic checkpoint"
            return IdealVerdict(Status.NOT_IN_IDEAL, Mode.EMPIRICAL, evidence)
        return IdealVerdict(Status.INCONCLUSIVE, Mode.EMPIRICAL, evidence)


@dataclass(frozen=True)
class BlockIdeal(Ideal):
    """Subsets of N meeting only finitely many dyadic blocks.

    Every certificate settles membership, since each names finitely many
    blocks plus a finite set. Empirically, NotInIdeal needs a new block index
    in every dyadic window, InIdeal none in the trailing ``STABILIZATION_FRACTION``.
    """

    kind: ClassVar[str] = "blocks"

    def settles(self, cert: TailCertificate) -> bool:
        return True

    def empirical(self, P: IndexSet, evidence: dict) -> IdealVerdict:
        window = max(1, int(STABILIZATION_FRACTION * P.horizon))
        events = _block_first_occurrences(P)
        last_new = events[-1] if events else 0
        evidence = {
            **evidence,
            "distinct_blocks": len(events),
            "last_new_block_at": last_new,
            "window": window,
        }
        # Novelty comes first: block j cannot appear before index 2^(j-1), so a
        # set meeting ever more blocks produces first occurrences on an
        # exponential schedule and may still look quiet near the horizon. A new
        # block inside every dyadic window is that signature and overrides the
        # trailing-window stabilization test.
        if _in_every_window(events, P.horizon):
            evidence["note"] = "new block indices keep appearing at every dyadic checkpoint"
            return IdealVerdict(Status.NOT_IN_IDEAL, Mode.EMPIRICAL, evidence)
        if last_new <= P.horizon - window:
            return IdealVerdict(Status.IN_IDEAL, Mode.EMPIRICAL, evidence)
        return IdealVerdict(Status.INCONCLUSIVE, Mode.EMPIRICAL, evidence)


IDEALS = {cls.kind: cls for cls in (FiniteIdeal, DensityIdeal, BlockIdeal)}
for kind, cls in IDEALS.items():  # Ideal.density(0.2) is DensityIdeal(0.2)
    setattr(Ideal, kind, cls)


# --------------------------------------------------------------------------
# Membership decisions


def decide_membership(
    ideal: Ideal, P: IndexSet, certificate: Optional[TailCertificate] = None
) -> IdealVerdict:
    """Tri-state membership verdict for P in the given ideal.

    A certificate the ideal settles yields an exact InIdeal; one it does not
    settle falls back to the ideal's empirical rules (InIdeal once P stops
    growing, NotInIdeal while it keeps growing, else Inconclusive); one the
    data contradicts raises :class:`CertificateError`.
    """
    evidence: dict = {"horizon": P.horizon, "member_count": len(P)}
    if certificate is not None:
        validate_certificate(certificate, P)
        if ideal.settles(certificate):
            evidence["certificate"] = certificate_describe(certificate)
            return IdealVerdict(Status.IN_IDEAL, Mode.EXACT, evidence)
        evidence["certificate_note"] = (
            f"certificate ({certificate_describe(certificate)}) is consistent "
            f"but does not settle membership in the {ideal.kind} ideal"
        )
    return ideal.empirical(P, evidence)


# --------------------------------------------------------------------------
# Axiom verification


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class AxiomsReport:
    checks: tuple[AxiomCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def axioms_check(
    ideal: Ideal,
    family: Sequence[tuple[IndexSet, Optional[TailCertificate]]],
) -> AxiomsReport:
    """Verify the ideal axioms on a finite certified family.

    Checks, on the family's shared horizon: the empty set is a member;
    InIdeal verdicts are closed under pairwise union (certificates merge
    into a union certificate) and under taking subsets (which inherit the
    superset's certificate); every singleton is a member (admissibility);
    and the full horizon set without a certificate is never exactly
    InIdeal (non-triviality proxy). A failed check's detail lists its
    failing cases as ``label -> status``.
    """
    if not family:
        raise ValueError("need at least one family member")
    horizon = family[0][0].horizon
    if any(p.horizon != horizon for p, _ in family):
        raise ValueError("family members must share a horizon")

    in_ideal = [
        (p, c) for p, c in family
        if decide_membership(ideal, p, c).status is Status.IN_IDEAL
    ]
    singles = sorted({1, 2, 3, max(1, horizon // 2), horizon})
    # each axiom: its name, the labelled (set, certificate) cases that must all
    # come out InIdeal, and the detail reported when they do
    table = [
        ("empty_set", [("empty set", IndexSet(horizon, []), EmptyTail(0))], "status=in_ideal"),
        ("union_closure", [
            (f"pair ({i},{j})", pa.union(pb),
             SubsetOfUnion((ca, cb)) if ca is not None and cb is not None else None)
            for (i, (pa, ca)), (j, (pb, cb)) in itertools.combinations(enumerate(in_ideal), 2)
        ], f"{len(in_ideal)} members, all pairwise unions InIdeal"),
        ("subset_closure", [
            (f"member {i} {label}", IndexSet(horizon, sub), c)
            for i, (p, c) in enumerate(in_ideal)
            for label, sub in (("first_half", p.members[: len(p) // 2]),
                               ("alternate", p.members[::2]))
        ], "prefix and alternate subsets stay InIdeal"),
        ("admissibility", [
            (f"singleton {z}", IndexSet(horizon, [z]), EmptyTail(z)) for z in singles
        ], f"singletons {singles} all InIdeal"),
    ]
    checks = []
    for name, cases, success in table:
        statuses = [(label, decide_membership(ideal, P, c).status) for label, P, c in cases]
        failed = [f"{label} -> {st.value}" for label, st in statuses if st is not Status.IN_IDEAL]
        checks.append(AxiomCheck(name, not failed, "; ".join(failed) or success))

    # non_triviality asks the opposite: the full set must not be an exact InIdeal
    vf = decide_membership(ideal, IndexSet(horizon, np.arange(1, horizon + 1)), None)
    exact_full = vf.status is Status.IN_IDEAL and vf.mode is Mode.EXACT
    detail = f"full horizon set -> {vf.status.value} ({vf.mode.value})"
    return AxiomsReport((*checks, AxiomCheck("non_triviality", not exact_full, detail)))

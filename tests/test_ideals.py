"""Tests for ideals, certificates and membership verdicts."""

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subspace_limits import (
    IDEALS,
    CertificateError,
    EmptyTail,
    Ideal,
    IdealVerdict,
    IndexSet,
    Mode,
    Status,
    SubsetOfBlocks,
    SubsetOfUnion,
    axioms_check,
    block_index,
    decide_membership,
)
from subspace_limits.ideals import (
    _block_first_occurrences,
    _dyadic_checkpoints,
    _in_every_window,
    certificate_covers,
)


def dyadic_block(j, horizon):
    """Enumerate D_j = {2^(j-1) * (2s - 1)} up to the horizon."""
    step = 2 ** (j - 1)
    return IndexSet(horizon, np.arange(step, horizon + 1, 2 * step))


def odds(horizon):
    return IndexSet(horizon, np.arange(1, horizon + 1, 2))


def evens(horizon):
    return IndexSet(horizon, np.arange(2, horizon + 1, 2))


# ---------------------------------------------------------------------------
# block structure


def test_block_index_basics():
    assert block_index(1) == 1
    assert block_index(12) == 3  # 12 = 4 * 3
    for j in range(1, 20):
        assert block_index(2 ** (j - 1)) == j


def test_block_index_rejects_zero():
    with pytest.raises(ValueError):
        block_index(0)


def test_block_index_takes_numpy_integers():
    for n in (np.int64(12), np.uint8(12), np.int32(12)):
        assert block_index(n) == 3 and type(block_index(n)) is int


@pytest.mark.parametrize("n", [2.0, 2.5, True, np.True_, np.float64(4), "4"], ids=repr)
def test_block_index_rejects_non_integers(n):
    with pytest.raises(ValueError, match="n must be an integer"):
        block_index(n)


def test_blocks_partition_naturals():
    # every n <= 10^6 lands in exactly the block its 2-adic valuation names
    n = np.arange(1, 1_000_001, dtype=np.int64)
    j = np.log2(n & -n).astype(np.int64) + 1
    quotient = n >> (j - 1)  # dividing out 2^(j-1) must leave an odd number
    assert np.all(quotient % 2 == 1)
    # enumerated blocks are pairwise disjoint and jointly cover a prefix
    horizon = 512
    seen = np.zeros(horizon + 1, dtype=int)
    for blk in range(1, 11):
        for m in dyadic_block(blk, horizon).members:
            seen[m] += 1
    assert np.all(seen[1:] == 1)


def test_block_index_matches_enumeration():
    for j in range(1, 8):
        for m in dyadic_block(j, 300).members:
            assert block_index(int(m)) == j


def _covers_by_loop(cert, members):
    """Reference for certificate_covers: one block_index call per member."""
    if isinstance(cert, EmptyTail):
        return [m <= cert.bound for m in members]
    if isinstance(cert, SubsetOfBlocks):
        return [block_index(m) in cert.blocks for m in members]
    return [any(hit) for hit in zip(*(_covers_by_loop(p, members) for p in cert.parts))]


MEMBERS = st.lists(
    st.one_of(
        st.integers(1, 300),
        st.integers(1, 2**62),
        st.integers(0, 62).map(lambda e: 2**e),  # the smallest member of each block
        st.integers(0, 61).map(lambda e: 2**62 - 2**e),
    ),
    max_size=40,
)
# no int64 member lies in block 64 or beyond; naming those blocks must not overflow
BLOCKS = st.sets(st.one_of(st.integers(1, 70), st.sampled_from([63, 64, 10**6])), min_size=1)
CERTIFICATES = st.recursive(
    st.one_of(
        BLOCKS.map(lambda b: SubsetOfBlocks(tuple(b))),
        st.integers(0, 2**62).map(EmptyTail),
    ),
    lambda parts: st.lists(parts, min_size=1, max_size=3).map(
        lambda p: SubsetOfUnion(tuple(p))
    ),
    max_leaves=6,
)


@settings(max_examples=400, deadline=None)
@given(members=MEMBERS, cert=CERTIFICATES)
@example(members=[], cert=SubsetOfBlocks((63, 64, 10**6)))
@example(
    members=[1, 2**61, 2**62, 2**62 - 1],
    cert=SubsetOfUnion((SubsetOfBlocks((63,)), SubsetOfUnion((SubsetOfBlocks((64, 10**6)),)))),
)
def test_block_masks_match_the_block_index_loop(members, cert):
    P = IndexSet(2**62, members)
    m = P.members.tolist()
    assert certificate_covers(cert, P.members).tolist() == _covers_by_loop(cert, m)
    seen, want = set(), []
    for n in m:
        if block_index(n) not in seen:
            seen.add(block_index(n))
            want.append(n)
    assert _block_first_occurrences(P) == want


def test_block_first_occurrences_match_loop():
    rng = np.random.default_rng(41)
    for _ in range(50):
        P = IndexSet(2000, rng.choice(np.arange(1, 2001), size=int(rng.integers(0, 60))))
        seen, want = set(), []
        for m in P.members:
            if block_index(int(m)) not in seen:
                seen.add(block_index(int(m)))
                want.append(int(m))
        assert _block_first_occurrences(P) == want


def _windows(horizon):
    """Reference list of the windows (lo, hi] cut at 0 and the dyadic checkpoints."""
    js = _dyadic_checkpoints(horizon)
    return list(zip([0] + js, js))


@settings(max_examples=300, deadline=None)
@given(
    horizon=st.integers(1, 300),
    stride=st.integers(1, 40),
    start=st.integers(1, 40),
    extra=st.sets(st.integers(1, 300), max_size=20),
)
def test_in_every_window_matches_the_window_loops(horizon, stride, start, extra):
    members = set(range(start, horizon + 1, stride)) | {e for e in extra if e <= horizon}
    P = IndexSet(horizon, sorted(members))
    # the finite ideal's rule: members in every window
    want = all(any(lo < m <= hi for m in P.members) for lo, hi in _windows(horizon))
    assert _in_every_window(P.members, horizon) == want
    # the block ideal's rule: a first occurrence of a block in every window
    events = _block_first_occurrences(P)
    want = bool(events) and all(
        any(lo < e <= hi for e in events) for lo, hi in _windows(horizon)
    )
    assert _in_every_window(events, horizon) == want


def _in_every_window_by_diff(values, horizon):
    """The window rule's earlier np.diff form, kept as a reference."""
    counts = np.searchsorted(values, [0, *_dyadic_checkpoints(horizon)], side="right")
    return bool(np.all(np.diff(counts) > 0))


def _block_first_occurrences_by_diff(P):
    """The novelty rule's earlier np.diff form, kept as a reference."""
    seen = np.bitwise_or.accumulate(P.members & -P.members)
    return P.members[np.diff(seen, prepend=0) != 0].tolist()


def assert_rules_match_their_diff_forms(horizon, members):
    P = IndexSet(horizon, members)
    assert _in_every_window(members, horizon) == _in_every_window_by_diff(members, horizon)
    assert _in_every_window(P.members, horizon) == _in_every_window_by_diff(P.members, horizon)
    events = _block_first_occurrences(P)
    assert events == _block_first_occurrences_by_diff(P)
    assert _in_every_window(events, horizon) == _in_every_window_by_diff(events, horizon)


NEAR_2_62 = [2**62 - 3, 2**62 - 1, 2**62, 2**62 + 1, 2**62 + 6]


@pytest.mark.parametrize("horizon, members", [
    (1, []),
    (1, [1]),
    (16, []),
    (16, [16]),
    (16, [1]),
    (16, _dyadic_checkpoints(16)),
    (16, list(range(1, 17))),
    (1000, _dyadic_checkpoints(1000)),
    (1000, [1, *_dyadic_checkpoints(1000)]),
    (2**62 + 6, []),
    (2**62 + 6, NEAR_2_62),
    (2**62 + 6, [1, 2**61, *NEAR_2_62]),
    (2**62 + 6, sorted({1, *_dyadic_checkpoints(2**62 + 6)})),
])
def test_window_and_novelty_rules_match_their_diff_forms_cases(horizon, members):
    assert_rules_match_their_diff_forms(horizon, members)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_window_and_novelty_rules_match_their_diff_forms(data):
    horizon = data.draw(st.one_of(
        st.integers(1, 300), st.just(16), st.integers(2**62 - 2**20, 2**62 + 2**20)
    ))
    member = st.one_of(
        st.integers(1, horizon),
        st.sampled_from([j for j in _dyadic_checkpoints(horizon) if j >= 1]),
        st.integers(max(1, horizon - 40), horizon),
    )
    members = sorted(data.draw(st.sets(member, max_size=30)))
    assert_rules_match_their_diff_forms(horizon, members)


# ---------------------------------------------------------------------------
# IndexSet


def test_index_set_normalizes_members():
    s = IndexSet(10, [3, 1, 3, 7])
    assert list(s.members) == [1, 3, 7]
    assert len(s) == 3
    assert 3 in s.members and 2 not in s.members


def test_index_set_keeps_sorted_members_as_a_private_copy():
    members = np.array([2, 5, 9])
    s = IndexSet(10, members)
    members[0] = 4  # the caller's array stays writable and detached
    assert list(s.members) == [2, 5, 9]
    assert IndexSet(10, np.array([[2, 5], [9, 10]])).members.tolist() == [2, 5, 9, 10]


def test_index_set_rejects_out_of_range():
    with pytest.raises(ValueError):
        IndexSet(10, [0, 1])
    with pytest.raises(ValueError):
        IndexSet(10, [11])


@pytest.mark.parametrize("members", [
    [1.5, 2.7], [2.0], np.array([1.5, 2.7]), np.array([2.0]), [True], [3, True], [3, np.True_],
    np.array([True, False]), [[2, 5], [9.5]], ["3"], [3, None],
], ids=repr)
def test_index_set_rejects_non_integer_members(members):
    with pytest.raises(ValueError, match="integer"):
        IndexSet(10, members)


@pytest.mark.parametrize("horizon", [10.5, 10.0, True, np.float64(10)])
def test_index_set_rejects_a_non_integer_horizon(horizon):
    with pytest.raises(ValueError, match="horizon must be an integer"):
        IndexSet(horizon, [1])


@pytest.mark.parametrize("members", [
    [], (), np.array([], dtype=float), np.array([3, 1], dtype=np.uint8),
    np.array([3, 1], dtype=np.int32), [np.int64(3), 1], range(1, 4),
], ids=repr)
def test_index_set_accepts_integer_members(members):
    expected = sorted(set(int(x) for x in members))
    s = IndexSet(np.int64(10), members)
    assert s.members.tolist() == expected and s.members.dtype == np.int64
    assert type(s.horizon) is int and s.horizon == 10


@pytest.mark.parametrize("make", [
    lambda: EmptyTail(1.5), lambda: EmptyTail(2.0), lambda: EmptyTail(True),
    lambda: EmptyTail(np.float64(3)), lambda: EmptyTail("3"),
    lambda: SubsetOfBlocks((1.7,)), lambda: SubsetOfBlocks((1, 2.0)),
    lambda: SubsetOfBlocks((True,)), lambda: SubsetOfBlocks((np.True_,)),
], ids=["bound-1.5", "bound-2.0", "bound-True", "bound-float64", "bound-str", "block-1.7",
        "block-2.0", "block-True", "block-np.True_"])
def test_certificates_reject_non_integers(make):
    with pytest.raises(ValueError, match="must be an integer"):
        make()


def test_certificates_take_numpy_integers_as_ints():
    tail = EmptyTail(np.int64(4))
    assert tail == EmptyTail(4) and type(tail.bound) is int
    blocks = SubsetOfBlocks((np.uint8(3), 1, np.int64(3)))
    assert blocks.blocks == (1, 3) and all(type(b) is int for b in blocks.blocks)


@pytest.mark.parametrize("parts", [
    (1,), (EmptyTail(3), "blocks"), (SubsetOfBlocks((1,)), None), [EmptyTail(3), (2,)],
], ids=repr)
def test_union_certificate_rejects_a_non_certificate_part_when_built(parts):
    with pytest.raises(TypeError, match="not a tail certificate"):
        SubsetOfUnion(parts)


def test_index_set_complement_and_union():
    s = IndexSet(6, [1, 4])
    rest = IndexSet(6, np.setdiff1d(np.arange(1, 7), s.members))  # the complement in {1..6}
    assert list(rest.members) == [2, 3, 5, 6]
    assert list(s.union(rest).members) == [1, 2, 3, 4, 5, 6]
    assert list(s.union(IndexSet(6, [2, 4])).members) == [1, 2, 4]


# ---------------------------------------------------------------------------
# densities


def density_evidence(P):
    """The density ideal's empirical evidence for P: final density and dyadic trail."""
    return decide_membership(Ideal.density(), P).evidence


def test_partial_density_odds():
    # |odds up to j| / j is ceil(j / 2) / j at each dyadic checkpoint
    trail = density_evidence(odds(100))["checkpoints"]
    assert trail == tuple((j, -(-j // 2) / j) for j in (6, 12, 25, 50, 100))


def test_partial_density_block_two():
    # D_2 up to 16 is {2, 6, 10, 14}
    block = dyadic_block(2, 16)
    assert list(block.members) == [2, 6, 10, 14]
    trail = density_evidence(block)["checkpoints"]
    assert trail == ((1, 0.0), (2, 0.5), (4, 0.25), (8, 0.25), (16, 0.25))


def test_density_estimate_odds():
    assert density_evidence(odds(1000))["final_density"] == pytest.approx(0.5, abs=1e-3)


def test_density_estimate_empty():
    evidence = density_evidence(IndexSet(1000, []))
    assert evidence["final_density"] == 0.0
    assert evidence["checkpoints"] == ((62, 0.0), (125, 0.0), (250, 0.0), (500, 0.0), (1000, 0.0))


def test_density_estimate_squares_decreasing():
    squares = IndexSet(10_000, [i * i for i in range(1, 101)])
    evidence = density_evidence(squares)
    assert evidence["final_density"] == pytest.approx(0.01)
    # the trail is the partial density at each dyadic checkpoint
    trail = evidence["checkpoints"]
    assert [j for j, _ in trail] == [625, 1250, 2500, 5000, 10_000]
    assert trail == tuple((j, math.isqrt(j) / j) for j, _ in trail)  # isqrt(j) squares up to j
    densities = [d for _, d in trail]
    assert all(a >= b for a, b in zip(densities, densities[1:]))


def test_density_estimate_needs_room():
    # a dyadic trail needs a horizon of at least 16
    evidence = density_evidence(IndexSet(8, [1]))
    assert "checkpoints" not in evidence and "final_density" not in evidence
    assert decide_membership(Ideal.density(), IndexSet(8, [1])).status is Status.INCONCLUSIVE
    assert len(density_evidence(IndexSet(16, [1]))["checkpoints"]) == 5


# ---------------------------------------------------------------------------
# decide_membership: exact paths


def test_block_one_with_certificate_is_exact():
    verdict = decide_membership(
        Ideal.blocks(), dyadic_block(1, 1000), SubsetOfBlocks((1,))
    )
    assert verdict.status is Status.IN_IDEAL
    assert verdict.mode is Mode.EXACT


def test_empty_set_in_every_ideal():
    for ideal in (Ideal.finite(), Ideal.density(), Ideal.blocks()):
        verdict = decide_membership(ideal, IndexSet(100, []))
        assert verdict.status is Status.IN_IDEAL


def test_finite_ideal_accepts_empty_tail_certificate():
    s = IndexSet(1000, [990, 995, 1000])
    bare = decide_membership(Ideal.finite(), s)
    assert bare.status is Status.INCONCLUSIVE  # members sit at the horizon
    certified = decide_membership(Ideal.finite(), s, EmptyTail(1000))
    assert certified.status is Status.IN_IDEAL
    assert certified.mode is Mode.EXACT


@pytest.mark.parametrize("cert, finite", [
    (EmptyTail(7), True),
    (SubsetOfUnion((EmptyTail(3), EmptyTail(7))), True),
    (SubsetOfUnion((EmptyTail(3), SubsetOfUnion((EmptyTail(7),)))), True),
    (SubsetOfBlocks((1,)), False),
    (SubsetOfUnion((EmptyTail(7), SubsetOfBlocks((5,)))), False),
    (SubsetOfUnion((EmptyTail(3), SubsetOfUnion((EmptyTail(7), SubsetOfBlocks((1,)))))), False),
], ids=repr)
def test_only_finite_certified_supersets_settle_the_smaller_ideals(cert, finite):
    for ideal in IDEALS.values():
        settled = ideal().settles(cert)
        assert settled is (finite or ideal.kind == "blocks"), ideal.kind


def test_density_ideal_ignores_block_certificate():
    # a subset-of-blocks certificate does not prove zero density
    verdict = decide_membership(
        Ideal.density(), dyadic_block(1, 10_000), SubsetOfBlocks((1,))
    )
    assert verdict.mode is Mode.EMPIRICAL
    assert verdict.status is Status.NOT_IN_IDEAL


def test_union_certificate_exact_for_blocks():
    members = np.concatenate([odds(1000).members, [2, 4, 8]])
    cert = SubsetOfUnion((SubsetOfBlocks((1,)), EmptyTail(10)))
    verdict = decide_membership(Ideal.blocks(), IndexSet(1000, members), cert)
    assert verdict.status is Status.IN_IDEAL
    assert verdict.mode is Mode.EXACT


def test_certificate_contradiction_raises():
    with pytest.raises(CertificateError):
        decide_membership(Ideal.blocks(), IndexSet(100, [2]), SubsetOfBlocks((1,)))
    with pytest.raises(CertificateError):
        decide_membership(Ideal.finite(), IndexSet(100, [50]), EmptyTail(10))


def test_certificate_error_names_first_escaping_member():
    cert = SubsetOfUnion((SubsetOfBlocks((1, 3)), EmptyTail(10)))
    members = [1, 2, 3, 4, 12, 40, 41, 44, 48, 64]  # 40 = 8 * 5 and 48 = 16 * 3 escape
    with pytest.raises(CertificateError, match="member 40 is outside"):
        decide_membership(Ideal.blocks(), IndexSet(100, members), cert)


def test_exact_membership_inherited_by_subsets():
    base = dyadic_block(1, 1000)
    cert = SubsetOfBlocks((1,))
    assert decide_membership(Ideal.blocks(), base, cert).status is Status.IN_IDEAL
    sub = IndexSet(1000, base.members[::3])
    verdict = decide_membership(Ideal.blocks(), sub, cert)
    assert verdict.status is Status.IN_IDEAL and verdict.mode is Mode.EXACT


# ---------------------------------------------------------------------------
# decide_membership: empirical paths


def test_density_odds_not_in_ideal():
    verdict = decide_membership(Ideal.density(), odds(10_000))
    assert verdict.status is Status.NOT_IN_IDEAL
    assert verdict.evidence["final_density"] == pytest.approx(0.5)


def test_density_squares_in_ideal_at_large_horizon():
    squares = IndexSet(10_000, [i * i for i in range(1, 101)])
    verdict = decide_membership(Ideal.density(), squares)
    assert verdict.status is Status.IN_IDEAL
    assert verdict.mode is Mode.EMPIRICAL


def test_density_in_ideal_implies_small_final_density():
    rng = np.random.default_rng(41)
    ideal = Ideal.density()
    for _ in range(50):
        horizon = 1000
        count = int(rng.integers(0, horizon // 2))
        members = rng.choice(np.arange(1, horizon + 1), size=count, replace=False)
        P = IndexSet(horizon, members)
        verdict = decide_membership(ideal, P)
        if verdict.status is Status.IN_IDEAL:
            assert len(P) / horizon <= ideal.tau


def test_finite_prefix_in_ideal():
    verdict = decide_membership(Ideal.finite(), IndexSet(1000, [1, 2, 3]))
    assert verdict.status is Status.IN_IDEAL
    assert verdict.mode is Mode.EMPIRICAL


def test_finite_persistent_set_not_in_ideal():
    verdict = decide_membership(Ideal.finite(), odds(1000))
    assert verdict.status is Status.NOT_IN_IDEAL


def test_finite_late_burst_inconclusive():
    verdict = decide_membership(Ideal.finite(), IndexSet(1000, [995, 999]))
    assert verdict.status is Status.INCONCLUSIVE


def test_blocks_single_block_in_ideal_without_certificate():
    verdict = decide_membership(Ideal.blocks(), odds(1000))
    assert verdict.status is Status.IN_IDEAL


def test_blocks_evens_not_in_ideal():
    # the evens meet every block D_j with j >= 2
    verdict = decide_membership(Ideal.blocks(), evens(10_000))
    assert verdict.status is Status.NOT_IN_IDEAL


def test_blocks_full_set_not_in_ideal():
    full = IndexSet(1000, np.arange(1, 1001))
    verdict = decide_membership(Ideal.blocks(), full)
    assert verdict.status is Status.NOT_IN_IDEAL


# ---------------------------------------------------------------------------
# filters


# P is in the filter dual to an ideal exactly when its complement is in the ideal,
# so each test judges the complement in {1..horizon} directly.


def test_filter_cofinite_set():
    tail = IndexSet(1000, np.arange(5, 1001))
    rest = IndexSet(1000, np.setdiff1d(np.arange(1, 1001), tail.members))
    verdict = decide_membership(Ideal.finite(), rest, EmptyTail(4))
    assert verdict.status is Status.IN_IDEAL
    assert verdict.mode is Mode.EXACT


def test_filter_evens_under_block_ideal():
    rest = IndexSet(1000, np.setdiff1d(np.arange(1, 1001), evens(1000).members))
    verdict = decide_membership(Ideal.blocks(), rest, SubsetOfBlocks((1,)))
    assert verdict.status is Status.IN_IDEAL
    assert verdict.mode is Mode.EXACT


def test_filter_empty_set_under_density():
    verdict = decide_membership(Ideal.density(), IndexSet(1000, np.arange(1, 1001)))
    assert verdict.status is Status.NOT_IN_IDEAL  # complement is everything


# ---------------------------------------------------------------------------
# axioms


def certified_family(horizon):
    return [
        (IndexSet(horizon, []), EmptyTail(0)),
        (IndexSet(horizon, [1]), EmptyTail(1)),
        (IndexSet(horizon, [2, 4]), EmptyTail(4)),
        (dyadic_block(1, horizon), SubsetOfBlocks((1,))),
        (dyadic_block(2, horizon), SubsetOfBlocks((2,))),
    ]


def test_each_kind_is_its_class_on_ideal():
    # the lookup the benchmark makes: getattr(Ideal, kind)() builds that kind's ideal
    for kind, cls in IDEALS.items():
        assert getattr(Ideal, kind) is cls


def test_axioms_pass_for_all_kinds():
    horizon = 1000
    for kind, cls in IDEALS.items():
        ideal = cls()
        assert ideal.kind == kind and ideal.describe()["kind"] == kind
        report = axioms_check(ideal, certified_family(horizon))
        assert report.passed, [c for c in report.checks if not c.passed]


AXIOM_SUCCESS_DETAILS = {
    "empty_set": "status=in_ideal",
    "subset_closure": "prefix and alternate subsets stay InIdeal",
    "admissibility": "singletons [1, 2, 3, 500, 1000] all InIdeal",
    "non_triviality": "full horizon set -> not_in_ideal (empirical)",
}


@pytest.mark.parametrize("kind, in_ideal", [("finite", 3), ("density", 3), ("blocks", 5)])
def test_axioms_success_details(kind, in_ideal):
    report = axioms_check(IDEALS[kind](), certified_family(1000))
    expected = {
        **AXIOM_SUCCESS_DETAILS,
        "union_closure": f"{in_ideal} members, all pairwise unions InIdeal",
    }
    assert {c.name: c.detail for c in report.checks} == expected
    assert [c.name for c in report.checks] == [
        "empty_set", "union_closure", "subset_closure", "admissibility", "non_triviality",
    ]


@dataclass(frozen=True)
class RefusingIdeal(Ideal):
    """Holds every set but the ``refused`` member lists and the full horizon,
    every verdict exact, so that any one axiom can be made to fail."""

    kind: ClassVar[str] = "refusing"
    refused: tuple = ()
    holds_full: bool = False

    def settles(self, cert):
        return False

    def empirical(self, P, evidence):
        full = len(P) == P.horizon and not self.holds_full
        refused = full or P.members.tolist() in self.refused
        status = Status.NOT_IN_IDEAL if refused else Status.IN_IDEAL
        return IdealVerdict(status, Mode.EXACT, evidence)


REFUSING_FAMILY = [
    (IndexSet(100, [2, 4]), EmptyTail(4)),
    (IndexSet(100, [6, 8, 10, 12]), EmptyTail(12)),
]


@pytest.mark.parametrize("ideal, failures", [
    (RefusingIdeal(refused=([],)), {"empty_set": "not_in_ideal"}),
    (RefusingIdeal(refused=([2, 4, 6, 8, 10, 12],)),
     {"union_closure": "pair (0,1) -> not_in_ideal"}),
    (RefusingIdeal(refused=([6, 10],)),
     {"subset_closure": "member 1 alternate -> not_in_ideal"}),
    (RefusingIdeal(refused=([3],)), {"admissibility": "singleton 3 -> not_in_ideal"}),
    (RefusingIdeal(holds_full=True),
     {"non_triviality": "full horizon set -> in_ideal (exact)"}),
    (RefusingIdeal(refused=([2],)), {
        "subset_closure": "member 0 first_half -> not_in_ideal; "
                          "member 0 alternate -> not_in_ideal",
        "admissibility": "singleton 2 -> not_in_ideal",
    }),
], ids=["empty_set", "union_closure", "subset_closure", "admissibility", "non_triviality",
        "two-checks"])
def test_axioms_report_each_failing_case(ideal, failures):
    report = axioms_check(ideal, REFUSING_FAMILY)
    assert report.passed is False
    failed = {c.name: c.detail for c in report.checks if not c.passed}
    assert failed.keys() == failures.keys()
    for name, case in failures.items():
        assert case in failed[name]


FOUND_IN_ROADMAP_ITEM_1 = pytest.mark.xfail(
    strict=True,
    reason="empirical rules break union closure; ROADMAP item 1 orders them along inclusions",
)


@FOUND_IN_ROADMAP_ITEM_1
def test_density_union_closure_holds_at_the_tau_boundary():
    # the squares up to 10^4 have final density exactly tau; with {2, 4} added
    # the union reads inconclusive
    horizon = 10_000
    squares = IndexSet(horizon, [i * i for i in range(1, 101)])
    family = [(squares, None), (IndexSet(horizon, [2, 4]), EmptyTail(4))]
    report = axioms_check(Ideal.density(), family)
    union = {c.name: c for c in report.checks}["union_closure"]
    assert union.passed, union.detail


@FOUND_IN_ROADMAP_ITEM_1
def test_blocks_union_closure_holds_for_a_set_and_its_complement():
    # blocks 1-5 (485 indices) and the 15 indices of blocks 6-9 each read
    # in_ideal; their union is all of {1..500}
    horizon = 500
    n = np.arange(1, horizon + 1)
    low = (n & -n) <= 16  # blocks 1..5
    family = [(IndexSet(horizon, n[low]), None), (IndexSet(horizon, n[~low]), None)]
    report = axioms_check(Ideal.blocks(), family)
    union = {c.name: c for c in report.checks}["union_closure"]
    assert union.passed, union.detail


def test_axioms_union_of_blocks():
    horizon = 1000
    a = dyadic_block(1, horizon)
    b = dyadic_block(2, horizon)
    merged = SubsetOfUnion((SubsetOfBlocks((1,)), SubsetOfBlocks((2,))))
    verdict = decide_membership(Ideal.blocks(), a.union(b), merged)
    assert verdict.status is Status.IN_IDEAL and verdict.mode is Mode.EXACT


def test_axioms_family_must_share_horizon():
    with pytest.raises(ValueError):
        axioms_check(
            Ideal.finite(),
            [(IndexSet(100, []), None), (IndexSet(200, []), None)],
        )


def test_ideal_parameter_validation():
    with pytest.raises(ValueError):
        Ideal.density(tau=0.7)
    with pytest.raises(ValueError):
        Ideal.density(tau=0.0)
    # tau is a field of the density ideal alone
    for kind in ("finite", "blocks"):
        with pytest.raises(TypeError):
            IDEALS[kind](tau=0.2)

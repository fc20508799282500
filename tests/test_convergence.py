"""Tests for the convergence engine and the built-in sequences."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from battery import BATTERY_IDEALS, build_battery, make_member, power_profile
from subspace_limits import (
    DEFAULT_EPS_GRID,
    CertificateError,
    EmptyTail,
    Ideal,
    IndexSet,
    RuleEvaluationError,
    Status,
    Subspace,
    SubspaceSequence,
    SubsetOfBlocks,
    SubsetOfUnion,
    Verdict,
    constant_orthogonal_example,
    criterion_traces,
    equivalence_suite,
    gap,
    gap_trace,
    n_norm,
    orthonormalize,
    parity_split_example,
    self_projection_volume_check,
    subspace_i_converges,
)
from subspace_limits import convergence
from subspace_limits.cli import report_to_dict, rotating_family, write_report
from subspace_limits.oracle import det_bruteforce, gap_bruteforce

HORIZON = 1000
CHECKERS = [subspace_i_converges, equivalence_suite, self_projection_volume_check]


def constant_sequence(V: Subspace) -> SubspaceSequence:
    return SubspaceSequence(lambda n: V, description="constant sequence")


# ---------------------------------------------------------------------------
# traces and exceptional sets


def test_gap_trace_constant_sequence():
    V = orthonormalize([(0.0, 1.0, 0.0)])
    trace = gap_trace(constant_sequence(V), V, 50)
    assert [n for n, _ in trace] == list(range(1, 51))
    assert all(g == 0.0 for _, g in trace)


def test_gap_trace_orthogonal_constant():
    seq, V = constant_orthogonal_example()
    trace = gap_trace(seq, V, 100)
    assert all(g == 1.0 for _, g in trace)


def test_gap_trace_parity_split_even_values():
    # on even indices the k = 1 gap is the point distance, with the
    # amended tilt that is |sin n| / sqrt(n^2 + sin^2 n)
    seq, V, _ = parity_split_example("amended")
    trace = dict(gap_trace(seq, V, 200))
    for n in range(2, 201, 2):
        s = math.sin(n)
        expected = abs(s) / math.sqrt(n * n + s * s)
        assert trace[n] == pytest.approx(expected, abs=1e-12)
        assert trace[n] <= 1.0 / n + 1e-12
        # the closed form agrees with the definitional point distance ||u - P_V(u)||
        u = seq.rule(n).basis[0]
        assert np.linalg.norm(u - (u @ V.basis.T) @ V.basis) == pytest.approx(
            trace[n], abs=1e-12
        )
    for n in range(1, 200, 2):
        assert trace[n] == 1.0


def test_gap_trace_propagates_rule_failure_with_index():
    V = orthonormalize([(1.0, 0.0)])

    def rule(n):
        if n == 7:
            raise RuntimeError("boom")
        return V

    seq = SubspaceSequence(rule)
    with pytest.raises(RuleEvaluationError) as excinfo:
        gap_trace(seq, V, 10)
    assert excinfo.value.index == 7


def test_chunked_traces_match_oracles_on_battery(monkeypatch):
    # a budget small enough that every member spans at least two chunks and
    # ends inside a partial one, checked at every chunk seam
    monkeypatch.setattr(convergence, "TRACE_CHUNK_ELEMENTS", 60)
    horizon = 37
    for member in build_battery():
        seq, V = member.seq, member.limit
        chunk = 60 // (seq.k * seq.ambient_dim)
        assert 2 <= chunk < horizon and horizon % chunk != 0
        starts = range(chunk + 1, horizon + 1, chunk)
        seams = sorted({1, horizon, *starts, *(s - 1 for s in starts)})
        traces = criterion_traces(seq, V, horizon)
        assert [g for _, g in gap_trace(seq, V, horizon)] == traces.gap.tolist()
        for n in range(1, horizon + 1):
            assert traces.gap[n - 1] == pytest.approx(gap(seq.rule(n), V), abs=1e-15)
        for n in seams:
            U = seq.rule(n)
            if U.k <= 3:
                assert abs(traces.gap[n - 1] - gap_bruteforce(U, V)) <= 1e-3
            for i, u in enumerate(U.basis):
                joint = np.vstack([u, V.basis])
                if len(joint) <= 6:
                    assert traces.joint_volume[n - 1, i] ** 2 == pytest.approx(
                        det_bruteforce(joint @ joint.T), abs=1e-12
                    )
                pair = np.vstack([u, (u @ V.basis.T) @ V.basis])
                assert traces.self_volume[n - 1, i] ** 2 == pytest.approx(
                    det_bruteforce(pair @ pair.T), abs=1e-12
                )


def test_chunked_traces_at_the_real_budget():
    # parity-split (k=1, d=3) just past one full chunk, against its closed
    # form: 1 on odd n, |sin n| / sqrt(n^2 + sin^2 n) on even n
    seq, V, _ = parity_split_example("amended")
    horizon = convergence.TRACE_CHUNK_ELEMENTS // (1 * 3) + 5
    n = np.arange(1, horizon + 1, dtype=float)
    s = np.abs(np.sin(n))
    expected = np.where(n % 2 == 1, 1.0, s / np.sqrt(n * n + s * s))
    traces = criterion_traces(seq, V, horizon)
    np.testing.assert_allclose(traces.gap, expected, rtol=1e-12)
    np.testing.assert_allclose(traces.joint_volume[:, 0], expected, rtol=1e-12)


def tilted_line(tilts):
    """Lines span{(1, t_n)} in R^2 against V = span{e1}: gap t_n (t_n < 1e-8)."""
    tilts = np.asarray(tilts, dtype=float)
    seq = SubspaceSequence(
        batch_rule=lambda ns: np.stack([np.ones(len(ns)), tilts[(ns - 1) % len(tilts)]], -1)[
            :, None, :
        ],
        description="tilted lines",
    )
    return seq, Subspace(np.array([[1.0, 0.0]]))


def test_tiny_residuals_do_not_underflow():
    # gap 1e-170: the squared residual underflows to 0, so the residual column
    # read 0.0 and vector_residual and joint_volume said `converges` at 1e-180
    # where the gap says `does_not_converge`
    seq, V = tilted_line([1e-170])
    traces = criterion_traces(seq, V, 40)
    assert np.array_equal(traces.residual[:, 0], traces.gap)
    assert traces.gap[0] == 1e-170
    report = equivalence_suite(seq, V, Ideal.finite(), (0.5, 1e-180), 40, traces=traces)
    verdicts = report.overall_by_criterion()
    for name in ("gap", "vector_residual", "joint_volume"):
        assert verdicts[name] is Verdict.DOES_NOT_CONVERGE, name
    # coefficient mass and projection norm are still clipped by the 16-ulp
    # floor near 1 (_NEAR_ONE_FLOOR), so they say `converges` here; that split
    # is left to the rest of the ROADMAP's item 5
    assert verdicts["coefficient_mass"] is Verdict.CONVERGES
    assert verdicts["projection_norm"] is Verdict.CONVERGES


def test_only_underflowing_residual_rows_are_rescaled():
    # rows whose squared norm is normal keep np.linalg.norm's bits; rows below
    # it, subnormal tilts and an exact zero included, get the scaled norm
    tilts = [0.0, 5e-324, 1e-170, 1e-154, 2e-154, 1e-9, 3e-9, 1e-300]
    seq, V = tilted_line(tilts)
    traces = criterion_traces(seq, V, len(tilts))
    plain = np.linalg.norm(np.stack([np.zeros(len(tilts)), tilts], -1), axis=-1)  # R = (0, t)
    normal = plain >= math.sqrt(np.finfo(float).tiny)
    assert normal.tolist() == [False, False, False, False, True, True, True, False]
    assert traces.residual[normal, 0].tobytes() == plain[normal].tobytes()
    assert traces.residual[:, 0].tolist() == [abs(t) for t in tilts]


_BUDGET_PROFILES = {
    "rotating-power-decay": {"kind": "power_decay", "scale": 0.45, "exponent": 2.0},
    "rotating-parity": {"kind": "parity", "odd_value": 0.3, "even_scale": 0.5, "even_exponent": 1.5},
}


@pytest.mark.parametrize("case", [*_BUDGET_PROFILES, "parity-split"])
def test_chunk_budget_changes_no_bit(monkeypatch, case):
    if case == "parity-split":
        seq, V, _ = parity_split_example("amended")
        horizon = convergence.TRACE_CHUNK_ELEMENTS // 3 + 5  # past one default chunk
    else:
        # k=8, d=40, the shape the budget is sized for; 150 ends in a partial
        # chunk at 16 and at 64 indices per chunk
        seq, V = rotating_family(40, 8, _BUDGET_PROFILES[case], seed=0)
        horizon = 150
    per_index = seq.k * seq.ambient_dim
    budgets = (per_index, 16 * 8 * 40, convergence.TRACE_CHUNK_ELEMENTS, horizon * per_index)
    columns = []
    for budget in budgets:
        monkeypatch.setattr(convergence, "TRACE_CHUNK_ELEMENTS", budget)
        traces = criterion_traces(seq, V, horizon)
        columns.append(
            (traces.gap, traces.residual, traces.coefficient_mass, traces.projection_norm)
        )
    for other in columns[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(columns[0], other))


@settings(max_examples=400, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 40),
    st.integers(1, 8),
    st.floats(0.0, 12.0),
)
def test_volumes_match_the_qr_kernel(seed, d, k, exponent):
    # each basis vector of U_n is rotated off a random V by its own sine, 1e-12 .. 1;
    # the volumes derived from the residual match n_norm's QR. The joint
    # volume is the sine itself to round-off, while the QR of the k + 1
    # vectors (u_i, v_1, ..., v_k) carries up to ~(k + 1) ulps.
    k = min(k, d // 2)
    sines = 10.0 ** -np.random.default_rng(seed).uniform(0.0, exponent, k)
    seq, V = rotating_family(d, k, {"kind": "constant", "value": sines.tolist()}, seed=seed)
    traces = criterion_traces(seq, V, 1)
    assert np.max(np.abs(traces.joint_volume[0] - sines)) <= 1e-15
    qr_tol = 2 * (k + 1) * np.finfo(float).eps
    for i, u in enumerate(seq.rule(1).basis):
        assert abs(traces.joint_volume[0, i] - n_norm([u, *V.basis])) <= qr_tol
        pu = (u @ V.basis.T) @ V.basis
        assert abs(traces.self_volume[0, i] - n_norm([u, pu])) <= 1e-15


def test_exceptional_set_thresholding():
    # the set the engine decides at one eps, read off a one-threshold level vector
    values = np.array([1.0 / n for n in range(1, 101)])
    exc = convergence._level_set(convergence._levels(values, (0.1,)), 1)
    assert exc.horizon == 100
    assert list(exc.members) == list(range(1, 11))  # 1/n >= 0.1 iff n <= 10


def test_exceptional_set_all_or_nothing():
    for values, eps, size in ((np.zeros(50), 0.1, 0), (np.ones(50), 0.5, 50)):
        assert len(convergence._level_set(convergence._levels(values, (eps,)), 1)) == size


def test_exceptional_set_rejects_empty_values():
    seq, V = constant_orthogonal_example()
    for checker in CHECKERS:
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            checker(seq, V, Ideal.finite(), horizon=0)


def test_horizon_must_be_an_integer(tmp_path):
    # True and 20.0 used to reach numpy as a bare TypeError, and an np.int64
    # horizon was stored in the report, which then failed to write as JSON
    seq, V = constant_orthogonal_example()
    for horizon in (True, 20.0, "20"):
        with pytest.raises(ValueError, match="horizon must be an integer"):
            criterion_traces(seq, V, horizon)
        for checker in CHECKERS:
            with pytest.raises(ValueError, match="horizon must be an integer"):
                checker(seq, V, Ideal.finite(), horizon=horizon)
    assert criterion_traces(seq, V, np.int64(20)).horizon == 20
    report = subspace_i_converges(seq, V, Ideal.finite(), horizon=np.int64(20))
    assert type(report.horizon) is int
    write_report(tmp_path / "report.json", report_to_dict(report, "analyze"))
    assert json.loads((tmp_path / "report.json").read_bytes())["horizon"] == 20


def test_exceptional_set_requires_positive_epsilon():
    seq, V = constant_orthogonal_example()
    for checker in CHECKERS:
        for eps in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and strictly positive"):
                checker(seq, V, Ideal.finite(), eps_grid=(eps,), horizon=50)


THRESHOLD_MAPS = (
    convergence._eps_threshold,
    convergence._mass_threshold,
    convergence._projection_threshold,
)


def assert_trail_matches_exceptional_sets(values, thresholds):
    level = convergence._levels(np.asarray(values, dtype=float), thresholds)
    # the smallest unsigned type that counts every threshold, so no level wraps
    assert level.dtype == np.min_scalar_type(len(thresholds)) and level.dtype.kind == "u"
    assert level.shape == (len(values),)
    for i, t in enumerate(thresholds):
        from_levels = np.flatnonzero(level >= len(thresholds) - i) + 1
        assert np.array_equal(from_levels, np.flatnonzero(np.asarray(values) >= t) + 1), (i, t)
        assert from_levels.tolist() == [n for n, x in enumerate(values, 1) if x >= t]


# 300 thresholds, past what uint8 levels count; values at, between and beyond them
WIDE_GRID = tuple(0.5 ** (i / 16) for i in range(300))
WIDE_VALUES = [3.0, WIDE_GRID[0], WIDE_GRID[255], WIDE_GRID[256], WIDE_GRID[-1], 0.0,
               math.nan, math.inf, 0.5 * (WIDE_GRID[100] + WIDE_GRID[101])]


@pytest.mark.parametrize("values, grid, threshold", [
    # exactly at each threshold, and on either side of it
    ([0.5, 0.1, 0.01, 0.49, 0.099, 1.0, 0.0], (0.5, 0.1, 0.01), convergence._eps_threshold),
    ([0.0] * 5, (0.5, 0.1), convergence._eps_threshold),  # empty at every eps
    ([2.0] * 5, (0.5, 0.1), convergence._eps_threshold),  # full at every eps
    # the 16-ulp floor clips both tiny eps to one threshold
    ([0.0, 1e-16, 3.6e-15, 1e-9, 0.5], (1e-9, 1e-10), convergence._mass_threshold),
    ([0.0, 1e-16, 3.6e-15, 1e-9, 0.5], (1e-8, 1e-9), convergence._projection_threshold),
    ([math.nan, 0.7, math.nan, 0.2, 0.0], (0.5, 0.1), convergence._eps_threshold),
    # signed zeros and infinities
    ([-0.0, 0.0, math.inf, -math.inf, math.nan, 0.5, 0.1], (0.5, 0.1), convergence._eps_threshold),
    # exactly at each mass threshold, and one ulp under it
    ([0.25, 0.01, np.nextafter(0.25, 0), np.nextafter(0.01, 0)], (0.5, 0.1),
     convergence._mass_threshold),
    # three eps clipped to one threshold, with values exactly at it and one ulp under it
    ([16 * np.finfo(float).eps, np.nextafter(16 * np.finfo(float).eps, 0), 1e-3, 0.0],
     (1e-8, 1e-9, 1e-10), convergence._mass_threshold),
    (WIDE_VALUES, WIDE_GRID, convergence._eps_threshold),
])
def test_level_trail_cases(values, grid, threshold):
    assert_trail_matches_exceptional_sets(values, [threshold(e) for e in grid])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_level_trail_equals_the_per_eps_exceptional_sets(data):
    eps = st.one_of(st.floats(1e-12, 2.0), st.sampled_from([1e-12, 1e-10, 1e-9, 0.1, 0.5]))
    grid = sorted(set(data.draw(st.lists(eps, min_size=1, max_size=6))), reverse=True)
    threshold = data.draw(st.sampled_from(THRESHOLD_MAPS))
    thresholds = [threshold(e) for e in grid]
    value = st.one_of(
        st.sampled_from(thresholds),
        st.floats(0.0, 2.5),
        st.sampled_from([0.0, math.nan, math.inf]),
    )
    values = data.draw(st.lists(value, min_size=1, max_size=40))
    assert_trail_matches_exceptional_sets(values, thresholds)


IDEAL_OBJECTS = (Ideal.finite(), Ideal.density(), Ideal.blocks())
PARITY_CERTIFICATE = parity_split_example("amended")[0].exceptional_certificate


def _membership(ideal, P, cert):
    try:
        return convergence.decide_membership(ideal, P, cert)
    except CertificateError as exc:
        return str(exc)


def assert_trail_sets_equal_checked_ones(values, grid, candidate=0.0):
    """Every set the engine hands to decide_membership, built without checks,
    equals the checked constructor's and the brute-force set's, is read-only and
    gets the checked set's verdict under every ideal and certificate; the
    column itself is left as it was."""
    values = np.asarray(values, dtype=float)
    before = values.copy()
    h = values.size
    decide, passed = convergence.decide_membership, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            convergence, "decide_membership",
            lambda ideal, P, cert: passed.append(P) or decide(ideal, P, cert),
        )
        convergence._limit_from_values(
            values, candidate, Ideal.finite(), grid, grid, (None,) * len(grid), {}
        )
    assert np.array_equal(values.view(np.uint64), before.view(np.uint64))
    assert len(passed) == len(grid)
    for P, eps in zip(passed, grid):
        checked = IndexSet(h, [n for n, x in enumerate(values, 1) if abs(x - candidate) >= eps])
        assert P == checked
        assert np.array_equal(P.members, np.flatnonzero(np.abs(values - candidate) >= eps) + 1)
        assert P.members.dtype == np.int64 and not P.members.flags.writeable
        for ideal in IDEAL_OBJECTS:
            for cert in (None, PARITY_CERTIFICATE(eps)):
                assert _membership(ideal, P, cert) == _membership(ideal, checked, cert)


@pytest.mark.parametrize("values, grid", [
    ([0.0] * 20, (0.5, 0.1)),  # empty at every eps
    ([2.0] * 20, (0.5, 0.1)),  # full at every eps
    ([0.5, 0.1, 0.01, -0.5, -0.1, math.nan, 0.0] * 3, (0.5, 0.1, 0.01)),  # exactly at each
    ([1.0 / n for n in range(1, 41)], (0.5, 0.1, 0.05)),  # a prefix: exact under parity
    ([math.nan] * 17, (0.3,)),
])
def test_trail_sets_equal_checked_ones_cases(values, grid):
    assert_trail_sets_equal_checked_ones(values, grid)


@pytest.mark.parametrize("values, grid, candidate", [
    # negative entries at candidate 0, also behind a NaN, which no minimum is below
    ([-0.0, 0.0, math.inf, -math.inf, math.nan, -0.3, 0.2] * 3, (0.5, 0.1), 0.0),
    ([math.nan, -0.7, 0.2, -0.0], (0.5,), 0.0),
    ([-0.0] * 5 + [-1e-300], (0.5,), 0.0),
    # candidate 1: the deviation is formed, at, around and far from each threshold
    ([1.0, 0.5, 1.5, 0.9, 1.1, 2.0, math.nan, -math.inf, math.inf, -0.0] * 2, (0.5, 0.1), 1.0),
    (WIDE_VALUES * 2, WIDE_GRID, 0.0),
])
def test_trail_sets_of_signed_columns_and_candidates(values, grid, candidate):
    assert_trail_sets_equal_checked_ones(values, grid, candidate)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_trail_sets_equal_checked_ones(data):
    eps = st.one_of(st.floats(1e-3, 2.0), st.sampled_from([0.5, 0.25, 0.1, 0.01]))
    grid = tuple(sorted(set(data.draw(st.lists(eps, min_size=1, max_size=5))), reverse=True))
    value = st.one_of(
        st.sampled_from(grid),  # exactly at a threshold
        st.floats(-2.5, 2.5),
        st.sampled_from([0.0, math.nan, math.inf, -math.inf]),
    )
    values = data.draw(st.lists(value, min_size=1, max_size=80))
    assert_trail_sets_equal_checked_ones(values, grid, data.draw(st.sampled_from([0.0, 1.0])))


# One column's transient peak in _limit_from_values on parity-split, h = 10^4, under
# blocks at the default grid. Amended: at most ~140 KiB (the gap column, whose
# certified trail is decided there); a judge that copies each column into a float
# deviation, its indices, a gather, int64 levels and two key copies peaks at ~237 KiB
# on every column, and page-faults that memory back in per column. Printed: at most
# ~188 KiB (the gap column, decided empirically, whose block first occurrences take
# one int64 array of the set's size); three such arrays peak at ~256 KiB. Each
# bound is 25% above the largest peak.
TRANSIENT_PEAK_BOUNDS = {"amended": 176 * 1024, "printed": 235 * 1024}


def test_judging_a_column_makes_no_large_transient_copies(monkeypatch):
    judge, peaks = convergence._limit_from_values, []

    def measured(*args):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        report = judge(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return report

    monkeypatch.setattr(convergence, "_limit_from_values", measured)
    h = 10_000
    for variant, bound in TRANSIENT_PEAK_BOUNDS.items():
        seq, V, ideal = parity_split_example(variant)
        traces = criterion_traces(seq, V, h)
        peaks.clear()
        tracemalloc.start()
        try:
            equivalence_suite(seq, V, ideal, DEFAULT_EPS_GRID, h, traces=traces)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 4  # gap, residual (also the joint volume), mass, projection
        assert max(peaks) < bound, (variant, [round(p / 1024, 1) for p in peaks])


@pytest.mark.parametrize("index, mass_deviation", [
    (3, 0.0),         # gap 0.3 there: a member of the gap's finest set, not of the mass's
    (5, 0.3 * 0.3),   # gap 0.7 there: the mass's finest set is the same, its level lower
])
def test_columns_that_differ_at_one_index_share_no_verdicts(index, mass_deviation):
    seq, V = constant_orthogonal_example()
    h, grid, ideal = 40, (0.5, 0.1), Ideal.finite()
    n = np.arange(1, h + 1)
    gap_values = np.where(n % 5 == 0, 0.7, np.where(n % 3 == 0, 0.3, 0.01))
    r = gap_values[:, None]
    mass = 1.0 - r * r
    mass[index - 1, 0] = 1.0 - mass_deviation
    traces = convergence.CriterionTraces(h, 1, gap_values, r.copy(), mass, np.sqrt(1.0 - r * r))
    report = equivalence_suite(seq, V, ideal, grid, h, traces=traces)
    for row, criterion in zip(convergence._CRITERIA, report.criteria):
        alone = convergence._judge((row,), seq, V, ideal, grid, h, traces).criteria[0]
        assert criterion == alone, row[0]
    gap_report, mass_report = report.criteria[0], report.criteria[2]
    assert [v for _, v in mass_report.per_vector[0].per_epsilon] != [
        v for _, v in gap_report.per_vector[0].per_epsilon
    ]


# ---------------------------------------------------------------------------
# eps grids


@pytest.mark.parametrize("checker", CHECKERS)
@pytest.mark.parametrize("grid", [
    "21", "5", b"0.5", [True], [0.5, False], [np.bool_(True)], ["0.5"], [0.5, None], [1j], [],
], ids=repr)
def test_checkers_take_only_real_eps_grids(checker, grid):
    # float() would run "21" as the grid (2.0, 1.0), [True] as (1.0,) and ["0.5"] as (0.5,)
    seq, V = constant_orthogonal_example()
    with pytest.raises(ValueError, match="non-empty sequence of real numbers"):
        checker(seq, V, Ideal.finite(), eps_grid=grid, horizon=50)


@pytest.mark.parametrize("checker", CHECKERS)
def test_checkers_take_any_real_eps_entries(checker):
    seq, V = constant_orthogonal_example()
    report = checker(seq, V, Ideal.finite(), eps_grid=(1, np.float32(0.5), 0.25), horizon=50)
    criterion = getattr(report, "volume", None) or report.criteria[0]
    assert [eps for eps, _ in criterion.per_vector[0].per_epsilon] == [1.0, 0.5, 0.25]


@pytest.mark.parametrize("grid", [(math.nan,), (0.5, math.nan), (math.inf, 0.5), (0.5, -math.inf)])
def test_eps_grid_must_be_finite(grid):
    # NaN passes `e <= 0` and makes every exceptional set empty: a wrong `converges`
    seq, V, ideal = parity_split_example("printed")
    with pytest.raises(ValueError, match="finite"):
        subspace_i_converges(seq, V, Ideal.finite(), grid, horizon=100)
    with pytest.raises(ValueError, match="finite"):
        self_projection_volume_check(seq, V, ideal, eps_grid=grid, horizon=50)


@pytest.mark.parametrize("grid", [(0.01, 0.5), (0.5, 0.5), (0.5, 0.1, 0.2)])
def test_eps_grid_must_decrease_strictly(grid):
    seq, V, ideal = parity_split_example("amended")
    with pytest.raises(ValueError, match="strictly decreasing"):
        equivalence_suite(seq, V, ideal, eps_grid=grid, horizon=50)
    with pytest.raises(ValueError, match="strictly decreasing"):
        self_projection_volume_check(seq, V, ideal, eps_grid=grid, horizon=50)


# ---------------------------------------------------------------------------
# subspace convergence and the checker coincidences


def test_constant_sequence_converges_under_every_ideal():
    V = orthonormalize([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)])
    seq = constant_sequence(V)
    for ideal in BATTERY_IDEALS.values():
        rep = subspace_i_converges(seq, V, ideal, horizon=200)
        assert rep.overall is Verdict.CONVERGES


def test_orthogonal_constant_diverges_under_every_ideal():
    seq, V = constant_orthogonal_example()
    for ideal in BATTERY_IDEALS.values():
        rep = subspace_i_converges(seq, V, ideal, horizon=HORIZON)
        assert rep.overall is Verdict.DOES_NOT_CONVERGE


def test_parity_split_amended_verdicts():
    seq, V, recommended = parity_split_example("amended")
    assert recommended.kind == "blocks"
    blocks = subspace_i_converges(seq, V, recommended, horizon=10_000)
    assert blocks.overall is Verdict.CONVERGES
    assert all(
        v.mode.value == "exact"
        for _, v in blocks.criteria[0].per_vector[0].per_epsilon
    )
    density = subspace_i_converges(seq, V, Ideal.density(), horizon=10_000)
    assert density.overall is Verdict.DOES_NOT_CONVERGE
    finite = subspace_i_converges(seq, V, Ideal.finite(), horizon=10_000)
    assert finite.overall is Verdict.DOES_NOT_CONVERGE


def test_statistical_convergence_tolerates_square_indices():
    # diverging exactly on the perfect squares leaves exceptional sets of
    # vanishing density: statistically convergent, usually not
    frame = np.linalg.qr(np.random.default_rng(55).standard_normal((3, 3)))[0].T
    V = Subspace(frame[:1])
    companion = frame[1:2]

    def rule(n):
        if math.isqrt(n) ** 2 == n:
            return Subspace(companion)
        return V

    seq = SubspaceSequence(rule, description="diverges on squares")
    density = subspace_i_converges(seq, V, Ideal.density(), horizon=10_000)
    assert density.overall is Verdict.CONVERGES
    finite = subspace_i_converges(seq, V, Ideal.finite(), horizon=10_000)
    assert finite.overall is Verdict.DOES_NOT_CONVERGE


def test_usual_convergence_of_reciprocal_gap_trace():
    # gap trace ~ 1/n: plainly convergent at horizon 1000
    member = make_member(
        "reciprocal", 3, 1, 60, power_profile([1.0], 1.0)[0], None, {}
    )
    rep = subspace_i_converges(member.seq, member.limit, Ideal.finite(), horizon=1000)
    assert rep.overall is Verdict.CONVERGES


def test_parity_split_printed_gap_does_not_decay():
    seq, V, _ = parity_split_example("printed")
    trace = dict(gap_trace(seq, V, 10_000))
    late_evens = [trace[n] for n in range(5000, 10_001, 2)]
    assert max(late_evens) > 0.5


def test_checker_coincidences():
    # the three checkers are row sets of one judging path: they agree on the gap
    seq, V, _ = parity_split_example("amended")
    for ideal in (Ideal.finite(), Ideal.density()):
        gap_rep = subspace_i_converges(seq, V, ideal, horizon=2000)
        suite = equivalence_suite(seq, V, ideal, horizon=2000)
        volume = self_projection_volume_check(seq, V, ideal, horizon=2000)
        assert suite.criteria[0].overall is gap_rep.overall
        assert volume.subspace_overall is gap_rep.overall
        assert [
            (e, v.status) for e, v in suite.criteria[0].per_vector[0].per_epsilon
        ] == [(e, v.status) for e, v in gap_rep.criteria[0].per_vector[0].per_epsilon]


# ---------------------------------------------------------------------------
# the five-criterion suite


def test_suite_constant_sequence_full_agreement():
    V = orthonormalize([(1.0, 0.0, 0.0), (0.0, 0.0, 1.0)])
    rep = equivalence_suite(constant_sequence(V), V, Ideal.finite(), horizon=200)
    assert all(c.overall is Verdict.CONVERGES for c in rep.criteria)
    assert rep.criteria_agree()
    assert all(all(row) for row in rep.agreement_matrix())


def test_suite_orthogonal_constant_all_diverge():
    seq, V = constant_orthogonal_example()
    rep = equivalence_suite(seq, V, Ideal.density(), horizon=HORIZON)
    assert all(c.overall is Verdict.DOES_NOT_CONVERGE for c in rep.criteria)
    assert rep.criteria_agree()


@pytest.mark.parametrize("ideal", BATTERY_IDEALS.values(), ids=list(BATTERY_IDEALS))
@pytest.mark.parametrize(
    "sine, grid, verdict",
    [
        # every gap is 1e-6, between the two eps; |mass - 1| = 1e-12 and
        # 1 - ||P u|| = 5e-13 fall below 5e-7, so at an unmapped threshold
        # those two criteria would see no exceptional index
        (1e-6, (0.5, 5e-7), Verdict.DOES_NOT_CONVERGE),
        # U_n = V: the round-off in the mass (~1e-16) exceeds eps^2 = 1e-18,
        # so an unfloored threshold would see every index as exceptional
        (0.0, (0.5, 1e-9), Verdict.CONVERGES),
    ],
    ids=["gap-between-eps", "exact-limit"],
)
def test_suite_criteria_agree_at_a_fine_eps_grid(ideal, sine, grid, verdict):
    seq, V = rotating_family(8, 2, {"kind": "constant", "value": sine})
    rep = equivalence_suite(seq, V, ideal, eps_grid=grid, horizon=200)
    assert rep.criteria_agree()
    assert all(c.overall is verdict for c in rep.criteria)
    by_name = {c.name: c for c in rep.criteria}
    assert by_name["vector_residual"].thresholds == grid
    assert by_name["coefficient_mass"].thresholds[0] == 0.25

    def member_counts(crit):
        return [[v.evidence["member_count"] for _, v in r.per_epsilon] for r in crit.per_vector]

    for name in ("coefficient_mass", "projection_norm", "joint_volume"):
        assert member_counts(by_name[name]) == member_counts(by_name["vector_residual"])


def test_suite_criterion_names_and_shape():
    seq, V, ideal = parity_split_example("amended")
    rep = equivalence_suite(seq, V, ideal, horizon=500)
    assert [c.name for c in rep.criteria] == [
        "gap",
        "vector_residual",
        "coefficient_mass",
        "projection_norm",
        "joint_volume",
    ]
    assert len(rep.criteria[0].per_vector) == 1
    assert all(len(c.per_vector) == seq.k for c in rep.criteria[1:])


def test_pointwise_identities_between_criteria():
    # per index and basis vector:
    #   ||P_V(u_i)||^2 == sum_j <u_i, v_j>^2      (to 1e-12)
    #   1 - sum_j <u_i, v_j>^2 == ||u_i, v..||^2  (to 1e-10)
    members = build_battery()[:4]
    seq36, V36 = constant_orthogonal_example()
    cases = [(m.seq, m.limit) for m in members] + [(seq36, V36)]
    seq33, V33, _ = parity_split_example("amended")
    cases.append((seq33, V33))
    for seq, V in cases:
        traces = criterion_traces(seq, V, 300)
        assert np.max(np.abs(traces.projection_norm**2 - traces.coefficient_mass)) <= 1e-12
        assert np.max(
            np.abs((1.0 - traces.coefficient_mass) - traces.joint_volume**2)
        ) <= 1e-10


def test_traces_reused_across_ideals_match_fresh_runs():
    member = build_battery()[0]
    traces = criterion_traces(member.seq, member.limit, 400)
    for ideal in BATTERY_IDEALS.values():
        cached = equivalence_suite(
            member.seq, member.limit, ideal, horizon=400, traces=traces
        )
        fresh = equivalence_suite(member.seq, member.limit, ideal, horizon=400)
        assert cached == fresh


def test_determinism_identical_reports():
    seq, V, ideal = parity_split_example("amended")
    a = equivalence_suite(seq, V, ideal, horizon=400)
    b = equivalence_suite(seq, V, ideal, horizon=400)
    assert a == b


# ---------------------------------------------------------------------------
# volume check (necessary, not sufficient)


def test_volume_check_constant_sequence():
    V = orthonormalize([(1.0, 0.0)])
    chk = self_projection_volume_check(constant_sequence(V), V, Ideal.finite(), horizon=100)
    assert chk.volume.overall is Verdict.CONVERGES
    assert chk.implication_holds
    assert not chk.converse_falsified


def test_volume_check_converse_fails_on_orthogonal_constant():
    seq, V = constant_orthogonal_example()
    traces = criterion_traces(seq, V, HORIZON)
    # the volumes vanish identically even though the gap is identically 1
    assert np.max(np.abs(traces.self_volume)) == 0.0
    for ideal in BATTERY_IDEALS.values():
        chk = self_projection_volume_check(seq, V, ideal, horizon=HORIZON, traces=traces)
        assert chk.volume.overall is Verdict.CONVERGES
        assert chk.subspace_overall is Verdict.DOES_NOT_CONVERGE
        assert chk.implication_holds
        assert chk.converse_falsified


def test_volume_check_takes_the_gap_verdicts_of_a_report():
    for member in build_battery():
        traces = criterion_traces(member.seq, member.limit, 300)
        for ideal in BATTERY_IDEALS.values():
            args = (member.seq, member.limit, ideal, (0.5, 0.1, 0.01), 300)
            for checker in (equivalence_suite, subspace_i_converges):
                report = checker(*args, traces=traces)
                chk = self_projection_volume_check(*args, traces=traces, report=report)
                assert chk == self_projection_volume_check(*args, traces=traces)


def test_volume_check_with_report_judges_only_the_volume(monkeypatch):
    seq, V, ideal = parity_split_example("amended")
    traces = criterion_traces(seq, V, 400)
    report = equivalence_suite(seq, V, ideal, (0.5, 0.1), 400, traces=traces)
    judged = []
    real = convergence._judge
    monkeypatch.setattr(
        convergence, "_judge", lambda rows, *a: judged.append([r[0] for r in rows]) or real(rows, *a)
    )
    self_projection_volume_check(seq, V, ideal, (0.5, 0.1), 400, traces=traces, report=report)
    self_projection_volume_check(seq, V, ideal, (0.5, 0.1), 400, traces=traces)
    assert judged == [["self_projection_volume"], ["gap", "self_projection_volume"]]


@pytest.mark.parametrize(
    "ideal, grid, horizon",
    [(Ideal.density(), (0.5, 0.1), 400), (Ideal.blocks(), (0.5, 0.2), 400),
     (Ideal.blocks(), (0.5,), 400), (Ideal.blocks(), (0.5, 0.1), 300)],
    ids=["ideal", "eps", "grid-length", "horizon"],
)
def test_volume_check_rejects_a_report_of_another_run(ideal, grid, horizon):
    seq, V, blocks = parity_split_example("amended")
    traces = criterion_traces(seq, V, 400)
    report = equivalence_suite(seq, V, blocks, (0.5, 0.1), 400, traces=traces)
    with pytest.raises(ValueError, match="report judged"):
        self_projection_volume_check(
            seq, V, ideal, grid, horizon, traces=criterion_traces(seq, V, horizon), report=report
        )
    # the same run, with the grid given as a list of ints and floats, is accepted
    self_projection_volume_check(seq, V, blocks, [0.5, 0.1], 400, traces=traces, report=report)


def test_volume_check_direction_on_battery():
    for member in build_battery():
        traces = criterion_traces(member.seq, member.limit, 500)
        for ideal in BATTERY_IDEALS.values():
            chk = self_projection_volume_check(
                member.seq, member.limit, ideal, horizon=500, traces=traces
            )
            assert chk.implication_holds


# ---------------------------------------------------------------------------
# battery-wide properties


@pytest.fixture(scope="module")
def battery_with_traces():
    battery = build_battery()
    return [(m, criterion_traces(m.seq, m.limit, HORIZON)) for m in battery]


def test_battery_expected_verdicts(battery_with_traces):
    for member, traces in battery_with_traces:
        for ideal_name, ideal in BATTERY_IDEALS.items():
            rep = equivalence_suite(
                member.seq, member.limit, ideal, horizon=HORIZON, traces=traces
            )
            expected = member.expected[ideal_name]
            got = {c.overall for c in rep.criteria}
            assert got == {expected}, (member.name, ideal_name, got)


def test_battery_hierarchy_usual_implies_every_ideal(battery_with_traces):
    for member, traces in battery_with_traces:
        usual = equivalence_suite(
            member.seq, member.limit, Ideal.finite(), horizon=HORIZON, traces=traces
        )
        if usual.overall is Verdict.CONVERGES:
            for ideal in BATTERY_IDEALS.values():
                rep = equivalence_suite(
                    member.seq, member.limit, ideal, horizon=HORIZON, traces=traces
                )
                assert rep.overall is Verdict.CONVERGES


def test_suite_joint_volume_is_the_residual_report(battery_with_traces):
    # the joint volume is the residual column, so the suite judges it once
    for member, traces in battery_with_traces:
        for ideal in BATTERY_IDEALS.values():
            rep = equivalence_suite(
                member.seq, member.limit, ideal, horizon=HORIZON, traces=traces
            )
            by_name = {c.name: c for c in rep.criteria}
            joint = by_name["joint_volume"]
            assert joint.name == "joint_volume"
            assert dataclasses.replace(joint, name="vector_residual") == by_name["vector_residual"]


def test_battery_basis_invariance_of_verdicts():
    # replacing every basis by a fixed rotation of itself changes the
    # traces but must not change any overall verdict
    rng = np.random.default_rng(77)
    for member in build_battery()[:6] + build_battery()[10:14]:
        k = member.seq.k
        Q = np.linalg.qr(rng.standard_normal((k, k)))[0]
        base_rule = member.seq.rule
        rotated = SubspaceSequence(
            lambda n, _rule=base_rule, _Q=Q: Subspace(_Q @ _rule(n).basis),
            member.seq.exceptional_certificate,
            description=member.name + " (rotated basis)",
        )
        for ideal in BATTERY_IDEALS.values():
            original = equivalence_suite(member.seq, member.limit, ideal, horizon=500)
            rerun = equivalence_suite(rotated, member.limit, ideal, horizon=500)
            assert [c.overall for c in rerun.criteria] == [
                c.overall for c in original.criteria
            ]


# ---------------------------------------------------------------------------
# sequence validation


def test_sequence_rule_must_return_a_subspace():
    with pytest.raises(ValueError, match="expected a Subspace"):
        SubspaceSequence(rule=lambda n: "x")


def test_sequence_dimensions_come_from_the_rule():
    line = SubspaceSequence(rule=lambda n: orthonormalize([(1.0, 0.0)]))
    assert (line.k, line.ambient_dim) == (1, 2)
    seq, _, _ = parity_split_example("amended")
    assert (seq.k, seq.ambient_dim) == (1, 3)
    # replace() probes the new rule again; it does not copy the old dimensions
    planes = dataclasses.replace(
        seq, batch_rule=lambda ns: np.broadcast_to(np.eye(4)[:2], (len(ns), 2, 4))
    )
    assert (planes.k, planes.ambient_dim) == (2, 4)
    with pytest.raises(TypeError):
        SubspaceSequence(rule=line.rule, k=1, ambient_dim=2)


def test_sequence_probe_failure_is_a_rule_error():
    with pytest.raises(RuleEvaluationError) as excinfo:
        SubspaceSequence(rule=lambda n: 1 / (n - 1))
    assert excinfo.value.index == 1
    assert isinstance(excinfo.value.__cause__, ZeroDivisionError)


@pytest.mark.parametrize("checker", CHECKERS)
def test_checkers_reject_traces_of_another_horizon(checker):
    seq, V = constant_orthogonal_example()
    traces = criterion_traces(seq, V, 50)
    with pytest.raises(ValueError, match="horizon 50"):
        checker(seq, V, Ideal.finite(), horizon=1000, traces=traces)
    # relabelled traces: 50 rows of k=1 used to be judged as 10 rows of 5 vectors
    with pytest.raises(ValueError, match=r"shapes \[\(50,\), \(50, 1\)"):
        checker(seq, V, Ideal.finite(), horizon=10, traces=dataclasses.replace(traces, horizon=10))
    plane = make_member("plane", 4, 2, 3, lambda n: np.array([0.1, 0.1]), None, {})
    with pytest.raises(ValueError, match="k=1"):
        checker(seq, V, Ideal.finite(), horizon=50, traces=criterion_traces(
            plane.seq, plane.limit, 50
        ))


def test_gap_checker_reuses_trace_gaps():
    seq, V, ideal = parity_split_example("amended")
    traces = criterion_traces(seq, V, 500)
    assert subspace_i_converges(seq, V, ideal, horizon=500, traces=traces) == (
        subspace_i_converges(seq, V, ideal, horizon=500)
    )


def test_rule_returning_wrong_shape_is_reported():
    V2 = orthonormalize([(1.0, 0.0)])
    V3 = orthonormalize([(1.0, 0.0, 0.0)])

    def rule(n):
        return V3 if n > 5 else V2

    seq = SubspaceSequence(rule)
    with pytest.raises(RuleEvaluationError) as excinfo:
        gap_trace(seq, V2, 10)
    assert excinfo.value.index == 6


# ---------------------------------------------------------------------------
# certificate functions


@pytest.mark.parametrize("checker", CHECKERS)
def test_checkers_read_the_certificate_once_per_eps(checker):
    # k=2 and four distinct columns in the suite: one read per (vector,
    # column, eps) would be 21 calls, where the 3 eps carry the information
    member = next(m for m in build_battery() if m.name == "conv-cubic-4d-k2")
    calls = []

    def counting(eps):
        calls.append(eps)
        return member.seq.exceptional_certificate(eps)

    seq = dataclasses.replace(member.seq, exceptional_certificate=counting)
    checker(seq, member.limit, Ideal.density(), (0.5, 0.1, 0.01), 200)
    assert calls == [0.5, 0.1, 0.01]


def _judge_with_certificate(checker, certificate):
    seq, V, ideal = parity_split_example("amended")
    seq = dataclasses.replace(seq, exceptional_certificate=certificate)
    return checker(seq, V, ideal, eps_grid=(0.5, 0.1), horizon=50)


@pytest.mark.parametrize("checker", CHECKERS)
@pytest.mark.parametrize(
    "certificate, cause",
    [
        (lambda eps: EmptyTail(math.ceil(1 / (eps - 0.5))), ZeroDivisionError),
        (lambda eps: "blocks", TypeError),
        (lambda eps: SubsetOfUnion((EmptyTail(3), "blocks")), TypeError),
        (lambda eps: EmptyTail(1 / eps), ValueError),  # 2.0 at eps 0.5: not an int
        (lambda eps: SubsetOfBlocks((1.7,)), ValueError),
        (lambda eps: EmptyTail(True), ValueError),
    ],
    ids=["raises", "not-a-certificate", "not-a-certificate-part", "float-bound",
         "float-block", "bool-bound"],
)
def test_bad_certificate_functions_raise_certificate_errors(checker, certificate, cause):
    with pytest.raises(CertificateError, match="at eps=0.5") as excinfo:
        _judge_with_certificate(checker, certificate)
    assert isinstance(excinfo.value.__cause__, cause)


@pytest.mark.parametrize("checker", CHECKERS)
def test_no_certificate_at_an_eps_is_judged_without_one(checker):
    assert _judge_with_certificate(checker, lambda eps: None) == (
        _judge_with_certificate(checker, None)
    )

"""Tests for batch sequence rules and the chunk check of the trace pass."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspace_limits import (
    RuleEvaluationError,
    Subspace,
    SubspaceSequence,
    constant_orthogonal_example,
    criterion_traces,
    parity_split_example,
)
from subspace_limits import cli, convergence
from subspace_limits.linalg import residual_gap
from subspace_limits.oracle import det_bruteforce, frame_embedding, jacobi_eigenvalues
from subspace_limits.sequences import rotating_family

INDICES = st.lists(st.integers(1, 10**6), min_size=1, max_size=40).map(np.array)


def assert_same_bits(actual, expected):
    actual, expected = np.ascontiguousarray(actual), np.ascontiguousarray(expected)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_batch_matches(seq, ns, reference):
    """batch_rule(ns), and the stacked seq.rule(n), equal the per-index reference."""
    expected = np.stack([reference(n) for n in ns.tolist()])
    assert_same_bits(seq.batch_rule(ns), expected)
    assert_same_bits(np.stack([seq.rule(n).basis for n in ns.tolist()]), expected)


# ---------------------------------------------------------------------------
# built-in batch rules against their per-index formulas


def parity_reference(n, variant):
    """The parity-split basis at n, computed per index with math.sin and a 1-d norm."""
    if n % 2 == 1:
        return np.array([[0.0, 0.0, 1.0]])
    s = math.sin(n)
    raw = np.array([s / n, 1.0 if variant == "amended" else 1.0 / n, 0.0])
    return (raw / np.linalg.norm(raw))[None, :]


@settings(max_examples=100, deadline=None)
@given(ns=INDICES, variant=st.sampled_from(["amended", "printed"]))
def test_parity_batch_rule_matches_per_index_formula(ns, variant):
    seq, _, _ = parity_split_example(variant)
    assert_batch_matches(seq, ns, lambda n: parity_reference(n, variant))


def test_parity_batch_rule_calls_sin_only_on_even_indices(monkeypatch):
    # the odd rows are span{e3} whatever sin(n) is, so sin is not asked for them
    seq, _, _ = parity_split_example("amended")
    asked = []
    real = math.sin
    monkeypatch.setattr(math, "sin", lambda n: asked.append(n) or real(n))
    seq.batch_rule(np.array([7, 2, 3, 10, 4, 1, 999_999, 1_000_000]))
    assert asked == [2, 10, 4, 1_000_000]


@given(ns=INDICES)
def test_orthogonal_constant_batch_rule_matches_its_line(ns):
    seq, _ = constant_orthogonal_example()
    assert_batch_matches(seq, ns, lambda n: np.array([[1.0, 0.0]]))


@st.composite
def rotating_cases(draw, max_k=3, max_d=99):
    k = draw(st.integers(1, max_k))
    d = draw(st.integers(2 * k, min(2 * k + 3, max_d)))
    sine = st.floats(0.0, 1.0)
    per_vector = st.one_of(sine, st.lists(sine, min_size=k, max_size=k))
    exponent = st.floats(0.1, 3.0)
    kind = draw(st.sampled_from(["constant", "power_decay", "parity"]))
    if kind == "constant":
        profile = {"kind": kind, "value": draw(per_vector)}
    elif kind == "power_decay":
        profile = {"kind": kind, "scale": draw(per_vector), "exponent": draw(exponent)}
    else:
        profile = {
            "kind": kind,
            "odd_value": draw(per_vector),
            "even_scale": draw(per_vector),
            "even_exponent": draw(exponent),
        }
    return d, k, profile, draw(st.integers(0, 2**32 - 1))


def rotating_sines(profile, k, n):
    """The profile's sines at n, with n ** p taken in Python floats."""

    def per_vector(value):
        a = np.asarray(value, dtype=float).reshape(-1)
        return np.repeat(a, k) if a.size == 1 else a

    if profile["kind"] == "constant":
        return per_vector(profile["value"])
    if profile["kind"] == "power_decay":
        return np.minimum(1.0, per_vector(profile["scale"]) / n ** profile["exponent"])
    if n % 2 == 1:
        return per_vector(profile["odd_value"])
    return np.minimum(1.0, per_vector(profile["even_scale"]) / n ** profile["even_exponent"])


@settings(max_examples=150, deadline=None)
@given(case=rotating_cases(), ns=INDICES)
def test_rotating_batch_rule_matches_per_index_formula(case, ns):
    d, k, profile, seed = case
    seq, V = rotating_family(d, k, profile, seed)
    # a sine of 1 turns each limit direction into its companion exactly
    companions = rotating_family(d, k, {"kind": "constant", "value": 1.0}, seed)[0].rule(1).basis

    def reference(n):
        s = rotating_sines(profile, k, n)
        c = np.sqrt(1.0 - s * s)
        return c[:, None] * V.basis + s[:, None] * companions

    assert_batch_matches(seq, ns, reference)


# ---------------------------------------------------------------------------
# the rotating family's closed-form frames


def oracle_columns(C, T):
    """gap, residual, coefficient mass, projection norm and squared joint volume of one index,
    from the explicit pair in R^2k with data (C, T), by the oracle's own kernels."""
    U, V = frame_embedding(C, T)
    A, B = U.basis, V.basis
    P = np.array([sum((u @ v) * v for v in B) for u in A])
    R = A - P
    joint = [det_bruteforce(np.vstack([u, B]) @ np.vstack([u, B]).T) for u in A]
    gap = math.sqrt(max(0.0, jacobi_eigenvalues(R @ R.T)[-1]))
    mass = [sum((u @ v) ** 2 for v in B) for u in A]
    return gap, np.linalg.norm(R, axis=1), mass, np.linalg.norm(P, axis=1), joint


def with_closed_frames(family, frames):
    """A plain batch rule of the family's bases that declares ``frames`` as its closed form."""

    def batch_rule(ns):
        return family.batch_rule(ns)

    batch_rule.closed_frames = frames
    return SubspaceSequence(batch_rule=batch_rule)


@settings(max_examples=60, deadline=None)
@given(case=rotating_cases(max_k=4, max_d=10), ns=INDICES, data=st.data())
def test_closed_form_frames_match_the_bases_and_an_explicit_embedding(case, ns, data):
    # profiles, seeds, k <= 4, d <= 10, horizons and chunk grids
    d, k, profile, seed = case
    h = data.draw(st.integers(1, 30), label="horizon")
    budget = data.draw(st.integers(1, h * k * d), label="chunk budget")
    seq, V = rotating_family(d, k, profile, seed)
    derived = with_closed_frames(seq, (None, None))  # no closed form: the k x d path
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(convergence, "TRACE_CHUNK_ELEMENTS", budget)
        closed, coords = criterion_traces(seq, V, h), criterion_traces(derived, V, h)
    sines = np.array([rotating_sines(profile, k, n) for n in range(1, h + 1)])
    assert_same_bits(closed.gap, sines.max(axis=1))
    for name in ("gap", "residual", "coefficient_mass", "projection_norm"):
        np.testing.assert_allclose(getattr(closed, name), getattr(coords, name), rtol=0, atol=1e-13)
    for n, s in enumerate(sines, start=1):
        gap, residual, mass, projection, joint = oracle_columns(
            np.diag(np.sqrt(1.0 - s * s)), np.diag(s)
        )
        assert abs(closed.gap[n - 1] - gap) <= 1e-15
        np.testing.assert_allclose(closed.residual[n - 1], residual, rtol=0, atol=1e-15)
        np.testing.assert_allclose(closed.coefficient_mass[n - 1], mass, rtol=0, atol=1e-15)
        np.testing.assert_allclose(closed.projection_norm[n - 1], projection, rtol=0, atol=1e-15)
        np.testing.assert_allclose(closed.joint_volume[n - 1] ** 2, joint, rtol=0, atol=1e-14)
    # far indices: the chunk's frames against the bases' cross-Gram and residual Gram
    (C, T), (C2, R) = seq.frames(ns, V), derived.frames(ns, V)
    assert C.shape == T.shape == (len(ns), k, k) and R.shape == (len(ns), k, d)
    np.testing.assert_allclose(C, C2, rtol=0, atol=1e-14)
    np.testing.assert_allclose(T @ T.swapaxes(1, 2), R @ R.swapaxes(1, 2), rtol=0, atol=1e-14)
    far = np.array([rotating_sines(profile, k, n) for n in ns.tolist()])
    assert_same_bits(residual_gap(T), far.max(axis=1))
    # one index whose [C | T] rows are not orthonormal is named, in any chunk
    bad = data.draw(st.integers(1, h), label="tampered index")
    limit, frames = seq.batch_rule.closed_frames

    def tampered(ns):
        CT = frames(ns)
        CT[ns == bad, 0] *= 1.001  # C C^T + T T^T gains 0.002 in its first diagonal entry
        return CT

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(convergence, "TRACE_CHUNK_ELEMENTS", budget)
        with pytest.raises(RuleEvaluationError, match="not orthonormal") as excinfo:
            criterion_traces(with_closed_frames(seq, (limit, tampered)), V, h)
    assert excinfo.value.index == bad


def test_closed_form_needs_the_limit_basis_bit_for_bit():
    profile = {"kind": "constant", "value": 0.5}
    seq, V = rotating_family(4, 1, profile, limit_basis=np.array([[1.0, 0.0, 0.0, 0.0]]))
    ns = np.arange(1, 4)
    C, T = seq.frames(ns, V)
    assert T.shape == (3, 1, 1) and C.tolist() == [[[math.sqrt(0.75)]]] * 3
    # equal values with a -0, and the same line under another basis: the bases' path
    for other in (Subspace(np.array([[1.0, -0.0, 0.0, 0.0]])), Subspace(-V.basis)):
        C2, T2 = seq.frames(ns, other)
        assert T2.shape == (3, 1, 4)
        np.testing.assert_allclose(C2, C * other.basis[0, 0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(np.linalg.norm(T2, axis=-1), T[..., 0], rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# the chunk check


def line_sequence(bad_bases):
    """Lines span{e1} in R^2, except at the indices mapped to another basis."""

    def batch_rule(ns):
        out = np.zeros((len(ns), 1, 2))
        out[:, 0, 0] = 1.0
        for n, basis in bad_bases.items():
            out[ns == n] = basis
        return out

    return SubspaceSequence(batch_rule=batch_rule)


def subspace_message(basis):
    with pytest.raises(ValueError) as excinfo:
        Subspace(basis)
    return str(excinfo.value)


@pytest.mark.parametrize(
    "basis",
    [[[1.0, 0.5]], [[np.nan, 0.0]], [[np.inf, 0.0]]],
    ids=["not-orthonormal", "nan", "inf"],
)
def test_bad_basis_in_a_later_chunk_names_its_index(monkeypatch, basis):
    # chunks of 10 indices: the bad bases sit inside the second one
    monkeypatch.setattr(convergence, "TRACE_CHUNK_ELEMENTS", 20)
    seq = line_sequence({14: basis, 17: [[1.0, 1.0]]})
    V = Subspace(np.array([[1.0, 0.0]]))
    with pytest.raises(RuleEvaluationError) as excinfo:
        criterion_traces(seq, V, 25)
    assert excinfo.value.index == 14
    assert str(excinfo.value) == (
        f"sequence rule failed at index 14: {subspace_message(np.array(basis))}"
    )


@pytest.mark.parametrize(
    "reshape, message",
    [
        (lambda out: out[:-1], "batch rule returned shape (9, 1, 2), expected (10, 1, 2)"),
        (lambda out: out[:, :, [0, 1, 1]], "batch rule returned shape (10, 1, 3), expected (10, 1, 2)"),
        (lambda out: out[:, 0], "batch rule returned shape (10, 2), expected (10, 1, 2)"),
    ],
    ids=["too-few", "wrong-dimension", "not-stacked"],
)
def test_wrong_batch_shape_names_the_chunk_start(monkeypatch, reshape, message):
    monkeypatch.setattr(convergence, "TRACE_CHUNK_ELEMENTS", 20)
    lines = line_sequence({})
    seq = dataclasses.replace(
        lines,
        batch_rule=lambda ns: reshape(lines.batch_rule(ns)) if ns[0] > 10 else lines.batch_rule(ns),
    )
    with pytest.raises(RuleEvaluationError) as excinfo:
        criterion_traces(seq, Subspace(np.array([[1.0, 0.0]])), 25)
    assert excinfo.value.index == 11
    assert str(excinfo.value).endswith(message)


def test_batch_rule_failure_is_a_rule_error(monkeypatch):
    monkeypatch.setattr(convergence, "TRACE_CHUNK_ELEMENTS", 20)
    lines = line_sequence({})

    def failing(ns):
        if ns[-1] > 20:
            raise ZeroDivisionError("boom")
        return lines.batch_rule(ns)

    with pytest.raises(RuleEvaluationError) as excinfo:
        criterion_traces(dataclasses.replace(lines, batch_rule=failing), lines.rule(1), 25)
    assert excinfo.value.index == 21
    assert isinstance(excinfo.value.__cause__, ZeroDivisionError)


def test_failing_batch_rule_names_the_index_that_fails():
    # one chunk covers 1..100; the rule fails on every chunk that holds 6
    lines = line_sequence({})

    def failing(ns):
        if (ns == 6).any():
            raise OverflowError("6 ** 400")
        return lines.batch_rule(ns)

    with pytest.raises(RuleEvaluationError) as excinfo:
        criterion_traces(dataclasses.replace(lines, batch_rule=failing), lines.rule(1), 100)
    assert excinfo.value.index == 6
    assert str(excinfo.value) == "sequence rule failed at index 6: 6 ** 400"
    assert isinstance(excinfo.value.__cause__, OverflowError)


def test_batch_rule_failing_only_whole_keeps_the_chunk_start(monkeypatch):
    monkeypatch.setattr(convergence, "TRACE_CHUNK_ELEMENTS", 20)
    lines = line_sequence({})

    def failing(ns):
        if len(ns) > 1 and ns[0] > 10:
            raise MemoryError("chunk too large")
        return lines.batch_rule(ns)

    with pytest.raises(RuleEvaluationError) as excinfo:
        criterion_traces(dataclasses.replace(lines, batch_rule=failing), lines.rule(1), 25)
    assert excinfo.value.index == 11
    assert str(excinfo.value).endswith(": chunk too large")


def test_sequence_takes_exactly_one_rule():
    lines = line_sequence({})
    per_index = SubspaceSequence(rule=lambda n: Subspace(np.array([[1.0, 0.0]])))
    for make in [
        lambda: SubspaceSequence(),
        lambda: SubspaceSequence(rule=per_index.rule, batch_rule=lines.batch_rule),
        lambda: dataclasses.replace(per_index, batch_rule=lines.batch_rule),
        lambda: dataclasses.replace(lines, batch_rule=None),
    ]:
        with pytest.raises(ValueError, match="exactly one of rule and batch_rule"):
            make()


@pytest.mark.parametrize("n", [1, 2, 3, 1000])
def test_replaced_batch_rule_gives_the_per_index_rule(n):
    amended, V, _ = parity_split_example("amended")
    printed, _, _ = parity_split_example("printed")
    seq = dataclasses.replace(amended, batch_rule=printed.batch_rule)
    assert_same_bits(seq.rule(n).basis, printed.batch_rule(np.array([n]))[0])
    assert_same_bits(amended.rule(n).basis, amended.batch_rule(np.array([n]))[0])
    # the trace pass and rule(n) see one sequence
    assert criterion_traces(seq, V, n).gap[-1] == criterion_traces(printed, V, n).gap[-1]


# ---------------------------------------------------------------------------
# each index evaluated once


def counting(seq, asked):
    def batch_rule(ns):
        asked.extend(ns.tolist())
        return seq.batch_rule(ns)

    counted = dataclasses.replace(seq, batch_rule=batch_rule)
    asked.clear()  # construction probes rule(1); only the evaluations after it count
    return counted


def test_trace_pass_asks_for_each_index_once(monkeypatch):
    monkeypatch.setattr(convergence, "TRACE_CHUNK_ELEMENTS", 30)
    seq, V, _ = parity_split_example("amended")
    asked = []
    criterion_traces(counting(seq, asked), V, 95)
    assert asked == list(range(1, 96))


@pytest.mark.parametrize("subcommand", ["analyze", "suite"])
def test_cli_asks_a_builtin_for_each_index_once(tmp_path, monkeypatch, capsys, subcommand):
    asked = []

    def builder(variant="amended"):
        seq, V, ideal = parity_split_example(variant)
        return counting(seq, asked), V, ideal

    monkeypatch.setitem(cli.BUILTIN_SEQUENCES["parity-split"], "builder", builder)
    argv = [subcommand, "parity-split", "--horizon", "4000", "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    # three chunks of the k=1, d=3 pass
    assert asked == list(range(1, 4001))

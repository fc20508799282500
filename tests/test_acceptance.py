"""Acceptance suite.

Each test exercises one exit criterion end to end at its stated tolerance
and prints a single PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``
to see the lines as they go by.
"""

import json
import time

import numpy as np
import pytest

from battery import BATTERY_HORIZON, BATTERY_IDEALS, build_battery
from subspace_limits import (
    Ideal,
    Status,
    Subspace,
    Verdict,
    axioms_check,
    constant_orthogonal_example,
    criterion_traces,
    equivalence_suite,
    gap,
    gap_bruteforce,
    gap_trace,
    n_norm,
    orthonormalize,
    parity_split_example,
    project,
    self_projection_volume_check,
    subspace_i_converges,
)
from subspace_limits.cli import main
from test_ideals import certified_family


def _report(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def random_subspace(rng, d, k):
    return orthonormalize(rng.standard_normal((k, d)))


def random_orthogonal(rng, k):
    return np.linalg.qr(rng.standard_normal((k, k)))[0]


@pytest.fixture(scope="module")
def battery_with_traces():
    battery = build_battery()
    return [(m, criterion_traces(m.seq, m.limit, BATTERY_HORIZON)) for m in battery]


def test_criterion_1_gap_oracle_equivalence():
    rng = np.random.default_rng(1001)
    start = time.monotonic()
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 6))
        k = int(rng.integers(1, min(3, d) + 1))
        U = random_subspace(rng, d, k)
        V = random_subspace(rng, d, k)
        worst = max(worst, abs(gap(U, V) - gap_bruteforce(U, V)))
    elapsed = time.monotonic() - start
    _report(
        1,
        f"closed form vs sampled supremum on 200 pairs: max |diff| = {worst:.2e} "
        f"(<= 1e-3), elapsed {elapsed:.1f}s (< 10s)",
        worst <= 1e-3 and elapsed < 10.0,
    )


def test_criterion_2_gap_metric_properties():
    rng = np.random.default_rng(1002)
    ok = True
    detail = []

    worst_sym = 0.0
    for _ in range(500):
        d = int(rng.integers(2, 6))
        k = int(rng.integers(1, min(3, d) + 1))
        U = random_subspace(rng, d, k)
        V = random_subspace(rng, d, k)
        g = gap(U, V)
        ok = ok and 0.0 <= g <= 1.0
        worst_sym = max(worst_sym, abs(g - gap(V, U)))
    ok = ok and worst_sym <= 1e-9
    detail.append(f"range ok, symmetry {worst_sym:.1e} <= 1e-9")

    worst_equal, worst_distinct = 0.0, 1.0
    for _ in range(500):
        d = int(rng.integers(2, 6))
        # proper subspaces only: at k = d there is a single subspace and
        # the distinct-pair half of zero-iff-equal has nothing to compare
        k = int(rng.integers(1, min(3, d - 1) + 1))
        U = random_subspace(rng, d, k)
        rotated = Subspace(random_orthogonal(rng, k) @ U.basis)
        worst_equal = max(worst_equal, gap(U, rotated))
        W = random_subspace(rng, d, k)
        g = gap(U, W)
        if g > 1e-8:
            worst_distinct = min(worst_distinct, g)
        else:  # a random pair collapsed onto one span; treat as failure
            ok = False
    ok = ok and worst_equal <= 1e-8
    detail.append(
        f"equal spans gap <= {worst_equal:.1e} (<= 1e-8), distinct spans "
        f"gap >= {worst_distinct:.1e}"
    )

    worst_inv = 0.0
    for _ in range(500):
        d = int(rng.integers(2, 6))
        k = int(rng.integers(1, min(3, d) + 1))
        U = random_subspace(rng, d, k)
        V = random_subspace(rng, d, k)
        g = gap(U, V)
        U2 = Subspace(random_orthogonal(rng, k) @ U.basis)
        V2 = Subspace(random_orthogonal(rng, k) @ V.basis)
        worst_inv = max(worst_inv, abs(gap(U2, V2) - g))
    ok = ok and worst_inv <= 1e-9
    detail.append(f"basis invariance {worst_inv:.1e} <= 1e-9")

    _report(2, "; ".join(detail), ok)


def test_criterion_3_identity_suite():
    rng = np.random.default_rng(1003)
    worst_proj, worst_vol = 0.0, 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(3, d) + 1))
        V = random_subspace(rng, d, k)
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        p = project(u, V)
        c = V.basis @ u  # coefficients <u, v_j>
        worst_proj = max(worst_proj, abs(float(c @ c) - float(p @ p)))
        total = n_norm(np.vstack([u, V.basis])) ** 2 + c @ c
        worst_vol = max(worst_vol, abs(total - 1.0))
    _report(
        3,
        f"projection-norm identity {worst_proj:.1e} <= 1e-12; "
        f"volume+alignment identity {worst_vol:.1e} <= 1e-10 over 1000 instances",
        worst_proj <= 1e-12 and worst_vol <= 1e-10,
    )


def test_criterion_4_orthogonal_constant_reproduction():
    seq, V = constant_orthogonal_example()
    horizon = 1000
    traces = criterion_traces(seq, V, horizon)
    gaps_exact = bool(np.all(traces.gap == 1.0))
    volumes_exact = bool(np.all(traces.self_volume == 0.0))
    verdicts_ok = True
    rhs_ok = True
    for ideal in BATTERY_IDEALS.values():
        rep = subspace_i_converges(seq, V, ideal, horizon=horizon)
        verdicts_ok = verdicts_ok and rep.overall is Verdict.DOES_NOT_CONVERGE
        chk = self_projection_volume_check(seq, V, ideal, horizon=horizon, traces=traces)
        rhs_ok = (
            rhs_ok
            and chk.volume.overall is Verdict.CONVERGES
            and chk.converse_falsified
            and chk.implication_holds
        )
    _report(
        4,
        "constant orthogonal line: gap trace constantly 1 (exact), volume trace "
        "constantly 0 (exact), does_not_converge under all ideals, volume "
        "criterion converges (converse falsified)",
        gaps_exact and volumes_exact and verdicts_ok and rhs_ok,
    )


def test_criterion_5_parity_split_phenomenon():
    horizon = 10_000
    seq, V, _ = parity_split_example("amended")

    blocks = subspace_i_converges(seq, V, Ideal.blocks(), horizon=horizon)
    rows = blocks.criteria[0].per_vector[0].per_epsilon
    blocks_ok = blocks.overall is Verdict.CONVERGES and all(
        v.mode.value == "exact" and v.status is Status.IN_IDEAL for _, v in rows
    )

    density = subspace_i_converges(seq, V, Ideal.density(), horizon=horizon)
    half_rows = [
        v for eps, v in density.criteria[0].per_vector[0].per_epsilon if eps == 0.5
    ]
    final_density = half_rows[0].evidence.get("final_density", -1.0)
    density_ok = (
        density.overall is Verdict.DOES_NOT_CONVERGE
        and 0.49 <= final_density <= 0.51
    )

    finite = subspace_i_converges(seq, V, Ideal.finite(), horizon=horizon)
    finite_ok = finite.overall is Verdict.DOES_NOT_CONVERGE

    printed_seq, printed_V, _ = parity_split_example("printed")
    trace = dict(gap_trace(printed_seq, printed_V, horizon))
    printed_max = max(trace[n] for n in range(5000, horizon + 1, 2))
    printed_ok = printed_max > 0.5

    _report(
        5,
        f"parity-split amended at horizon 10^4: blocks converges (exact), density "
        f"does_not_converge (exceptional density at eps=0.5: {final_density:.4f} in "
        f"[0.49, 0.51]), finite does_not_converge; printed variant late even-index "
        f"max gap {printed_max:.3f} > 0.5",
        blocks_ok and density_ok and finite_ok and printed_ok,
    )


def test_criterion_6_five_criteria_agree_on_battery():
    # trace evaluation happens inside the timed region so the runtime
    # bound covers the whole job, not just the verdict phase
    start = time.monotonic()
    ok = True
    for member in build_battery():
        traces = criterion_traces(member.seq, member.limit, BATTERY_HORIZON)
        for ideal in BATTERY_IDEALS.values():
            rep = equivalence_suite(
                member.seq, member.limit, ideal, horizon=BATTERY_HORIZON, traces=traces
            )
            verdicts = {c.overall for c in rep.criteria}
            if len(verdicts) != 1 or Verdict.INCONCLUSIVE in verdicts:
                ok = False
    elapsed = time.monotonic() - start
    _report(
        6,
        f"20-member battery x 3 ideals: all five criteria identical and decisive, "
        f"elapsed {elapsed:.1f}s (< 60s)",
        ok and elapsed < 60.0,
    )


def test_criterion_7_checker_coincidences_and_hierarchy(battery_with_traces):
    ok = True
    usual_converging = []
    for member, traces in battery_with_traces:
        def rows(rep):
            return [
                (eps, v.status, v.mode)
                for eps, v in rep.criteria[0].per_vector[0].per_epsilon
            ]

        # the gap checker and the suite's gap row coincide, fresh or on cached traces
        for ideal in (Ideal.finite(), Ideal.density()):
            rep = subspace_i_converges(member.seq, member.limit, ideal, horizon=BATTERY_HORIZON)
            suite = equivalence_suite(
                member.seq, member.limit, ideal, horizon=BATTERY_HORIZON, traces=traces
            )
            ok = ok and rep.overall is suite.criteria[0].overall
            ok = ok and rows(rep) == rows(suite)
            if ideal.kind == "finite" and rep.overall is Verdict.CONVERGES:
                usual_converging.append((member, traces))

    hierarchy_ok = len(usual_converging) > 0
    for member, traces in usual_converging:
        for ideal in BATTERY_IDEALS.values():
            rep = equivalence_suite(
                member.seq, member.limit, ideal, horizon=BATTERY_HORIZON, traces=traces
            )
            hierarchy_ok = hierarchy_ok and rep.overall is Verdict.CONVERGES

    _report(
        7,
        f"gap checker == suite gap row under the finite and density ideals on all 20 "
        f"members; {len(usual_converging)} usually-convergent members converge under "
        f"every ideal",
        ok and hierarchy_ok,
    )


def test_criterion_8_ideal_axioms():
    results = {}
    for name, ideal in BATTERY_IDEALS.items():
        report = axioms_check(ideal, certified_family(1000))
        results[name] = report.passed
    _report(
        8,
        "empty set, union/subset closure on certified families, singleton "
        f"admissibility, non-triviality: {results}",
        all(results.values()),
    )


def test_criterion_9_determinism(tmp_path):
    cfg = {
        "sequence": {"builtin": "parity-split", "variant": "amended"},
        "ideal": {"kind": "blocks"},
        "horizon": 1000,
        "eps_grid": [0.5, 0.1, 0.01],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    code_a = main(["suite", "--config", str(path), "--out-dir", str(tmp_path / "a")])
    code_b = main(["suite", "--config", str(path), "--out-dir", str(tmp_path / "b")])
    same_trace = (tmp_path / "a" / "trace.csv").read_bytes() == (
        tmp_path / "b" / "trace.csv"
    ).read_bytes()
    same_report = (tmp_path / "a" / "suite_report.json").read_bytes() == (
        tmp_path / "b" / "suite_report.json"
    ).read_bytes()
    _report(
        9,
        "two suite runs of one config produce byte-identical trace and report files",
        code_a == 0 and code_b == 0 and same_trace and same_report,
    )

"""Tests for the brute-force reference implementations."""

import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from subspace_limits import gap, orthonormalize
from subspace_limits.oracle import SamplingPlan, det_bruteforce, gap_bruteforce, jacobi_eigenvalues
from test_linalg import tilted_pair


def random_subspace(rng, d, k):
    return orthonormalize(rng.standard_normal((k, d)))


# ---------------------------------------------------------------------------
# determinant


def test_det_identity():
    assert det_bruteforce(np.eye(3)) == pytest.approx(1.0)


def test_det_hand_value():
    assert det_bruteforce([[2.0, 1.0], [1.0, 1.0]]) == pytest.approx(1.0)


def test_det_singular():
    assert det_bruteforce([[1.0, 1.0], [1.0, 1.0]]) == pytest.approx(0.0)


def test_det_matches_production():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        M = rng.standard_normal((n, n))
        want = float(np.linalg.det(M))
        assert det_bruteforce(M) == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_det_size_limit():
    with pytest.raises(ValueError):
        det_bruteforce(np.eye(7))


# ---------------------------------------------------------------------------
# sampled gap


def test_plan_validation():
    with pytest.raises(ValueError):
        SamplingPlan(k=4)
    with pytest.raises(ValueError):
        SamplingPlan(k=2, n_samples=10)
    with pytest.raises(ValueError):
        SamplingPlan(k=2, levels=0)


def test_gap_bruteforce_identical_subspaces():
    rng = np.random.default_rng(32)
    U = random_subspace(rng, 4, 2)
    assert gap_bruteforce(U, U) <= 1e-12


def test_gap_bruteforce_orthogonal_lines():
    U = orthonormalize([(1.0, 0.0)])
    V = orthonormalize([(0.0, 1.0)])
    assert gap_bruteforce(U, V) == pytest.approx(1.0, abs=1e-12)


def test_gap_bruteforce_diagonal_line():
    U = orthonormalize([(1.0, 0.0)])
    V = orthonormalize([(1.0, 1.0)])
    assert gap_bruteforce(U, V) == pytest.approx(math.sqrt(0.5), abs=1e-3)


def test_gap_bruteforce_rejects_large_k():
    rng = np.random.default_rng(33)
    U = random_subspace(rng, 8, 4)
    V = random_subspace(rng, 8, 4)
    with pytest.raises(ValueError):
        gap_bruteforce(U, V)


def test_gap_bruteforce_deterministic():
    rng = np.random.default_rng(34)
    U = random_subspace(rng, 5, 3)
    V = random_subspace(rng, 5, 3)
    plan = SamplingPlan(k=3, n_samples=2000, levels=2)
    assert gap_bruteforce(U, V, plan) == gap_bruteforce(U, V, plan)


def test_gap_bruteforce_monotone_in_levels():
    rng = np.random.default_rng(35)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        k = int(rng.integers(2, min(3, d) + 1))
        U = random_subspace(rng, d, k)
        V = random_subspace(rng, d, k)
        vals = [
            gap_bruteforce(U, V, SamplingPlan(k, n_samples=500, levels=levels))
            for levels in (1, 2, 3)
        ]
        assert vals[0] <= vals[1] <= vals[2]


def test_gap_bruteforce_agrees_with_closed_form():
    rng = np.random.default_rng(36)
    for _ in range(60):
        d = int(rng.integers(2, 6))
        k = int(rng.integers(1, min(3, d) + 1))
        U = random_subspace(rng, d, k)
        V = random_subspace(rng, d, k)
        assert abs(gap(U, V) - gap_bruteforce(U, V)) <= 1e-3


def test_gap_bruteforce_never_exceeds_closed_form():
    # sampling a supremum can only undershoot (up to round-off)
    rng = np.random.default_rng(37)
    for _ in range(60):
        d = int(rng.integers(2, 6))
        k = int(rng.integers(1, min(3, d) + 1))
        U = random_subspace(rng, d, k)
        V = random_subspace(rng, d, k)
        assert gap_bruteforce(U, V) <= gap(U, V) + 1e-9


# ---------------------------------------------------------------------------
# Jacobi eigenvalues


def test_jacobi_diagonal_matrix():
    np.testing.assert_allclose(
        jacobi_eigenvalues(np.diag([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0]
    )


def test_jacobi_matches_eigvalsh():
    rng = np.random.default_rng(19)
    for _ in range(200):
        k = int(rng.integers(1, 7))
        M = rng.standard_normal((k, k))
        M = M @ M.T
        # scale-free: the same check holds for matrices of entries near 1e-14
        M *= 10.0 ** rng.uniform(-14, 2)
        got = jacobi_eigenvalues(M)
        want = np.linalg.eigvalsh(M)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_jacobi_rejects_asymmetric():
    with pytest.raises(ValueError):
        jacobi_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(4, 8), st.integers(2, 4), st.integers(6, 12))
def test_jacobi_gap_cross_checks_svd_gap(seed, d, k, exponent):
    # the gap from the eigenvalues of R R^T, by an independent solver
    U, V, exact = tilted_pair(seed, d, min(k, d // 2), 10.0**-exponent)
    R = U.basis - (U.basis @ V.basis.T) @ V.basis
    by_eigen = math.sqrt(max(0.0, jacobi_eigenvalues(R @ R.T)[-1]))
    assert abs(by_eigen - gap(U, V)) <= 1e-9 * exact + 1e-15

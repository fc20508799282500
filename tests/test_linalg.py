"""Unit and property tests for the linear-algebra kernels."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspace_limits import (
    DimensionMismatchError,
    RankDeficiencyError,
    Subspace,
    det_bruteforce,
    dist_point_subspace,
    gap,
    n_norm,
    orthonormalize,
    project,
)
from subspace_limits.linalg import TOL_ORTHO, first_non_orthonormal, residual_gap

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def random_subspace(rng, d, k):
    return orthonormalize(rng.standard_normal((k, d)))


def random_orthogonal(rng, k):
    return np.linalg.qr(rng.standard_normal((k, k)))[0]


def tilted_pair(seed, d, k, size):
    """(U, V, exact gap): U tilts each basis vector of V by a sine <= size.

    The largest sine equals ``size`` exactly, and U's basis rows are mixed
    by a random rotation so no row is a principal direction.
    """
    rng = np.random.default_rng(seed)
    frame = random_orthogonal(rng, d).T
    s = size * rng.uniform(0.1, 1.0, k)
    s[rng.integers(k)] = size
    rows = np.sqrt(1.0 - s * s)[:, None] * frame[:k] + s[:, None] * frame[k : 2 * k]
    return Subspace(random_orthogonal(rng, k) @ rows), Subspace(frame[:k]), size


# ---------------------------------------------------------------------------
# orthonormalize / Subspace


def test_orthonormalize_identity_basis():
    S = orthonormalize([E1, E2])
    np.testing.assert_allclose(S.basis, np.eye(2), atol=1e-15)


def test_orthonormalize_scaling():
    S = orthonormalize([(2.0, 0.0, 0.0)])
    np.testing.assert_allclose(S.basis, [[1.0, 0.0, 0.0]], atol=1e-15)


def test_orthonormalize_hand_case():
    S = orthonormalize([(1.0, 1.0), (1.0, 0.0)])
    r = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(S.basis, [[r, r], [r, -r]], atol=1e-15)


def test_orthonormalize_rank_deficient_names_index():
    with pytest.raises(RankDeficiencyError) as excinfo:
        orthonormalize([(1.0, 0.0), (2.0, 0.0)])
    assert excinfo.value.index == 1


def test_orthonormalize_too_many_vectors():
    with pytest.raises(ValueError):
        orthonormalize([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])


def test_orthonormality_invariant_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = int(rng.integers(1, 8))
        k = int(rng.integers(1, d + 1))
        S = random_subspace(rng, d, k)
        dev = np.max(np.abs(S.basis @ S.basis.T - np.eye(k)))
        assert dev <= 1e-10


def test_orthonormalize_preserves_span():
    rng = np.random.default_rng(8)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        k = int(rng.integers(1, d + 1))
        vectors = rng.standard_normal((k, d))
        S = orthonormalize(vectors)
        for v in vectors:
            # every input vector reconstructs from the returned basis
            assert np.linalg.norm(v - (v @ S.basis.T) @ S.basis) <= 1e-9


def test_subspace_rejects_skewed_basis():
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0, 0.0], [0.5, 0.5]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row", [0, 1])
def test_subspace_rejects_non_finite_entries(bad, row):
    basis = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    basis[row, 2] = bad
    with pytest.raises(ValueError, match="non-finite entries"):
        Subspace(basis)


@pytest.mark.parametrize("basis", [[[1e200, 0.0, 0.0]], [[1.0, 0.0, 0.0], [0.0, -1e300, 0.0]]])
def test_subspace_rejects_huge_rows_without_warning(basis):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not orthonormal"):
            Subspace(np.array(basis))


def old_orthonormality_error(b):
    """The check the one-Gram check replaced, as the message it raised (None: accepted)."""
    if not np.all(np.isfinite(b)):
        return "basis has non-finite entries"
    dev = float(np.max(np.abs(b @ b.T - np.eye(b.shape[0]))))
    if dev > TOL_ORTHO:
        return f"basis rows are not orthonormal (max |B B^T - I| entry = {dev:.3e})"
    return None


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 12),
    st.integers(0, 12),
    st.floats(9.0, 11.0),
)
def test_subspace_accepts_what_the_old_check_accepts(seed, k, extra, exponent):
    # orthonormal rows pushed 1e-11 .. 1e-9 off, straddling TOL_ORTHO = 1e-10:
    # the same bases pass, and the rejected ones get the same message
    rng = np.random.default_rng(seed)
    q = random_orthogonal(rng, k + extra)[:k]
    b = q + 10.0**-exponent * rng.uniform(-1.0, 1.0, q.shape)
    try:
        Subspace(b)
        error = None
    except ValueError as exc:
        error = str(exc)
    assert error == old_orthonormality_error(b)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.integers(0, 6),
    st.lists(st.floats(9.0, 11.0), min_size=1, max_size=12),
    st.integers(0, 12),
)
def test_stack_check_accepts_what_subspace_accepts(seed, k, extra, exponents, nan_at):
    # Subspace and the trace pass share one kernel: on a stack of bases
    # straddling TOL_ORTHO it names the first basis Subspace rejects, with
    # Subspace's message
    rng = np.random.default_rng(seed)
    stack = np.stack([
        random_orthogonal(rng, k + extra)[:k] + 10.0**-e * rng.uniform(-1.0, 1.0, (k, k + extra))
        for e in exponents
    ])
    if nan_at < len(stack):
        stack[nan_at, -1, 0] = np.nan
    errors = []
    for b in stack:
        try:
            Subspace(b)
        except ValueError as exc:
            errors.append(str(exc))
        else:
            errors.append(None)
    expected = next(((i, e) for i, e in enumerate(errors) if e is not None), None)
    assert first_non_orthonormal(stack) == expected


def test_subspace_basis_read_only():
    S = orthonormalize([E1])
    with pytest.raises(ValueError):
        S.basis[0, 0] = 2.0


# ---------------------------------------------------------------------------
# project / distances


def test_project_onto_own_span():
    S = orthonormalize([E1])
    np.testing.assert_allclose(project(E1, S), E1, atol=1e-15)


def test_project_orthogonal_complement():
    S = orthonormalize([E2])
    np.testing.assert_allclose(project(E1, S), np.zeros(2), atol=1e-15)


def test_project_coordinate_plane():
    S = orthonormalize([(1, 0, 0), (0, 0, 1)])
    np.testing.assert_allclose(project((1.0, 1.0, 0.0), S), [1.0, 0.0, 0.0], atol=1e-15)


def test_project_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        project(np.ones(3), orthonormalize([E1]))


def test_projection_residual_orthogonal():
    rng = np.random.default_rng(9)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        k = int(rng.integers(1, d))
        V = random_subspace(rng, d, k)
        u = rng.standard_normal(d)
        resid = u - project(u, V)
        assert np.max(np.abs(V.basis @ resid)) <= 1e-10


def test_dist_point_subspace_basics():
    line1 = orthonormalize([E1])
    line2 = orthonormalize([E2])
    assert dist_point_subspace(E1, line1) == pytest.approx(0.0, abs=1e-12)
    assert dist_point_subspace(E1, line2) == pytest.approx(1.0, abs=1e-12)
    assert dist_point_subspace((1.0, 1.0), line1) == pytest.approx(1.0, abs=1e-12)


def test_pythagoras():
    rng = np.random.default_rng(10)
    for _ in range(300):
        d = int(rng.integers(2, 7))
        k = int(rng.integers(1, d))
        V = random_subspace(rng, d, k)
        u = rng.standard_normal(d)
        lhs = np.dot(u, u)
        c = V.basis @ u  # coefficients <u, v_j>
        rhs = c @ c + dist_point_subspace(u, V) ** 2
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, lhs)


def test_projection_norm_sq_values():
    def norm_sq(u, V):
        p = project(u, V)
        return float(p @ p)

    assert norm_sq(E1, orthonormalize([E1])) == pytest.approx(1.0)
    assert norm_sq(E1, orthonormalize([E2])) == pytest.approx(0.0)
    u = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert norm_sq(u, orthonormalize([E1])) == pytest.approx(0.5)


def test_projection_norm_identity():
    # sum_j <u, v_j>^2 agrees with ||P_V(u)||^2 to near machine precision
    rng = np.random.default_rng(11)
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(3, d) + 1))
        V = random_subspace(rng, d, k)
        u = rng.standard_normal(d)
        p = project(u, V)
        c = V.basis @ u
        assert abs(float(c @ c) - float(p @ p)) <= 1e-12


# ---------------------------------------------------------------------------
# gap


def test_gap_identity():
    rng = np.random.default_rng(12)
    U = random_subspace(rng, 4, 2)
    assert gap(U, U) == pytest.approx(0.0, abs=1e-12)


def test_gap_orthogonal_lines():
    assert gap(orthonormalize([E1]), orthonormalize([E2])) == pytest.approx(1.0)


def test_gap_diagonal_line():
    diag = orthonormalize([(1.0, 1.0)])
    assert gap(orthonormalize([E1]), diag) == pytest.approx(
        math.sqrt(0.5), abs=1e-12
    )


def test_gap_requires_equal_k():
    U = orthonormalize([(1, 0, 0)])
    V = orthonormalize([(1, 0, 0), (0, 1, 0)])
    with pytest.raises(DimensionMismatchError):
        gap(U, V)


def test_gap_requires_equal_ambient_dim():
    with pytest.raises(DimensionMismatchError):
        gap(orthonormalize([E1]), orthonormalize([(1, 0, 0)]))


def test_gap_range_and_symmetry():
    rng = np.random.default_rng(13)
    for _ in range(300):
        d = int(rng.integers(2, 6))
        k = int(rng.integers(1, min(3, d) + 1))
        U = random_subspace(rng, d, k)
        V = random_subspace(rng, d, k)
        g = gap(U, V)
        assert 0.0 <= g <= 1.0
        assert abs(g - gap(V, U)) <= 1e-9


def test_gap_zero_iff_same_span():
    rng = np.random.default_rng(14)
    for _ in range(200):
        d = int(rng.integers(2, 6))
        k = int(rng.integers(1, min(3, d) + 1))
        U = random_subspace(rng, d, k)
        rotated = Subspace(random_orthogonal(rng, k) @ U.basis)
        assert gap(U, rotated) <= 1e-8


def test_gap_basis_invariance():
    rng = np.random.default_rng(15)
    for _ in range(200):
        d = int(rng.integers(2, 6))
        k = int(rng.integers(1, min(3, d) + 1))
        U = random_subspace(rng, d, k)
        V = random_subspace(rng, d, k)
        g = gap(U, V)
        U2 = Subspace(random_orthogonal(rng, k) @ U.basis)
        V2 = Subspace(random_orthogonal(rng, k) @ V.basis)
        assert abs(gap(U2, V2) - g) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(4, 10),
    st.integers(2, 5),
    st.integers(6, 12),
)
def test_gap_accurate_at_small_scales(seed, d, k, exponent):
    # a k >= 2 basis mixing its principal directions, at gaps 1e-6 .. 1e-12:
    # the error stays at the round-off of forming the residual, ~1e-16
    U, V, exact = tilted_pair(seed, d, min(k, d // 2), 10.0**-exponent)
    assert abs(gap(U, V) - exact) <= 1e-9 * exact + 1e-15


def scaled_residuals(seed, m, k, d, exponents):
    """(m, k, d) stack whose row i has norm 10**-exponents[i] / sqrt(k), so every gap is <= 1."""
    R = np.random.default_rng(seed).standard_normal((m, k, d))
    R /= np.linalg.norm(R, axis=-1, keepdims=True) * math.sqrt(k)
    return R * 10.0 ** -np.asarray(exponents, dtype=float).reshape(1, k, 1)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.integers(1, 8),
    st.integers(0, 32),
    st.lists(st.floats(0.0, 14.0), min_size=8, max_size=8),
)
def test_residual_gap_matches_svd(seed, m, k, extra, exponents):
    # the Gram eigensolve against the SVD it replaced, over mixed row scales
    R = scaled_residuals(seed, m, k, k + extra, exponents[:k])
    np.testing.assert_allclose(
        residual_gap(R), np.linalg.svd(R, compute_uv=False)[..., 0], rtol=1e-13, atol=0
    )


@pytest.mark.parametrize("c", [1e-150, 1e-200, 1e-300])
def test_residual_gap_scales_without_underflow(c):
    # the squares of entries below ~1e-154 underflow; an unscaled Gram returns 0
    R = scaled_residuals(16, 5, 4, 12, [0.0, 1.0, 3.0, 6.0])
    np.testing.assert_array_max_ulp(residual_gap(c * R), c * residual_gap(R), maxulp=4)


def test_residual_gap_of_zero_residuals():
    R = scaled_residuals(17, 1, 3, 7, [0.0, 2.0, 5.0])[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert residual_gap(np.zeros((3, 7))) == 0.0
        mixed = residual_gap(np.stack([np.zeros((3, 7)), R]))
    assert mixed[0] == 0.0
    assert mixed[1] == pytest.approx(np.linalg.svd(R, compute_uv=False)[0], rel=1e-13)


def test_residual_gap_of_one_row_is_its_norm():
    rng = np.random.default_rng(18)
    for d in range(2, 41):
        R = rng.standard_normal((20, 1, d))
        R *= 10.0 ** -rng.uniform(0, 14, (20, 1, 1)) / np.linalg.norm(R, axis=-1, keepdims=True)
        np.testing.assert_array_max_ulp(
            residual_gap(R), np.linalg.norm(R, axis=-1)[..., 0], maxulp=4
        )


# ---------------------------------------------------------------------------
# Gram determinant / joint norm


def gram_det(vectors):
    """The Gram determinant det(X X^T), expanded by the oracle."""
    X = np.asarray(vectors, dtype=float)
    return det_bruteforce(X @ X.T)


def test_gramian_identity_basis():
    assert gram_det([E1, E2]) == pytest.approx(1.0)
    assert n_norm([E1, E2]) ** 2 == pytest.approx(1.0)


def test_gramian_dependent_vectors():
    u = np.array([1.0, 2.0, 3.0])
    assert gram_det([u, u]) == pytest.approx(0.0, abs=1e-12)
    assert n_norm([u, u]) == pytest.approx(0.0, abs=1e-12)


def test_gramian_hand_value():
    # Gram matrix of (1,1), (1,0) is [[2, 1], [1, 1]]
    assert det_bruteforce([[2.0, 1.0], [1.0, 1.0]]) == pytest.approx(1.0)
    assert gram_det([(1.0, 1.0), (1.0, 0.0)]) == pytest.approx(1.0)
    assert n_norm([(1.0, 1.0), (1.0, 0.0)]) ** 2 == pytest.approx(1.0)


def test_gramian_nonnegative_and_dependence():
    # the squared joint norm is the Gram determinant, which vanishes on dependence
    rng = np.random.default_rng(16)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        k = int(rng.integers(1, d + 1))
        vectors = rng.standard_normal((k, d))
        g = gram_det(vectors)
        assert g >= -1e-10
        assert n_norm(vectors) ** 2 == pytest.approx(g, rel=1e-9, abs=1e-12)
        coeffs = rng.standard_normal(k)
        dependent = np.vstack([vectors, coeffs @ vectors])
        if dependent.shape[0] <= d:
            scale = max(1.0, abs(g))
            bound = 1e-10 * scale * np.sum(coeffs**2 + 1)
            assert abs(gram_det(dependent)) <= bound
            assert n_norm(dependent) ** 2 <= bound


def test_gramian_scaling_quadratic():
    rng = np.random.default_rng(17)
    for _ in range(100):
        d = int(rng.integers(2, 6))
        k = int(rng.integers(1, d + 1))
        vectors = rng.standard_normal((k, d))
        c = float(rng.uniform(0.5, 2.0))
        scaled = vectors.copy()
        scaled[0] *= c
        expected = c * c * gram_det(vectors)
        assert gram_det(scaled) == pytest.approx(expected, rel=1e-9)
        assert n_norm(scaled) ** 2 == pytest.approx(expected, rel=1e-9)


def test_n_norm_orthonormal_family():
    assert n_norm([E1, E2]) == pytest.approx(1.0)
    assert n_norm([(1.0, 1.0), (1.0, 0.0)]) == pytest.approx(1.0)


def test_n_norm_with_zero_projection():
    # the projection of e1 onto span{e2} is the zero vector
    p = project(E1, orthonormalize([E2]))
    assert n_norm([E1, p]) == pytest.approx(0.0, abs=1e-12)
    # more vectors than dimensions are always dependent
    assert n_norm([E1, E2, (1.0, 1.0)]) == 0.0


def test_n_norm_resolves_tiny_volumes():
    # a unit vector at residual 1e-10 from its line spans area 1e-10 with it,
    # far below the ~1.5e-8 floor of rooting a Gram determinant
    r = 1e-10
    u = np.array([math.sqrt(1.0 - r * r), r, 0.0])
    assert n_norm([u, (1.0, 0.0, 0.0)]) == pytest.approx(r, rel=1e-6)
    assert n_norm([u, (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)]) == pytest.approx(r, rel=1e-6)


def test_volume_plus_alignment_identity():
    # for unit u and orthonormal v_1..v_k:
    #   ||u, v_1, .., v_k||^2 + sum_j <u, v_j>^2 = 1
    rng = np.random.default_rng(18)
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(3, d) + 1))
        V = random_subspace(rng, d, k)
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        c = V.basis @ u
        total = n_norm(np.vstack([u, V.basis])) ** 2 + c @ c
        assert abs(total - 1.0) <= 1e-10

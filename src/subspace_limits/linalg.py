"""Numerical kernels for subspaces of R^d.

Everything here works on plain float vectors and on `Subspace` objects,
which store an orthonormal basis as rows of a read-only array. The module
provides orthonormalization, orthogonal projection, point-to-subspace
distance, the gap metric (a symmetric eigensolve of the residual's Gram)
and the joint norm (a QR volume) of a vector family; the gap and
orthonormality kernels also take stacks of bases. All functions are pure
and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOL_ORTHO = 1e-10  # max |B B^T - I| entry allowed in an orthonormal basis
RANK_TOL = 1e-8    # elimination residual below which a vector is dependent


class DimensionMismatchError(ValueError):
    """Operands live in different ambient spaces or have incompatible sizes."""


class RankDeficiencyError(ValueError):
    """A spanning set is numerically linearly dependent."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(
            message
            or f"vector {index} is linearly dependent on its predecessors"
        )


def _as_vector(u) -> np.ndarray:
    v = np.asarray(u, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise DimensionMismatchError(f"expected a nonempty 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite coordinates")
    return v


def _as_vector_family(vectors) -> np.ndarray:
    rows = [_as_vector(v) for v in vectors]
    if not rows:
        raise ValueError("expected at least one vector")
    d = rows[0].size
    for i, r in enumerate(rows):
        if r.size != d:
            raise DimensionMismatchError(
                f"vector {i} has length {r.size}, expected {d}"
            )
    return np.vstack(rows)


@dataclass(frozen=True)
class Subspace:
    """A k-dimensional subspace of R^d stored as k orthonormal basis rows.

    The constructor validates the basis: rows must be pairwise orthonormal
    within ``TOL_ORTHO``. Use :func:`orthonormalize` to build a Subspace
    from an arbitrary independent spanning set.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = np.array(self.basis, dtype=float)
        if b.ndim != 2:
            raise ValueError(f"basis must be a 2-d array of rows, got shape {b.shape}")
        k, d = b.shape
        if not 1 <= k <= d:
            raise ValueError(f"need 1 <= k <= d, got k={k}, d={d}")
        bad = first_non_orthonormal(b[None])
        if bad is not None:
            raise ValueError(bad[1])
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def ambient_dim(self) -> int:
        return int(self.basis.shape[1])

    @property
    def k(self) -> int:
        return int(self.basis.shape[0])

    def __repr__(self) -> str:  # keep reprs short; bases can be large
        return f"Subspace(k={self.k}, ambient_dim={self.ambient_dim})"


def first_non_orthonormal(bases: np.ndarray) -> tuple[int, str] | None:
    """(index, reason) of the first basis in a stack (m, k, d) failing ``TOL_ORTHO``, or None."""
    # G - I from one Gram product each; non-finite or huge entries make dev non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        dev = np.abs(bases @ bases.swapaxes(-1, -2) - np.eye(bases.shape[-2])).max(axis=(1, 2))
    i = int(np.argmin(dev <= TOL_ORTHO))  # the first failing basis, or 0 if none fails
    if dev[i] <= TOL_ORTHO:
        return None
    if not np.all(np.isfinite(bases[i])):
        return i, "basis has non-finite entries"
    return i, f"basis rows are not orthonormal (max |B B^T - I| entry = {dev[i]:.3e})"


def orthonormalize(vectors) -> Subspace:
    """Build a Subspace from linearly independent spanning vectors.

    Modified Gram-Schmidt with one full re-orthogonalization pass, which is
    stable enough at the dimensions this library targets (d up to a few
    hundred). Raises :class:`RankDeficiencyError` naming the first vector
    whose elimination residual drops below ``RANK_TOL``.
    """
    rows = _as_vector_family(vectors)
    k, d = rows.shape
    if k > d:
        raise ValueError(f"{k} vectors cannot be independent in dimension {d}")
    basis: list[np.ndarray] = []
    for i in range(k):
        w = rows[i].copy()
        for b in basis:
            w -= (w @ b) * b
        for b in basis:  # second pass kills the round-off left by the first
            w -= (w @ b) * b
        norm = float(np.linalg.norm(w))
        if norm < RANK_TOL:
            raise RankDeficiencyError(i)
        basis.append(w / norm)
    return Subspace(np.vstack(basis))


def project(u, V: Subspace) -> np.ndarray:
    """Orthogonal projection of u onto V: sum_j <u, v_j> v_j."""
    x = _as_vector(u)
    if x.size != V.ambient_dim:
        raise DimensionMismatchError(
            f"vector length {x.size} != ambient dimension {V.ambient_dim}"
        )
    return (x @ V.basis.T) @ V.basis


def dist_point_subspace(u, V: Subspace) -> float:
    """Distance from the point u to the subspace V, i.e. ||u - P_V(u)||."""
    x = _as_vector(u)
    return float(np.linalg.norm(x - project(x, V)))


def cross_residual(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cross-Gram C = A B^T and residual R = A - C B of stacked bases A (..., k, d).

    Row i of R is u_i - P_V(u_i) for the orthonormal basis B of V. R is
    formed from A itself, which keeps small residuals accurate.
    """
    C = A @ B.T
    return C, A - C @ B


def residual_gap(R: np.ndarray) -> np.ndarray:
    """The gap for each stacked residual R: its largest singular value, at most 1.

    Computed as s * sqrt(top eigenvalue of the k x k Gram S S^T), where s is
    R's largest absolute entry and S = R / s, so no square underflows; the
    scaled Gram has a diagonal entry >= 1, so that eigenvalue is >= 1. The
    Gram is formed from R itself, which keeps the result accurate relative
    to the gap's own size, down to the round-off in R.
    """
    s = np.abs(R).max(axis=(-2, -1))
    S = R / np.where(s > 0, s, 1.0)[..., None, None]
    return np.minimum(1.0, s * np.sqrt(np.linalg.eigvalsh(S @ S.swapaxes(-1, -2))[..., -1]))


def gap(U: Subspace, V: Subspace) -> float:
    """Gap between two equal-dimensional subspaces.

    Defined as the supremum of ||u - P_V(u)|| over unit vectors u in U.
    For orthonormal row bases A (for U) and B (for V) this supremum is the
    largest singular value of the residual R = A - (A B^T) B, computed by
    :func:`residual_gap` from the k x k Gram of R. The result is always in [0, 1].
    """
    if U.ambient_dim != V.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {U.ambient_dim} vs {V.ambient_dim}"
        )
    if U.k != V.k:
        raise DimensionMismatchError(
            f"gap is defined for equal-dimensional subspaces only, got k={U.k} and k={V.k}"
        )
    return float(residual_gap(cross_residual(U.basis, V.basis)[1]))


def n_norm(vectors) -> float:
    """Joint norm of a vector family: sqrt of the Gram determinant.

    Measures the r-volume of the parallelotope the r vectors span: |prod diag R|
    of the QR factorization of the d x r matrix whose columns are the vectors.
    It is zero when they are dependent, in particular when r > d, and stays
    accurate far below the ~1e-8 floor of rooting a Gram determinant.
    Kept public under this name because ``bench/spans.py`` wraps it by name.
    """
    rows = _as_vector_family(vectors)
    r, d = rows.shape
    if r > d:
        return 0.0
    R = np.linalg.qr(rows.T, mode="r")
    return float(abs(np.prod(np.diag(R))))

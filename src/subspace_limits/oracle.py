"""Brute-force reference implementations.

These are deliberately independent of the LAPACK kernels in
:mod:`subspace_limits.linalg` (the gap's symmetric eigensolve and the QR
volume): the gap is maximized by sampling the unit sphere of coefficient
space and evaluating the defining residual norm directly, determinants are
expanded over permutations, and symmetric eigenvalues come from cyclic
Jacobi rotations. They exist to cross-check the production code and to pin
down expected values in tests, so they favor transparency over speed and
use no randomness at all.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import DimensionMismatchError, Subspace

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

JACOBI_REL_TOL = 1e-15  # off-diagonal entries below this times ||A||_F count as zero
JACOBI_MAX_SWEEPS = 50


@dataclass(frozen=True)
class SamplingPlan:
    """How hard to search the coefficient sphere.

    ``n_samples`` points are evaluated per level. Level 1 scans the whole
    sphere; each further level rescans a neighborhood of the incumbent
    maximizer whose radius shrinks by a factor of 10.
    """

    k: int
    n_samples: int = 10_000
    levels: int = 3

    def __post_init__(self):
        if not 1 <= self.k <= 3:
            raise ValueError(f"sampling plans cover k in 1..3, got k={self.k}")
        if self.n_samples < 100:
            raise ValueError("n_samples must be at least 100")
        if self.levels < 1:
            raise ValueError("levels must be at least 1")


def _circle_points(n: int) -> np.ndarray:
    theta = 2.0 * math.pi * np.arange(n) / n
    return np.column_stack([np.cos(theta), np.sin(theta)])


def _fibonacci_sphere(n: int) -> np.ndarray:
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * GOLDEN_ANGLE
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def _arc_points(center: np.ndarray, radius: float, n: int) -> np.ndarray:
    theta0 = math.atan2(center[1], center[0])
    theta = theta0 + np.linspace(-radius, radius, n)
    return np.column_stack([np.cos(theta), np.sin(theta)])


def _cap_points(center: np.ndarray, radius: float, n: int) -> np.ndarray:
    """Deterministic spiral filling the geodesic cap around a unit 3-vector."""
    axis = int(np.argmin(np.abs(center)))
    t1 = np.zeros(3)
    t1[axis] = 1.0
    t1 -= (t1 @ center) * center
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(center, t1)
    i = np.arange(n)
    rho = radius * np.sqrt((i + 0.5) / n)
    phi = i * GOLDEN_ANGLE
    tangent = np.outer(np.cos(phi), t1) + np.outer(np.sin(phi), t2)
    pts = np.outer(np.cos(rho), center) + tangent * np.sin(rho)[:, None]
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def gap_bruteforce(U: Subspace, V: Subspace, plan: SamplingPlan | None = None) -> float:
    """Sampled supremum of ||u - P_V(u)|| over unit vectors u in U.

    Coefficient vectors c on the unit sphere of R^k give the unit vectors
    u = c^T A of U; for each sample the residual against V is formed
    explicitly and its norm taken. The result is a lower bound of the true
    supremum that converges to it as sampling densifies; with the default
    plan it is within 1e-3 of the true value for k <= 3.
    """
    if U.ambient_dim != V.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {U.ambient_dim} vs {V.ambient_dim}"
        )
    if U.k != V.k:
        raise DimensionMismatchError(
            f"equal-dimensional subspaces required, got k={U.k} and k={V.k}"
        )
    if U.k > 3:
        raise ValueError(f"brute-force gap supports k <= 3 only, got k={U.k}")
    if plan is None:
        plan = SamplingPlan(U.k)
    if plan.k != U.k:
        raise ValueError(f"plan is for k={plan.k}, subspaces have k={U.k}")

    A = U.basis
    B = V.basis

    def residual_norms(coeffs: np.ndarray) -> np.ndarray:
        pts = coeffs @ A
        proj = (pts @ B.T) @ B
        return np.linalg.norm(pts - proj, axis=1)

    if U.k == 1:
        # the unit sphere of R^1 is {+1, -1}; the scan is exhaustive
        return float(residual_norms(np.array([[1.0], [-1.0]])).max())

    sample = _circle_points if U.k == 2 else _fibonacci_sphere
    refine = _arc_points if U.k == 2 else _cap_points

    coeffs = sample(plan.n_samples)
    vals = residual_norms(coeffs)
    best_idx = int(np.argmax(vals))  # argmax takes the lowest index on ties
    best_val = float(vals[best_idx])
    incumbent = coeffs[best_idx]

    radius = math.pi
    for _ in range(1, plan.levels):
        radius /= 10.0
        coeffs = refine(incumbent, radius, plan.n_samples)
        vals = residual_norms(coeffs)
        idx = int(np.argmax(vals))
        if float(vals[idx]) > best_val:
            best_val = float(vals[idx])
            incumbent = coeffs[idx]
    return best_val


def frame_embedding(C, T) -> tuple[Subspace, Subspace]:
    """U = span [C | T], V = span [I | 0] in R^2k: cross-Gram C and residual [0 | T]."""
    return Subspace(np.hstack([C, T])), Subspace(np.eye(len(C), 2 * len(C)))


def _permutation_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def det_bruteforce(matrix) -> float:
    """Determinant by signed permutation expansion. Supports sizes up to 6."""
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    n = M.shape[0]
    if n > 6:
        raise ValueError(f"permutation expansion supports sizes up to 6, got {n}")
    total = 0.0
    for perm in itertools.permutations(range(n)):
        term = _permutation_sign(perm)
        for i, j in enumerate(perm):
            term *= M[i, j]
        total += term
    return float(total)


def jacobi_eigenvalues(matrix) -> np.ndarray:
    """Eigenvalues of a small symmetric matrix by cyclic Jacobi rotations.

    Returns the eigenvalues sorted ascending. Sweeps stop once every
    off-diagonal entry is at most ``JACOBI_REL_TOL`` times the Frobenius norm of
    the matrix, so the stopping rule scales with the matrix: a residual
    Gram R R^T with entries near 1e-14 is still rotated to convergence.
    Intended for the k x k matrices arising in gap computations (k <= 10).
    """
    A = np.array(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    if float(np.max(np.abs(A - A.T))) > 1e-12 * max(1.0, float(np.max(np.abs(A)))):
        raise ValueError("matrix is not symmetric")
    A = 0.5 * (A + A.T)
    tol = JACOBI_REL_TOL * float(np.linalg.norm(A))
    for _ in range(JACOBI_MAX_SWEEPS):
        if np.abs(A - np.diag(np.diag(A))).max() <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= tol:
                    continue
                # classical symmetric Schur rotation annihilating A[p, q]
                tau = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                J = np.eye(n)
                J[p, p] = J[q, q] = c
                J[p, q], J[q, p] = t * c, -t * c
                A = J.T @ A @ J
                A[p, q] = A[q, p] = 0.0
    return np.sort(np.diag(A))

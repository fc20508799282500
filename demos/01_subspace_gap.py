"""How far apart are two subspaces of R^d?

Walks through the basic kernels: building orthonormal bases, projecting
vectors, measuring point-to-subspace distances, and finally the gap
metric between equal-dimensional subspaces, cross-checked against the
brute-force sampler.
"""

import numpy as np

from subspace_limits import gap, orthonormalize
from subspace_limits.oracle import SamplingPlan, gap_bruteforce

# Any independent spanning set becomes an orthonormal basis.
plane = orthonormalize([(1.0, 1.0, 0.0), (1.0, 0.0, 1.0)])
print("a plane in R^3, orthonormal basis rows:")
print(np.round(plane.basis, 6))
print()

# Projection splits a vector into an in-plane part and a residual: with the
# basis rows v_j, P(u) = sum_j <u, v_j> v_j, and the distance from u to the
# plane is the residual's norm.
u = np.array([2.0, -1.0, 0.5])
p = (u @ plane.basis.T) @ plane.basis
print(f"u            = {u}")
print(f"P(u)         = {np.round(p, 6)}")
print(f"residual     = {np.round(u - p, 6)}")
print(f"distance     = {np.linalg.norm(u - p):.6f}")
print(f"Pythagoras   : |u|^2 = {u @ u:.6f} = "
      f"{p @ p:.6f} + {np.linalg.norm(u - p) ** 2:.6f}")
print()

# The gap between two subspaces is the worst-case residual over all unit
# vectors of the first. It is 0 exactly for equal spans and 1 when some
# direction of U is orthogonal to all of V.
line_x = orthonormalize([(1.0, 0.0)])
line_y = orthonormalize([(0.0, 1.0)])
line_diag = orthonormalize([(1.0, 1.0)])
print("gaps between lines in R^2:")
print(f"  gap(x-axis, x-axis)   = {gap(line_x, line_x):.12f}")
print(f"  gap(x-axis, y-axis)   = {gap(line_x, line_y):.12f}")
print(f"  gap(x-axis, diagonal) = {gap(line_x, line_diag):.12f}  (= sqrt(1/2))")
print()

# The closed form agrees with a derivative-free sampled supremum.
rng = np.random.default_rng(0)
print("closed form vs brute-force sampling on random pairs:")
for trial in range(5):
    d = int(rng.integers(2, 6))
    k = int(rng.integers(1, min(3, d) + 1))
    U = orthonormalize(rng.standard_normal((k, d)))
    V = orthonormalize(rng.standard_normal((k, d)))
    exact = gap(U, V)
    sampled = gap_bruteforce(U, V, SamplingPlan(k, n_samples=4000, levels=3))
    print(f"  d={d} k={k}: closed {exact:.9f}   sampled {sampled:.9f}   "
          f"diff {abs(exact - sampled):.2e}")

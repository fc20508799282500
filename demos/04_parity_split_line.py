"""One sequence, three convergence notions, three different answers.

The parity-split line in R^3 points at a fixed direction orthogonal to
the limit on every odd index and tilts into the limit on even indices.
Under the finite ideal (plain convergence) the odd indices are fatal;
under the zero-density ideal (statistical convergence) they still carry
density 1/2; under the block ideal they are a single negligible block,
so the sequence converges there, exactly, by certificate.

The 'printed' variant shows what happens when the tilt's raw
coefficients share a common decay factor: normalization cancels it and
the even-index gaps oscillate forever instead of decaying.
"""

import numpy as np

from subspace_limits import (
    Ideal,
    gap_trace,
    parity_split_example,
    subspace_i_converges,
)

HORIZON = 10_000

seq, V, recommended = parity_split_example("amended")
print(f"sequence: {seq.description}")
print(f"candidate limit: span of {V.basis.tolist()}")
print()

trace = dict(gap_trace(seq, V, HORIZON))
print("gap samples (odd indices pin the gap at 1, even indices decay):")
for n in (1, 2, 3, 10, 100, 101, 1000, 9999, 10000):
    print(f"  n={n:<6d} gap = {trace[n]:.8f}")
print()

print(f"verdicts at horizon {HORIZON}:")
for ideal in (Ideal.finite(), Ideal.density(), Ideal.blocks()):
    report = subspace_i_converges(seq, V, ideal, horizon=HORIZON)
    eps_rows = report.criteria[0].per_vector[0].per_epsilon
    modes = {v.mode.value for _, v in eps_rows}
    print(f"  {ideal.kind:>8s}: {report.overall.value:<18s} (modes: {sorted(modes)})")
print()

# the exceptional sets behind the density verdict really have density 1/2
report = subspace_i_converges(seq, V, Ideal.density(), horizon=HORIZON)
for eps, verdict in report.criteria[0].per_vector[0].per_epsilon:
    print(f"  eps={eps:<5g} exceptional density = {verdict.evidence['final_density']:.4f}")
print()

printed, V2, _ = parity_split_example("printed")
printed_trace = dict(gap_trace(printed, V2, HORIZON))
late = [printed_trace[n] for n in range(5000, HORIZON + 1, 2)]
print("printed variant, even indices in [5000, 10000]:")
print(f"  max gap = {max(late):.6f}, mean gap = {np.mean(late):.6f}")
print("  the common 1/n factor cancels under normalization, so the tilt")
print("  never dies out and no ideal in the battery rescues convergence.")

"""A sequence that never moves and never converges.

The constant line span{e1} in R^2, judged against the candidate limit
V = span{e2}. Every gap equals 1, so the sequence converges under no
ideal. Yet the joint volume of each basis vector with its own projection
is identically zero, because the projection collapses to the zero
vector. The volume criterion is therefore necessary but not sufficient:
this sequence satisfies it while failing to converge.
"""

from subspace_limits import (
    Ideal,
    constant_orthogonal_example,
    criterion_traces,
    gap_trace,
    self_projection_volume_check,
    subspace_i_converges,
)

HORIZON = 1000

seq, V = constant_orthogonal_example()
print(f"sequence: {seq.description}")
print(f"candidate limit: span of {V.basis.tolist()}")
print()

trace = gap_trace(seq, V, 5)
print(f"gap trace starts {[(n, g) for n, g in trace]} ... and stays at 1")
print()

traces = criterion_traces(seq, V, HORIZON)
print(f"self-projection volume: min {traces.self_volume.min()}, "
      f"max {traces.self_volume.max()} (identically zero)")
print()

for ideal in (Ideal.finite(), Ideal.density(), Ideal.blocks()):
    report = subspace_i_converges(seq, V, ideal, horizon=HORIZON)
    check = self_projection_volume_check(seq, V, ideal, horizon=HORIZON, traces=traces)
    print(f"{ideal.kind:>8s} ideal: subspace verdict = {report.overall.value:<18s}"
          f" volume criterion = {check.volume.overall.value:<10s}"
          f" converse falsified = {check.converse_falsified}")

print()
print("the volume criterion converges while the sequence does not:")
print("satisfying the necessary condition proves nothing by itself.")

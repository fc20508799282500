"""Five ways of saying the same thing.

Convergence of U_n to V is equivalent to four per-basis-vector limits:
residuals to 0, coefficient masses to 1, projection norms to 1, joint
volumes to 0. The suite evaluates all five side by side and reports an
agreement matrix. On a well-behaved family the five verdicts coincide,
whatever the ideal.
"""

from subspace_limits import Ideal, criterion_traces, equivalence_suite
from subspace_limits.sequences import rotating_family

HORIZON = 1000

# A two-plane in R^5 drifting into its limit like 0.45 / n^2 in one
# direction and 0.3 / n^2 in the other.
seq, V = rotating_family(
    ambient_dim=5,
    k=2,
    profile={"kind": "power_decay", "scale": [0.45, 0.3], "exponent": 2.0},
    seed=42,
)
print(f"sequence: {seq.description}")
print()

traces = criterion_traces(seq, V, HORIZON)
print("per-index worst-case values (n = 1, 3, 10, 100):")
print("  n    gap        max residual   min coeff mass   min proj norm")
for n in (1, 3, 10, 100):
    i = n - 1
    print(
        f"  {n:<4d} {traces.gap[i]:.6f}   {traces.residual[i].max():.6f}"
        f"       {traces.coefficient_mass[i].min():.6f}"
        f"         {traces.projection_norm[i].min():.6f}"
    )
print()

for ideal in (Ideal.finite(), Ideal.density(), Ideal.blocks()):
    report = equivalence_suite(seq, V, ideal, horizon=HORIZON, traces=traces)
    print(f"{ideal.kind} ideal:")
    for crit in report.criteria:
        print(f"  {crit.name:<18s} {crit.overall.value}")
    rows = report.agreement_matrix()
    flat = "all agree" if report.criteria_agree() else "DISAGREEMENT"
    print(f"  agreement: {flat}")
    print()

# A divergent cousin: one direction refuses to settle.
stubborn, V2 = rotating_family(
    ambient_dim=5,
    k=2,
    profile={"kind": "constant", "value": [0.6, 0.0]},
    seed=43,
)
report = equivalence_suite(stubborn, V2, Ideal.density(), horizon=HORIZON)
print("a plane with one non-converging direction, density ideal:")
for crit in report.criteria:
    print(f"  {crit.name:<18s} {crit.overall.value}")
print(f"  agreement: {'all agree' if report.criteria_agree() else 'DISAGREEMENT'}")

"""Which subsets of N count as negligible?

Shows the three built-in ideals at work: partial densities and their
dyadic trend, the dyadic block partition of N, how tail certificates
turn horizon-limited observations into exact membership verdicts, the
dual filters, and the axioms that make each ideal admissible.
"""

import numpy as np

from subspace_limits import (
    EmptyTail,
    Ideal,
    IndexSet,
    SubsetOfBlocks,
    SubsetOfUnion,
    axioms_check,
    block_index,
    decide_membership,
)

HORIZON = 10_000

# The dyadic blocks partition N by the power of two dividing each number.
print("block index of 1..16:", [block_index(n) for n in range(1, 17)])
print()

odds = IndexSet(HORIZON, np.arange(1, HORIZON + 1, 2))
evens = IndexSet(HORIZON, np.arange(2, HORIZON + 1, 2))
squares = IndexSet(HORIZON, [i * i for i in range(1, 101)])

# Partial densities count members up to j; the natural density is their limit.
print("partial densities of the odd numbers:")
for j in (10, 100, 1000, HORIZON):
    count = np.searchsorted(odds.members, j, side="right")  # members up to j
    print(f"  d_{j}(odds) = {count / j:.4f}")
# The density ideal's verdict carries the partial densities at dyadic checkpoints.
squares_verdict = decide_membership(Ideal.density(), squares)
print("dyadic density trail of the squares:",
      [f"{d:.4f}" for _, d in squares_verdict.evidence["checkpoints"]], "-> shrinking toward 0")
print()


def show(label, verdict):
    print(f"  {label:<46s} {verdict.status.value:<14s} ({verdict.mode.value})")


# Without certificates the verdicts extrapolate from the data.
print(f"membership verdicts at horizon {HORIZON}:")
for ideal in (Ideal.finite(), Ideal.density(), Ideal.blocks()):
    show(f"odds in {ideal.kind} ideal", decide_membership(ideal, odds))
print()

# The squares have density zero; the data shows it.
show("squares in density ideal", squares_verdict)

# A certificate upgrades the verdict to exact: the odds are exactly the
# first dyadic block.
show("odds in blocks ideal, certified",
     decide_membership(Ideal.blocks(), odds, SubsetOfBlocks((1,))))

# Certificates compose: a set inside block 1 plus a finite prefix.
messy = IndexSet(HORIZON, np.concatenate([odds.members, [2, 4, 8]]))
cert = SubsetOfUnion((SubsetOfBlocks((1,)), EmptyTail(10)))
show("odds + {2,4,8} in blocks ideal, certified",
     decide_membership(Ideal.blocks(), messy, cert))

# Filters are the dual picture: a set is in the filter exactly when its
# complement within the horizon is negligible, so the complement is judged.
complement = IndexSet(HORIZON, np.setdiff1d(np.arange(1, HORIZON + 1), evens.members))
show("evens in blocks FILTER (complement = odds)",
     decide_membership(Ideal.blocks(), complement, SubsetOfBlocks((1,))))
print()

# Each ideal is admissible: it holds the empty set and every singleton, is
# closed under unions and subsets, and does not hold all of N. The checks run
# on a small certified family at the horizon.
family = [
    (IndexSet(HORIZON, []), EmptyTail(0)),
    (IndexSet(HORIZON, [2, 4]), EmptyTail(4)),
    (odds, SubsetOfBlocks((1,))),
]
print("ideal axioms on a certified family:")
for ideal in (Ideal.finite(), Ideal.density(), Ideal.blocks()):
    report = axioms_check(ideal, family)
    checks = ", ".join(f"{c.name} {'ok' if c.passed else 'FAILED'}" for c in report.checks)
    print(f"  {ideal.kind:<8s} {'admissible' if report.passed else 'NOT admissible'}: {checks}")

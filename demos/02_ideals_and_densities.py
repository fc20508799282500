"""Which subsets of N count as negligible?

Shows the three built-in ideals at work: partial densities and their
dyadic trend, the dyadic block partition of N, and how tail certificates
turn horizon-limited observations into exact membership verdicts.
"""

import numpy as np

from subspace_limits import (
    EmptyTail,
    Ideal,
    IndexSet,
    SubsetOfBlocks,
    SubsetOfUnion,
    block_index,
    decide_membership,
    filter_contains,
    partial_density,
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
    print(f"  d_{j}(odds) = {partial_density(odds, j):.4f}")
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

# Filters are the dual picture: large sets whose complement is negligible.
show("evens in blocks FILTER (complement = odds)",
     filter_contains(Ideal.blocks(), evens, SubsetOfBlocks((1,))))

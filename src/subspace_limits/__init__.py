"""Gap metric between subspaces of R^d and ideal-based convergence analysis.

The library splits into four layers:

* :mod:`subspace_limits.linalg` -- orthonormal bases, the batched
  residual kernels, the gap metric and joint norms;
* :mod:`subspace_limits.ideals` -- ideals on N, one class per family
  (finite, zero-density, dyadic-block), with certificate-backed
  membership verdicts;
* :mod:`subspace_limits.sequences` -- the subspace sequence type, which
  evaluates its own chunks of indices into checked bases, and every
  built-in sequence;
* :mod:`subspace_limits.convergence` -- the engine deciding whether a
  sequence of subspaces converges to a candidate limit under an ideal,
  with five equivalent criteria evaluated side by side.

The console script ``subspace-limits`` (see :mod:`subspace_limits.cli`)
wraps the engine for file-based experiments. :mod:`subspace_limits.oracle`
holds slow, independent brute-force versions of the linalg quantities for
cross-checking; it is imported from there, never by the package itself.
"""

from types import ModuleType as _ModuleType

from .convergence import (
    DEFAULT_EPS_GRID,
    ConvergenceReport,
    CriterionReport,
    CriterionTraces,
    ScalarLimitReport,
    Verdict,
    VolumeCheckReport,
    criterion_traces,
    equivalence_suite,
    gap_trace,
    self_projection_volume_check,
    subspace_i_converges,
)
from .ideals import (
    IDEALS,
    AxiomsReport,
    CertificateError,
    EmptyTail,
    Ideal,
    IdealVerdict,
    IndexSet,
    Mode,
    Status,
    SubsetOfBlocks,
    SubsetOfUnion,
    TailCertificate,
    axioms_check,
    block_index,
    decide_membership,
)
from .linalg import (
    DimensionMismatchError,
    RankDeficiencyError,
    Subspace,
    gap,
    n_norm,
    orthonormalize,
)
from .sequences import (
    RuleEvaluationError,
    SubspaceSequence,
    constant_orthogonal_example,
    parity_split_example,
)

__version__ = "0.1.0"

# the names imported above, without the submodules they come from
__all__ = sorted(n for n, v in globals().items() if n[0] != "_" and not isinstance(v, _ModuleType))

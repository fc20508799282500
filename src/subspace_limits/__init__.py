"""Gap metric between subspaces of R^d and ideal-based convergence analysis.

The library splits into four layers:

* :mod:`subspace_limits.linalg` -- orthonormal bases, projections, the
  gap metric and joint norms;
* :mod:`subspace_limits.oracle` -- slow, independent brute-force versions
  of the same quantities, used for cross-checking;
* :mod:`subspace_limits.ideals` -- ideals on N, one class per family
  (finite, zero-density, dyadic-block), with certificate-backed
  membership verdicts;
* :mod:`subspace_limits.convergence` -- the engine deciding whether a
  sequence of subspaces converges to a candidate limit under an ideal,
  with five equivalent criteria evaluated side by side.

The console script ``subspace-limits`` (see :mod:`subspace_limits.cli`)
wraps the engine for file-based experiments.
"""

from .convergence import (
    CRITERION_NAMES,
    DEFAULT_EPS_GRID,
    ConvergenceReport,
    CriterionReport,
    CriterionTraces,
    RuleEvaluationError,
    ScalarLimitReport,
    ScalarSequence,
    SubspaceSequence,
    Verdict,
    VolumeCheckReport,
    constant_orthogonal_example,
    criterion_traces,
    equivalence_suite,
    exceptional_set,
    gap_trace,
    parity_split_example,
    scalar_i_limit,
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
    filter_contains,
    partial_density,
)
from .linalg import (
    DimensionMismatchError,
    RankDeficiencyError,
    Subspace,
    dist_point_subspace,
    gap,
    n_norm,
    orthonormalize,
    project,
)
from .oracle import SamplingPlan, det_bruteforce, gap_bruteforce, jacobi_eigenvalues

__version__ = "0.1.0"

__all__ = [
    "AxiomsReport",
    "CRITERION_NAMES",
    "CertificateError",
    "ConvergenceReport",
    "CriterionReport",
    "CriterionTraces",
    "DEFAULT_EPS_GRID",
    "DimensionMismatchError",
    "EmptyTail",
    "IDEALS",
    "Ideal",
    "IdealVerdict",
    "IndexSet",
    "Mode",
    "RankDeficiencyError",
    "RuleEvaluationError",
    "SamplingPlan",
    "ScalarLimitReport",
    "ScalarSequence",
    "Status",
    "SubsetOfBlocks",
    "SubsetOfUnion",
    "Subspace",
    "SubspaceSequence",
    "TailCertificate",
    "Verdict",
    "VolumeCheckReport",
    "axioms_check",
    "block_index",
    "constant_orthogonal_example",
    "criterion_traces",
    "decide_membership",
    "det_bruteforce",
    "dist_point_subspace",
    "equivalence_suite",
    "exceptional_set",
    "filter_contains",
    "gap",
    "gap_bruteforce",
    "gap_trace",
    "jacobi_eigenvalues",
    "n_norm",
    "orthonormalize",
    "parity_split_example",
    "partial_density",
    "project",
    "scalar_i_limit",
    "self_projection_volume_check",
    "subspace_i_converges",
]

"""Gap metric between subspaces of R^d and ideal-based convergence analysis.

The library splits into four layers:

* :mod:`subspace_limits.linalg` -- orthonormal bases, projections, the
  gap metric, Gram determinants and joint norms;
* :mod:`subspace_limits.oracle` -- slow, independent brute-force versions
  of the same quantities, used for cross-checking;
* :mod:`subspace_limits.ideals` -- ideals on N (finite, zero-density,
  dyadic-block) with certificate-backed membership verdicts;
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
    statistical_converges,
    subspace_i_converges,
    usual_converges,
)
from .ideals import (
    AxiomsReport,
    CertificateError,
    DensityEstimate,
    EmptyTail,
    Ideal,
    IdealKind,
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
    density_estimate,
    filter_contains,
    partial_density,
)
from .linalg import (
    DimensionMismatchError,
    RankDeficiencyError,
    Subspace,
    dist_point_subspace,
    gap,
    gram_matrix,
    gramian,
    inner,
    n_norm,
    orthonormalize,
    project,
    projection_norm_sq,
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
    "DensityEstimate",
    "DimensionMismatchError",
    "EmptyTail",
    "Ideal",
    "IdealKind",
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
    "density_estimate",
    "det_bruteforce",
    "dist_point_subspace",
    "equivalence_suite",
    "exceptional_set",
    "filter_contains",
    "gap",
    "gap_bruteforce",
    "gap_trace",
    "gram_matrix",
    "gramian",
    "inner",
    "jacobi_eigenvalues",
    "n_norm",
    "orthonormalize",
    "parity_split_example",
    "partial_density",
    "project",
    "projection_norm_sq",
    "scalar_i_limit",
    "self_projection_volume_check",
    "statistical_converges",
    "subspace_i_converges",
    "usual_converges",
]

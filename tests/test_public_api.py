"""The public surface holds only names that the library, a demo or the benchmark uses.

A name exported from ``subspace_limits`` stays only if a line other than its
own definition names it in a library module (``__init__.py`` aside, which
only re-exports), a demo or ``bench/``. A name added to the package, or left
without a caller, fails here. The oracle's names are not exported: tests and
demos import them from ``subspace_limits.oracle``.
"""

import re
from pathlib import Path

import subspace_limits

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "subspace_limits"

PUBLIC = [
    "AxiomsReport",
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
    "ScalarLimitReport",
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
    "equivalence_suite",
    "gap",
    "gap_trace",
    "n_norm",
    "orthonormalize",
    "parity_split_example",
    "self_projection_volume_check",
    "subspace_i_converges",
]


def _definition(name):
    """A line defining ``name``: its def or class line, or a top-level assignment."""
    return re.compile(rf"^\s*(?:def|class)\s+{name}\b|^{name}\s*(?::[^=]*)?=")


def test_public_names_are_pinned():
    assert PUBLIC == sorted(PUBLIC)
    assert subspace_limits.__all__ == PUBLIC


def test_every_public_name_has_a_caller():
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    lines = [line for path in files for line in path.read_text().splitlines()]
    orphans = []
    for name in subspace_limits.__all__:
        defines, names = _definition(name), re.compile(rf"\b{name}\b")
        if not any(names.search(line) and not defines.search(line) for line in lines):
            orphans.append(name)
    assert not orphans, f"public names with no caller outside their definition: {orphans}"

"""Correctness checks for benchmark outputs.

Every check returns a list of problems; an empty list means the output is
correct. The expected values are independent of the library: verdicts
come from the paper's analysis of each sequence and gaps from their
closed forms.
"""

from __future__ import annotations

import io
import json

import numpy as np

GAP_RTOL = 1e-9
TRACE_HEADER = "n,gap,crit2_max_i,crit3_min_i,crit4_min_i,crit5_max_i"
CONVERGES = "converges"
DOES_NOT_CONVERGE = "does_not_converge"

# verdict-sweep: (variant, ideal kind) -> overall verdict. The amended
# parity-split line is bad on every odd index (density 1/2, all in dyadic
# block 1), so only the block ideal absorbs it; the printed variant's even
# indices never settle, so no ideal does.
SWEEP_EXPECTED = {
    ("amended", "finite"): DOES_NOT_CONVERGE,
    ("amended", "density"): DOES_NOT_CONVERGE,
    ("amended", "blocks"): CONVERGES,
    ("printed", "finite"): DOES_NOT_CONVERGE,
    ("printed", "density"): DOES_NOT_CONVERGE,
    ("printed", "blocks"): DOES_NOT_CONVERGE,
}


def parity_gap(horizon: int, variant: str = "amended") -> np.ndarray:
    """Gap of the parity-split line to span{e2}: 1 on odd n, a tilt on even n."""
    n = np.arange(1, horizon + 1, dtype=float)
    s = np.abs(np.sin(n))
    even = s / np.sqrt(n * n + s * s) if variant == "amended" else s / np.sqrt(1.0 + s * s)
    return np.where(n % 2 == 1, 1.0, even)


def rotating_gap(horizon: int, scale: float, exponent: float) -> np.ndarray:
    """Gap of the rotating family with a power-decay profile: min(1, a / n^p)."""
    n = np.arange(1, horizon + 1, dtype=float)
    return np.minimum(1.0, scale / n**exponent)


def gap_problems(label: str, gap: np.ndarray, expected: np.ndarray) -> list[str]:
    """Relative agreement with the closed form, index by index."""
    gap = np.asarray(gap, dtype=float)
    if gap.shape != expected.shape:
        return [f"{label}: {gap.shape[0]} gap values, expected {expected.shape[0]}"]
    rel = np.abs(gap - expected) / expected
    bad = np.flatnonzero(~(rel <= GAP_RTOL))  # NaN counts as bad
    if bad.size == 0:
        return []
    i = int(bad[0])
    return [
        f"{label}: gap at n={i + 1} is {float(gap[i])!r}, closed form {float(expected[i])!r} "
        f"(relative error {rel[i]:.3g} > {GAP_RTOL:g}; {bad.size} indices off)"
    ]


def trace_csv_gap(data: bytes) -> tuple[np.ndarray, list[str]]:
    """The gap column of a trace CSV, plus problems with the file's layout."""
    text = data.decode()
    header, _, body = text.partition("\n")
    if header != TRACE_HEADER:
        return np.empty(0), [f"trace.csv header is {header!r}"]
    rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    if rows.shape[1] != 6 or not np.array_equal(rows[:, 0], np.arange(1, len(rows) + 1)):
        return np.empty(0), ["trace.csv rows do not cover n = 1..horizon"]
    return rows[:, 1], []


def exit_problems(code: int, expected: int) -> list[str]:
    return [] if code == expected else [f"exit code {code}, expected {expected}"]


def suite_report_problems(doc: dict) -> list[str]:
    """All five criteria and the self-projection volume check converge."""
    problems = []
    by_criterion = doc.get("agreement", {}).get("overall_by_criterion", {})
    if len(by_criterion) != 5:
        problems.append(f"suite report has {len(by_criterion)} criteria, expected 5")
    for name, verdict in sorted(by_criterion.items()):
        if verdict != CONVERGES:
            problems.append(f"criterion {name}: {verdict}, expected {CONVERGES}")
    volume = doc.get("volume_check", {}).get("volume", {}).get("overall")
    if volume != CONVERGES:
        problems.append(f"volume check: {volume}, expected {CONVERGES}")
    return problems


def analyze_report_problems(doc: dict) -> list[str]:
    verdict = doc.get("overall")
    return [] if verdict == CONVERGES else [f"analyze verdict {verdict}, expected {CONVERGES}"]


def sweep_problems(results: list[dict]) -> list[str]:
    """Expected verdict, and agreement of the five criteria, in every case."""
    problems = []
    seen = {(r["variant"], r["ideal"]) for r in results}
    if seen != set(SWEEP_EXPECTED):
        problems.append(f"sweep covered {sorted(seen)}, expected {sorted(SWEEP_EXPECTED)}")
    for r in results:
        case = f"{r['variant']}/{r['ideal']}"
        expected = SWEEP_EXPECTED.get((r["variant"], r["ideal"]))
        if r["overall"] != expected:
            problems.append(f"{case}: {r['overall']}, expected {expected}")
        if not r["criteria_agree"]:
            problems.append(f"{case}: the five criteria disagree {r['by_criterion']}")
        if not r["implication_holds"]:
            problems.append(f"{case}: convergence without vanishing self-projection volumes")
    return problems


def identity_problems(files: dict[str, bytes], reference: dict[str, bytes]) -> list[str]:
    """Byte identity with the first operation's output files."""
    return [
        f"{name} differs from the first operation's ({len(data)} vs "
        f"{len(reference.get(name, b''))} bytes)"
        for name, data in sorted(files.items())
        if data != reference.get(name)
    ]


def parse_json(name: str, data: bytes) -> tuple[dict, list[str]]:
    try:
        return json.loads(data), []
    except ValueError as exc:
        return {}, [f"{name} is not valid JSON: {exc}"]

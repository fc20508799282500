"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs one operation of each workload, confirms that the workload's own
check accepts the real output, then plants faults (a wrong verdict, a
gap value perturbed by ten times the tolerance, a changed byte, a wrong
exit code) and confirms that each one is flagged. Exits 1 if a check
misses a planted fault or rejects a correct output.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys

import run  # pins the BLAS pools before numpy loads

import checks

PERTURBATION = 1 + 10 * checks.GAP_RTOL
failures: list[str] = []


def expect(label: str, problems: list[str], flagged: bool) -> None:
    ok = bool(problems) == flagged
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {problems[0] if problems else 'no problems'}")
    if not ok:
        failures.append(label)


def perturb_csv_gap(csv: bytes, n: int) -> bytes:
    lines = csv.decode().split("\n")
    fields = lines[n].split(",")  # line 0 is the header, so line n holds index n
    fields[1] = f"{float(fields[1]) * PERTURBATION:.17g}"
    lines[n] = ",".join(fields)
    return "\n".join(lines).encode()


def cli_workload(lib, w, plant_verdict) -> None:
    work = run.OUT / "selftest" / w.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    w.prepare(0, work)
    state = w.setup(lib)
    code = w.op(lib, state)
    problems, files = w.check(code, None)
    expect(f"{w.name} output", problems, flagged=False)
    expect(f"{w.name} wrong exit code", w.check(1, None)[0], flagged=True)

    report, trace = w.out / w.files[0], w.out / "trace.csv"
    doc = json.loads(files[w.files[0]])
    report.write_text(json.dumps(doc))  # same content, other bytes
    expect(f"{w.name} reformatted report", w.check(code, None)[0], flagged=False)
    expect(f"{w.name} reformatted report vs first op", w.check(code, files)[0], flagged=True)
    plant_verdict(doc)
    report.write_text(json.dumps(doc))
    expect(f"{w.name} planted wrong verdict", w.check(code, None)[0], flagged=True)
    report.write_bytes(files[w.files[0]])

    trace.write_bytes(perturb_csv_gap(files["trace.csv"], 10))
    expect(f"{w.name} perturbed trace value", w.check(code, None)[0], flagged=True)
    trace.write_bytes(files["trace.csv"])
    expect(f"{w.name} restored output", w.check(code, files)[0], flagged=False)


def plant_suite_verdict(doc: dict) -> None:
    doc["agreement"]["overall_by_criterion"]["joint_volume"] = checks.DOES_NOT_CONVERGE


def plant_analyze_verdict(doc: dict) -> None:
    doc["overall"] = checks.DOES_NOT_CONVERGE


def verdict_sweep(lib, w) -> None:
    cases = w.setup(lib)
    expect("verdict-sweep set-up traces", w.setup_problems(lib, cases), flagged=False)
    seq, V, traces = cases["amended"]
    gap = traces.gap.copy()
    gap[9] *= PERTURBATION
    bad = {**cases, "amended": (seq, V, dataclasses.replace(traces, gap=gap))}
    expect("verdict-sweep perturbed trace value", w.setup_problems(lib, bad), flagged=True)

    out = w.op(lib, cases)
    problems, results = w.check(out, None)
    expect("verdict-sweep output", problems, flagged=False)
    variant, kind, suite, volume = out[0]  # amended under the finite ideal
    wrong = dataclasses.replace(suite, overall=lib.convergence.Verdict.CONVERGES)
    planted = [(variant, kind, wrong, volume)] + out[1:]
    expect("verdict-sweep planted wrong verdict", w.check(planted, None)[0], flagged=True)
    expect("verdict-sweep changed verdict vs first op", w.check(planted, results)[0],
           flagged=True)


def main() -> int:
    lib = run.load_library()
    from workloads import WORKLOADS

    cli_workload(lib, WORKLOADS["parity-suite"], plant_suite_verdict)
    cli_workload(lib, WORKLOADS["rotating-analyze"], plant_analyze_verdict)
    verdict_sweep(lib, WORKLOADS["verdict-sweep"])
    shutil.rmtree(run.OUT / "selftest", ignore_errors=True)
    print("every planted fault was flagged" if not failures else f"missed: {failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

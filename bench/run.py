"""Benchmark for subspace-limits: time to a verdict, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

A run is one closed-loop client in one process: each operation starts
after the previous one has finished and its output has been checked.
Set-up (importing ``subspace_limits`` from ``src/`` and building the
inputs) is timed in this process and in a few fresh interpreters, and
its median reported. One untimed warm-up operation follows, then
operations run for ``--seconds``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced operations with traced ones, in which every layer boundary is
wrapped (see ``spans.py``), and reports per-layer metrics as medians over
the traced operations; the spans go to ``.bench_out/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--all`` runs
every workload in its own process and then prints each one's summary:
every metric by name with its unit, and the failure rate.
"""

from __future__ import annotations

import os

# Pin the BLAS and OpenMP pools before numpy loads, so that timings measure
# the program and not the scheduler, and run the library serially (its
# default) whatever the caller's environment says.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
CALLER_THREADS = os.environ.pop("SUBSPACE_LIMITS_THREADS", None)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("parity-suite", "rotating-analyze", "verdict-sweep")
MIN_OPS = 3
CHILD_TIMEOUT_S = 175
SHOWN_PROBLEMS = 10


def load_library() -> SimpleNamespace:
    """Import the package from this checkout's ``src/``, never an installed copy."""
    if not (SRC / "subspace_limits" / "__init__.py").is_file():
        sys.exit(f"error: no subspace_limits package under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {
        name: importlib.import_module(f"subspace_limits.{name}")
        for name in ("cli", "convergence", "ideals", "linalg")
    }
    origin = Path(mods["cli"].__file__).resolve().parent
    if origin != SRC / "subspace_limits":
        sys.exit(f"error: imported subspace_limits from {origin}, not {SRC}")
    return SimpleNamespace(**mods)


def timed_setup(name: str, seed: int, work: Path):
    """Import the library and build the workload's inputs; time both."""
    t0 = perf_counter()
    lib = load_library()
    import_s = perf_counter() - t0
    # the benchmark's own modules load numpy too, so they come after the import
    from workloads import WORKLOADS

    w = WORKLOADS[name]
    w.prepare(seed, work)
    t1 = perf_counter()
    state = w.setup(lib)
    return import_s + perf_counter() - t1, lib, w, state


def setup_in_fresh_interpreter(name: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        lib = ctypes.CDLL(str(path))
        for symbol in (
            "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        # the caller's value, or None if unset; the run itself always unsets it
        "SUBSPACE_LIMITS_THREADS_from_caller": CALLER_THREADS,
    }


class Client:
    """Runs, times and checks operations; counts failures."""

    def __init__(self, lib, workload, state):
        self.lib, self.w, self.state = lib, workload, state
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.reference = None

    def _fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems += [f"op {self.attempted}: {p}" for p in problems]

    def one(self, tracer=None) -> tuple[float, bool]:
        """One checked operation: its wall seconds and whether it passed."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            if tracer is None:
                raw = self.w.op(self.lib, self.state)
            else:
                with tracer.span("op"):
                    raw = self.w.op(self.lib, self.state)
            seconds = perf_counter() - t0
            problems, fingerprint = self.w.check(raw, self.reference)
        except Exception as exc:  # a failed operation, not a failed benchmark
            self._fail([f"raised {type(exc).__name__}: {exc}"])
            return perf_counter() - t0, False
        if self.reference is None:
            self.reference = fingerprint
        if problems:
            self._fail(problems)
        return seconds, not problems

    def run_for(self, seconds: float) -> list[float]:
        """Wall seconds of the passing operations (of all, if none passed)."""
        runs = []
        deadline = perf_counter() + seconds
        while len(runs) < MIN_OPS or perf_counter() < deadline:
            runs.append(self.one())
        return [t for t, ok in runs if ok] or [t for t, _ in runs]

    def run_pairs(self, seconds: float, tracer, instrumented) -> list[float]:
        """Untraced and traced operations in turn; each pair's time ratio.

        Pairing cancels the drift in machine speed that separate untraced
        and traced phases would fold into the tracing overhead.
        """
        ratios = []
        deadline = perf_counter() + seconds
        while len(ratios) < MIN_OPS or perf_counter() < deadline:
            plain, _ = self.one()
            with instrumented():
                traced, _ = self.one(tracer)
            ratios.append(traced / plain)
        return ratios


def run_workload(args) -> int:
    work = OUT / args.workload
    if args.setup_probe:
        work.mkdir(parents=True, exist_ok=True)
        print(repr(timed_setup(args.workload, args.seed, work)[0]))
        return 0
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_s, lib, w, state = timed_setup(args.workload, args.seed, work)
    setup_samples = [setup_s]
    if not args.trace:
        setup_samples += [
            setup_in_fresh_interpreter(args.workload, args.seed)
            for _ in range(w.setup_samples - 1)
        ]
    client = Client(lib, w, state)
    setup_problems = w.setup_problems(lib, state)
    client.one()  # warm-up: lazy initialisation and the reference output
    info = {
        "workload": w.name,
        "seed": args.seed,
        "seed_used": w.uses_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
    }
    if not args.trace:
        times = client.run_for(args.seconds)
        metrics = {
            "run_s": statistics.median(times),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        info["run_s_samples"] = len(times)
        info["setup_s_samples"] = len(setup_samples)
    else:
        import spans

        tracer = spans.Tracer()
        ratios = client.run_pairs(
            args.seconds,
            tracer,
            lambda: spans.instrument(tracer, lib.cli, lib.convergence, lib.ideals, lib.linalg),
        )
        per_op = spans.per_op_layers(tracer)
        metrics = {key: statistics.median([m[key] for m, _ in per_op]) for key in per_op[0][0]}
        metrics["trace.overhead_ratio"] = statistics.median(ratios)
        info["traced_ops"] = len(per_op)
        self_s = {
            label: statistics.median([s.get(label, 0.0) for _, s in per_op])
            for label in sorted({label for _, s in per_op for label in s})
        }
        info["self_s_by_span"] = self_s
        info["largest_self_s"] = max(self_s, key=self_s.get)
        tracer.write(OUT / f"spans-{w.name}-seed{args.seed}.csv.gz")

    fail_rate = client.failed / client.attempted
    print("info: " + json.dumps(info, sort_keys=True))
    for problem in (setup_problems + client.problems)[:SHOWN_PROBLEMS]:
        print(f"problem: {problem}")
    spec = benchmark_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    shown = "  ".join(f"{k}={v:.6g} {units[k]}" for k, v in metrics.items())
    print(f"{w.name}: {shown}  fail_rate={fail_rate:.6g} ratio ({client.failed}/{client.attempted} ops)")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": not setup_problems and client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_all(args) -> int:
    """Every workload in its own process, then each one's summary line."""
    summaries, correct = [], True
    for name in WORKLOAD_NAMES:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S * 2,
        )
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            print(f"{name}: exited with code {out.returncode}")
            return 1
        lines = out.stdout.strip().splitlines()
        summaries += [line for line in lines if line.startswith(f"{name}: ")]
        correct = correct and json.loads(lines[-1])["correct"]
    print("\nsummary (seed %d, %g s per workload, trace %d):" % (args.seed, args.seconds, args.trace))
    print("\n".join(summaries))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, help="measuring time (default: run_seconds in BENCHMARK.json)"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload NAME or --all")
    if args.seconds is None:
        args.seconds = float(benchmark_spec()["run_seconds"])
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

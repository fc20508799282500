"""Outside-in span tracing for the benchmark.

The library has no timers of its own, so the traced run replaces public
functions at the module attributes where their callers look them up and
records one span per call: name, parent span, start and end. Spans live
in flat in-memory arrays while the run measures and are written out only
when it ends.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# Spans whose self time is the checker layer's own work: exceptional-set
# thresholding and report assembly around the membership decisions.
CHECKERS = (
    "convergence.equivalence_suite",
    "convergence.self_projection_volume_check",
    "convergence.subspace_i_converges",
)
TRACE_PASSES = ("convergence.criterion_traces", "convergence.gap_trace")
KERNELS = ("linalg.gap", "linalg.n_norm")


class Tracer:
    """Flat span store: parallel arrays indexed by span id, in call order."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("q")  # a per-call count: bytes, members, horizon
        self._stack = [-1]

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.amount.append(0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name: str, fn, amount=None):
        """``fn`` recording a span per call; ``amount(args, result)`` counts work."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if amount is not None:
                self.amount[i] = amount(args, kwargs, out)
            return out

        return traced

    def write(self, path: Path) -> None:
        """Dump every span as gzipped CSV, times relative to the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id,parent,name,start_s,end_s,amount\n")
            for i in range(len(self.name)):
                f.write(
                    f"{i},{self.parent[i]},{self.names[self.name[i]]},"
                    f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},{self.amount[i]}\n"
                )


def _arg(args, kwargs, pos: int, key: str):
    return kwargs[key] if key in kwargs else args[pos]


# Work counters, called with a wrapped call's arguments and result.
def _horizon(args, kwargs, out) -> int:
    return _arg(args, kwargs, 2, "horizon")


def _file_bytes(args, kwargs, out) -> int:
    return Path(args[0]).stat().st_size


def _is_exact(args, kwargs, out) -> int:
    return int(out.mode.value == "exact")


def _members(args, kwargs, out) -> int:
    return len(_arg(args, kwargs, 1, "index_set"))


@contextlib.contextmanager
def instrument(tracer: Tracer, cli, convergence, ideals, linalg):
    """Wrap the library's layer boundaries for the duration of the block.

    Each function is replaced where it is looked up at call time: the CLI
    holds its own references to the convergence entry points, the checkers
    call ``decide_membership`` through the convergence module, the trace
    loop calls the kernels through ``linalg``. ``certificate_covers`` is
    recursive and called per member, so certificate work is counted as the
    members handed to ``validate_certificate`` instead of by wrapping it.
    """
    def build_with_traced_rule(*args, **kwargs):
        seq, V, ideal = build_experiment(*args, **kwargs)
        # the sequence is frozen; swap its rule in place so every later
        # evaluation, in any layer, goes through the wrapper
        object.__setattr__(seq, "rule", tracer.wrap("convergence.rule", seq.rule))
        return seq, V, ideal

    build_experiment = cli.build_experiment
    patches = [
        (cli, "load_config", "cli.load_config", None),
        (cli, "report_to_dict", "cli.report_to_dict", None),
        (cli, "write_report", "cli.write_report", _file_bytes),
        (cli, "write_trace_csv", "cli.write_trace_csv", _file_bytes),
        (convergence, "gap_trace", "convergence.gap_trace", _horizon),
        (convergence, "decide_membership", "ideals.decide_membership", _is_exact),
        (ideals, "validate_certificate", "ideals.validate_certificate", _members),
        (linalg, "gap", "linalg.gap", None),
        (linalg, "n_norm", "linalg.n_norm", None),
        (linalg.Subspace, "__post_init__", "linalg.Subspace", None),
    ]
    for module in (cli, convergence):
        patches.append((module, "criterion_traces", "convergence.criterion_traces", _horizon))
        for fn in CHECKERS:
            patches.append((module, fn.split(".")[1], fn, None))
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in patches]
    try:
        for owner, attr, name, amount in patches:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), amount))
        cli.build_experiment = tracer.wrap("cli.build_experiment", build_with_traced_rule)
        yield
    finally:
        cli.build_experiment = build_experiment
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


def per_op_layers(tracer: Tracer, op_name: str = "op") -> list[tuple[dict, dict]]:
    """Per-layer metrics and self seconds by span name, one pair per op.

    Ops are the root spans named ``op_name``. Times are seconds; a span's
    self time is its duration minus the durations of its direct children.
    """
    n = len(tracer.name)
    name = np.frombuffer(tracer.name, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    amount = np.frombuffer(tracer.amount, dtype=np.int64)
    has_parent = parent >= 0
    child = np.zeros(n)
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child

    op_id = tracer.names.index(op_name)
    roots = np.flatnonzero((parent < 0) & (name == op_id))
    bounds = list(roots) + [n]
    out = []
    for lo, hi in zip(bounds, bounds[1:]):
        sl = slice(lo + 1, hi)
        by: dict[str, tuple] = {}
        for nid, label in enumerate(tracer.names):
            mask = name[sl] == nid
            if mask.any():
                by[label] = (
                    int(mask.sum()),
                    float(dur[sl][mask].sum()),
                    float(self_t[sl][mask].sum()),
                    int(amount[sl][mask].sum()),
                    int(amount[sl][mask].max()),
                )
        metrics = _layer_metrics(by, op_seconds=float(dur[lo]), op_child=float(child[lo]))
        out.append((metrics, {label: v[2] for label, v in by.items()}))
    return out


def _layer_metrics(by: dict[str, tuple], op_seconds: float, op_child: float) -> dict:
    def get(label: str, field: int):
        return by.get(label, (0, 0.0, 0.0, 0, 0))[field]

    calls, s, self_s, amount, largest = 0, 1, 2, 3, 4
    # every trace pass covers indices 1..horizon, so the op's distinct
    # indices are the largest horizon any pass was asked for
    horizon = max(get(p, largest) for p in TRACE_PASSES)
    validations = get("ideals.validate_certificate", calls)

    def per(x: float, base: float) -> float:
        return x / base if base else 0.0

    return {
        "convergence.criterion_traces.s": get("convergence.criterion_traces", s),
        "convergence.criterion_traces.self_s": get("convergence.criterion_traces", self_s),
        "convergence.rule.calls": get("convergence.rule", calls),
        "convergence.rule.self_s": get("convergence.rule", self_s),
        "convergence.rule_evals_per_index": per(get("convergence.rule", calls), horizon),
        "convergence.gap_trace.s": get("convergence.gap_trace", s),
        "convergence.checkers.self_s": sum(get(c, self_s) for c in CHECKERS),
        "linalg.Subspace.calls": get("linalg.Subspace", calls),
        "linalg.Subspace.s": get("linalg.Subspace", s),
        "linalg.gap.calls": get("linalg.gap", calls),
        "linalg.gap.s": get("linalg.gap", s),
        "linalg.n_norm.calls": get("linalg.n_norm", calls),
        "linalg.n_norm.s": get("linalg.n_norm", s),
        "linalg.kernel_calls_per_index": per(sum(get(k, calls) for k in KERNELS), horizon),
        "ideals.decide_membership.calls": get("ideals.decide_membership", calls),
        "ideals.decide_membership.self_s": get("ideals.decide_membership", self_s),
        "ideals.validate_certificate.calls": validations,
        "ideals.validate_certificate.s": get("ideals.validate_certificate", s),
        "ideals.validate_certificate.members": get("ideals.validate_certificate", amount),
        "ideals.certificate_settled_ratio": per(
            get("ideals.decide_membership", amount), validations
        ),
        "cli.build_experiment.s": get("cli.build_experiment", s),
        "cli.write_trace_csv.s": get("cli.write_trace_csv", s),
        "cli.write_trace_csv.bytes": get("cli.write_trace_csv", amount),
        "cli.write_report.s": get("cli.write_report", s),
        "cli.write_report.bytes": get("cli.write_report", amount),
        "trace.coverage": per(op_child, op_seconds),
    }

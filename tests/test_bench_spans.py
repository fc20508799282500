"""Guard for the benchmark's traced run.

``bench/spans.py`` wraps named library functions from outside; a rename
or removal of one of them breaks ``bench/run.py --trace 1``. Loading the
module here and instrumenting the library catches that in the test run.
"""

import contextlib
import io
import json
import types
from pathlib import Path

from subspace_limits import cli, convergence, ideals, linalg

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    # executed from its source text, so nothing is written next to it
    module = types.ModuleType("bench_spans")
    exec(compile(SPANS_PATH.read_text(), str(SPANS_PATH), "exec"), module.__dict__)
    return module


def traced_op(spans, tmp_path, subcommand: str) -> dict:
    """Per-layer metrics of one traced run on parity-split, horizon 40, two eps."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "sequence": {"builtin": "parity-split", "variant": "amended"},
        "ideal": {"kind": "blocks"},
        "horizon": 40,
        "eps_grid": [0.5, 0.1],
        "out_dir": str(tmp_path / "out"),
    }))
    tracer = spans.Tracer()
    with spans.instrument(tracer, cli, convergence, ideals, linalg):
        with tracer.span("op"), contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([subcommand, "--config", str(config)]) == 0
    [(metrics, _)] = spans.per_op_layers(tracer)
    return metrics


def test_instrument_wraps_and_restores_library(tmp_path):
    spans = load_spans()
    before = {
        (owner, attr): getattr(owner, attr)
        for owner, attr in [
            (cli, "build_experiment"),
            (cli, "criterion_traces"),
            (convergence, "gap_trace"),
            (convergence, "decide_membership"),
            (ideals, "validate_certificate"),
            (linalg, "gap"),
            (linalg, "n_norm"),
        ]
    }
    metrics = traced_op(spans, tmp_path, "analyze")
    for (owner, attr), fn in before.items():
        assert getattr(owner, attr) is fn, attr

    # the built-ins are batch rules, so the per-index rule is never called;
    # tests/test_batch_rules.py counts each index's one batch evaluation
    assert metrics["convergence.rule_evals_per_index"] == 0.0
    assert metrics["convergence.gap_trace.s"] == 0.0
    # one column judged at two eps, each decided once
    assert metrics["ideals.decide_membership.calls"] == 2
    assert metrics["ideals.validate_certificate.calls"] == 2


def test_suite_decides_each_distinct_column_once(tmp_path):
    # k=1, two eps: on parity-split all five suite columns share one
    # exceptional-set trail; the volume check on the suite's traces judges
    # only the self volume's trail and takes the gap verdicts the suite left
    metrics = traced_op(load_spans(), tmp_path, "suite")
    assert metrics["ideals.decide_membership.calls"] == 4

"""The benchmark's trace contract.

``perfbench/spans.py`` wraps library functions by name and derives the
per-layer metrics of ``BENCHMARK.json`` from their calls.  A traced run of
every method must find each wrapped name and yield exactly those metrics,
so a deleted or reshaped name fails here.
"""

import importlib.util
import json
import sys
from pathlib import Path

from hyperwalk import experiment, hypergraph, scoring

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden" / "golden.txt"


def _spans_module():
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_traced_run_yields_every_per_layer_metric(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spans = _spans_module()
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    tracer = spans.Tracer()
    with tracer:
        g = hypergraph.largest_component(hypergraph.load(GOLDEN))
        experiment.run_experiment(
            g, experiment.SplitSpec(0.8, 1, 0), experiment.SamplingSpec(0.5, 3),
            list(scoring.ALL_KINDS), folds=3, k_grid=(2, 3), beta_grid=(0.005, 0.01),
        )
    assert g.n == 40
    assert tracer.missing == []
    metrics = spans.layer_metrics(tracer.take(), tracer.installed)
    assert set(metrics) == {m["name"] for m in per_layer} - {"trace.overhead_s"}

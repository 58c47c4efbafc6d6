"""The benchmark's hooks still fit the package.

perfbench/spans.py rebinds names that folevy's modules import from each
other and passes keywords to the grid kernel, and perfbench/workloads.py
calls the experiments with keywords of its own, as perfbench/layers.py
calls the kernel, the drivers and the averaging layer.
perfbench/test_smoke.py runs the benchmark in full but lies outside the
tier-1 suite, so here each workload runs once with 2 paths inside both of
spans.py's contexts, and the layer probes run one short round: a name or
keyword that the package drops fails here first.
"""

from __future__ import annotations

import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import folevy

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


spans = _load("spans")
W = _load("workloads")
layers = _load("layers")


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_workload_runs_traced_and_marked(name):
    w = W.WORKLOADS[name]
    base = w.base(W.load_baselines())
    cal = W.load_calibrate()
    ctx = dict(w.setup(folevy, base), x0=cal.X0)
    seed = getattr(cal, w.seed_name)

    def run(context):
        values, _ = w.values(w.run(folevy, context, base, w.grid(base), 2,
                                   seed, 1))
        return np.asarray(values)

    plain = run(ctx)
    assert np.all(np.isfinite(plain))

    tracer = spans.Tracer()
    with spans.installed(tracer, folevy):
        traced = run(tracer.context(ctx))
    assert tracer.blocks >= 1 and tracer.computed_steps > 0

    marks = spans.Marks()
    with spans.marked(marks, folevy, ctx) as marked_ctx:
        marked = run(marked_ctx)
    assert len(marks.codes) > 0

    assert traced.tobytes() == plain.tobytes()
    assert marked.tobytes() == plain.tobytes()


def test_layer_probes_run_and_name_declared_metrics():
    # run.py's traced() looks up each metric's unit in BENCHMARK.json's
    # per_layer list, so a metric missing there fails the traced run
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    metrics = layers.layer_metrics(folevy, folevy.make_cylinder_preset(),
                                   scale=0.02, rounds=1)
    assert metrics
    for name, value in metrics.items():
        assert name in declared, name
        assert math.isfinite(value), (name, value)

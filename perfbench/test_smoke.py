"""Smoke test of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at tiny sizes, traced and untraced, and checks that the
result line names exactly the metrics of BENCHMARK.json with their units;
checks that wall_s grows by work added on a fraction of steps; checks that
the correctness gate trips on a perturbed reference; and checks that the
benchmark refuses to run without the folevy sources.
"""

from __future__ import annotations

import copy
import json
import math
import os
import dataclasses
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import child  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

with open(os.path.join(W.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    DEFINITION = json.load(fh)


def _bench(*args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           *args], cwd=W.ROOT, capture_output=True,
                          text=True, timeout=300)


def test_definition_names_every_workload():
    assert [w["name"] for w in DEFINITION["workloads"]] == list(W.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    wanted = DEFINITION["per_layer" if trace else "end_to_end"]
    assert ({k: m["unit"] for k, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in wanted})
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace:
        shares = [m["value"] for k, m in result["metrics"].items()
                  if k.endswith("_share") and k.split(".")[0] != "trace"
                  and k != "marcus.live_step_share"]
        assert math.isclose(sum(shares), 1.0, rel_tol=1e-6)


def test_wall_s_counts_work_that_comes_only_on_some_steps():
    # like the kernel's frozen-row masking, which turns on at a block's
    # first exit: extra work on every fourth domain check after the 50th
    session = child.Session("compare", "default", "tiny")
    plain = session.ctx["preset"].chart.contains
    seen = [0]

    def contains(x):
        seen[0] += 1
        if seen[0] > 50 and seen[0] % 4 == 0:
            time.sleep(1e-3)
        return plain(x)

    chart = dataclasses.replace(session.ctx["preset"].chart,
                                contains=contains)
    slowed = dict(session.ctx, preset=dataclasses.replace(
        session.ctx["preset"], chart=chart))

    def calls(ctx):
        out = []
        for _ in range(2):
            seen[0] = 0
            out.append(child.timed_call(session, ctx)[1])
        return out

    base, slow = calls(None), calls(slowed)
    extra = 1e-3 * sum(1 for k in range(51, seen[0] + 1) if k % 4 == 0)
    assert extra > 0.05
    assert spans.quiet_wall(slow) - spans.quiet_wall(base) > 0.8 * extra


def test_gate_trips_on_a_perturbed_reference():
    session = child.Session("compare", "default", "tiny")
    assert all(ok for _, ok in session.anchor())

    key = session.w.value_key
    session.base = copy.deepcopy(session.base)
    session.base[key][0] = math.nextafter(session.base[key][0], math.inf)
    checks = dict(session.anchor())
    assert not checks[f"compare.{key}[0] exact (anchor)"]
    assert checks[f"compare.{key}[1] exact (anchor)"]


def test_statistical_gate_trips_ten_standard_errors_off():
    w = W.WORKLOADS["compare"]
    ref, se = w.reference(w.base(W.load_baselines()))
    assert all(ok for _, ok in W.gate(w, ref, se, (ref, se), exact=False,
                                      statistical=True))
    off = [v + 10 * s for v, s in zip(ref, se)]
    checks = dict(W.gate(w, off, se, (ref, se), exact=False,
                         statistical=True))
    assert not any(ok for label, ok in checks.items() if "3-SE" in label)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(W.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "compare", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

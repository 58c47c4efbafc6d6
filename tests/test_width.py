"""Batch-width contract: ensemble results do not depend on how the paths
are grouped into batches.

Path i draws only from its own stream base + i, so forcing a small batch
width (several blocks and a ragged last one) must reproduce the one-batch
result bit for bit, for every ensemble experiment, with the closed-form
jump flow and with the generic jump solve.  Starts sit near the outer
boundary so that some paths exit and the frozen-row masking runs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from folevy import (_parallel, averaged_field, averaging, deviation_scaling,
                    estimate_eta, exit_probability, experiments,
                    make_cylinder_preset, scheme_agreement,
                    transversal_comparison)

SEED = 20260816
X0 = np.array([1.7, 0.0, 0.0])
PRESET = make_cylinder_preset(r_max=2.0)
AVG = averaged_field(PRESET.chart, PRESET.fields)


def _experiments(fields):
    """name -> (smallest path count, run(n_paths) -> comparable outputs)."""
    args = (fields, PRESET.chart, PRESET.driver)
    return {
        "transversal_comparison": (2, lambda n: transversal_comparison(
            *args, AVG, X0, epsilons=[0.5, 0.25], horizon=0.2,
            horizons=[0.1, 0.2], n_paths=n, master_seed=SEED).summary()),
        "exit_probability": (2, lambda n: exit_probability(
            *args, AVG, X0, epsilons=[0.5], gamma=0.1, n_paths=n,
            master_seed=SEED).summary()),
        "deviation_scaling": (2, lambda n: deviation_scaling(
            *args, X0, epsilons=[0.5, 0.25], horizon=0.3, n_paths=n,
            master_seed=SEED).summary()),
        "estimate_eta": (100, lambda n: vars(estimate_eta(
            *args, lambda s: s[..., 0], X0, horizons=[0.1, 0.2, 0.3],
            n_paths=n, master_seed=SEED))),
        "scheme_agreement": (2, lambda n: scheme_agreement(
            *args, X0, horizon=0.2, n_paths=n, master_seed=SEED).summary()),
    }


# the closed-form rotation flow, and the generic Runge-Kutta jump solve
EXPERIMENTS = _experiments(PRESET.fields)
EXPERIMENTS.update({f"{name}_generic": entry for name, entry in
                    _experiments(PRESET.fields.without_exact_flow()).items()})


def _assert_identical(a, b):
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            _assert_identical(a[key], b[key])
    else:
        np.testing.assert_array_equal(a, b, strict=True)


def _run_recording_blocks(run, n_paths):
    """run(n_paths), returning its outputs and the width of every block."""
    widths = []

    def map_blocks(worker, n_items):
        def recorded(a, b):
            widths.append(b - a)
            return worker(a, b)
        return _parallel.map_blocks(recorded, n_items)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "map_blocks", map_blocks)
        mp.setattr(averaging, "map_blocks", map_blocks)
        return run(n_paths), widths


def test_map_blocks_covers_items_in_order():
    ranges = _parallel.map_blocks(lambda a, b: (a, b), 500)
    assert ranges == [(0, 500)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_parallel, "MAX_WIDTH", 7)
        ranges = _parallel.map_blocks(lambda a, b: (a, b), 23)
    assert ranges == [(0, 7), (7, 14), (14, 21), (21, 23)]
    assert _parallel.map_blocks(lambda a, b: (a, b), 0) == []


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(extra=st.integers(0, 18), width=st.integers(1, 9))
@example(extra=21, width=7)
def test_results_independent_of_batch_width(name, extra, width):
    smallest, run = EXPERIMENTS[name]
    n_paths = smallest + extra
    wide, wide_widths = _run_recording_blocks(run, n_paths)
    assert set(wide_widths) == {n_paths}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_parallel, "MAX_WIDTH", width)
        narrow, narrow_widths = _run_recording_blocks(run, n_paths)
    assert max(narrow_widths) <= width
    assert sum(narrow_widths) == sum(wide_widths)
    _assert_identical(wide, narrow)

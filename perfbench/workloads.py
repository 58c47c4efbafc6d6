"""The two benchmark workloads and their correctness gate.

Each workload is a short prefix of one ``tools/calibrate.py`` experiment:
the same preset, path count and parameters, with only the first eps values
or level.  Path ``i`` draws only from its own Philox stream
``base + i``, so on the calibration seed the outputs equal the matching
entries of ``tests/data/baselines.json`` exactly.  The parameters are read
from that file and the seeds and start point from ``tools/calibrate.py``,
so the benchmark and the calibration cannot drift apart.  The prefixes are
short (about a second a call) so that a run can time each call many times.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINES = os.path.join(ROOT, "tests", "data", "baselines.json")
CALIBRATE = os.path.join(ROOT, "tools", "calibrate.py")
REQUIRED = (os.path.join(ROOT, "src", "folevy", "__init__.py"), CALIBRATE,
            BASELINES)


def load_calibrate():
    """Import tools/calibrate.py (which puts src/ on the path and imports
    folevy) without running its main()."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    spec = importlib.util.spec_from_file_location("calibrate", CALIBRATE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def load_baselines():
    with open(BASELINES, encoding="utf-8") as fh:
        return json.load(fh)


def macro_steps(eps, horizon):
    """Macro steps of the grid kernel for one path: the default step is
    1e-2, or eps/10 when that is smaller (IntegratorConfig's rule)."""
    h0 = 1e-2 if eps == 0 else min(1e-2, 0.1 * eps)
    return max(1, int(math.ceil(horizon / h0 - 1e-12)))


@dataclass(frozen=True)
class Workload:
    """One calibration prefix.

    ``grid`` maps the baselines entry to the grid every call runs, and
    ``pairs`` gives the (output index, baseline index) pairs it reproduces
    at the calibration seed.  ``run`` maps (folevy, context, baselines
    entry, grid, n_paths, seed, threads) to the experiment result, ``values``
    the result to (outputs, their standard errors or None), ``steps`` the
    baselines entry and grid to macro steps per path.
    """

    name: str
    key: str
    value_key: str
    se_key: Optional[str]
    seed_name: str
    grid: Callable
    pairs: tuple
    tiny_paths: int
    value_range: tuple
    setup: Callable
    run: Callable
    values: Callable
    steps: Callable

    def base(self, baselines):
        return baselines[self.key]

    def reference(self, base):
        """Baseline values and standard errors (None when not recorded)
        at the paired baseline indices."""
        index = [b for _, b in self.pairs]
        se = [base[self.se_key][i] for i in index] if self.se_key else None
        return [base[self.value_key][i] for i in index], se

    def path_steps(self, base, n_paths):
        return n_paths * self.steps(base, self.grid(base))


# --- compare: transversal_comparison, comparison case B ---------------------

def _setup_compare(fl, base):
    preset = fl.make_cylinder_preset()
    return {"preset": preset,
            "avg": fl.averaged_field(preset.chart, preset.fields)}


def _run_compare(fl, ctx, base, grid, n_paths, seed, threads):
    p = ctx["preset"]
    return fl.transversal_comparison(
        p.fields, p.chart, p.driver, ctx["avg"], ctx["x0"], epsilons=grid,
        horizon=base["horizon"], p=base["p"], n_paths=n_paths,
        master_seed=seed, threads=threads)


# --- scheme: scheme_agreement ------------------------------------------------

def _setup_plain(fl, base):
    return {"preset": fl.make_cylinder_preset()}


def _run_scheme(fl, ctx, base, grid, n_paths, seed, threads):
    p = ctx["preset"]
    return fl.scheme_agreement(p.fields, p.chart, p.driver, ctx["x0"],
                               horizon=base["horizon"], eps=base["eps"],
                               levels=grid, n_paths=n_paths,
                               master_seed=seed, threads=threads)


def _scheme_steps(base, levels):
    # one macro step of either scheme on one path
    return sum(2 * max(1, int(math.ceil(base["horizon"] / h - 1e-12)))
               for _, h in levels)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="compare", key="comparison_case_b", value_key="sup_norm",
        se_key="sup_norm_se", seed_name="SEED_COMPARISON_B",
        grid=lambda b: b["epsilons"][:2], pairs=((0, 0), (1, 1)),
        tiny_paths=8, value_range=(0.0, 10.0), setup=_setup_compare,
        run=_run_compare,
        values=lambda r: (r.sup_norm[:, -1], r.sup_norm_se[:, -1]),
        steps=lambda b, g: sum(macro_steps(e, b["horizon"] / e) for e in g)),
    Workload(
        name="scheme", key="scheme_agreement", value_key="l2_gaps",
        se_key="std_errors", seed_name="SEED_SCHEME",
        grid=lambda b: [(b["cutoffs"][0], b["steps"][0])], pairs=((0, 0),),
        tiny_paths=4, value_range=(0.0, 10.0), setup=_setup_plain,
        run=_run_scheme, values=lambda r: (r.l2_gaps, r.std_errors),
        steps=_scheme_steps),
)}


# --- correctness gate -------------------------------------------------------

def gate(workload, values, ses, reference, exact, statistical):
    """Check one call's outputs; returns a list of (label, ok) pairs.

    Every output must be finite and within the workload's range.  Each
    output with a baseline entry (``workload.pairs``) must also, with
    ``exact`` set (the calibration seed at full size), equal that entry bit
    for bit, or, with ``statistical`` set (full size, baseline standard
    errors recorded), lie within 3 * (se_ref + se_run) of it.  Two
    independent estimates differ by a standard deviation of at most
    se_ref + se_run, so a correct program trips this gate about twice in
    1e5 values; the acceptance tests' 3 * se_ref applies to reruns of the
    calibration seed, which the exact check covers.
    """
    ref, ref_se = reference
    lo, hi = workload.value_range
    paired = {o: k for k, (o, _) in enumerate(workload.pairs)}
    checks = []
    for i, v in enumerate(values):
        v = float(v)
        label = f"{workload.name}.{workload.value_key}[{i}]"
        checks.append((label + " in range",
                       math.isfinite(v) and lo <= v <= hi))
        k = paired.get(i)
        if k is None:
            continue
        if exact:
            checks.append((label + " exact", v == ref[k]))
        elif statistical and ref_se is not None and ses is not None:
            tol = 3.0 * (ref_se[k] + float(ses[i]))
            checks.append((label + " 3-SE", abs(v - ref[k]) <= tol))
    return checks

"""Regenerate the frozen Monte Carlo baselines in tests/data/baselines.json.

`RUNS` is the one statement of the seven seeded experiments: it maps each
key of the file to a function that runs that experiment once, at its
acceptance scale under a pinned master seed, and returns the result
object and the entry to record (the call's parameters, then its numbers).
main() writes what RUNS returns.  tests/test_acceptance.py replays every
run once per session, checks each replayed entry against the file bit for
bit and reads its guarantees from the replayed results, so re-running
this script must rewrite the file byte for byte as long as the numerical
kernels are unchanged.  perfbench/workloads.py imports this module for X0
and the SEED_* names.

Usage: python3 tools/calibrate.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from folevy import (ConstantK, averaged_field, deviation_scaling,
                    estimate_eta, exit_probability, make_cylinder_preset,
                    projected_perturbation, scheme_agreement,
                    transversal_comparison)

X0 = np.array([1.0, 0.0, 0.0])

SEED_COMPARISON_B = 777001
SEED_COMPARISON_A = 777002
SEED_EXIT = 777003
SEED_DEVIATION_B = 777004
SEED_DEVIATION_A = 777005
SEED_SCHEME = 777006
SEED_ETA = 777007

# case A's constant perturbation; case B is the preset's linear one
K_CONSTANT = [1.0, 0.5, 1.0]
OUT = os.path.join(os.path.dirname(__file__), "..", "tests", "data",
                   "baselines.json")


def _entry(params, res, *names, final=False):
    """The entry of one run: its parameters, then the named fields of its
    result as plain lists and numbers; `final` keeps only the last time
    column of a comparison's (eps, time) arrays."""
    out = dict(params)
    for name in names:
        value = np.asarray(getattr(res, name))
        out[name] = (value[:, -1] if final else value).tolist()
    return out


def comparison_case_b():
    preset = make_cylinder_preset()
    params = dict(epsilons=[0.2, 0.1, 0.05, 0.02], horizon=1.0, p=2,
                  n_paths=500, master_seed=SEED_COMPARISON_B)
    res = transversal_comparison(preset.fields, preset.chart, preset.driver,
                                 averaged_field(preset.chart, preset.fields),
                                 X0, **params)
    return res, _entry(params, res, "sup_norm", "sup_norm_se", "sup_radial",
                       "sup_radial_se", final=True)


def comparison_case_a():
    preset = make_cylinder_preset(k_choice=ConstantK(*K_CONSTANT))
    avg = averaged_field(preset.chart, preset.fields,
                         func=lambda v: np.array([0.0, 1.0]))
    params = dict(epsilons=[0.1, 0.01], horizon=1.0, p=2, n_paths=200,
                  master_seed=SEED_COMPARISON_A)
    res = transversal_comparison(preset.fields, preset.chart, preset.driver,
                                 avg, X0, **params)
    return res, _entry(dict(params, k_constant=K_CONSTANT), res,
                       "sup_radial", "sup_radial_se", "sup_vertical",
                       final=True)


def exit_probabilities():
    r_max = 2.0
    preset = make_cylinder_preset(r_max=r_max)
    params = dict(epsilons=[0.1, 0.05, 0.02], gamma=0.1, n_paths=500,
                  master_seed=SEED_EXIT)
    res = exit_probability(preset.fields, preset.chart, preset.driver,
                           averaged_field(preset.chart, preset.fields), X0,
                           **params)
    return res, _entry(dict(params, r_max=r_max), res, "t_gamma",
                       "probabilities", "std_errors")


def _deviation(preset, observable, master_seed, **extra):
    params = dict(epsilons=[0.1, 0.05, 0.02, 0.01], horizon=1.0,
                  observable=observable, n_paths=300, master_seed=master_seed)
    res = deviation_scaling(preset.fields, preset.chart, preset.driver, X0,
                            **params)
    return res, _entry(dict(params, **extra), res, "values", "std_errors",
                       "exponent", "constant")


def deviation_case_b():
    return _deviation(make_cylinder_preset(), "radial", SEED_DEVIATION_B)


def deviation_case_a():
    return _deviation(make_cylinder_preset(k_choice=ConstantK(*K_CONSTANT)),
                      "vertical", SEED_DEVIATION_A, k_constant=K_CONSTANT)


def scheme_levels():
    preset = make_cylinder_preset()
    params = dict(n_paths=128, master_seed=SEED_SCHEME)
    res = scheme_agreement(preset.fields, preset.chart, preset.driver, X0,
                           **params)
    return res, _entry(params, res, "cutoffs", "steps", "eps", "horizon",
                       "l2_gaps", "std_errors", "ratios")


def eta_rate():
    preset = make_cylinder_preset()
    params = dict(horizons=[10.0, 30.0, 100.0, 300.0, 1000.0], p=2,
                  n_paths=400, master_seed=SEED_ETA)
    est = estimate_eta(preset.fields, preset.chart, preset.driver,
                       projected_perturbation(preset.chart, preset.fields, 0),
                       X0, **params)
    return est, _entry(params, est, "lp_errors", "exponent", "constant")


RUNS = {
    "comparison_case_b": comparison_case_b,
    "comparison_case_a": comparison_case_a,
    "exit_probability": exit_probabilities,
    "deviation_case_b": deviation_case_b,
    "deviation_case_a": deviation_case_a,
    "scheme_agreement": scheme_levels,
    "eta": eta_rate,
}


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    start = time.perf_counter()
    baselines = {}
    for key, run in RUNS.items():
        began = time.perf_counter()
        baselines[key] = run()[1]
        print(f"{key}: {time.perf_counter() - began:.1f} s")
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(baselines, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.normpath(OUT)}")
    print(f"total: {time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()

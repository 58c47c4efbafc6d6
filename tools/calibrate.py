"""Regenerate the frozen Monte Carlo baselines used by the acceptance tests.

Each experiment runs at its acceptance-scale configuration under a pinned
master seed; the resulting values (and their standard errors) are written
to tests/data/baselines.json.  Re-running this script must reproduce the
file bit for bit as long as the numerical kernels are unchanged, which is
exactly what the regression assertions in the test suite lean on.

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


def _timed(label, func):
    start = time.perf_counter()
    out = func()
    print(f"{label}: {time.perf_counter() - start:.1f} s")
    return out


def comparison_case_b():
    preset = make_cylinder_preset()
    avg = averaged_field(preset.chart, preset.fields)
    res = transversal_comparison(preset.fields, preset.chart, preset.driver,
                                 avg, X0, epsilons=[0.2, 0.1, 0.05, 0.02],
                                 horizon=1.0, p=2, n_paths=500,
                                 master_seed=SEED_COMPARISON_B)
    return {
        "master_seed": SEED_COMPARISON_B,
        "epsilons": list(res.epsilons),
        "horizon": 1.0,
        "p": 2,
        "n_paths": res.n_paths,
        "sup_norm": list(res.sup_norm[:, -1]),
        "sup_norm_se": list(res.sup_norm_se[:, -1]),
        "sup_radial": list(res.sup_radial[:, -1]),
        "sup_radial_se": list(res.sup_radial_se[:, -1]),
    }


def comparison_case_a():
    preset = make_cylinder_preset(k_choice=ConstantK(1.0, 0.5, 1.0))
    avg = averaged_field(preset.chart, preset.fields, method="analytic",
                         func=lambda v: np.array([0.0, 1.0]))
    res = transversal_comparison(preset.fields, preset.chart, preset.driver,
                                 avg, X0, epsilons=[0.1, 0.01], horizon=1.0,
                                 p=2, n_paths=200,
                                 master_seed=SEED_COMPARISON_A)
    return {
        "master_seed": SEED_COMPARISON_A,
        "epsilons": list(res.epsilons),
        "horizon": 1.0,
        "p": 2,
        "n_paths": res.n_paths,
        "k_constant": [1.0, 0.5, 1.0],
        "sup_radial": list(res.sup_radial[:, -1]),
        "sup_radial_se": list(res.sup_radial_se[:, -1]),
        "sup_vertical": list(res.sup_vertical[:, -1]),
    }


def exit_probabilities():
    preset = make_cylinder_preset(r_max=2.0)
    avg = averaged_field(preset.chart, preset.fields)
    res = exit_probability(preset.fields, preset.chart, preset.driver, avg,
                           X0, epsilons=[0.1, 0.05, 0.02], gamma=0.1,
                           n_paths=500, master_seed=SEED_EXIT)
    return {
        "master_seed": SEED_EXIT,
        "epsilons": list(res.epsilons),
        "gamma": res.gamma,
        "r_max": 2.0,
        "n_paths": res.n_paths,
        "t_gamma": res.t_gamma,
        "probabilities": list(res.probabilities),
        "std_errors": list(res.std_errors),
    }


def deviation_case_b():
    preset = make_cylinder_preset()
    res = deviation_scaling(preset.fields, preset.chart, preset.driver, X0,
                            epsilons=[0.1, 0.05, 0.02, 0.01], horizon=1.0,
                            observable="radial", p=2, n_paths=300,
                            master_seed=SEED_DEVIATION_B)
    return {
        "master_seed": SEED_DEVIATION_B,
        "epsilons": list(res.epsilons),
        "horizon": 1.0,
        "observable": "radial",
        "n_paths": res.n_paths,
        "values": list(res.values),
        "std_errors": list(res.std_errors),
        "exponent": res.exponent,
        "constant": res.constant,
    }


def deviation_case_a():
    preset = make_cylinder_preset(k_choice=ConstantK(1.0, 0.5, 1.0))
    res = deviation_scaling(preset.fields, preset.chart, preset.driver, X0,
                            epsilons=[0.1, 0.05, 0.02, 0.01], horizon=1.0,
                            observable="vertical", p=2, n_paths=300,
                            master_seed=SEED_DEVIATION_A)
    return {
        "master_seed": SEED_DEVIATION_A,
        "epsilons": list(res.epsilons),
        "horizon": 1.0,
        "observable": "vertical",
        "k_constant": [1.0, 0.5, 1.0],
        "n_paths": res.n_paths,
        "values": list(res.values),
        "std_errors": list(res.std_errors),
        "exponent": res.exponent,
        "constant": res.constant,
    }


def scheme_levels():
    preset = make_cylinder_preset()
    res = scheme_agreement(preset.fields, preset.chart, preset.driver, X0,
                           n_paths=128, master_seed=SEED_SCHEME)
    return {
        "master_seed": SEED_SCHEME,
        "cutoffs": list(res.cutoffs),
        "steps": list(res.steps),
        "eps": res.eps,
        "horizon": res.horizon,
        "n_paths": res.n_paths,
        "l2_gaps": list(res.l2_gaps),
        "std_errors": list(res.std_errors),
        "ratios": list(res.ratios),
    }


def eta_rate():
    preset = make_cylinder_preset()
    psi = projected_perturbation(preset.chart, preset.fields, 0)
    est = estimate_eta(preset.fields, preset.chart, preset.driver, psi, X0,
                       horizons=[10.0, 30.0, 100.0, 300.0, 1000.0], p=2,
                       n_paths=400, master_seed=SEED_ETA)
    return {
        "master_seed": SEED_ETA,
        "horizons": list(est.horizons),
        "p": 2,
        "n_paths": est.n_paths,
        "lp_errors": list(est.lp_errors),
        "exponent": est.exponent,
        "constant": est.constant,
    }


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    start = time.perf_counter()

    baselines = {
        "comparison_case_b": _timed("comparison case B", comparison_case_b),
        "comparison_case_a": _timed("comparison case A", comparison_case_a),
        "exit_probability": _timed("exit probabilities", exit_probabilities),
        "deviation_case_b": _timed("deviation case B (radial)",
                                   deviation_case_b),
        "deviation_case_a": _timed("deviation case A (vertical)",
                                   deviation_case_a),
        "scheme_agreement": _timed("scheme agreement", scheme_levels),
        "eta": _timed("ergodic rate", eta_rate),
    }

    out = os.path.join(os.path.dirname(__file__), "..", "tests", "data",
                       "baselines.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(baselines, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.normpath(out)}")
    print(f"total: {time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()

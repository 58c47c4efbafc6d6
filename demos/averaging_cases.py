"""The averaging principle on the cylinder, for both perturbation choices.

The constant perturbation leaves the radius alone on average and pushes
the vertical coordinate at unit speed; the linear one grows the radius
like exp(t/2) and never touches the vertical coordinate.  For each case
this prints the leaf-averaged field, the averaged trajectory, and the
sup-L2 distance between the rescaled perturbed paths and that trajectory
as eps shrinks.
"""

from __future__ import annotations

import numpy as np

from folevy import (ConstantK, averaged_field, make_cylinder_preset,
                    solve_averaged_ode, transversal_comparison)

X0 = np.array([1.0, 0.0, 0.0])
SEED = 20260816
EPSILONS = [0.2, 0.1, 0.05]


def run_case(label, preset, avg, closed_form):
    print(f"\n{label}")
    for r in (0.5, 1.0, 2.0):
        q = avg.evaluate(np.array([r, 0.0]))
        print(f"  Q({r}, 0) = ({q[0]:+.6f}, {q[1]:+.6f})")

    sol = solve_averaged_ode(avg, np.array([1.0, 0.0]), 1.0)
    s = np.linspace(0.0, 1.0, 11)
    err = np.abs(sol.interp(s) - closed_form(s)).max()
    print(f"  averaged ODE vs closed form on [0, 1]: sup err {err:.2e}")

    res = transversal_comparison(preset.fields, preset.chart, preset.driver,
                                 avg, X0, epsilons=EPSILONS, horizon=1.0,
                                 n_paths=200, master_seed=SEED)
    print(f"  {'eps':>6}  {'sup-L2 distance':>16}  {'std err':>9}")
    for i, eps in enumerate(res.epsilons):
        print(f"  {eps:>6}  {res.sup_norm[i, -1]:>16.4f}"
              f"  {res.sup_norm_se[i, -1]:>9.4f}")


def main():
    linear = make_cylinder_preset()
    run_case("linear perturbation K(x) = (x, 0, 0), averaged radius exp(s/2)",
             linear,
             averaged_field(linear.chart, linear.fields),
             lambda s: np.stack([np.exp(s / 2.0), np.zeros_like(s)], axis=-1))

    const = make_cylinder_preset(k_choice=ConstantK(1.0, 0.5, 1.0))
    run_case("constant perturbation K = (1, 0.5, 1), averaged drift (0, 1)",
             const,
             averaged_field(const.chart, const.fields,
                            func=lambda v: np.array([0.0, 1.0])),
             lambda s: np.stack([np.ones_like(s), s], axis=-1))


if __name__ == "__main__":
    main()

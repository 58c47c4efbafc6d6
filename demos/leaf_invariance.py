"""How well the integrators hold the circle leaves.

The driven field rotates each leaf, so the radius is a conserved quantity
of the unperturbed flow and any drift in it is pure integrator error.
Compares the closed-form leaf flow against the generic Runge-Kutta jump
solve at a long horizon, then shows the grid and jump-decomposition
schemes converging to each other as cutoff and step shrink together.
"""

from __future__ import annotations

import numpy as np

from folevy import (IntegratorConfig, RngStream, integrate_path,
                    make_cylinder_preset, scheme_agreement)

X0 = np.array([1.0, 0.0, 0.0])
SEED = 20260816


def radius_drift(path):
    return np.abs(np.hypot(path.states[:, 0], path.states[:, 1]) - 1.0).max()


def main():
    preset = make_cylinder_preset()

    path = integrate_path(preset.fields, preset.chart, preset.driver,
                          X0, horizon=100.0, rng=RngStream(SEED, 1))
    print(f"closed-form rotation, T=100:     max |r - 1| = {radius_drift(path):.2e}")

    generic = preset.fields.without_exact_flow()
    cfg = IntegratorConfig(scheme="jump_decomposition", jump_cutoff=1e-3,
                           step_h=1e-2)
    path = integrate_path(generic, preset.chart, preset.driver, X0,
                          horizon=100.0, cfg=cfg, rng=RngStream(SEED, 2))
    n_jumps = int(path.jump_flags.sum())
    print(f"generic RK4 jump flow, T=100:    max |r - 1| = {radius_drift(path):.2e}"
          f"   ({n_jumps} resolved jumps)")

    print("\ngrid scheme vs jump decomposition on shared jumps (eps=0.5, T=2):")
    res = scheme_agreement(preset.fields, preset.chart, preset.driver, X0,
                           n_paths=96, master_seed=SEED)
    print(f"  {'cutoff':>8}  {'step':>6}  {'L2 endpoint gap':>16}")
    for cut, h, gap in zip(res.cutoffs, res.steps, res.l2_gaps):
        print(f"  {cut:>8}  {h:>6}  {gap:>16.5f}")
    ratios = ", ".join(f"{r:.3f}" for r in res.ratios)
    print(f"  consecutive ratios {ratios}: the gap halves with the level")


if __name__ == "__main__":
    main()

"""Sanity tour of the Gamma driver: closed forms against simulation.

Prints the characteristic function at a few frequencies next to the
empirical average over 10^5 exact marginal draws, the mass and mean lost
to a small-jump cutoff, and the uniformization of the driven angle on the
circle leaf as time grows.
"""

from __future__ import annotations

import math

import numpy as np

from folevy import (GammaSubordinator, RngStream, characteristic_function,
                    circle_law_distance, marginal_samples, truncate_gamma)

SEED = 20260816


def show_characteristic_function():
    spec = GammaSubordinator(1.0)
    n = 100_000
    z = marginal_samples(spec, 1.0, n, RngStream(SEED, 1))
    print(f"Gamma(rate=1) at t=1, {n} samples, MC bound {3 / math.sqrt(n):.1e}")
    for u in (0.5, 1.0, 2.0, 4.0):
        exact = characteristic_function(spec, u, 1.0)
        emp = np.exp(1j * u * z).mean()
        print(f"  u={u:<4} exact {exact:.6f}   empirical {emp:.6f}   "
              f"gap {abs(emp - exact):.2e}")
    cos2 = np.mean(np.cos(z) ** 2)
    print(f"  E[cos^2 Z_1] = {cos2:.4f}  (closed form 0.6)")


def show_truncation():
    spec = GammaSubordinator(1.0)
    print("\nSmall-jump cutoff bookkeeping (rate=1):")
    print(f"  {'delta':>8}  {'jumps/unit time':>16}  {'compensator b':>14}")
    for delta in (0.1, 0.01, 0.001):
        trunc = truncate_gamma(spec, delta)
        print(f"  {delta:>8}  {trunc.restricted_mass:>16.4f}  "
              f"{trunc.compensator:>14.6f}")
    print("  b converges to the full mean 1/rate as delta -> 0")


def show_circle_mixing():
    spec = GammaSubordinator(1.0)
    print("\nDistance of the driven angle from the uniform circle law:")
    for t in (0.5, 2.0, 10.0, 50.0):
        d = circle_law_distance(spec, t, 20_000, RngStream(SEED, 2))
        print(f"  t={t:<5} KS distance {d:.4f}")
    print("  the leafwise rotation mixes at an exponential rate")


def main():
    show_characteristic_function()
    show_truncation()
    show_circle_mixing()


if __name__ == "__main__":
    main()

"""Foliated charts and vector-field bundles.

The concrete model is an open solid cylinder with the z-axis removed,
foliated by horizontal circles: a point (x, y, z) lies on the leaf of
radius r = hypot(x, y) at height z, and the transversal projection is
Pi(x, y, z) = (r, z).  The driving field rotates leaves,

    F(x, y, z) * z1 = (-y, x, 0) * z1,

whose time-one flow for a jump of size a is the rotation by angle a; that
rotation is available in closed form and preserves r exactly.  All field
callables are vectorized over leading axes (points live on the last axis).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .rng import RngStream

FD_STEP = 1e-6


# ---------------------------------------------------------------------------
# chart and fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FoliatedChart:
    """Product chart U -> leaf coordinate x vertical coordinate.

    `to_chart` returns (u, v) where u is the leaf coordinate (for circle
    leaves the pair (cos angle, sin angle)) and v the vertical coordinate;
    `from_chart(u, v)` inverts it.  `vertical_bounds` is the open box V the
    vertical coordinate ranges over, and `sample_box` an ambient box
    enclosing U used for Monte Carlo point sampling.  `leaf_point(angles, v)`
    parametrizes the leaf over v (circle charts only).
    """

    ambient_dim: int
    vertical_dim: int
    to_chart: Callable
    from_chart: Callable
    vertical_projection: Callable
    contains: Callable
    vertical_bounds: tuple
    sample_box: tuple
    pi_jacobian: Optional[Callable] = None
    leaf_point: Optional[Callable] = None

    def vertical_contains(self, v):
        v = np.asarray(v, dtype=float)
        ok = np.ones(v.shape[:-1], dtype=bool)
        for i, (lo, hi) in enumerate(self.vertical_bounds):
            ok &= (v[..., i] > lo) & (v[..., i] < hi)
        return ok

    def boundary_distance(self, v):
        """Distance from v to the boundary of the vertical box V."""
        v = np.asarray(v, dtype=float)
        gaps = [np.minimum(v[..., i] - lo, hi - v[..., i])
                for i, (lo, hi) in enumerate(self.vertical_bounds)]
        return np.minimum.reduce(gaps)


@dataclass(frozen=True)
class VectorFieldSet:
    """Driving, drift and perturbation fields for one system.

    `driving(x, z)` applies the driving fields to a driver vector z of shape
    (..., driver_dim); `drift` and `perturbation` may be None meaning zero.
    `exact_jump_flow(x, z)` is the closed-form time-one jump flow when one is
    known; integrators fall back to a Runge-Kutta jump solve without it.
    """

    driver_dim: int
    driving: Callable
    drift: Optional[Callable] = None
    perturbation: Optional[Callable] = None
    exact_jump_flow: Optional[Callable] = None

    def without_exact_flow(self) -> "VectorFieldSet":
        """Copy that forces the generic jump-ODE solver (for cross-checks)."""
        return replace(self, exact_jump_flow=None)


# ---------------------------------------------------------------------------
# perturbation choices for the cylinder model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantK:
    """Constant perturbation (k1, k2, k3); leaf average (0, k3)."""
    k1: float = 0.0
    k2: float = 0.0
    k3: float = 1.0

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        out[..., 0] = self.k1
        out[..., 1] = self.k2
        out[..., 2] = self.k3
        return out


@dataclass(frozen=True)
class LinearK:
    """Perturbation (x, 0, 0); radial leaf average r/2, no vertical part."""

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[..., 0] = x[..., 0]
        return out


# ---------------------------------------------------------------------------
# cylinder preset
# ---------------------------------------------------------------------------

def _rotate(x, angle):
    c = np.cos(angle)
    s = np.sin(angle)
    out = np.empty_like(np.asarray(x, dtype=float))
    out[..., 0] = x[..., 0] * c - x[..., 1] * s
    out[..., 1] = x[..., 0] * s + x[..., 1] * c
    out[..., 2] = x[..., 2]
    return out


@dataclass(frozen=True)
class CylinderPreset:
    """Bundle of chart, fields and driver for the rotating-leaf cylinder."""
    chart: FoliatedChart
    fields: VectorFieldSet
    driver: object
    r_min: float
    r_max: float
    z_min: float
    z_max: float
    theta: float
    k_choice: object


def make_cylinder_preset(r_min=0.2, r_max=5.0, z_min=-10.0, z_max=10.0,
                         theta=1.0, k_choice=None, kappa=None) -> CylinderPreset:
    """Annulus x interval domain, circle leaves, Gamma(theta) driver.

    Requires 0 < r_min < 1 < r_max so the canonical start radius 1 is
    interior.  k_choice is a ConstantK or LinearK instance (default LinearK).
    """
    from .drivers import GammaSubordinator

    if not (0.0 < r_min < 1.0 < r_max):
        raise ValueError(f"need 0 < r_min < 1 < r_max, got ({r_min}, {r_max})")
    if not z_min < z_max:
        raise ValueError(f"need z_min < z_max, got ({z_min}, {z_max})")
    if k_choice is None:
        k_choice = LinearK()

    def to_chart(x):
        x = np.asarray(x, dtype=float)
        r = np.hypot(x[..., 0], x[..., 1])
        u = np.stack([x[..., 0] / r, x[..., 1] / r], axis=-1)
        v = np.stack([r, x[..., 2]], axis=-1)
        return u, v

    def from_chart(u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return np.stack([v[..., 0] * u[..., 0], v[..., 0] * u[..., 1], v[..., 1]], axis=-1)

    def vertical_projection(x):
        x = np.asarray(x, dtype=float)
        return np.stack([np.hypot(x[..., 0], x[..., 1]), x[..., 2]], axis=-1)

    def contains(x):
        x = np.asarray(x, dtype=float)
        r = np.hypot(x[..., 0], x[..., 1])
        return (r > r_min) & (r < r_max) & (x[..., 2] > z_min) & (x[..., 2] < z_max)

    def pi_jacobian(x):
        x = np.asarray(x, dtype=float)
        r = np.hypot(x[..., 0], x[..., 1])
        jac = np.zeros(x.shape[:-1] + (2, 3))
        jac[..., 0, 0] = x[..., 0] / r
        jac[..., 0, 1] = x[..., 1] / r
        jac[..., 1, 2] = 1.0
        return jac

    def leaf_point(angles, v):
        angles = np.asarray(angles, dtype=float)
        r, z = float(v[0]), float(v[1])
        return np.stack([r * np.cos(angles), r * np.sin(angles),
                         np.full_like(angles, z)], axis=-1)

    chart = FoliatedChart(
        ambient_dim=3, vertical_dim=2,
        to_chart=to_chart, from_chart=from_chart,
        vertical_projection=vertical_projection, contains=contains,
        vertical_bounds=((r_min, r_max), (z_min, z_max)),
        sample_box=(np.array([-r_max, -r_max, z_min]), np.array([r_max, r_max, z_max])),
        pi_jacobian=pi_jacobian, leaf_point=leaf_point,
    )

    def driving(x, z):
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        a = z[..., 0]
        out = np.empty_like(x)
        out[..., 0] = -x[..., 1] * a
        out[..., 1] = x[..., 0] * a
        out[..., 2] = 0.0
        return out

    def exact_jump_flow(x, z):
        z = np.asarray(z, dtype=float)
        return _rotate(x, z[..., 0])

    fields = VectorFieldSet(
        driver_dim=1, driving=driving, drift=None, perturbation=k_choice,
        exact_jump_flow=exact_jump_flow,
    )
    driver = GammaSubordinator(rate=theta, exp_moment_order=kappa)
    return CylinderPreset(chart, fields, driver, r_min, r_max, z_min, z_max,
                          theta, k_choice)


# ---------------------------------------------------------------------------
# derivative helpers and checks
# ---------------------------------------------------------------------------

def _fd_pi_jacobian(chart, x, step=FD_STEP):
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.shape[-1]):
        e = np.zeros_like(x)
        e[..., i] = step
        cols.append((chart.vertical_projection(x + e)
                     - chart.vertical_projection(x - e)) / (2 * step))
    return np.stack(cols, axis=-1)


def dpi_k(chart: FoliatedChart, fields: VectorFieldSet, x):
    """Directional derivative of Pi along the perturbation, dPi(K)(x).

    Uses the analytic Jacobian when the chart has one, otherwise central
    finite differences with step 1e-6.  Points outside U are rejected.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(chart.contains(x)):
        raise DomainError("dpi_k evaluated outside the chart domain")
    if fields.perturbation is None:
        return np.zeros(x.shape[:-1] + (chart.vertical_dim,))
    jac = chart.pi_jacobian(x) if chart.pi_jacobian is not None else _fd_pi_jacobian(chart, x)
    return np.einsum("...ij,...j->...i", jac, fields.perturbation(x))


@dataclass(frozen=True)
class TangencyReport:
    max_violation: float
    n_checked: int
    n_skipped: int


def tangency_check(fields: VectorFieldSet, chart: FoliatedChart,
                   sample_count: int, rng: RngStream) -> TangencyReport:
    """Max |dPi(F_j)| over sampled points of U, for each driving column.

    Points drawn uniformly from the ambient sample box; draws landing
    outside U are skipped and counted.  sample_count must be positive.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be positive")
    gen = rng.generator()
    lo, hi = chart.sample_box
    pts = gen.uniform(lo, hi, size=(sample_count, chart.ambient_dim))
    keep = chart.contains(pts)
    pts = pts[keep]
    n_skipped = int(sample_count - len(pts))
    if len(pts) == 0:
        return TangencyReport(0.0, 0, n_skipped)
    jac = chart.pi_jacobian(pts) if chart.pi_jacobian is not None else _fd_pi_jacobian(chart, pts)
    worst = 0.0
    for j in range(fields.driver_dim):
        e = np.zeros((len(pts), fields.driver_dim))
        e[:, j] = 1.0
        col = fields.driving(pts, e)
        worst = max(worst, float(np.abs(np.einsum("nij,nj->ni", jac, col)).max()))
    return TangencyReport(worst, int(len(pts)), n_skipped)

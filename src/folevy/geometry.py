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

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DomainError, _real

_R_R_Z = np.array([0, 0, 1])   # picks (r, r, z) out of a cylinder's (r, z)


# ---------------------------------------------------------------------------
# chart and fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FoliatedChart:
    """Product chart of U: the leaves, and the vertical coordinate across them.

    `vertical_projection` is Pi, which maps a point of U to its vertical
    coordinate v, and `vertical_bounds` the open box V that v ranges over,
    one (low, high) pair per coordinate; `contains` tells the points of U.
    `pi_push(x, w)` is the pushforward dPi_x(w), shape (..., vertical_dim),
    and `leaf_nodes(angles)` fixes the angles once and returns v -> the
    points at them on the circle leaves through v, broadcast against them.
    """

    ambient_dim: int
    vertical_dim: int
    vertical_projection: Callable
    contains: Callable
    vertical_bounds: tuple
    pi_push: Callable
    leaf_nodes: Callable

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
    Every field returns a new array, never a view of its argument: the
    drift RK4 reuses the buffer it passes in.
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
        out = np.zeros(x.shape)
        out[..., 0] = x[..., 0]
        return out


# ---------------------------------------------------------------------------
# cylinder preset
# ---------------------------------------------------------------------------

def _rotate(x, angle):
    c = np.cos(angle)
    s = np.sin(angle)
    out = np.array(x, dtype=float)      # z comes with the copy
    x0, x1 = x[..., 0], x[..., 1]
    out[..., 0] = x0 * c - x1 * s
    out[..., 1] = x0 * s + x1 * c
    return out


@dataclass(frozen=True)
class CylinderPreset:
    """Bundle of chart, fields and driver for the rotating-leaf cylinder."""
    chart: FoliatedChart
    fields: VectorFieldSet
    driver: object


def make_cylinder_preset(r_min=0.2, r_max=5.0, z_min=-10.0, z_max=10.0,
                         theta=1.0, k_choice=None) -> CylinderPreset:
    """Annulus x interval domain, circle leaves, Gamma(theta) driver.

    Requires 0 < r_min < 1 < r_max so the canonical start radius 1 is
    interior.  k_choice is the perturbation field, a callable such as a
    ConstantK or LinearK instance (default LinearK), else ConfigError.
    """
    from .drivers import GammaSubordinator

    if not 0.0 < _real(r_min, "r_min") < 1.0 < _real(r_max, "r_max"):
        raise ConfigError(f"need 0 < r_min < 1 < r_max, got ({r_min}, {r_max})")
    if not _real(z_min, "z_min") < _real(z_max, "z_max"):
        raise ConfigError(f"need z_min < z_max, got ({z_min}, {z_max})")
    if k_choice is None:
        k_choice = LinearK()
    elif not callable(k_choice):
        raise ConfigError(f"k_choice must be a field, got {k_choice!r}")

    def vertical_projection(x):
        x = np.asarray(x, dtype=float)
        return np.stack([np.hypot(x[..., 0], x[..., 1]), x[..., 2]], axis=-1)

    def contains(x):
        x = np.asarray(x, dtype=float)
        r = np.hypot(x[..., 0], x[..., 1])
        return (r > r_min) & (r < r_max) & (x[..., 2] > z_min) & (x[..., 2] < z_max)

    def pi_push(x, w):
        # dPi's rows (x/r, y/r, 0) and (0, 0, 1) applied to w: the bits of
        # contracting the Jacobian, up to the sign of an exactly zero sum
        r = np.hypot(x[..., 0], x[..., 1])
        out = np.empty(x.shape[:-1] + (2,))
        np.add(x[..., 0] / r * w[..., 0], x[..., 1] / r * w[..., 1],
               out=out[..., 0])
        out[..., 1] = w[..., 2]
        return out

    def leaf_nodes(angles):
        angles = np.asarray(angles, dtype=float)
        unit = np.stack([np.cos(angles), np.sin(angles),
                         np.ones_like(angles)], axis=-1)
        # (cos, sin, 1) * (r, r, z): the bits of r cos, r sin and z, as 1 z = z
        return lambda v: unit * np.asarray(v, dtype=float)[..., _R_R_Z]

    chart = FoliatedChart(
        ambient_dim=3, vertical_dim=2,
        vertical_projection=vertical_projection, contains=contains,
        vertical_bounds=((r_min, r_max), (z_min, z_max)),
        pi_push=pi_push, leaf_nodes=leaf_nodes,
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
    driver = GammaSubordinator(rate=theta)
    return CylinderPreset(chart, fields, driver)


# ---------------------------------------------------------------------------
# derivative helpers and checks
# ---------------------------------------------------------------------------

def dpi_k(chart: FoliatedChart, fields: VectorFieldSet, x):
    """Directional derivative of Pi along the perturbation, dPi(K)(x),
    through the chart's pushforward.  x must be numbers of shape (...,
    ambient_dim), else ConfigError; points outside U raise DomainError.
    """
    try:
        x = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        x = np.empty(0)
    if x.ndim == 0 or x.shape[-1] != chart.ambient_dim:
        raise ConfigError(f"dpi_k needs points of dimension {chart.ambient_dim}")
    if not np.all(chart.contains(x)):
        raise DomainError("dpi_k evaluated outside the chart domain")
    if fields.perturbation is None:
        return np.zeros(x.shape[:-1] + (chart.vertical_dim,))
    return chart.pi_push(x, fields.perturbation(x))


def tangency_check(fields: VectorFieldSet, chart: FoliatedChart,
                   points) -> float:
    """Max |dPi(F_j)| over the given points and each driving column j.

    `points` must be a nonempty finite (n, ambient_dim) array (else
    ConfigError) of points inside U (else DomainError).
    """
    try:
        pts = np.asarray(points, dtype=float)
    except (TypeError, ValueError):
        pts = np.empty(0)
    if pts.ndim != 2 or pts.shape[1] != chart.ambient_dim \
            or not len(pts) or not np.all(np.isfinite(pts)):
        raise ConfigError(f"tangency_check needs a nonempty finite "
                          f"(n, {chart.ambient_dim}) array of points")
    if not np.all(chart.contains(pts)):
        raise DomainError("tangency_check evaluated outside the chart domain")
    worst = 0.0
    for j in range(fields.driver_dim):
        e = np.zeros((len(pts), fields.driver_dim))
        e[:, j] = 1.0
        col = fields.driving(pts, e)
        worst = max(worst, float(np.abs(chart.pi_push(pts, col)).max()))
    return worst

"""Leaf averages, the averaged transversal flow, and ergodic-rate tools.

The transversal motion of a slowly perturbed leaf process is governed by
the leaf average of the projected perturbation.  This module computes that
average (closed form, leaf quadrature, or ergodic time average along an
unperturbed path), solves the resulting transversal ODE with boundary
tracking, and estimates how fast time averages converge to leaf averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ._parallel import map_blocks
from .errors import ConfigError, DomainError
from .geometry import FoliatedChart, VectorFieldSet, _fd_pi_jacobian, dpi_k
from .marcus import (IntegratorConfig, _kahan_add, integrate_grid_ensemble,
                     integrate_perturbed, integrate_unperturbed, resolve_grid)
from .rng import RngStream, path_streams
from .tables import write_csv

_ZERO_FLOOR = 1e-14


def leaf_average_quadrature(chart: FoliatedChart, psi, v, n_nodes: int = 64) -> float:
    """Average of psi over the closed leaf through transversal point v.

    Uniform-angle nodes; on a periodic integrand the trapezoid rule and the
    plain node mean coincide, and convergence is spectral in n_nodes.
    """
    if chart.leaf_point is None:
        raise ValueError("chart carries no leaf parametrization")
    if n_nodes < 8:
        raise ValueError("n_nodes must be at least 8")
    angles = np.arange(n_nodes) * (2.0 * np.pi / n_nodes)
    pts = chart.leaf_point(angles, np.asarray(v, dtype=float))
    return float(np.mean(psi(pts)))


def _leaf_mean_dpik(chart, fields, v, n_nodes):
    # domain checks are deliberately skipped: the averaged field must stay
    # evaluable slightly past the open transversal box so that boundary
    # crossings of the averaged flow can be bracketed
    angles = np.arange(n_nodes) * (2.0 * np.pi / n_nodes)
    pts = chart.leaf_point(angles, np.asarray(v, dtype=float))
    if fields.perturbation is None:
        return np.zeros(chart.vertical_dim)
    jac = chart.pi_jacobian(pts) if chart.pi_jacobian is not None \
        else _fd_pi_jacobian(chart, pts)
    vals = np.einsum("...ij,...j->...i", jac, fields.perturbation(pts))
    return vals.mean(axis=0)


@dataclass(frozen=True)
class AveragedField:
    """Handle for the averaged transversal field v -> Q(v)."""

    chart: FoliatedChart
    method: str
    _evaluate: Callable

    def evaluate(self, v):
        return np.asarray(self._evaluate(np.asarray(v, dtype=float)), dtype=float)

    def __call__(self, v):
        return self.evaluate(v)


def averaged_field(chart: FoliatedChart, fields: VectorFieldSet,
                   method: str = "quadrature", func=None, n_nodes: int = 64,
                   driver=None, horizon: float = 200.0,
                   cfg: IntegratorConfig = None,
                   rng: RngStream = RngStream(0)) -> AveragedField:
    """Build the averaged field Q by one of three backends.

    ``analytic`` wraps a user-supplied closed form, ``quadrature`` averages
    the projected perturbation over the leaf, ``ergodic_mc`` takes the time
    average of it along one unperturbed sample path per query point (slow,
    meant for cross-checks).
    """
    if method == "analytic":
        if func is None:
            raise ValueError("analytic method needs func")
        return AveragedField(chart, method, func)
    if method == "quadrature":
        if n_nodes < 8:
            raise ValueError("n_nodes must be at least 8")
        return AveragedField(chart, method,
                             lambda v: _leaf_mean_dpik(chart, fields, v, n_nodes))
    if method == "ergodic_mc":
        if driver is None:
            raise ValueError("ergodic_mc method needs a driver")
        if not (horizon > 0):
            raise ValueError("ergodic_mc horizon must be positive")

        def by_time_average(v):
            start = chart.leaf_point(np.zeros(1), v)[0]
            traj = integrate_unperturbed(fields, chart, driver, start, horizon,
                                         cfg, rng)
            vals = dpi_k(chart, fields, traj.states)
            return np.trapezoid(vals, traj.times, axis=0) / traj.times[-1]

        return AveragedField(chart, method, by_time_average)
    raise ValueError(f"unknown averaging method {method!r}")


# ---------------------------------------------------------------------------
# averaged transversal ODE
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AveragedSolution:
    """Averaged transversal path w on its own (rescaled) clock.

    `boundary_time` is the interpolated first time the path reaches the
    boundary of the transversal box, None if it stays inside for the whole
    horizon.  When the path does exit, the sample arrays end at the first
    grid point past the boundary so that interpolation brackets the
    crossing.
    """

    chart: FoliatedChart
    times: np.ndarray
    values: np.ndarray
    boundary_time: Optional[float] = None

    def interp(self, s):
        s = np.asarray(s, dtype=float)
        if np.any(s < -1e-12) or np.any(s > self.times[-1] * (1 + 1e-12) + 1e-12):
            raise ValueError("requested time lies outside the solved range")
        cols = [np.interp(s, self.times, self.values[:, i])
                for i in range(self.values.shape[1])]
        return np.stack(cols, axis=-1)

    def margins(self):
        return np.array([self.chart.boundary_distance(v) for v in self.values])

    def time_to_margin(self, gamma: float) -> Optional[float]:
        """First time the boundary gap drops to gamma, by linear interpolation."""
        if gamma < 0:
            raise ValueError("gamma must be nonnegative")
        m = self.margins()
        if m[0] <= gamma:
            return 0.0
        below = np.nonzero(m <= gamma)[0]
        if len(below) == 0:
            return None
        k = int(below[0])
        t0, t1 = self.times[k - 1], self.times[k]
        frac = (m[k - 1] - gamma) / (m[k - 1] - m[k])
        return float(t0 + frac * (t1 - t0))


def solve_averaged_ode(avg: AveragedField, v0, horizon: float,
                       step: float = 1e-3) -> AveragedSolution:
    """Integrate dw/ds = Q(w) with classical Runge-Kutta and compensated
    accumulation, stopping one step past the transversal boundary."""
    chart = avg.chart
    v0 = np.asarray(v0, dtype=float)
    if not bool(chart.vertical_contains(v0)):
        raise DomainError("v0 lies outside the transversal domain")
    if not (horizon > 0 and step > 0):
        raise ValueError("horizon and step must be positive")
    n = max(1, int(math.ceil(horizon / step - 1e-12)))
    h = horizon / n
    y = v0.copy()
    comp = np.zeros_like(y)
    times = np.empty(n + 1)
    values = np.empty((n + 1, len(v0)))
    times[0] = 0.0
    values[0] = y
    stop = n
    for k in range(n):
        k1 = avg.evaluate(y)
        k2 = avg.evaluate(y + (0.5 * h) * k1)
        k3 = avg.evaluate(y + (0.5 * h) * k2)
        k4 = avg.evaluate(y + h * k3)
        _kahan_add(y, comp, (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4))
        times[k + 1] = (k + 1) * h
        values[k + 1] = y
        if not bool(chart.vertical_contains(y)):
            stop = k + 1
            break
    sol = AveragedSolution(chart, times[: stop + 1], values[: stop + 1])
    if stop < n or not bool(chart.vertical_contains(values[stop])):
        crossing = sol.time_to_margin(0.0)
        sol = AveragedSolution(chart, sol.times, sol.values, boundary_time=crossing)
    return sol


# ---------------------------------------------------------------------------
# ergodic averages and their rate
# ---------------------------------------------------------------------------

def ergodic_average(fields: VectorFieldSet, chart: FoliatedChart, driver, psi,
                    x0, horizon: float, cfg: IntegratorConfig = None,
                    rng: RngStream = RngStream(0)) -> float:
    """Trapezoid time average of psi along one unperturbed sample path."""
    if not (horizon > 0):
        raise ValueError("horizon must be positive")
    traj = integrate_unperturbed(fields, chart, driver, x0, horizon, cfg, rng)
    vals = np.asarray(psi(traj.states), dtype=float)
    return float(np.trapezoid(vals, traj.times) / traj.times[-1])


def lp_moment(samples, p):
    """Empirical L^p moment of |samples| with a delta method standard error."""
    samples = np.asarray(samples, dtype=float)
    powered = np.abs(samples) ** p
    mean_pow = float(np.mean(powered))
    value = mean_pow ** (1.0 / p)
    if mean_pow == 0.0 or len(samples) < 2:
        return value, 0.0
    se_mean = float(np.std(powered, ddof=1) / math.sqrt(len(samples)))
    return value, se_mean * value / (p * mean_pow)


def fit_loglog(x, y, floor: float = 1e-300):
    """Least squares slope and prefactor of y ~ C * x**slope.

    Entries with y at or below the floor are dropped; fewer than two usable
    points returns (None, None).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = y > floor
    if keep.sum() < 2:
        return None, None
    slope, intercept = np.polyfit(np.log(x[keep]), np.log(y[keep]), 1)
    return float(slope), float(np.exp(intercept))


@dataclass(frozen=True)
class RateEstimate:
    horizons: np.ndarray
    lp_errors: np.ndarray
    exponent: float
    constant: float
    p: float
    n_paths: int
    identically_zero: bool = False


def rate_to_csv(est: RateEstimate, path):
    rows = [(t, e, est.p, est.exponent, est.constant)
            for t, e in zip(est.horizons, est.lp_errors)]
    return write_csv(path, ["t", "lp_error", "p", "fitted_exponent",
                            "fitted_constant"], rows)


def eta_grid(horizons, p, n_paths, cfg: IntegratorConfig):
    """Checked estimate_eta inputs: the sorted horizons, the macro step h
    and the grid index of each horizon.  Invalid inputs raise ValueError."""
    horizons = np.asarray(sorted(float(t) for t in horizons))
    if len(horizons) < 3 or len(np.unique(horizons)) != len(horizons):
        raise ValueError("need at least three distinct horizons")
    if horizons[0] <= 0:
        raise ValueError("horizons must be positive")
    if p < 2:
        raise ValueError("moment order p must be at least 2")
    if n_paths < 100:
        raise ValueError("n_paths must be at least 100")
    _, h = resolve_grid(cfg, 0.0, float(horizons[-1]))
    snap_idx = np.rint(horizons / h).astype(int)
    if np.any(np.abs(snap_idx * h - horizons) > 1e-9):
        raise ValueError("horizons must sit on the integration grid")
    return horizons, h, snap_idx


def estimate_eta(fields: VectorFieldSet, chart: FoliatedChart, driver, psi,
                 x0, horizons: Sequence[float], p: float = 2,
                 n_paths: int = 200, master_seed: int = 0, stream_base: int = 0,
                 cfg: IntegratorConfig = None, threads: int = 1,
                 q_ref: Optional[float] = None) -> RateEstimate:
    """Decay rate of ergodic-average errors over unperturbed paths.

    For each horizon t the L^p error |A_t psi - Q| over n_paths independent
    paths is computed from one ensemble run (trapezoid averages sampled at
    the horizon grid indices), then a power law C * t**e is fitted in
    log-log coordinates; the reported exponent is e itself, about -1/2 for
    mixing observables.  Errors all below 1e-14 report exponent 0 with
    constant 0: the observable averages exactly.
    """
    if cfg is None:
        cfg = IntegratorConfig()
    horizons, h, snap_idx = eta_grid(horizons, p, n_paths, cfg)
    if q_ref is None:
        q_ref = leaf_average_quadrature(chart, psi,
                                        chart.vertical_projection(np.asarray(x0, float)),
                                        n_nodes=256)
    t_max = float(horizons[-1])

    def run_block(a, b):
        m = b - a
        streams = path_streams(master_seed, stream_base + a, m)
        integral = np.zeros(m)
        integral_comp = np.zeros(m)
        prev = np.empty(m)
        snaps = np.empty((len(snap_idx), m))

        def observe(k, t, states, active):
            vals = np.asarray(psi(states), dtype=float)
            if k > 0:
                _kahan_add(integral, integral_comp, (0.5 * h) * (vals + prev))
            prev[:] = vals
            hits = np.nonzero(snap_idx == k)[0]
            for j in hits:
                snaps[j] = integral

        integrate_grid_ensemble(fields, driver, x0, t_max, 0.0, cfg, streams,
                                on_step=observe)
        return snaps

    parts = map_blocks(run_block, n_paths, threads)
    snaps = np.concatenate(parts, axis=1)
    errors = np.abs(snaps / horizons[:, None] - q_ref)
    lp = np.mean(errors ** p, axis=1) ** (1.0 / p)
    if np.all(lp <= _ZERO_FLOOR):
        return RateEstimate(horizons, lp, 0.0, 0.0, p, n_paths, identically_zero=True)
    slope, const = fit_loglog(horizons, lp)
    if slope is None:
        return RateEstimate(horizons, lp, 0.0, float(lp.max()), p, n_paths)
    return RateEstimate(horizons, lp, slope, const, p, n_paths)


# ---------------------------------------------------------------------------
# averaging defect along perturbed paths
# ---------------------------------------------------------------------------

def averaged_component(avg: AveragedField, index: int):
    """Scalar transversal function v -> Q(v)[index], batch-friendly."""

    def q(v):
        v = np.asarray(v, dtype=float)
        if v.ndim == 1:
            return float(avg.evaluate(v)[index])
        return np.array([avg.evaluate(row)[index] for row in v])

    return q


def delta_defect(fields: VectorFieldSet, chart: FoliatedChart, driver, psi,
                 q_psi, x0, eps: float, horizon: float,
                 cfg: IntegratorConfig = None,
                 rng: RngStream = RngStream(0)) -> float:
    """Averaging defect of one perturbed path on [0, horizon & exit]:
    eps times the integral of psi(X_s) - q_psi(Pi(X_s))."""
    traj = integrate_perturbed(fields, chart, driver, x0, horizon, eps, cfg, rng)
    vals = np.asarray(psi(traj.states), dtype=float)
    vals = vals - np.asarray(q_psi(chart.vertical_projection(traj.states)), dtype=float)
    return float(eps * np.trapezoid(vals, traj.times))


def delta_defect_lp(fields: VectorFieldSet, chart: FoliatedChart, driver, psi,
                    q_psi, x0, eps: float, horizon: float, p: float = 2,
                    n_paths: int = 200, master_seed: int = 0,
                    stream_base: int = 0, cfg: IntegratorConfig = None,
                    threads: int = 1):
    """L^p size of the averaging defect over an ensemble, with a delta
    method standard error.  Paths stop contributing at their exit time."""
    if n_paths < 2:
        raise ValueError("n_paths must be at least 2")
    if cfg is None:
        cfg = IntegratorConfig()

    def integrand(states):
        proj = chart.vertical_projection(states)
        return np.asarray(psi(states), dtype=float) - np.asarray(q_psi(proj), dtype=float)

    n_steps, h = resolve_grid(cfg, eps, horizon)

    def run_block(a, b):
        m = b - a
        streams = path_streams(master_seed, stream_base + a, m)
        integral = np.zeros(m)
        integral_comp = np.zeros(m)
        prev = np.empty(m)
        prev_active = np.ones(m, dtype=bool)

        def observe(k, t, states, active):
            vals = integrand(states)
            if k > 0:
                inc = np.where(prev_active, (0.5 * h) * (vals + prev), 0.0)
                _kahan_add(integral, integral_comp, inc)
            prev[:] = vals
            prev_active[:] = active

        integrate_grid_ensemble(fields, driver, x0, horizon, eps, cfg, streams,
                                contains=chart.contains, on_step=observe)
        return integral

    deltas = eps * np.concatenate(map_blocks(run_block, n_paths, threads))
    return lp_moment(deltas, p)

"""Leaf averages, the averaged transversal flow, and ergodic-rate tools.

The transversal motion of a slowly perturbed leaf process is governed by
the leaf average of the projected perturbation.  This module computes that
average (closed form or leaf quadrature), solves the resulting transversal
ODE with boundary tracking, and estimates how fast time averages along
unperturbed paths converge to leaf averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from ._parallel import map_blocks
from .errors import (_MAX_COUNT, BlowupError, ConfigError, DomainError,
                     _count, _floats, _real, _reals)
from .geometry import FoliatedChart, VectorFieldSet
from .marcus import (IntegratorConfig, _check_plan, _check_start, _drift_rk4,
                     _grid_config, _kahan_add, _step_count,
                     integrate_grid_ensemble, resolve_grid)
from .rng import path_streams

_ZERO_FLOOR = 1e-14
_ODE_STEP = 1e-3        # the averaged ODE's Runge-Kutta step
# where the largest |x|**p must lie for lp_moment to take the powers as
# they are: there they and their variance stay finite and normal
_POWER_RANGE = (np.finfo(float).tiny, 1e150)


def _leaf_mean(chart, func, n_nodes):
    """v -> the mean of func over the leaf through v at n_nodes uniform
    angles from 0 (a whole count: np.arange(8.5) gives 9): the trapezoid
    rule, spectral on a periodic integrand.  The axis-0 reduce is np.mean's
    pairwise sum on 1-D values and adds (n, k) rows in node order."""
    _count(n_nodes, "n_nodes", 8, _MAX_COUNT)
    nodes = chart.leaf_nodes(np.arange(n_nodes) * (2.0 * np.pi / n_nodes))
    return lambda v: np.add.reduce(func(nodes(v)), axis=0) / n_nodes


def leaf_average_quadrature(chart: FoliatedChart, psi, v, n_nodes: int = 64) -> float:
    """Average of psi over the closed leaf through transversal point v."""
    v = _floats(v, (chart.vertical_dim,),
                f"v must be a transversal point of dimension {chart.vertical_dim}")
    return float(_leaf_mean(chart, psi, n_nodes)(v))


@dataclass(frozen=True)
class AveragedField:
    """Handle for the averaged transversal field v -> Q(v)."""

    chart: FoliatedChart
    method: str             # "analytic" (closed form) or "quadrature"
    _evaluate: Callable

    def evaluate(self, v):
        return self._evaluate(np.asarray(v, dtype=float))


def averaged_field(chart: FoliatedChart, fields: VectorFieldSet, func=None,
                   n_nodes: int = 64) -> AveragedField:
    """The averaged field Q: the closed form `func` when one is passed,
    else the projected perturbation averaged over the leaf on n_nodes
    nodes.  A `func` that is not callable is a ConfigError."""
    if func is None:
        # domain checks are deliberately skipped: the averaged field must
        # stay evaluable slightly past the open transversal box so that
        # boundary crossings of the averaged flow can be bracketed
        pert, dim = fields.perturbation, chart.vertical_dim
        dpik = ((lambda x: np.zeros((len(x), dim))) if pert is None
                else (lambda x: chart.pi_push(x, pert(x))))
        return AveragedField(chart, "quadrature",
                             _leaf_mean(chart, dpik, n_nodes))
    if not callable(func):
        raise ConfigError(f"func must be callable, got {func!r}")
    # a new array per call, as _drift_rk4 requires of its field
    return AveragedField(chart, "analytic",
                         lambda v: np.array(func(v), dtype=float))


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
        s = _floats(s, (...,), "interp needs times that are numbers")
        # a nan fails both comparisons, and is outside the range too
        if not np.all((s >= -1e-12) & (s <= self.times[-1] * (1 + 1e-12) + 1e-12)):
            raise ConfigError("requested time lies outside the solved range")
        cols = [np.interp(s, self.times, self.values[:, i])
                for i in range(self.values.shape[1])]
        return np.stack(cols, axis=-1)

    def margins(self):
        return self.chart.boundary_distance(self.values)

    def time_to_margin(self, gamma: float) -> Optional[float]:
        """First time the boundary gap drops to gamma, by linear interpolation."""
        _real(gamma, "gamma", least=0)
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


def solve_averaged_ode(avg: AveragedField, v0,
                       horizon: float) -> AveragedSolution:
    """Integrate dw/ds = Q(w) with classical Runge-Kutta, steps of at most
    1e-3 over a horizon of at most 1e3 (else ConfigError: at most 1e6
    steps) and compensated accumulation, stopping one step past the
    transversal boundary.  A non-finite state is a BlowupError with the
    time reached, not an exit."""
    _real(horizon, "horizon", above=0, most=1e3)
    chart = avg.chart
    v0 = _floats(v0, (chart.vertical_dim,), f"v0 must be a transversal "
                 f"point of dimension {chart.vertical_dim}")
    if not bool(chart.vertical_contains(v0)):
        raise DomainError("v0 lies outside the transversal domain")
    n = _step_count(horizon, _ODE_STEP)
    h = horizon / n
    y = v0.copy()
    comp = np.zeros_like(y)
    times = np.empty(n + 1)
    values = np.empty((n + 1, len(v0)))
    times[0] = 0.0
    values[0] = y
    bounds = chart.vertical_bounds
    # an infinite field makes the Kahan step take inf - inf; the state's
    # own check below reports that as a BlowupError, not a warning
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(1, n + 1):
            _drift_rk4(avg.evaluate, y, comp, h)
            s = times[k] = k * h
            values[k] = y
            # chart.vertical_contains on plain floats: the same
            # comparisons, which a nan or inf fails too
            if not all(lo < c < hi
                       for c, (lo, hi) in zip(y.tolist(), bounds)):
                if not np.isfinite(y).all():
                    raise BlowupError(f"the averaged ODE left the finite "
                                      f"range at s={s:g}", sigma=s)
                break
        else:
            return AveragedSolution(chart, times, values)
    sol = AveragedSolution(chart, times[: k + 1], values[: k + 1])
    return replace(sol, boundary_time=sol.time_to_margin(0.0))


# ---------------------------------------------------------------------------
# ergodic averages and their rate
# ---------------------------------------------------------------------------

def lp_moment(samples, p):
    """Empirical L^p moment of |samples| with a delta method standard error.

    When the largest |x|**p leaves `_POWER_RANGE`, as it does for a large
    p, the moment is taken of |x| / max|x| and scaled back, so it neither
    overflows nor vanishes while a sample does not.  ConfigError unless
    the samples are nonempty and finite and p is finite and at least 1."""
    _real(p, "p", least=1)
    samples = np.abs(_floats(samples, (...,), "lp_moment needs samples "
                             "that are numbers"))
    if not samples.size or not np.isfinite(samples).all():
        raise ConfigError("lp_moment needs a nonempty array of finite samples")
    with np.errstate(over="ignore"):
        powered = samples ** p
    scale = 1.0
    top = float(samples.max(initial=0.0))
    lo, hi = _POWER_RANGE
    if 0.0 < top < math.inf and not lo <= float(powered.max()) <= hi:
        scale = top
        powered = (samples / top) ** p
    mean_pow = float(np.mean(powered))
    value = scale * mean_pow ** (1.0 / p)
    if mean_pow == 0.0 or len(samples) < 2:
        return value, 0.0
    se_mean = float(np.std(powered, ddof=1) / math.sqrt(len(samples)))
    return value, se_mean * value / (p * mean_pow)


def fit_loglog(x, y):
    """Least squares slope and prefactor of y ~ C * x**slope.

    x must be finite and positive with at least two distinct values, and y
    finite and of the same shape, else ConfigError.  Entries with y at or
    below 1e-300 are dropped; fewer than two distinct x left returns
    (None, None).
    """
    x = _floats(x, (...,), "fit_loglog needs x that are numbers")
    y = _floats(y, (...,), "fit_loglog needs y that are numbers")
    if x.ndim != 1 or x.shape != y.shape or not np.isfinite(y).all() \
            or not ((x > 0) & (x < math.inf)).all() or len(set(x)) < 2:
        raise ConfigError("fit_loglog needs finite positive x with two "
                          "distinct values and as many finite y")
    keep = y > 1e-300       # a zero y has no log
    if len(set(x[keep])) < 2:
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

    def summary(self):
        return dict(vars(self))


def estimate_eta(fields: VectorFieldSet, chart: FoliatedChart, driver, psi,
                 x0, horizons: Sequence[float], p: float = 2,
                 n_paths: int = 200, master_seed: int = 0,
                 cfg: IntegratorConfig = None) -> RateEstimate:
    """Decay rate of ergodic-average errors over unperturbed paths.

    For each horizon t the L^p error |A_t psi - Q| over n_paths independent
    paths is computed from one ensemble run (trapezoid averages sampled at
    the horizon grid indices), then a power law C * t**e is fitted in
    log-log coordinates; the reported exponent is e itself, about -1/2 for
    mixing observables.  Errors all below 1e-14 report exponent 0 with
    constant 0: the observable averages exactly.
    """
    horizons = np.sort(_reals(horizons, "horizons", above=0))
    if len(horizons) < 3 or len(np.unique(horizons)) != len(horizons):
        raise ConfigError("need at least three distinct horizons")
    _real(p, "moment order p", least=2)
    _count(n_paths, "n_paths", 100)
    _count(master_seed, "master_seed")
    if not callable(psi):
        raise ConfigError(f"psi must be callable, got {psi!r}")
    cfg = _grid_config(cfg)
    n, h = resolve_grid(cfg, 0.0, float(horizons[-1]))
    _check_plan(n_paths, [n])
    snap_idx = np.rint(horizons / h).astype(int)
    if np.any(np.abs(snap_idx * h - horizons) > 1e-9):
        raise ConfigError("horizons must sit on the integration grid")
    x0 = _check_start(chart, x0)
    v0 = chart.vertical_projection(x0)
    with np.errstate(over="ignore", invalid="ignore"):
        leaf_mean = leaf_average_quadrature(chart, psi, v0, n_nodes=256)
    t_max = float(horizons[-1])

    def run_block(a, b):
        m = b - a
        streams = path_streams(master_seed, a, m)
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

    snaps = np.concatenate(map_blocks(run_block, n_paths), axis=1)
    if not (math.isfinite(leaf_mean) and np.isfinite(snaps).all()):
        raise BlowupError("psi's time or leaf averages left the finite range")
    errors = snaps / horizons[:, None] - leaf_mean
    lp = np.array([lp_moment(row, p)[0] for row in errors])
    if np.all(lp <= _ZERO_FLOOR):
        return RateEstimate(horizons, lp, 0.0, 0.0, p, n_paths, identically_zero=True)
    slope, const = fit_loglog(horizons, lp)
    if slope is None:
        return RateEstimate(horizons, lp, 0.0, float(lp.max()), p, n_paths)
    return RateEstimate(horizons, lp, slope, const, p, n_paths)

"""Ensemble experiments around the averaging principle.

Four studies: the sup-distance between the rescaled transversal path and
the averaged flow across perturbation sizes, the probability of leaving
the domain before the averaged near-exit time, the linear scaling of
coupled transversal deviations, and the agreement of the two jump
discretizations on one shared jump set.  All of them run deterministic
per-path rng streams, so results depend only on the master seed and the
path order, not on how paths are batched.  Every block of paths advances
in lockstep, through the grid kernel and, for scheme agreement's event
half, the shared event stepper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._parallel import map_blocks
from .averaging import (_ZERO_FLOOR, AveragedField, AveragedSolution,
                        fit_loglog, lp_moment, solve_averaged_ode)
from .drivers import (GammaSubordinator, JumpEvents, sample_jump_events,
                      step_sums)
from .errors import ConfigError, _count, _real, _reals
from .geometry import FoliatedChart, VectorFieldSet, dpi_k
from .marcus import (IntegratorConfig, _check_plan, _check_start,
                     _grid_config, _step_count, integrate_grid_ensemble,
                     resolve_grid, step_events)
# unused here, but perfbench/spans.py rebinds them on this module by name
from .marcus import _drift_rk4, jump_flow  # noqa: F401
from .rng import path_streams

_BASE_CUTOFF = 0.002    # scheme agreement samples each path's jumps above it
OBSERVABLES = {
    "radial": lambda x: np.hypot(x[..., 0], x[..., 1]),
    "vertical": lambda x: x[..., 2],
}


def projected_perturbation(chart: FoliatedChart, fields: VectorFieldSet,
                           component: int):
    """Observable x -> dPi(K)(x)[component], the integrand whose leaf
    average drives the transversal motion along that coordinate."""
    _count(component, "component", most=chart.vertical_dim - 1)

    def psi(x):
        return dpi_k(chart, fields, x)[..., component]

    return psi


def _resolve_observable(observable):
    if isinstance(observable, str) and observable in OBSERVABLES:
        return OBSERVABLES[observable]
    raise ConfigError(f"unknown observable {observable!r}; choose from "
                      f"{sorted(OBSERVABLES)}")


def _nonincreasing_in_eps(epsilons, values, slack):
    """True when values ordered by decreasing eps never rise by more than
    one standard error."""
    order = np.argsort(epsilons)[::-1]
    v, s = np.asarray(values)[order], np.asarray(slack)[order]
    return bool(np.all(v[1:] <= v[:-1] + s[:-1]))


# ---------------------------------------------------------------------------
# transversal comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonResult:
    """The sup distances read at the horizon, one row per eps."""

    epsilons: np.ndarray
    horizons: np.ndarray        # [horizon], on the averaged clock
    p: float
    n_paths: int
    sup_norm: np.ndarray        # (n_eps, 1)
    sup_norm_se: np.ndarray
    sup_radial: np.ndarray
    sup_radial_se: np.ndarray
    sup_vertical: np.ndarray
    sup_vertical_se: np.ndarray
    solution: AveragedSolution

    def summary(self):
        out = {k: v for k, v in vars(self).items() if k != "solution"}
        return {**out, "boundary_time": self.solution.boundary_time,
                "monotone_in_eps": _nonincreasing_in_eps(
                    self.epsilons, self.sup_norm[:, -1], self.sup_norm_se[:, -1])}


def transversal_comparison(fields: VectorFieldSet, chart: FoliatedChart, driver,
                           avg: AveragedField, x0, epsilons, horizon: float,
                           p: float = 2, n_paths: int = 200,
                           master_seed: int = 0, cfg: IntegratorConfig = None,
                           threads: int = 1) -> ComparisonResult:
    """L^p size of sup_{s<=horizon} |Pi(X^eps_{s/eps}) - w(s)| per eps.

    Paths run to horizon/eps on their own clock; the averaged solution is
    read at the rescaled grid times.  The running sup (euclidean, radial
    and vertical parts) stops accumulating at a path's exit time and is
    read at the horizon.  The horizon must end strictly before the
    averaged path reaches the transversal boundary; otherwise the
    comparison window is ill posed and a ConfigError is raised.  `threads`,
    a count of at least 1, has no effect; it stays because
    perfbench/workloads.py passes it.
    """
    epsilons = _reals(epsilons, "eps values", above=0, most=1)
    _real(horizon, "horizon", above=0)
    _real(p, "p", least=1)
    _count(n_paths, "n_paths", 2)
    _count(master_seed, "master_seed")
    _count(threads, "threads", 1)
    cfg = _grid_config(cfg)
    _check_plan(n_paths, [resolve_grid(cfg, eps, horizon / eps)[0]
                          for eps in epsilons])
    x0 = _check_start(chart, x0)
    sol = solve_averaged_ode(avg, chart.vertical_projection(x0), horizon)
    if sol.boundary_time is not None and sol.boundary_time <= horizon:
        raise ConfigError(
            f"averaged path reaches the transversal boundary at "
            f"s={sol.boundary_time:.6g}; pick a horizon below that")
    out = {name: np.zeros((len(epsilons), 1)) for name in
           ("sup_norm", "sup_norm_se", "sup_radial", "sup_radial_se",
            "sup_vertical", "sup_vertical_se")}

    for i, eps in enumerate(epsilons):
        path_horizon = horizon / eps
        n_steps, h = resolve_grid(cfg, eps, path_horizon)
        tgrid = np.arange(n_steps + 1) * h
        w = sol.interp(np.minimum(eps * tgrid, horizon))
        wr, wz = w[:, 0], w[:, 1]

        def run_block(a, b):
            m = b - a
            streams = path_streams(master_seed, a, m)
            sup = np.zeros((3, m))
            d = np.empty((3, m))    # euclidean, radial, vertical distance
            prev_active = np.ones(m, dtype=bool)

            def observe(k, t, states, active):
                np.hypot(states[:, 0], states[:, 1], out=d[1])
                d[1] -= wr[k]
                np.abs(d[1], out=d[1])
                np.subtract(states[:, 2], wz[k], out=d[2])
                np.abs(d[2], out=d[2])
                np.hypot(d[1], d[2], out=d[0])
                # sup >= 0, so skipping exited rows equals taking the
                # maximum with 0 there
                np.maximum(sup, d, out=sup, where=prev_active)
                prev_active[:] = active

            integrate_grid_ensemble(fields, driver, x0, path_horizon, eps, cfg,
                                    streams, contains=chart.contains,
                                    on_step=observe)
            return sup

        sups = np.concatenate(map_blocks(run_block, n_paths), axis=1)
        for c, name in enumerate(("sup_norm", "sup_radial", "sup_vertical")):
            out[name][i, 0], out[name + "_se"][i, 0] = lp_moment(sups[c], p)

    return ComparisonResult(np.asarray(epsilons), np.array([float(horizon)]),
                            p, n_paths, out["sup_norm"], out["sup_norm_se"],
                            out["sup_radial"], out["sup_radial_se"],
                            out["sup_vertical"], out["sup_vertical_se"], sol)


# ---------------------------------------------------------------------------
# exit probabilities near the averaged boundary time
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExitProbabilityResult:
    epsilons: np.ndarray
    probabilities: np.ndarray
    std_errors: np.ndarray
    gamma: float
    t_gamma: float
    n_paths: int

    def summary(self):
        return {**vars(self), "nonincreasing_in_eps": _nonincreasing_in_eps(
            self.epsilons, self.probabilities, self.std_errors)}


def exit_probability(fields: VectorFieldSet, chart: FoliatedChart, driver,
                     avg: AveragedField, x0, epsilons, gamma: float,
                     n_paths: int = 200, master_seed: int = 0,
                     cfg: IntegratorConfig = None,
                     search_horizon: float = 50.0) -> ExitProbabilityResult:
    """Fraction of paths leaving the domain before the averaged path comes
    within gamma of the boundary (path clock: t_gamma / eps).

    The averaged flow is solved until it exits or the search horizon runs
    out; if its boundary gap never drops to gamma there is no near-exit
    time to compare against and a ConfigError is raised.  A start already
    within gamma gives t_gamma = 0 and zero probabilities: there is no
    time window in which to exit.
    """
    epsilons = _reals(epsilons, "eps values", above=0, most=1)
    _real(gamma, "gamma", above=0)
    _count(n_paths, "n_paths", 2)
    _count(master_seed, "master_seed")
    cfg = _grid_config(cfg)
    x0 = _check_start(chart, x0)
    sol = solve_averaged_ode(avg, chart.vertical_projection(x0), search_horizon)
    t_gamma = sol.time_to_margin(gamma)
    if t_gamma is None:
        raise ConfigError(
            f"averaged path keeps a boundary gap above gamma={gamma:g} over "
            f"the whole search horizon {search_horizon:g}; no near-exit time")
    _check_plan(n_paths, [resolve_grid(cfg, eps, t_gamma / eps)[0]
                          for eps in epsilons])

    probs = np.zeros(len(epsilons))
    ses = np.zeros(len(epsilons))
    for i, eps in enumerate(epsilons):
        path_horizon = t_gamma / eps

        def run_block(a, b):
            streams = path_streams(master_seed, a, b - a)
            res = integrate_grid_ensemble(fields, driver, x0, path_horizon, eps,
                                          cfg, streams, contains=chart.contains)
            return np.isfinite(res.exit_times)

        exited = np.concatenate(map_blocks(run_block, n_paths))
        pr = float(np.mean(exited))
        probs[i] = pr
        ses[i] = math.sqrt(pr * (1.0 - pr) / n_paths)
    return ExitProbabilityResult(np.asarray(epsilons), probs, ses, gamma,
                                 float(t_gamma), n_paths)


# ---------------------------------------------------------------------------
# deviation scaling in eps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeviationResult:
    epsilons: np.ndarray
    values: np.ndarray
    std_errors: np.ndarray
    exponent: Optional[float]
    constant: Optional[float]
    observable: str
    horizon: float
    p: float
    n_paths: int
    identically_zero: bool = False

    def summary(self):
        return {**vars(self), "linear_in_eps": (
            None if self.exponent is None
            else bool(abs(self.exponent - 1.0) <= 0.15))}


def deviation_scaling(fields: VectorFieldSet, chart: FoliatedChart, driver,
                      x0, epsilons, horizon: float, observable="radial",
                      p: float = 2, n_paths: int = 200, master_seed: int = 0,
                      cfg: IntegratorConfig = None) -> DeviationResult:
    """Growth in eps of sup_{t<=T & exit} |psi(X^eps_t) - psi(X^0_t)|.

    psi is the observable named "radial" (the leaf radius) or "vertical"
    (the height); any other value is a ConfigError before any path.
    Perturbed and unperturbed paths share every driver increment (one
    coupled run per path), the horizon is fixed path time, and the sup
    stops at the perturbed path's exit.  A log-log fit across eps (at
    least two distinct values, else ConfigError before any path) reports
    the scaling exponent; identically vanishing deviations (observable
    insensitive to the perturbation) report no exponent and set the
    identically_zero flag.
    """
    func = _resolve_observable(observable)
    epsilons = _reals(epsilons, "eps values", above=0, most=1)
    _real(horizon, "horizon", above=0)
    _real(p, "p", least=1)
    _count(n_paths, "n_paths", 2)
    _count(master_seed, "master_seed")
    cfg = _grid_config(cfg)
    if len(set(epsilons)) < 2:
        raise ConfigError("deviation scaling fits across eps and needs two "
                          "distinct eps values")
    _check_plan(n_paths, [resolve_grid(cfg, eps, horizon)[0]
                          for eps in epsilons])
    x0 = _check_start(chart, x0)
    values = np.zeros(len(epsilons))
    ses = np.zeros(len(epsilons))
    for i, eps in enumerate(epsilons):

        def run_block(a, b):
            m = b - a
            streams = path_streams(master_seed, a, m)
            sup = np.zeros(m)

            # no mask for exited rows: the kernel freezes a row and its pair
            # row together, so after the exit dev repeats its exit value
            def observe(k, t, states, states_pair, active):
                np.maximum(sup, np.abs(func(states) - func(states_pair)),
                           out=sup)

            integrate_grid_ensemble(fields, driver, x0, horizon, eps, cfg,
                                    streams, contains=chart.contains,
                                    pair_eps=0.0, on_step_pair=observe)
            return sup

        sups = np.concatenate(map_blocks(run_block, n_paths))
        values[i], ses[i] = lp_moment(sups, p)

    if np.all(values <= _ZERO_FLOOR):
        return DeviationResult(np.asarray(epsilons), values, ses, None, None,
                               observable, horizon, p, n_paths,
                               identically_zero=True)
    exponent, constant = fit_loglog(epsilons, values)
    return DeviationResult(np.asarray(epsilons), values, ses, exponent,
                           constant, observable, horizon, p, n_paths)


# ---------------------------------------------------------------------------
# coupling of the two jump discretizations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchemeAgreementResult:
    cutoffs: np.ndarray
    steps: np.ndarray
    l2_gaps: np.ndarray
    std_errors: np.ndarray
    ratios: np.ndarray
    eps: float
    horizon: float
    n_paths: int

    def summary(self):
        return dict(vars(self))


def scheme_agreement(fields: VectorFieldSet, chart: FoliatedChart,
                     driver: GammaSubordinator, x0, horizon: float = 2.0,
                     eps: float = 0.5,
                     levels=((0.08, 0.04), (0.04, 0.02), (0.02, 0.01)),
                     n_paths: int = 128, master_seed: int = 0,
                     threads: int = 1) -> SchemeAgreementResult:
    """Endpoint gap between the two discretizations on one shared jump set.

    Per path, one jump set is sampled above the base cutoff 0.002, a
    block's paths into one jump table.  `levels` is a nonempty sequence of
    (cutoff, step) pairs, each cutoff above the base one, else ConfigError
    before any draw.  At each level the event scheme keeps only jumps
    above the level cutoff (mean of the rest as transported drift) while
    the grid scheme sums the full set per step and carries the base
    compensator; both see the exact same randomness, so the L2 endpoint
    gap isolates the discretization error and should shrink roughly in
    half per halving.

    A block's paths run in lockstep: the grid half through
    integrate_grid_ensemble with the per-step sums as its increments, the
    event half through step_events.  `threads`, a count of at least 1, has
    no effect; it stays because perfbench/workloads.py passes it.
    """
    _real(eps, "eps", above=0, most=1)
    _real(horizon, "horizon", above=0)
    try:
        levels = [(c, h) for c, h in levels]
    except (TypeError, ValueError):     # not pairs: unpacking fails
        levels = []
    if not levels:
        raise ConfigError("levels must be a nonempty list of (cutoff, step) "
                          "pairs")
    levels = [(float(_real(c, "level cutoffs", above=_BASE_CUTOFF)),
               float(_real(h, "level steps", above=0))) for c, h in levels]
    _count(n_paths, "n_paths", 2)
    _count(master_seed, "master_seed")
    _count(threads, "threads", 1)
    _check_plan(n_paths, [_step_count(horizon, h) for _, h in levels])
    # closed-form small-jump means: a driver without them raises before any path
    means = [np.array([driver.mean_below(c)]) for c, _ in levels]
    base = driver.for_events(_BASE_CUTOFF)
    x0 = _check_start(chart, x0)

    def level_gaps(events):
        m = len(events.counts)
        row = events.rows()
        gaps = np.empty((len(levels), m))
        x_start = np.tile(x0, (m, 1))
        for il, (cutoff, h) in enumerate(levels):
            grid_cfg = IntegratorConfig(step_h=h)
            n, h_grid = resolve_grid(grid_cfg, eps, horizon)
            grid = np.arange(n + 1) * h_grid
            grid[-1] = horizon
            x_grid = integrate_grid_ensemble(
                fields, None, x_start, horizon, eps, grid_cfg, None,
                increments=step_sums(grid, events),
                comp_rate=events.compensator).final_states
            keep = events.sizes[:, 0] > cutoff
            kept = JumpEvents(events.times[keep], events.sizes[keep],
                              np.bincount(row[keep], minlength=m), means[il])
            x_events = step_events(fields, x_start, grid, kept, eps)
            # each row's 1-D norm, sqrt(d . d) as np.linalg.norm computes
            # it: a batched norm rounds differently
            gaps[il] = [math.sqrt(d.dot(d)) for d in x_events - x_grid]
        return gaps

    def run_block(a, b):
        streams = path_streams(master_seed, a, b - a)
        return level_gaps(sample_jump_events(base, horizon, *streams))

    gaps = np.concatenate(map_blocks(run_block, n_paths), axis=1)
    l2 = np.zeros(len(levels))
    ses = np.zeros(len(levels))
    for il in range(len(levels)):
        l2[il], ses[il] = lp_moment(gaps[il], 2)
    ratios = l2[1:] / l2[:-1]
    return SchemeAgreementResult(np.array([c for c, _ in levels]),
                                 np.array([h for _, h in levels]),
                                 l2, ses, ratios, eps, float(horizon), n_paths)

"""Canonical (Marcus) integration of jump-driven flows.

Each driver jump z acts through the time-one flow of dY/ds = F(Y) z, so
first integrals of the driving fields are preserved jump by jump; with the
closed-form rotation flow of the cylinder preset the leaf radius survives
to rounding.  Two schemes:

* ``grid_increment`` -- one exact driver increment per macro step applied
  as a single Marcus jump between two half steps of the drift (Strang
  splitting).
* ``jump_decomposition`` -- jumps above ``jump_cutoff`` are applied at
  their exact times (Poisson thinning of the jump measure); the mean of
  the discarded small jumps is transported through the driving fields as a
  continuous drift F(x) b.

Two lockstep steppers carry every scheme: `integrate_grid_ensemble` on
the macro grid, and `step_events` through the grid merged with each row's
jumps from one `JumpEvents` table (the jump decomposition and scheme
agreement).  `integrate_path` records one path of X^eps, eps = 0 being
the unperturbed system, through either of them.  One RK4 step serves the
drift and, without a closed-form flow, each substep of a jump solve.

State updates accumulate through compensated (Kahan) summation so that
pure-drift coordinates stay exact to a few ulp over 1e5-step horizons.
Paths stop at their first grid or jump time outside the chart domain; the
state is frozen at its exit value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .drivers import JumpEvents, make_step_sampler, sample_jump_events
from .errors import BlowupError, ConfigError, DomainError, _count, _real
from .geometry import FoliatedChart, VectorFieldSet
from .rng import RngStream
from .tables import write_csv

SCHEMES = ("grid_increment", "jump_decomposition")
_MAX_SUBSTEP_ANGLE = 0.1
_CHUNK = 4096           # grid steps drawn per path at a time
_MAX_STEPS = 10**8      # steps per path: 1000x the longest calibration run
# jump_ode_substeps (500x the default), and the substeps of one jump in the
# generic solve, so a jump of norm up to 1 passes at any setting
_MAX_SUBSTEPS = 10**4
# paths x steps one ensemble call plans: 250x the largest calibration plan
_MAX_PATH_STEPS = 10**10


@dataclass(frozen=True)
class IntegratorConfig:
    """Numerical knobs shared by all integrators.

    ``jump_ode_substeps`` counts Runge-Kutta substeps per unit jump
    magnitude for the generic jump solve: a jump z takes max(ceil(substeps
    * |z|), ceil(|z| / 0.1)) substeps, none for z = 0, so large jumps always
    get proportionally more.  ``step_h`` of None resolves to 1e-2 for
    unperturbed runs and min(1e-2, eps/10) for perturbed ones.
    """

    scheme: str = "grid_increment"
    step_h: Optional[float] = None
    jump_ode_substeps: int = 20
    jump_cutoff: float = 1e-3

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.step_h is not None:
            _real(self.step_h, "step_h", above=0)
        _count(self.jump_ode_substeps, "jump_ode_substeps", 1, _MAX_SUBSTEPS)
        _real(self.jump_cutoff, "jump_cutoff", above=0)

    def resolve_step(self, eps):
        if self.step_h is not None:
            return float(self.step_h)
        return 1e-2 if eps == 0 else min(1e-2, 0.1 * eps)


@dataclass(frozen=True)
class Trajectory:
    """Recorded path: states[k] at times[k]; jump_flags[k] marks whether a
    driver jump was applied in the step ending at times[k]."""

    times: np.ndarray
    states: np.ndarray
    jump_flags: np.ndarray
    exited: bool = False
    exit_time: Optional[float] = None


def trajectory_to_csv(traj: Trajectory, path):
    r = np.hypot(traj.states[:, 0], traj.states[:, 1])
    theta = np.arctan2(traj.states[:, 1], traj.states[:, 0])
    exited_flags = np.zeros(len(traj.times), dtype=bool)
    if traj.exited:
        exited_flags[traj.times >= traj.exit_time] = True
    rows = zip(traj.times, traj.states[:, 0], traj.states[:, 1], traj.states[:, 2],
               r, theta, traj.jump_flags, exited_flags)
    return write_csv(path, ["t", "x", "y", "z", "r", "theta", "is_jump", "exited"], rows)


# ---------------------------------------------------------------------------
# low-level pieces
# ---------------------------------------------------------------------------

def _kahan_add(y, comp, incr):
    # in place: y += incr with running compensation in comp
    t = incr - comp
    s = y + t
    comp[...] = (s - y) - t
    y[...] = s


def _drift_rk4(f, y, comp, dt):
    """One classical RK4 step of dy/dt = f(y), added to y in place with
    Kahan compensation comp; dt is a scalar or a per-row (m, 1) array.

    Every rounding is that of the textbook formula
    ``y + (dt/6) * (k1 + 2 * (k2 + k3) + k4)`` with stage points
    ``y + (dt/2) * k1`` etc.: each operation is the same IEEE add or
    multiply on the same operands in the same order (only the operands of
    one commutative op may swap), so results are bit-identical.  One work
    buffer holds the stage points and then the combination, so f must
    return a new array, never a view of its argument.
    """
    half = 0.5 * dt
    k1 = f(y)
    w = y + half * k1
    k2 = f(w)
    np.multiply(half, k2, out=w)
    w += y
    k3 = f(w)
    np.multiply(dt, k3, out=w)
    w += y
    k4 = f(w)
    np.add(k2, k3, out=w)
    w *= 2.0
    w += k1
    w += k4
    w *= dt / 6.0
    # _kahan_add(y, comp, w) with the increment's buffer reused
    w -= comp
    s = y + w
    np.subtract(s, y, out=comp)
    comp -= w
    y[...] = s


def _make_drift(fields: VectorFieldSet, eps, comp_rate=None):
    """Compose drift + eps*perturbation + driving(.)*comp_rate; None if zero.

    The terms are evaluated in that order and summed as
    ``(drift + eps*K) + F(x) comp_rate``, the rounding of a left-to-right
    sum.  The sum adds into the new array ``eps * K(x)`` returns and never
    writes into an array a user's field returned: without the eps*K term
    the drift's array is added to, not into.  The comp_rate operand is one
    read-only broadcast view per row count, built on first use.
    """
    drift = fields.drift
    pert = fields.perturbation if eps != 0.0 else None
    scaled = None if pert is None else (lambda x: eps * pert(x))
    compensator = None
    if comp_rate is not None:
        c = np.asarray(comp_rate, dtype=float)
        if np.any(c != 0.0):
            driving, views = fields.driving, {}

            def compensator(x):
                rows = x.shape[:-1]
                cb = views.get(rows)
                if cb is None:
                    cb = views[rows] = np.broadcast_to(c, rows + c.shape)
                return driving(x, cb)
    terms = [t for t in (drift, scaled, compensator) if t is not None]
    if len(terms) <= 1:
        return terms[0] if terms else None

    def total(x):
        if scaled is None:
            return drift(x) + compensator(x)
        if drift is None:
            out = eps * pert(x)
        else:
            d = drift(x)
            out = eps * pert(x)
            out += d            # d + p == p + d in IEEE arithmetic
        if compensator is not None:
            out += compensator(x)
        return out
    return total


def _jump_rk4(fields: VectorFieldSet, x, z, cfg: IntegratorConfig):
    """Generic jump solve: each row takes the substeps of its own |z|, and
    rows with equal counts are solved together, so a row gets the bits it
    gets alone.  ConfigError first for a jump needing more than
    _MAX_SUBSTEPS substeps, which a non-finite one does."""
    x, z = np.asarray(x, dtype=float), np.asarray(z, dtype=float)
    batch = np.broadcast_shapes(x.shape[:-1], z.shape[:-1])
    xs = np.broadcast_to(x, batch + x.shape[-1:])
    zs = np.broadcast_to(z, batch + z.shape[-1:])
    with np.errstate(over="ignore"):
        mag = np.linalg.norm(zs, axis=-1)
        counts = np.maximum(np.ceil(cfg.jump_ode_substeps * mag),
                            np.ceil(mag / _MAX_SUBSTEP_ANGLE))
    if not np.all(counts <= _MAX_SUBSTEPS):
        raise ConfigError(f"a jump of size {mag.max():g} needs more than the "
                          f"{_MAX_SUBSTEPS:.0e} Runge-Kutta substeps "
                          f"allowed")
    out = xs.copy()
    for n in np.unique(counts[counts > 0]).astype(int).tolist():
        rows = counts == n
        h = 1.0 / n
        zb, y = zs[rows], xs[rows]
        for i in range(1, n + 1):
            # a zero compensation makes the Kahan add the plain y + increment
            _drift_rk4(lambda w: fields.driving(w, zb), y,
                       np.zeros_like(y), h)
            if not np.all(np.isfinite(y)):
                raise BlowupError(f"jump ODE left the finite range at s={i * h:.6f}", sigma=i * h)
        out[rows] = y
    return out


def jump_flow(fields: VectorFieldSet, x, z, cfg: IntegratorConfig = None):
    """Marcus action of one jump z: time-one flow of dY/ds = F(Y) z.

    x and z broadcast over their leading axes, one jump per row.  Uses the
    closed-form flow when the field set carries one, otherwise the generic
    fixed-step Runge-Kutta solve, row by row.  A non-finite jump raises
    ConfigError before either flow; non-finite output raises BlowupError
    with the ode time reached.
    """
    if cfg is None:
        cfg = IntegratorConfig()
    x = np.asarray(x, dtype=float)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if not np.isfinite(z).all():
        raise ConfigError("jump_flow needs finite jump sizes")
    return _checked_flow(fields, cfg)(x, z)


def _checked_flow(fields: VectorFieldSet, cfg: IntegratorConfig):
    """The jump flow (x, z) -> x' of the field set: its closed form,
    raising BlowupError on non-finite output, or else the generic solve."""
    exact = fields.exact_jump_flow
    if exact is None:
        return partial(_jump_rk4, fields, cfg=cfg)

    def flow(x, z):
        out = exact(x, z)
        if not np.all(np.isfinite(out)):
            raise BlowupError("closed-form jump flow produced non-finite output", sigma=1.0)
        return out
    return flow


# ---------------------------------------------------------------------------
# batched grid integration
# ---------------------------------------------------------------------------

@dataclass
class EnsembleResult:
    final_states: np.ndarray
    exit_times: np.ndarray      # nan where the path never left the domain
    n_steps: int
    h: float


def _step_count(span, step):
    """ceil(span / step), at least 1; ConfigError above _MAX_STEPS or at inf."""
    steps = span / step
    if not steps <= _MAX_STEPS:
        raise ConfigError(f"step {step:g} over {span:g} asks for {steps:.3g} "
                          f"steps, more than the {_MAX_STEPS:.0e} allowed")
    return max(1, int(math.ceil(steps - 1e-12)))


def _check_plan(n_paths, steps):
    """ConfigError when n_paths paths, each running the step counts in
    `steps` (one per eps or level), plan more than _MAX_PATH_STEPS."""
    total = int(n_paths) * sum(steps)       # a numpy count could wrap
    if total > _MAX_PATH_STEPS:
        raise ConfigError(f"{n_paths} paths of {sum(steps)} steps plan "
                          f"{total:.3g} path-steps, more than the "
                          f"{_MAX_PATH_STEPS:.0e} allowed")


def resolve_grid(cfg: IntegratorConfig, eps, horizon):
    """Number of macro steps and the step h with n * h == horizon up to
    roundoff."""
    _real(horizon, "horizon", least=0)
    h0 = cfg.resolve_step(eps)
    if horizon == 0:
        return 0, h0
    n = _step_count(horizon, h0)
    return n, horizon / n


def _grid_config(cfg):
    """cfg, or the default config for None; ConfigError for the one scheme
    the grid ensemble cannot run, so an experiment rejects it first."""
    if cfg is None:
        return IntegratorConfig()
    if cfg.scheme == "jump_decomposition":
        raise ConfigError("the grid ensemble covers grid-based schemes only")
    return cfg


def integrate_grid_ensemble(fields: VectorFieldSet, driver, x0, horizon, eps,
                            cfg: IntegratorConfig, streams, contains=None,
                            on_step=None, pair_eps=None, on_step_pair=None,
                            increments=None, comp_rate=None) -> EnsembleResult:
    """Advance len(streams) paths in lockstep on the macro grid, all from
    the one point x0 or each from its own row of x0 (else ConfigError).

    Path i draws its increments from streams[i] only, so results are
    independent of any partitioning of the path set; supplied `increments`
    (paths, n_steps, driver_dim) replace the draws, and `comp_rate` adds
    the drift F(x) comp_rate.  `on_step(k, t, states, active)` is called
    after every step (and once at k=0); with `pair_eps` a second system is
    advanced from the same increments and reported through
    `on_step_pair(k, t, states, states_pair, active)`.  Exit checking
    applies to the primary system; exited rows freeze at their exit value
    (the pair row freezes with them).  A non-finite primary state is a
    BlowupError: at the step it exits with a domain check, else at the end
    of its draw chunk.
    """
    cfg = _grid_config(cfg)
    _real(eps, "eps", least=0, most=1)
    if pair_eps is not None:
        _real(pair_eps, "pair_eps", least=0, most=1)
    n_steps, h = resolve_grid(cfg, eps, horizon)
    m_paths = len(streams) if increments is None else len(increments)
    if increments is not None and \
            increments.shape[1:] != (n_steps, fields.driver_dim):
        raise ConfigError("increments must have shape (paths, n_steps, driver_dim)")
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 and x0.shape[:-1] != (m_paths,):
        raise ConfigError(f"x0 must be one point or one row for each of the "
                          f"{m_paths} paths, got shape {x0.shape}")
    flow = fields.exact_jump_flow or partial(_jump_rk4, fields, cfg=cfg)

    states = np.tile(x0, (m_paths, 1)) if x0.ndim == 1 else x0.copy()
    drift = _make_drift(fields, eps, comp_rate)
    pair = pair_eps is not None
    states_b = comp_b = None
    if pair:
        states_b = states.copy()
        comp_b = np.zeros_like(states)
        drift_b = _make_drift(fields, pair_eps, comp_rate)
    comp = np.zeros_like(states)
    active = np.ones(m_paths, dtype=bool)
    exit_times = np.full(m_paths, np.nan)
    frozen = False

    if on_step is not None:
        on_step(0, 0.0, states, active)
    if pair and on_step_pair is not None:
        on_step_pair(0, 0.0, states, states_b, active)
    if n_steps == 0:
        return EnsembleResult(states, exit_times, 0, h)

    def split_step(y, c, f, z):
        # drift half, jump resetting the compensation it moved, drift half
        if f is not None:
            _drift_rk4(f, y, c, 0.5 * h)
        post = flow(y, z)
        c = np.where(post == y, c, 0.0)
        if f is not None:
            _drift_rk4(f, post, c, 0.5 * h)
        return post, c

    if increments is None:
        sampler = make_step_sampler(driver, h)
        gens = [s.generator() for s in streams]
    done = 0
    # an overflow leaves an inf or nan state, a BlowupError below
    with np.errstate(over="ignore", invalid="ignore"):
        while done < n_steps:
            m_chunk = min(_CHUNK, n_steps - done)
            if increments is None:
                draws = np.empty((m_paths, m_chunk, fields.driver_dim))
                for i, g in enumerate(gens):
                    draws[i] = sampler(g, m_chunk)
            else:
                draws = increments[:, done:done + m_chunk]
            for j in range(m_chunk):
                t1 = (done + j + 1) * h
                z = draws[:, j, :]
                if frozen:
                    idle = ~active
                    keep = [a[idle].copy()
                            for a in (states, comp, states_b, comp_b)
                            if a is not None]
                states, comp = split_step(states, comp, drift, z)
                if pair:
                    states_b, comp_b = split_step(states_b, comp_b, drift_b, z)
                if frozen:
                    for a, kept in zip((states, comp, states_b, comp_b), keep):
                        a[idle] = kept
                if contains is not None:
                    newly = active & ~np.asarray(contains(states), dtype=bool)
                    if newly.any():
                        if not np.isfinite(states[newly]).all():
                            raise BlowupError(f"a path left the finite range "
                                              f"at t={t1:g}")
                        exit_times[newly] = t1
                        active &= ~newly
                        frozen = True
                k = done + j + 1
                if on_step is not None:
                    on_step(k, t1, states, active)
                if pair and on_step_pair is not None:
                    on_step_pair(k, t1, states, states_b, active)
            # without a domain check nothing above sees a nan or inf state
            if contains is None and not np.isfinite(states).all():
                raise BlowupError(f"a path left the finite range by t={t1:g}")
            done += m_chunk
    return EnsembleResult(states, exit_times, n_steps, h)


# ---------------------------------------------------------------------------
# batched event stepping
# ---------------------------------------------------------------------------

def _merge_events(grid, events: JumpEvents, dim):
    """Each row's grid and jump times in time order, for the whole block.

    Returns (times, jumps, sizes) of shape (rows, columns): the merged
    times, the jump flags and the jump sizes (zero off jumps).  The table
    holds each row's jumps in time order, so a jump's column is its rank
    in its row plus the number of grid points at or before it, and a grid
    point precedes a jump at the same time.  The grid fills the other
    columns, and rows shorter than the longest repeat their last time.
    """
    counts = np.asarray(events.counts)
    rows, n_grid = len(counts), len(grid)
    lens = n_grid + counts
    row, t_jump = events.rows(), events.times
    rank = np.arange(len(t_jump)) - np.repeat(np.cumsum(counts) - counts, counts)
    col = np.searchsorted(grid, t_jump, side="right") + rank
    shape = (rows, n_grid + int(counts.max(initial=0)))
    jumps = np.zeros(shape, dtype=bool)
    jumps[row, col] = True
    sizes = np.zeros(shape + (dim,))
    sizes[row, col] = events.sizes
    times = np.empty(shape)
    used = np.arange(shape[1]) < lens[:, None]
    times[used & ~jumps] = np.tile(grid, rows)
    times[row, col] = t_jump
    times[~used] = np.repeat(times[np.arange(rows), lens - 1], shape[1] - lens)
    return times, jumps, sizes


def step_events(fields: VectorFieldSet, x0, grid, events: JumpEvents, eps,
                cfg: IntegratorConfig, on_event=None):
    """Advance the rows of x0 in lockstep, each through the grid merged
    with its own row of the jump table `events`.

    Per column a row takes one RK4 step of the drift (with eps times the
    perturbation and F(x) times the table's compensator) over the gap since
    its last time, then its jump, if any; a zero gap (ties, padding to the
    longest row) skips the drift.  A column where every row moves steps
    the whole state in place; only a column with some zero gap gathers its
    moving rows and scatters them back.  Both give each row the same bits,
    since every field acts row by row.  The jump flow is chosen once, as in
    the grid kernel: a non-finite jump size is a ConfigError before any
    step, non-finite closed-form output a BlowupError, and so is a
    non-finite state where the stepping ends.  `on_event(k, t, states,
    jumped)` sees every column and stops the stepping by returning true.
    Returns the final states.
    """
    if not np.isfinite(events.sizes).all():
        raise ConfigError("step_events needs finite jump sizes")
    flow = _checked_flow(fields, cfg)
    states = np.array(x0, dtype=float)
    times, jumps, sizes = _merge_events(grid, events, fields.driver_dim)
    drift = _make_drift(fields, eps, events.compensator)
    comp = np.zeros_like(states)
    gaps = np.diff(times, axis=1, prepend=0.0)
    moves = gaps > 0
    whole, some = moves.all(axis=0).tolist(), moves.any(axis=0).tolist()
    any_hit = jumps.any(axis=0).tolist()
    # as in the grid kernel, an overflow is a BlowupError, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(times.shape[1]):
            if drift is not None and whole[k]:
                _drift_rk4(drift, states, comp, gaps[:, k, None])
            elif drift is not None and some[k]:
                moving = moves[:, k]
                y, c = states[moving], comp[moving]
                _drift_rk4(drift, y, c, gaps[moving, k, None])
                states[moving], comp[moving] = y, c
            hit = jumps[:, k]
            if any_hit[k]:
                pre = states[hit]
                post = flow(pre, sizes[hit, k])
                # reset the compensation only where the jump moved the state
                comp[hit] = np.where(post == pre, comp[hit], 0.0)
                states[hit] = post
            if on_event is not None and on_event(k, times[:, k], states, hit):
                break
    if not np.isfinite(states).all():
        raise BlowupError(f"a path left the finite range by "
                          f"t={times[:, k].max():g}")
    return states


# ---------------------------------------------------------------------------
# single-path integration
# ---------------------------------------------------------------------------

def _check_start(chart: FoliatedChart, x0):
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (chart.ambient_dim,):
        raise ConfigError(f"x0 must be a point of dimension {chart.ambient_dim}")
    if not bool(chart.contains(x0)):
        raise DomainError(f"start point {x0.tolist()} lies outside the chart domain")
    return x0


def _grid_path(fields, chart, driver, x0, horizon, eps, cfg, rng):
    n_steps, h = resolve_grid(cfg, eps, horizon)
    times = np.empty(n_steps + 1)
    rec = np.empty((n_steps + 1, chart.ambient_dim))

    def observe(k, t, states, active):
        times[k] = t
        rec[k] = states[0]

    res = integrate_grid_ensemble(fields, driver, x0, horizon, eps, cfg, [rng],
                                  contains=chart.contains, on_step=observe)
    flags = np.ones(n_steps + 1, dtype=bool)
    flags[0] = False
    exit_t = res.exit_times[0]
    if np.isfinite(exit_t):
        last = int(round(exit_t / res.h))
        return Trajectory(times[: last + 1], rec[: last + 1], flags[: last + 1],
                          exited=True, exit_time=float(exit_t))
    return Trajectory(times, rec, flags)


def _decomposition_path(fields, chart, driver, x0, horizon, eps, cfg, rng):
    events = sample_jump_events(driver.for_events(cfg.jump_cutoff), horizon, rng)
    n_steps, h = resolve_grid(cfg, eps, horizon)
    grid = np.arange(n_steps + 1) * h
    grid[-1] = horizon
    rec = []

    def record(k, t, states, jumped):
        rec.append((t[0], states[0].copy(), jumped[0]))
        # a non-finite state stops here too, and step_events raises on it
        return not bool(chart.contains(states[0]))

    step_events(fields, x0[None, :], grid, events, eps, cfg, record)
    times, states, flags = (np.array(col) for col in zip(*rec))
    exited = not bool(chart.contains(states[-1]))
    return Trajectory(times, states, flags, exited=exited,
                      exit_time=float(times[-1]) if exited else None)


def integrate_path(fields: VectorFieldSet, chart: FoliatedChart, driver, x0,
                   horizon, eps=0.0, cfg: IntegratorConfig = None,
                   rng: RngStream = RngStream(0)) -> Trajectory:
    """One path of X^eps: the leafwise dynamics (drift F0 when present,
    plus the driven jumps) with the transversal perturbation eps * K
    switched on; eps = 0 is the unperturbed system."""
    _real(eps, "eps", least=0, most=1)
    if cfg is None:
        cfg = IntegratorConfig()
    _real(horizon, "horizon", least=0)
    x0 = _check_start(chart, x0)
    if horizon == 0:
        return Trajectory(np.zeros(1), x0[None, :].copy(), np.zeros(1, dtype=bool))
    if cfg.scheme == "jump_decomposition":
        return _decomposition_path(fields, chart, driver, x0, horizon, eps, cfg, rng)
    return _grid_path(fields, chart, driver, x0, horizon, eps, cfg, rng)

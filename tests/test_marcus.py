"""Integrator tests: jump maps, grid schemes, the jump decomposition,
exit handling, and reproducibility.

The rotating cylinder gives closed-form references: jumps preserve radius
and height exactly, a constant vertical perturbation moves z linearly in
time, and the generic Runge-Kutta jump solve must reproduce the exact
rotation to its advertised accuracy.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folevy import (BlowupError, ConfigError, ConstantK, DomainError,
                    IntegratorConfig, JumpEvents,
                    RngStream, VectorFieldSet, integrate_grid_ensemble,
                    integrate_path, jump_flow, make_cylinder_preset)
from folevy import marcus
from folevy.drivers import make_step_sampler
from folevy.marcus import (SCHEMES, _drift_rk4, _kahan_add, _make_drift,
                           _merge_events, resolve_grid, step_events)

SEED = 20260816


def _radius(states):
    return np.hypot(states[..., 0], states[..., 1])


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def test_resolve_step_defaults():
    cfg = IntegratorConfig()
    assert cfg.resolve_step(0.0) == 1e-2
    assert cfg.resolve_step(0.5) == 1e-2
    assert abs(cfg.resolve_step(0.05) - 5e-3) <= 1e-18
    assert IntegratorConfig(step_h=0.125).resolve_step(0.0) == 0.125


def test_resolve_grid_exactness():
    cfg = IntegratorConfig()
    n, h = resolve_grid(cfg, 0.0, 1.0)
    assert n == 100 and math.isclose(n * h, 1.0, rel_tol=1e-15)
    n, h = resolve_grid(cfg, 0.0, 0.995)
    assert n == 100 and math.isclose(n * h, 0.995, rel_tol=1e-15)
    assert resolve_grid(cfg, 0.0, 0.0)[0] == 0


# ---------------------------------------------------------------------------
# the jump map
# ---------------------------------------------------------------------------

def test_jump_flow_zero_jump_is_identity():
    preset = make_cylinder_preset()
    x = np.array([1.2, -0.3, 0.8])
    assert np.max(np.abs(jump_flow(preset.fields, x, 0.0) - x)) <= 1e-15
    generic = preset.fields.without_exact_flow()
    assert np.max(np.abs(jump_flow(generic, x, 0.0) - x)) <= 1e-14


def test_generic_jump_solve_matches_rotation():
    preset = make_cylinder_preset()
    generic = preset.fields.without_exact_flow()
    x = np.array([1.4, 0.6, -0.2])
    for z in (0.3, 0.7, 1.9):
        got = jump_flow(generic, x, z)
        want = jump_flow(preset.fields, x, z)
        assert np.max(np.abs(got - want)) <= 1e-6, f"jump z={z}"


def test_generic_jump_solve_full_turn():
    preset = make_cylinder_preset()
    generic = preset.fields.without_exact_flow()
    cfg = IntegratorConfig(jump_ode_substeps=300)
    x = np.array([1.0, 0.0, 0.5])
    back = jump_flow(generic, x, 2.0 * np.pi, cfg)
    assert np.max(np.abs(back - x)) <= 1e-10


def test_jump_flow_preserves_invariants():
    preset = make_cylinder_preset()
    generic = preset.fields.without_exact_flow()
    gen = np.random.Generator(np.random.Philox(SEED))
    for _ in range(20):
        x = np.array([gen.uniform(0.5, 3.0), 0.0, gen.uniform(-1, 1)])
        z = gen.uniform(0.0, 2.5)
        exact = jump_flow(preset.fields, x, z)
        assert abs(_radius(exact) - _radius(x)) <= 1e-13
        assert exact[2] == x[2]
        # default substeps advertise 1e-6 accuracy; radius drift sits below
        approx = jump_flow(generic, x, z)
        assert abs(_radius(approx) - _radius(x)) <= 5e-7


_JUMP_PRESET = make_cylinder_preset()
_GENERIC = _JUMP_PRESET.fields.without_exact_flow()


@settings(max_examples=60, deadline=None)
@given(r=st.floats(0.3, 3.0), phi=st.floats(-math.pi, math.pi),
       z=st.floats(-2.0, 2.0),
       jumps=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8))
def test_jump_sequences_hold_the_leaf(r, phi, z, jumps):
    # along a sequence of jumps the closed-form flow holds the radius to
    # 1e-12 and the height exactly, the generic RK4 solve holds the radius
    # to 1e-6, and the two flows agree jump by jump and at the end
    start = np.array([r * math.cos(phi), r * math.sin(phi), z])
    exact, generic = start, start
    for a in jumps:
        step = jump_flow(_GENERIC, exact, a)
        exact = jump_flow(_JUMP_PRESET.fields, exact, a)
        generic = jump_flow(_GENERIC, generic, a)
        assert np.max(np.abs(step - exact)) <= 1e-6
        assert abs(_radius(exact) - _radius(start)) <= 1e-12
        assert exact[2] == z
        assert abs(_radius(generic) - _radius(start)) <= 1e-6
    assert np.max(np.abs(generic - exact)) <= 1e-6 * len(jumps)


def test_jump_flow_blowup_reports_ode_time():
    # dy/ds = y^2 z blows up at s = 1/(z*y0) inside the unit interval
    def quadratic(x, z):
        vec = np.stack([x[..., 0] ** 2,
                        np.zeros_like(x[..., 0]),
                        np.zeros_like(x[..., 0])], axis=-1)
        return vec * z[..., 0, None]

    fields = VectorFieldSet(driver_dim=1, driving=quadratic)
    with np.errstate(all="ignore"), pytest.raises(BlowupError) as info:
        jump_flow(fields, np.array([1.0, 0.0, 0.0]), 6.0)
    assert 0.0 < info.value.sigma <= 1.0


def test_jump_flow_checks_the_closed_form_output():
    # the steppers find a non-finite state themselves; jump_flow, the one
    # single-jump entry point, checks what the closed form returns
    fields = replace(make_cylinder_preset().fields,
                     exact_jump_flow=lambda x, z: np.full(x.shape, np.inf))
    with pytest.raises(BlowupError, match="non-finite output") as info:
        jump_flow(fields, np.array([1.0, 0.0, 0.0]), 0.5)
    assert info.value.sigma == 1.0


def test_jump_flow_batch_equals_each_row_alone():
    # the generic solve takes each row's substep count from its own |z|,
    # so (0.3, 3.0) are not both stepped by the count of their joint norm
    preset = make_cylinder_preset()
    x = np.array([[1.4, 0.6, -0.2], [0.5, -1.1, 0.3], [2.0, 0.1, 0.0],
                  [1.0, 0.0, 0.5]])
    z = np.array([[0.3], [3.0], [0.0], [-0.7]])
    for fields in (preset.fields, preset.fields.without_exact_flow()):
        batch = jump_flow(fields, x, z)
        assert batch.shape == x.shape
        for i in range(len(x)):
            assert batch[i].tobytes() == jump_flow(fields, x[i], z[i]).tobytes()


def _textbook_jump_rk4(fields, x, z, n):
    """Time-one flow of dY/ds = F(Y) z by n classical RK4 substeps."""
    h = 1.0 / n
    y = x
    for _ in range(n):
        k1 = fields.driving(y, z)
        k2 = fields.driving(y + (0.5 * h) * k1, z)
        k3 = fields.driving(y + (0.5 * h) * k2, z)
        k4 = fields.driving(y + h * k3, z)
        y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return y


def test_generic_jump_solve_is_the_textbook_rk4_loop():
    # the solve takes its substeps from the drift's RK4 step: bit for bit
    # the textbook loop, for rows of a batch with different substep counts
    # (none for a zero jump) and for a single row
    generic = make_cylinder_preset().fields.without_exact_flow()
    cfg = IntegratorConfig(jump_ode_substeps=37)
    rng = np.random.default_rng(SEED)
    x = np.array([1.0, 0.0, 0.0]) + rng.uniform(-0.5, 0.5, size=(200, 3))
    z = rng.uniform(-3.0, 3.0, size=(200, 1))
    z[5] = 0.0
    got = marcus._jump_rk4(generic, x, z, cfg)
    counts = set()
    for i in range(len(x)):
        size = float(np.linalg.norm(z[i]))
        n = max(math.ceil(37 * size), math.ceil(size / 0.1))
        counts.add(n)
        want = _textbook_jump_rk4(generic, x[i], z[i], n) if n else x[i]
        assert got[i].tobytes() == want.tobytes()
    assert 0 in counts and len(counts) > 50
    x1, z1 = np.array([1.1, 0.3, -0.2]), np.array([2.5])
    assert marcus._jump_rk4(generic, x1, z1, IntegratorConfig()).tobytes() \
        == _textbook_jump_rk4(generic, x1, z1, 50).tobytes()


@pytest.mark.parametrize("size", [np.nan, np.inf, -np.inf, 1e300, 1e7, 1e4])
def test_generic_jump_solve_rejects_unusable_jumps(size):
    # non-finite jumps, and jumps needing more than _MAX_SUBSTEPS substeps
    # (2e5 for z = 1e4), raise before any substep; the good row beside them
    # does not help
    generic = make_cylinder_preset().fields.without_exact_flow()
    x = np.array([[1.0, 0.0, 0.0], [1.2, 0.0, 0.0]])
    with pytest.raises(ConfigError):
        jump_flow(generic, x, np.array([[0.5], [size]]))


def test_generic_jump_bound_does_not_depend_on_the_block_width():
    # 1024 rows of jumps of 0.01 and 0.02 at 10**4 substeps per unit jump
    # take 100 or 200 substeps each, about 1.4e5 over the block: the block
    # runs as each row runs alone, and a jump past the bound fails the same
    # way alone and in the block
    generic = make_cylinder_preset().fields.without_exact_flow()
    cfg = IntegratorConfig(step_h=0.5, jump_ode_substeps=10**4)
    rng = np.random.default_rng(SEED)
    x0 = np.array([1.0, 0.0, 0.0]) + rng.uniform(-0.1, 0.1, size=(1024, 3))
    inc = rng.choice([-0.01, 0.01, 0.02], size=(1024, 2, 1))

    def run(rows, inc):
        return integrate_grid_ensemble(generic, None, x0[rows], 1.0, 0.0, cfg,
                                       None, increments=inc[rows]).final_states

    block = run(slice(None), inc)
    for i in (0, 1, 2, 511, 1023):
        assert block[i].tobytes() == run(slice(i, i + 1), inc)[0].tobytes()
    inc[700, 1] = 1.5               # 15000 substeps
    for rows in (slice(None), slice(700, 701)):
        with pytest.raises(ConfigError, match="substeps"):
            run(rows, inc)


@pytest.mark.parametrize("size", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("exact", [True, False],
                         ids=["closed_form", "generic"])
def test_non_finite_jump_is_a_config_error_on_either_flow(exact, size):
    # one error class whatever the field set, from the check before either
    # flow (a RuntimeWarning from the closed form would be an error here)
    fields = make_cylinder_preset().fields
    if not exact:
        fields = fields.without_exact_flow()
    x = np.array([[1.0, 0.0, 0.0], [1.2, 0.0, 0.0]])
    for z in (size, np.array([[0.5], [size]])):
        with pytest.raises(ConfigError, match="needs finite jump sizes"):
            jump_flow(fields, x, z)


# ---------------------------------------------------------------------------
# grid schemes
# ---------------------------------------------------------------------------

def test_zero_horizon_returns_start():
    # both schemes record the start alone through their general path
    preset = make_cylinder_preset()
    x0 = np.array([1.0, 0.0, 0.0])
    for scheme in SCHEMES:
        traj = integrate_path(preset.fields, preset.chart, preset.driver,
                              x0, 0.0, 0.1, IntegratorConfig(scheme=scheme),
                              RngStream(SEED, 1))
        assert traj.times.tolist() == [0.0]
        assert traj.states.tolist() == [x0.tolist()]
        assert traj.jump_flags.tolist() == [False]
        assert not traj.exited and traj.exit_time is None
    # the kernel's pair mode reports the start once to each observer
    calls = []
    res = integrate_grid_ensemble(
        preset.fields, preset.driver, x0, 0.0, 0.1, IntegratorConfig(),
        [RngStream(SEED, 1)], pair_eps=0.0,
        on_step=lambda k, t, states, active: calls.append(("primary", k, t)),
        on_step_pair=lambda k, t, states, states_b, active:
        calls.append(("pair", k, t, states_b.tolist())))
    assert calls == [("primary", 0, 0.0), ("pair", 0, 0.0, [x0.tolist()])]
    assert res.n_steps == 0 and res.final_states.tolist() == [x0.tolist()]


def test_unperturbed_leaf_invariants():
    preset = make_cylinder_preset()
    x0 = np.array([1.0, 0.0, 0.25])
    traj = integrate_path(preset.fields, preset.chart, preset.driver,
                          x0, 20.0, 0.0, IntegratorConfig(), RngStream(SEED, 2))
    assert np.max(np.abs(_radius(traj.states) - 1.0)) <= 1e-12
    assert np.all(traj.states[:, 2] == 0.25)
    assert not traj.exited
    assert abs(traj.times[-1] - 20.0) <= 1e-12


def test_grid_increment_matches_the_cumulative_leaf_solution():
    # the exact leaf solution: x0 rotated by the running driver sum, with
    # the same stream's increments, Kahan-summed
    preset = make_cylinder_preset()
    x0 = np.array([1.0, 0.0, 0.0])
    cfg = IntegratorConfig(scheme="grid_increment")
    n_steps, h = resolve_grid(cfg, 0.0, 5.0)
    draws = make_step_sampler(preset.driver, h)(
        RngStream(SEED, 3).generator(), n_steps)[:, 0]
    angles, angle, comp = np.zeros(n_steps + 1), np.zeros(1), np.zeros(1)
    for k, z in enumerate(draws, start=1):
        _kahan_add(angle, comp, z)
        angles[k] = angle[0]
    exact = preset.fields.exact_jump_flow(np.tile(x0, (n_steps + 1, 1)),
                                          angles[:, None])
    b = integrate_path(preset.fields, preset.chart, preset.driver, x0,
                       5.0, 0.0, cfg, RngStream(SEED, 3))
    # composed rotations against one cumulative rotation
    assert b.states.shape == exact.shape
    assert np.max(np.abs(exact - b.states)) <= 1e-11


def test_start_point_must_lie_in_domain():
    preset = make_cylinder_preset(r_min=0.5, r_max=2.0)
    with pytest.raises(DomainError):
        integrate_path(preset.fields, preset.chart, preset.driver,
                       np.array([3.0, 0.0, 0.0]), 1.0,
                       rng=RngStream(SEED, 4))


def test_constant_vertical_drift_is_exact():
    preset = make_cylinder_preset(k_choice=ConstantK(0.0, 0.0, 2.0))
    x0 = np.array([1.0, 0.0, -1.0])
    eps, horizon = 0.25, 3.0
    traj = integrate_path(preset.fields, preset.chart, preset.driver,
                          x0, horizon, eps, rng=RngStream(SEED, 6))
    assert abs(traj.states[-1, 2] - (-1.0 + eps * 2.0 * horizon)) <= 1e-13
    assert np.max(np.abs(_radius(traj.states) - 1.0)) <= 1e-13
    assert not traj.exited


def test_exit_truncates_trajectory():
    preset = make_cylinder_preset(z_min=-10.0, z_max=0.495,
                                  k_choice=ConstantK(0.0, 0.0, 1.0))
    x0 = np.array([1.0, 0.0, 0.0])
    traj = integrate_path(preset.fields, preset.chart, preset.driver,
                          x0, 4.0, 1.0, rng=RngStream(SEED, 7))
    assert traj.exited
    assert abs(traj.exit_time - 0.5) <= 1e-9
    assert abs(traj.times[-1] - traj.exit_time) <= 1e-12
    assert len(traj.times) == 51
    assert traj.states[-1, 2] >= 0.495 - 1e-12


def test_paths_are_bitwise_reproducible():
    preset = make_cylinder_preset()
    x0 = np.array([1.0, 0.0, 0.0])
    args = (preset.fields, preset.chart, preset.driver, x0, 2.0, 0.1)
    a = integrate_path(*args, rng=RngStream(SEED, 8))
    b = integrate_path(*args, rng=RngStream(SEED, 8))
    c = integrate_path(*args, rng=RngStream(SEED, 9))
    assert np.array_equal(a.states, b.states)
    assert not np.array_equal(a.states, c.states)


def _textbook_rk4(f, y, comp, dt):
    # the formula _drift_rk4 must reproduce rounding for rounding, with
    # its own Kahan add: _drift_rk4 ends in marcus._kahan_add
    y = y.copy()
    k1 = f(y)
    k2 = f(y + (0.5 * dt) * k1)
    k3 = f(y + (0.5 * dt) * k2)
    k4 = f(y + dt * k3)
    t = (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4) - comp
    s = y + t
    return s, (s - y) - t


@pytest.mark.parametrize("per_row", [False, True])
def test_drift_rk4_is_bit_identical_to_textbook_formula(per_row):
    gen = np.random.default_rng(SEED)

    def f(x):
        # nonlinear, so every stage point changes the result
        return 1.3 * np.sin(x) + x[..., ::-1] ** 2

    for m in (1, 7, 64):
        y0 = gen.normal(size=(m, 3))
        comp0 = 1e-17 * gen.normal(size=(m, 3))
        # per-row gaps as step_events passes them, including a zero gap
        dt = gen.uniform(0.0, 0.05, size=(m, 1)) if per_row else 0.005
        if per_row:
            dt[0] = 0.0
        want_y, want_comp = _textbook_rk4(f, y0, comp0, dt)
        y, comp = y0.copy(), comp0.copy()
        _drift_rk4(f, y, comp, dt)
        assert y.tobytes() == want_y.tobytes()
        assert comp.tobytes() == want_comp.tobytes()


def _nonlinear_drift(x):
    return 0.4 * np.cos(x) - 0.2 * x[..., ::-1]


@pytest.mark.parametrize("drift, eps", [(_nonlinear_drift, 0.3),
                                        (None, 0.3), (_nonlinear_drift, 0.0)])
def test_composed_drift_is_bit_identical_to_the_plain_sum(drift, eps):
    preset = make_cylinder_preset()
    fields = replace(preset.fields, drift=drift)
    c = np.array([0.7])
    handed = {}

    def driving(x, z):
        handed.setdefault(len(x), []).append(z)
        return preset.fields.driving(x, z)

    total = _make_drift(replace(fields, driving=driving), eps, c)
    gen = np.random.default_rng(SEED)
    # changing row counts: the first call at each count builds the
    # compensator's broadcast, the later ones reuse it
    for m in (5, 2, 5, 1, 2, 5):
        x = gen.normal(size=(m, 3))
        # the plain left-to-right sum of the present terms
        terms = [preset.fields.driving(x, np.broadcast_to(c, (m, 1)))]
        if eps != 0.0:
            terms.insert(0, eps * fields.perturbation(x))
        if drift is not None:
            terms.insert(0, np.array(drift(x), dtype=float))
        want = terms[0]
        for term in terms[1:]:
            want = want + term
        assert total(x).tobytes() == want.tobytes()
    for m, views in handed.items():
        assert all(z is views[0] for z in views)
        assert not views[0].flags.writeable


@pytest.mark.parametrize("eps", [0.0, 0.3])
def test_composed_drift_leaves_a_shared_drift_array_unmodified(eps):
    shared = np.array([0.1, -0.2, 0.3])
    fields = replace(make_cylinder_preset().fields, drift=lambda x: shared)
    total = _make_drift(fields, eps, np.array([0.5]))
    y = np.tile([1.0, 0.0, 0.0], (4, 1))
    comp = np.zeros_like(y)
    for _ in range(3):
        total(y)
        _drift_rk4(total, y, comp, 0.01)
    assert shared.tolist() == [0.1, -0.2, 0.3]


@pytest.mark.parametrize("drift", [None, lambda x: 0.1 * x],
                         ids=["alone", "with_drift"])
@pytest.mark.parametrize("value", [np.array([0.1, 0.0, 0.2]), 0.5],
                         ids=["vector", "scalar"])
def test_composed_drift_rejects_a_perturbation_of_the_wrong_shape(drift,
                                                                  value):
    # one value for a batch of states broadcast through the RK4 stages
    # alone, and ended in numpy's in-place sum beside a drift
    preset = make_cylinder_preset()
    fields = replace(preset.fields, drift=drift, perturbation=lambda x: value)
    y = np.tile([1.0, 0.0, 0.0], (4, 1))
    with pytest.raises(ConfigError, match="perturbation must return one "
                                          "vector per state"):
        _drift_rk4(_make_drift(fields, 0.3), y, np.zeros_like(y), 0.01)
    with pytest.raises(ConfigError, match="perturbation"):
        integrate_grid_ensemble(fields, preset.driver, y, 1.0, 0.3,
                                IntegratorConfig(),
                                [RngStream(SEED, i) for i in range(4)])


def test_step_events_rows_match_stepping_each_row_alone():
    # rows with 0, 3 and 5 jumps, one of them at a grid time: columns where
    # every row moves step the whole state, the padding and the tie leave
    # some row at rest and take the masked path
    preset = make_cylinder_preset()
    grid = np.linspace(0.0, 1.0, 11)
    events = [
        (np.empty(0), np.empty((0, 1))),
        (np.array([0.33, 0.5, 0.77]), np.array([[0.2], [0.05], [1.1]])),
        (np.array([0.01, 0.12, 0.45, 0.46, 0.98]),
         np.array([[0.3], [0.7], [0.02], [0.4], [0.9]])),
    ]
    x0 = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 1.0], [-1.5, 0.5, -2.0]])
    cfg, c = IntegratorConfig(), np.array([0.25])
    together = step_events(preset.fields, x0, grid, _table(events, c), 0.3,
                           cfg)
    for i in range(len(events)):
        alone = step_events(preset.fields, x0[i:i + 1], grid,
                            _table(events[i:i + 1], c), 0.3, cfg)
        assert together[i].tobytes() == alone[0].tobytes()


def test_step_events_checks_sizes_first_and_closed_form_output():
    preset = make_cylinder_preset()
    grid = np.linspace(0.0, 1.0, 11)
    x0 = np.array([[1.0, 0.0, 0.0], [1.2, 0.0, 0.0]])
    cfg = IntegratorConfig()

    def no_step(x):
        raise AssertionError("stepped before the sizes were checked")

    for size in (np.nan, np.inf):
        events = _table([(np.array([0.3]), np.array([[0.5]])),
                         (np.array([0.5]), np.array([[size]]))])
        with pytest.raises(ConfigError, match="finite jump sizes"):
            step_events(replace(preset.fields, perturbation=no_step), x0,
                        grid, events, 0.3, cfg)
    events = _table([(np.array([0.3]), np.array([[0.5]])),
                     (np.empty(0), np.empty((0, 1)))])
    fields = replace(preset.fields,
                     exact_jump_flow=lambda x, z: np.full(x.shape, np.inf))
    with pytest.raises(BlowupError, match="left the finite range by t=1"):
        step_events(fields, x0, grid, events, 0.3, cfg)


def _table(events, compensator=None):
    # the jump table of per-row (times, sizes) pairs, rows in the given
    # order, each row's jumps in time order, tied jumps in their given order
    dim = events[0][1].shape[1]
    order = [np.argsort(t, kind="stable") for t, _ in events]
    return JumpEvents(np.concatenate([t[o] for (t, _), o in zip(events, order)]),
                      np.concatenate([z[o] for (_, z), o in zip(events, order)]),
                      np.array([len(t) for t, _ in events]),
                      np.zeros(dim) if compensator is None else compensator)


def _merge_per_row(grid, events, dim):
    # the per-row merge _merge_events replaced, kept as its reference
    cuts = np.cumsum(events.counts)[:-1]
    rows = list(zip(np.split(events.times, cuts),
                    np.split(events.sizes, cuts)))
    n_grid = len(grid)
    shape = (len(rows), n_grid + max(len(t) for t, _ in rows))
    times, jumps = np.empty(shape), np.zeros(shape, dtype=bool)
    sizes = np.zeros(shape + (dim,))
    for i, (t, z) in enumerate(rows):
        t_all = np.concatenate([grid, t])
        order = np.argsort(t_all, kind="stable")
        times[i] = t_all[order[-1]]
        times[i, :len(order)] = t_all[order]
        jumps[i, :len(order)] = order >= n_grid
        sizes[i, jumps[i]] = z[order[order >= n_grid] - n_grid]
    return times, jumps, sizes


def _assert_same_tables(grid, events, dim):
    table = _table(events)
    got = _merge_events(grid, table, dim)
    want = _merge_per_row(grid, table, dim)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_merged_event_table_matches_the_per_row_merge():
    grid = np.linspace(0.0, 1.0, 11)
    # tied jumps, jumps exactly at grid times (0, 0.3 and the horizon),
    # rows without jumps first, in the middle and last
    events = [
        (np.empty(0), np.empty((0, 1))),
        (np.array([0.7, 0.25, 0.25, 0.25, 0.9]),
         np.array([[1.0], [2.0], [3.0], [4.0], [5.0]])),
        (np.empty(0), np.empty((0, 1))),
        (np.array([grid[3], 0.0, 1.0, grid[3]]),
         np.array([[0.1], [0.2], [0.3], [0.4]])),
        (np.array([0.5]), np.array([[-0.5]])),
        (np.empty(0), np.empty((0, 1))),
    ]
    _assert_same_tables(grid, events, 1)
    _assert_same_tables(grid, events[:1], 1)
    # a block of sampled rows, as scheme_agreement builds them
    rng = np.random.default_rng(SEED)
    block = []
    for n in rng.integers(0, 9, size=40):
        t = np.round(rng.uniform(0.0, 1.0, n), 1)   # many ties and grid hits
        block.append((t, rng.gamma(0.5, size=(n, 2))))
    _assert_same_tables(grid, block, 2)


def test_step_events_with_a_planar_driver_matches_the_per_row_merge(monkeypatch):
    # a 2-D driver through the generic jump solve (width 1): rotation by z0
    # and dilation by z1 of the first two coordinates
    def driving(x, z):
        out = np.zeros_like(x)
        out[..., 0] = -x[..., 1] * z[..., 0] + 0.1 * x[..., 0] * z[..., 1]
        out[..., 1] = x[..., 0] * z[..., 0] + 0.1 * x[..., 1] * z[..., 1]
        return out

    fields = VectorFieldSet(driver_dim=2, driving=driving,
                            perturbation=ConstantK(0.0, 0.0, 1.0))
    grid = np.linspace(0.0, 2.0, 21)
    cfg = IntegratorConfig(scheme="jump_decomposition")
    x0 = np.array([[1.0, 0.5, 0.0]])
    rng = np.random.default_rng(SEED)
    for _ in range(3):
        # 1 + Poisson(12) jumps on [0, 2] with uniform planar sizes, then a
        # tie with the first jump and a jump on a grid time
        n = 1 + int(rng.poisson(12.0))
        t = np.sort(rng.uniform(0.0, 2.0, n))
        z = rng.uniform(-0.5, 0.5, size=(n, 2))
        times = np.concatenate([t, t[:1], [grid[4]]])
        sizes = np.concatenate([z, z[-1:], [[0.2, -0.3]]])
        events = _table([(times, sizes)])
        _assert_same_tables(grid, [(times, sizes)], 2)
        with monkeypatch.context() as m:
            m.setattr(marcus, "_merge_events", _merge_per_row)
            want = step_events(fields, x0, grid, events, 0.3, cfg)
        got = step_events(fields, x0, grid, events, 0.3, cfg)
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# ensemble kernel
# ---------------------------------------------------------------------------

def test_strang_splitting_matches_the_closed_forms():
    # constant vertical perturbation: rotations keep the radius, and the
    # height moves at speed eps through the drift half steps
    preset = make_cylinder_preset(k_choice=ConstantK(0.0, 0.0, 1.0))
    eps, horizon = 0.2, 3.0
    radii = []

    def observe(k, t, states, active):
        radii.append(_radius(states))

    streams = [RngStream(SEED, 30 + i) for i in range(4)]
    res = integrate_grid_ensemble(preset.fields, preset.driver,
                                  np.array([1.0, 0.0, 0.0]), horizon, eps,
                                  IntegratorConfig(), streams,
                                  on_step=observe)
    assert len(radii) == res.n_steps + 1
    assert np.max(np.abs(np.array(radii) - 1.0)) <= 1e-12
    assert np.max(np.abs(res.final_states[:, 2] - eps * horizon)) <= 1e-12


def test_ensemble_is_partition_independent():
    preset = make_cylinder_preset()
    x0 = np.array([1.0, 0.0, 0.0])
    cfg = IntegratorConfig()
    streams = [RngStream(SEED, 10), RngStream(SEED, 11)]
    both = integrate_grid_ensemble(preset.fields, preset.driver, x0, 2.0,
                                   0.1, cfg, streams)
    solo = [integrate_grid_ensemble(preset.fields, preset.driver, x0, 2.0,
                                    0.1, cfg, [s]) for s in streams]
    for i in range(2):
        assert np.array_equal(both.final_states[i], solo[i].final_states[0])


def test_ensemble_matches_single_path():
    preset = make_cylinder_preset()
    x0 = np.array([1.0, 0.0, 0.0])
    cfg = IntegratorConfig()
    traj = integrate_path(preset.fields, preset.chart, preset.driver,
                          x0, 2.0, 0.1, cfg, RngStream(SEED, 12))
    res = integrate_grid_ensemble(preset.fields, preset.driver, x0, 2.0, 0.1,
                                  cfg, [RngStream(SEED, 12)],
                                  contains=preset.chart.contains)
    assert np.array_equal(res.final_states[0], traj.states[-1])


def test_pair_mode_matches_standalone_run():
    preset = make_cylinder_preset()
    x0 = np.array([1.0, 0.0, 0.0])
    # a constant vertical push exits the rows started higher up first; the
    # last row never exits
    pushed = make_cylinder_preset(z_max=0.3, k_choice=ConstantK(0.0, 0.0, 1.0))
    rows = np.array([[1.0, 0.0, 0.2], [1.5, 0.0, 0.1], [2.0, 0.0, 0.0],
                     [1.0, 0.0, -5.0]])
    streams = [RngStream(SEED, 60 + i) for i in range(len(rows))]
    # pinned step: the pair shares the primary grid, so both runs must
    # resolve to the same h for a pathwise comparison
    cfg = IntegratorConfig(step_h=5e-3)
    captured = {}

    def on_pair(k, t, states, states_b, active):
        captured["pair"] = states_b.copy()

    integrate_grid_ensemble(preset.fields, preset.driver, x0, 2.0, 0.2,
                            cfg, [RngStream(SEED, 13)], pair_eps=0.05,
                            on_step_pair=on_pair)
    alone = integrate_grid_ensemble(preset.fields, preset.driver, x0, 2.0,
                                    0.05, cfg, [RngStream(SEED, 13)])
    assert np.array_equal(captured["pair"], alone.final_states)

    # each pair row follows its standalone run bit for bit up to its
    # primary's exit step and holds that state after it
    pair, path = [], []
    res = integrate_grid_ensemble(
        pushed.fields, pushed.driver, rows, 1.0, 0.5, cfg, streams,
        contains=pushed.chart.contains, pair_eps=0.05,
        on_step_pair=lambda k, t, states, states_b, active:
        pair.append(states_b.copy()))
    integrate_grid_ensemble(
        pushed.fields, pushed.driver, rows, 1.0, 0.05, cfg, streams,
        on_step=lambda k, t, states, active: path.append(states.copy()))
    exits = np.rint(res.exit_times / res.h)
    assert len(set(exits[:3])) == 3 and np.isnan(exits[3])
    pair, path = np.array(pair), np.array(path)
    for i, k in enumerate(exits):
        k = res.n_steps if np.isnan(k) else int(k)
        assert np.array_equal(pair[:k + 1, i], path[:k + 1, i])
        assert np.all(pair[k:, i] == pair[k, i])


def test_ensemble_freezes_exited_paths():
    preset = make_cylinder_preset(z_max=0.3, k_choice=ConstantK(0.0, 0.0, 1.0))
    x0 = np.array([1.0, 0.0, 0.0])
    seen = []

    def observe(k, t, states, active):
        seen.append((t, states[0, 2], bool(active[0])))

    res = integrate_grid_ensemble(preset.fields, preset.driver, x0, 1.0, 1.0,
                                  IntegratorConfig(), [RngStream(SEED, 14)],
                                  contains=preset.chart.contains,
                                  on_step=observe)
    assert abs(res.exit_times[0] - 0.3) <= 1e-9
    after = [z for t, z, alive in seen if t > res.exit_times[0] + 1e-12]
    assert after and all(z == after[0] for z in after)


def _nan_field(x):
    return np.full(x.shape, np.nan)


def test_ensemble_raises_when_a_state_leaves_the_finite_range():
    # a NaN row fails the domain check, but it has not left the domain:
    # counted as an exit it would read as a probability of 1
    preset = make_cylinder_preset()
    fields = replace(preset.fields, perturbation=_nan_field)
    streams = [RngStream(SEED, 30 + i) for i in range(3)]
    x0 = np.array([1.0, 0.0, 0.0])
    with pytest.raises(BlowupError, match="left the finite range at t=0.01"):
        integrate_grid_ensemble(fields, preset.driver, x0, 1.0, 0.1,
                                IntegratorConfig(), streams,
                                contains=preset.chart.contains)
    # the jump decomposition's event path, the other stepper
    cfg = IntegratorConfig(scheme="jump_decomposition")
    with pytest.raises(BlowupError, match="left the finite range"):
        integrate_path(fields, preset.chart, preset.driver, x0, 1.0,
                       0.1, cfg, streams[0])
    # without a domain check nothing else looks at the states, which came
    # back all nan without an error; a drift that turns nan past r = 1.5
    # (dr/dt = r/2 before) raises at the end of the draw chunk
    fields = replace(preset.fields, drift=lambda x: np.where(
        np.hypot(x[..., 0], x[..., 1])[..., None] > 1.5, np.nan,
        x * np.array([0.5, 0.5, 0.0])))
    with pytest.raises(BlowupError, match="left the finite range by t=2"):
        integrate_grid_ensemble(fields, preset.driver, x0, 2.0, 0.0,
                                IntegratorConfig(), streams)
    # a field whose RK4 sum overflows raised numpy's overflow warning, an
    # error under this suite's filter, with or without a domain check and
    # in the event stepper alike
    huge = make_cylinder_preset(k_choice=ConstantK(1e308, 1e308, 1e308))
    with pytest.raises(BlowupError, match="left the finite range at t=0.01"):
        integrate_grid_ensemble(huge.fields, huge.driver, x0, 1.0, 1.0,
                                IntegratorConfig(), streams,
                                contains=huge.chart.contains)
    with pytest.raises(BlowupError, match="left the finite range by t=1"):
        integrate_grid_ensemble(huge.fields, huge.driver, x0, 1.0, 1.0,
                                IntegratorConfig(), streams)
    grid = np.linspace(0.0, 1.0, 11)
    with pytest.raises(BlowupError, match="left the finite range by t=1"):
        step_events(huge.fields, x0[None, :], grid,
                    _table([(np.empty(0), np.empty((0, 1)))]), 1.0,
                    IntegratorConfig())


def test_ensemble_rejects_unsupported_setups():
    preset = make_cylinder_preset()
    generic = preset.fields.without_exact_flow()
    x0 = np.array([1.0, 0.0, 0.0])
    streams = [RngStream(SEED, 15), RngStream(SEED, 16)]
    # generic flows run at any width, each row as it runs alone
    both = integrate_grid_ensemble(generic, preset.driver, x0, 1.0, 0.1,
                                   IntegratorConfig(), streams)
    for i, s in enumerate(streams):
        solo = integrate_grid_ensemble(generic, preset.driver, x0, 1.0, 0.1,
                                       IntegratorConfig(), [s])
        assert both.final_states[i].tobytes() == solo.final_states[0].tobytes()
    exact = integrate_grid_ensemble(preset.fields, preset.driver, x0, 1.0,
                                    0.1, IntegratorConfig(), streams)
    assert np.max(np.abs(both.final_states - exact.final_states)) <= 1e-6
    with pytest.raises(ValueError):
        integrate_grid_ensemble(preset.fields, preset.driver, x0, 1.0, 0.1,
                                IntegratorConfig(scheme="jump_decomposition"),
                                [streams[0]])


class _NoDraws:
    def generator(self):
        raise AssertionError("drew before checking the arguments")


@pytest.mark.parametrize("shape", [(2, 3), (1, 3), (4, 3), (3, 1, 3), ()])
def test_ensemble_checks_the_start_block_before_any_draw(shape):
    # 3 paths start from one point or from one row each, checked before
    # any stream draws
    preset = make_cylinder_preset()
    with pytest.raises(ConfigError, match="one row for each of the 3 paths"):
        integrate_grid_ensemble(preset.fields, preset.driver, np.ones(shape),
                                1.0, 0.1, IntegratorConfig(), [_NoDraws()] * 3,
                                contains=preset.chart.contains)


@pytest.mark.parametrize("start", ["abc", ["a", 0.0, 0.0],
                                   [["a", 0.0, 0.0]] * 3])
def test_ensemble_rejects_a_start_that_is_not_numbers(start):
    # a failed conversion was numpy's bare ValueError
    preset = make_cylinder_preset()
    with pytest.raises(ConfigError, match="one row for each of the 3 paths"):
        integrate_grid_ensemble(preset.fields, preset.driver, start, 1.0, 0.1,
                                IntegratorConfig(), [_NoDraws()] * 3)


@pytest.mark.parametrize("exact", [True, False],
                         ids=["closed_form", "generic"])
def test_ensemble_checks_supplied_increments_before_any_step(exact):
    # a nested list failed on .shape, strings in numpy's conversion, and a
    # nan as a blowup on the closed form or a substep count on the generic
    # solve
    fields = make_cylinder_preset().fields
    if not exact:
        fields = fields.without_exact_flow()

    def no_step(x):
        raise AssertionError("stepped before the increments were checked")

    x0 = np.array([1.0, 0.0, 0.0])
    cfg = IntegratorConfig(step_h=0.5)
    good = [[[0.1], [0.2]], [[0.3], [-0.4]]]
    bads = [np.full((2, 2, 1), "a"), np.array(good)[0], [good], [[[0.1]]]]
    for size in (np.nan, np.inf, -np.inf):
        bads.append(np.array(good))
        bads[-1][1, 1, 0] = size
    for bad in bads:
        with pytest.raises(ConfigError, match="increments must be finite"):
            integrate_grid_ensemble(replace(fields, perturbation=no_step),
                                    None, x0, 1.0, 0.1, cfg, None,
                                    increments=bad)
    listed, arrayed = (
        integrate_grid_ensemble(fields, None, x0, 1.0, 0.1, cfg, None,
                                increments=inc).final_states
        for inc in (good, np.array(good)))
    assert listed.tobytes() == arrayed.tobytes()


def test_ensemble_starts_each_path_from_its_row():
    preset = make_cylinder_preset()
    x0 = np.array([[1.0, 0.0, 0.0], [0.0, 1.5, 0.2], [-2.0, 0.5, -1.0]])
    streams = [RngStream(SEED, 30 + i) for i in range(3)]
    block = integrate_grid_ensemble(preset.fields, preset.driver, x0, 1.0,
                                    0.1, IntegratorConfig(), streams)
    for row, s, got in zip(x0, streams, block.final_states):
        solo = integrate_grid_ensemble(preset.fields, preset.driver, row, 1.0,
                                       0.1, IntegratorConfig(), [s])
        assert got.tobytes() == solo.final_states[0].tobytes()


# ---------------------------------------------------------------------------
# jump decomposition scheme
# ---------------------------------------------------------------------------

def test_decomposition_preserves_invariants():
    preset = make_cylinder_preset(k_choice=ConstantK(0.0, 0.0, 1.0))
    x0 = np.array([1.0, 0.0, 0.0])
    cfg = IntegratorConfig(scheme="jump_decomposition", jump_cutoff=1e-3)
    traj = integrate_path(preset.fields, preset.chart, preset.driver,
                          x0, 3.0, 0.2, cfg, RngStream(SEED, 17))
    assert np.max(np.abs(_radius(traj.states) - 1.0)) <= 1e-12
    assert abs(traj.states[-1, 2] - 0.2 * 3.0) <= 1e-12
    assert traj.jump_flags.any()
    assert not traj.jump_flags[0]
    assert np.all(np.diff(traj.times) >= 0)
    assert abs(traj.times[-1] - 3.0) <= 1e-12


def test_decomposition_tracks_grid_increment_law():
    # same leaf motion either way: the angle swept by the decomposition
    # equals total jump mass plus compensator, close to the exact increment
    # sum for a small cutoff
    preset = make_cylinder_preset()
    x0 = np.array([1.0, 0.0, 0.0])
    cfg = IntegratorConfig(scheme="jump_decomposition", jump_cutoff=1e-4)
    traj = integrate_path(preset.fields, preset.chart, preset.driver,
                          x0, 10.0, 0.0, cfg, RngStream(SEED, 18))
    angles = np.arctan2(traj.states[:, 1], traj.states[:, 0])
    assert np.max(np.abs(_radius(traj.states) - 1.0)) <= 1e-12
    assert np.isfinite(angles).all()

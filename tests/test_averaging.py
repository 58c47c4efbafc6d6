"""Leaf averages, the averaged ODE, and ergodic rates.

Closed forms on the cylinder anchor everything: the leaf average of the
linear field is r/2 radially, the averaged flow is r0*exp(s/2) with hitting
time 2*log(r_target/r0), and a constant vertical field averages to itself.
"""

from __future__ import annotations

import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folevy import (BlowupError, ConfigError, ConstantK, DomainError,
                    RateEstimate, averaged_field, estimate_eta, fit_loglog,
                    leaf_average_quadrature, lp_moment, make_cylinder_preset,
                    projected_perturbation, rate_to_csv, solve_averaged_ode)

SEED = 20260816


def _radial_psi(states):
    # component of the projected linear field along the radius: x^2 / r
    r = np.hypot(states[..., 0], states[..., 1])
    return states[..., 0] ** 2 / r


# ---------------------------------------------------------------------------
# leaf averages
# ---------------------------------------------------------------------------

def test_leaf_average_of_linear_field_is_half_radius():
    preset = make_cylinder_preset()
    for r in (0.5, 1.0, 2.0):
        got = leaf_average_quadrature(preset.chart, _radial_psi,
                                      np.array([r, 0.0]))
        assert abs(got - r / 2.0) <= 1e-12, f"r={r}"


def test_leaf_average_of_constant_is_exact():
    preset = make_cylinder_preset()
    got = leaf_average_quadrature(preset.chart,
                                  lambda s: np.full(s.shape[:-1], 3.25),
                                  np.array([1.5, 0.2]), n_nodes=8)
    assert got == 3.25


# transversal points of the wrong shape, or not numbers
_NOT_TRANSVERSAL_POINTS = ([1.0], None, [1.0, 0.0, 0.0], "a",
                           [[1, 0], [1, 0]], ["a", 0.0], [[1.0, 0.0], [1.0]])


def _never_called(v):
    raise AssertionError("evaluated a malformed point")


def test_leaf_average_validation():
    preset = make_cylinder_preset()
    with pytest.raises(ValueError):
        leaf_average_quadrature(preset.chart, _radial_psi,
                                np.array([1.0, 0.0]), n_nodes=4)
    # a v that is not one transversal point used to end in an IndexError
    for v in _NOT_TRANSVERSAL_POINTS:
        with pytest.raises(ConfigError, match="dimension 2"):
            leaf_average_quadrature(preset.chart, _radial_psi, v)


def test_node_count_must_be_a_whole_number():
    # np.arange(8.5) has 9 nodes, so a fractional count divided the sum
    # of 9 values by 8.5 (q_r = 0.5588 at r = 1, exactly 0.5)
    preset = make_cylinder_preset()
    for bad in (8.5, 9.0, True, np.float64(16.0)):
        with pytest.raises(ConfigError):
            leaf_average_quadrature(preset.chart, _radial_psi,
                                    np.array([1.0, 0.0]), n_nodes=bad)
        with pytest.raises(ConfigError):
            averaged_field(preset.chart, preset.fields, n_nodes=bad)
    q = averaged_field(preset.chart, preset.fields, n_nodes=np.int64(9))
    assert abs(q.evaluate(np.array([1.0, 0.0]))[0] - 0.5) <= 1e-12


def test_averaged_field_quadrature_closed_form():
    preset = make_cylinder_preset()
    avg = averaged_field(preset.chart, preset.fields)
    for r in (0.5, 1.0, 2.0):
        q = avg.evaluate(np.array([r, 0.3]))
        assert abs(q[0] - r / 2.0) <= 1e-12
        assert abs(q[1]) <= 1e-14

    vertical = make_cylinder_preset(k_choice=ConstantK(0.0, 0.0, 1.5))
    q = averaged_field(vertical.chart, vertical.fields).evaluate(
        np.array([2.0, -1.0]))
    assert abs(q[0]) <= 1e-14
    assert abs(q[1] - 1.5) <= 1e-14


_QUAD_PRESETS = (make_cylinder_preset(),
                 make_cylinder_preset(k_choice=ConstantK(0.3, -0.7, 1.1)))


@settings(max_examples=150, deadline=None)
@given(r=st.floats(0.05, 7.0), z=st.floats(-12.0, 12.0),
       n_nodes=st.integers(8, 130), which=st.sampled_from([0, 1]))
def test_quadrature_field_is_bit_identical_to_einsum_mean(r, z, n_nodes,
                                                          which):
    # the quadrature backend must round exactly like the plain node mean of
    # the Jacobian contraction, also just outside the box where the
    # averaged ODE brackets its exit
    preset = _QUAD_PRESETS[which]
    chart, pert = preset.chart, preset.fields.perturbation
    angles = np.arange(n_nodes) * (2.0 * np.pi / n_nodes)
    pts = np.stack([r * np.cos(angles), r * np.sin(angles),
                    np.full_like(angles, z)], axis=-1)
    assert chart.leaf_nodes(angles)(np.array([r, z])).tobytes() == pts.tobytes()
    rad = np.hypot(pts[:, 0], pts[:, 1])
    jac = np.zeros((n_nodes, 2, 3))
    jac[:, 0, 0], jac[:, 0, 1], jac[:, 1, 2] = pts[:, 0] / rad, pts[:, 1] / rad, 1.0
    want = np.einsum("...ij,...j->...i", jac, pert(pts)).mean(axis=0)
    got = averaged_field(chart, preset.fields, n_nodes=n_nodes).evaluate(
        np.array([r, z]))
    assert got.tobytes() == want.tobytes()


def test_averaged_field_backends_agree():
    preset = make_cylinder_preset()
    quad = averaged_field(preset.chart, preset.fields)
    closed = averaged_field(preset.chart, preset.fields,
                            func=lambda v: np.array([v[0] / 2.0, 0.0]))
    # passing func selects the closed form
    assert (quad.method, closed.method) == ("quadrature", "analytic")
    for v in (np.array([0.7, 0.0]), np.array([1.0, 2.0]), np.array([3.0, -4.0])):
        assert np.max(np.abs(quad.evaluate(v) - closed.evaluate(v))) <= 1e-12


def test_averaged_field_validation():
    preset = make_cylinder_preset()
    with pytest.raises(ValueError):
        averaged_field(preset.chart, preset.fields, n_nodes=4)
    # a func that is not callable fails when the field is built, not
    # inside the ODE solve
    for func in ("analytic", np.array([0.0, 1.0])):
        with pytest.raises(ConfigError, match="func must be callable"):
            averaged_field(preset.chart, preset.fields, func=func)


# ---------------------------------------------------------------------------
# the averaged ODE
# ---------------------------------------------------------------------------

def test_averaged_ode_constant_vertical_flow():
    preset = make_cylinder_preset(k_choice=ConstantK(0.0, 0.0, 1.0))
    avg = averaged_field(preset.chart, preset.fields,
                         func=lambda v: np.array([0.0, 1.0]))
    sol = solve_averaged_ode(avg, np.array([1.0, -0.5]), 2.0)
    s = np.array([0.0, 0.5, 1.0, 2.0])
    want = np.stack([np.ones_like(s), -0.5 + s], axis=-1)
    assert np.max(np.abs(sol.interp(s) - want)) <= 1e-12
    assert sol.boundary_time is None


def test_averaged_ode_exponential_radius():
    preset = make_cylinder_preset()
    avg = averaged_field(preset.chart, preset.fields)
    z0 = 0.3
    sol = solve_averaged_ode(avg, np.array([1.0, z0]), 1.0)
    s = np.linspace(0.0, 1.0, 11)
    w = sol.interp(s)
    assert np.max(np.abs(w[:, 0] - np.exp(s / 2.0))) <= 1e-8
    assert np.all(sol.values[:, 1] == z0)


def test_averaged_ode_with_field_returning_its_argument():
    # the RK4 step reuses one work buffer, so an analytic field that hands
    # back its own argument must still integrate dw/ds = w
    preset = make_cylinder_preset()
    avg = averaged_field(preset.chart, preset.fields, func=lambda v: v)
    v0 = np.array([1.0, 0.1])
    sol = solve_averaged_ode(avg, v0, 0.5)
    assert sol.times[-1] == 0.5
    want = v0 * np.exp(sol.times)[:, None]
    assert np.max(np.abs(sol.values - want)) <= 1e-8


def test_averaged_ode_validation():
    preset = make_cylinder_preset()
    avg = averaged_field(preset.chart, preset.fields)
    with pytest.raises(DomainError):
        solve_averaged_ode(avg, np.array([9.0, 0.0]), 1.0)
    # numpy's IndexError, broadcast, conversion or truth-value errors
    # before; no evaluation of the field now
    fails = averaged_field(preset.chart, preset.fields, func=_never_called)
    for v0 in _NOT_TRANSVERSAL_POINTS:
        with pytest.raises(ConfigError, match="dimension 2"):
            solve_averaged_ode(fails, v0, 1.0)
    with pytest.raises(ValueError):
        solve_averaged_ode(avg, np.array([1.0, 0.0]), 0.0)
    with pytest.raises(ValueError):
        solve_averaged_ode(avg, np.array([1.0, 0.0]), 1.0, step=-1e-3)


def test_averaged_ode_non_finite_state_is_a_blowup():
    # a field that is nan past r = 1.2 used to end the solution there with
    # boundary_time None, as if it stayed inside; an inf one, or a finite
    # one whose RK4 sum overflows, raised numpy's warning under the suite's
    # error::RuntimeWarning filter before the state's finiteness check
    preset = make_cylinder_preset()
    for value in (math.nan, math.inf):
        avg = averaged_field(preset.chart, preset.fields, func=lambda v: [
            value if v[0] > 1.2 else v[0] / 2, 0.0])
        with pytest.raises(BlowupError, match="left the finite range") as err:
            solve_averaged_ode(avg, np.array([1.0, 0.0]), 1.0)
        assert abs(err.value.sigma - 2.0 * math.log(1.2)) <= 2e-3
    avg = averaged_field(preset.chart, preset.fields,
                         func=lambda v: [1e308, 0.0])
    with pytest.raises(BlowupError, match="left the finite range") as err:
        solve_averaged_ode(avg, np.array([1.0, 0.0]), 1.0)
    assert err.value.sigma == 1e-3


def test_eta_on_a_field_that_turns_nan_is_a_blowup():
    # the grid kernel runs without a domain check here, so the nan states
    # used to reach lp_moment and end in its ConfigError
    preset = make_cylinder_preset()

    def drift(x):
        r = np.hypot(x[..., 0], x[..., 1])[..., None]
        return np.where(r > 1.5, np.nan, x * np.array([0.5, 0.5, 0.0]))

    fields = replace(preset.fields, drift=drift)
    with pytest.raises(BlowupError, match="left the finite range"):
        estimate_eta(fields, preset.chart, preset.driver,
                     lambda s: s[..., 0], np.array([1.0, 0.0, 0.0]),
                     horizons=[1.0, 2.0, 3.0], n_paths=100, master_seed=SEED)
    # an observable of size 1e308 overflowed in its leaf average and its
    # time integral: numpy's warnings, else lp_moment's ConfigError
    huge = make_cylinder_preset(k_choice=ConstantK(1e308, 1e308, 1e308))
    with pytest.raises(BlowupError, match="left the finite range"):
        estimate_eta(huge.fields, huge.chart, huge.driver,
                     projected_perturbation(huge.chart, huge.fields, 0),
                     np.array([1.0, 0.0, 0.0]), horizons=[1.0, 2.0, 3.0],
                     n_paths=100, master_seed=SEED)


def test_exit_at_the_last_step_has_a_boundary_time():
    # r = exp(s/2) reaches r_max = 2 at 2 log 2, inside the last step
    preset = make_cylinder_preset(r_max=2.0)
    avg = averaged_field(preset.chart, preset.fields)
    sol = solve_averaged_ode(avg, np.array([1.0, 0.0]), 1.3865)
    assert sol.times[-2] < 2.0 * math.log(2.0) < sol.times[-1] == 1.3865
    assert abs(sol.boundary_time - 2.0 * math.log(2.0)) <= 1e-5


def test_boundary_and_margin_times_match_logarithms():
    preset = make_cylinder_preset(r_max=2.0)
    avg = averaged_field(preset.chart, preset.fields)
    sol = solve_averaged_ode(avg, np.array([1.0, 0.0]), 2.0)
    assert sol.boundary_time is not None
    assert abs(sol.boundary_time - 2.0 * math.log(2.0)) <= 1e-5
    t_gamma = sol.time_to_margin(0.1)
    assert abs(t_gamma - 2.0 * math.log(1.9)) <= 1e-5
    # smaller safety margin is reached later
    assert sol.time_to_margin(0.2) < t_gamma < sol.time_to_margin(0.05)
    assert sol.time_to_margin(0.9) == 0.0
    with pytest.raises(ValueError):
        sol.time_to_margin(-0.1)


def test_margins_match_rowwise_boundary_distance():
    preset = make_cylinder_preset()
    sol = solve_averaged_ode(averaged_field(preset.chart, preset.fields),
                             np.array([1.0, 0.0]), 50.0)
    rowwise = np.array([preset.chart.boundary_distance(v)
                        for v in sol.values])
    assert len(rowwise) > 3000
    assert sol.margins().tobytes() == rowwise.tobytes()


def test_margin_time_none_when_flow_is_stuck():
    preset = make_cylinder_preset()
    avg = averaged_field(preset.chart, preset.fields,
                         func=lambda v: np.zeros(2))
    sol = solve_averaged_ode(avg, np.array([1.0, 0.0]), 3.0)
    assert sol.boundary_time is None
    assert sol.time_to_margin(0.1) is None
    assert np.all(sol.values == np.array([1.0, 0.0]))


def test_interp_rejects_times_outside_range():
    preset = make_cylinder_preset()
    avg = averaged_field(preset.chart, preset.fields)
    sol = solve_averaged_ode(avg, np.array([1.0, 0.0]), 1.0)
    with pytest.raises(ValueError):
        sol.interp(-0.5)
    with pytest.raises(ValueError):
        sol.interp(1.5)
    # a nan fails every comparison, so it used to pass and interpolate nan
    for s in (math.nan, [0.5, math.nan], math.inf, -math.inf):
        with pytest.raises(ConfigError, match="outside the solved range"):
            sol.interp(s)
    with pytest.raises(ConfigError, match="numbers"):
        sol.interp("a")


# ---------------------------------------------------------------------------
# the mixing rate of ergodic averages
# ---------------------------------------------------------------------------

def test_estimate_eta_square_root_decay():
    preset = make_cylinder_preset()
    est = estimate_eta(preset.fields, preset.chart, preset.driver,
                       lambda s: s[..., 0], np.array([1.0, 0.0, 0.0]),
                       horizons=[5.0, 10.0, 20.0, 40.0], n_paths=128,
                       master_seed=SEED)
    assert not est.identically_zero
    assert -0.75 <= est.exponent <= -0.3, f"exponent {est.exponent:.3f}"
    assert est.constant > 0
    assert np.all(np.diff(est.lp_errors) < 0)


def test_estimate_eta_flags_exact_observable():
    # the radius is invariant along unperturbed paths, so every ergodic
    # average error vanishes
    preset = make_cylinder_preset()
    est = estimate_eta(preset.fields, preset.chart, preset.driver,
                       lambda s: np.hypot(s[..., 0], s[..., 1]),
                       np.array([1.0, 0.0, 0.0]),
                       horizons=[5.0, 10.0, 20.0], n_paths=100,
                       master_seed=SEED)
    assert est.identically_zero
    assert est.exponent == 0.0 and est.constant == 0.0


def test_estimate_eta_validation():
    preset = make_cylinder_preset()
    psi = lambda s: s[..., 0]
    x0 = np.array([1.0, 0.0, 0.0])
    args = (preset.fields, preset.chart, preset.driver, psi, x0)
    with pytest.raises(ValueError):
        estimate_eta(*args, horizons=[5.0, 10.0])
    with pytest.raises(ValueError):
        estimate_eta(*args, horizons=[5.0, 5.0, 10.0])
    with pytest.raises(ValueError):
        estimate_eta(*args, horizons=[-1.0, 5.0, 10.0])
    with pytest.raises(ValueError):
        estimate_eta(*args, horizons=[5.0, 10.0, 20.0], p=1)
    with pytest.raises(ValueError):
        estimate_eta(*args, horizons=[5.0, 10.0, 20.0], n_paths=50)
    with pytest.raises(ValueError):
        # off the integration grid
        estimate_eta(*args, horizons=[5.0055, 10.0, 20.0])
    # a psi that is not callable used to end in the leaf mean's TypeError
    for bad in ("radial", 1.0, None):
        with pytest.raises(ConfigError, match="psi must be callable"):
            estimate_eta(*args[:3], bad, x0, horizons=[5.0, 10.0, 20.0])


def test_lp_moment_known_values():
    value, se = lp_moment(np.array([3.0, 4.0]), 2)
    assert abs(value - math.sqrt(12.5)) <= 1e-12
    assert se > 0
    zero, zero_se = lp_moment(np.zeros(5), 2)
    assert zero == 0.0 and zero_se == 0.0


def test_lp_moment_large_p_neither_overflows_nor_vanishes():
    # 20**400 overflows and (2e-3)**400 underflows; the moment of two
    # samples a < b is b * ((1 + (a/b)**p) / 2)**(1/p)
    for a, b in ((10.0, 20.0), (1e-3, 2e-3)):
        value, se = lp_moment(np.array([a, b]), 400)
        want = b * math.exp((math.log1p((a / b) ** 400) - math.log(2)) / 400)
        assert abs(value - want) <= 1e-12 * want
        assert 0.0 < se < math.inf
    # p = 1e300: the moment is the largest |sample|, however small
    for samples in ([0.3, -0.5, 0.2], [3.0, 0.5, 2.0], [1e-200, 2e-200]):
        value, se = lp_moment(np.array(samples), 1e300)
        assert value == max(abs(v) for v in samples)
        assert 0.0 <= se < math.inf
    assert lp_moment(np.zeros(3), 1e300) == (0.0, 0.0)


def test_estimate_eta_large_p_is_finite_and_nonzero():
    preset = make_cylinder_preset()
    psi = projected_perturbation(preset.chart, preset.fields, 0)
    est = estimate_eta(preset.fields, preset.chart, preset.driver, psi,
                       np.array([1.0, 0.0, 0.0]), [5.0, 10.0, 20.0],
                       p=1e300, n_paths=100, master_seed=SEED)
    assert not est.identically_zero
    assert np.all(np.isfinite(est.lp_errors)) and np.all(est.lp_errors > 0)


def test_fit_loglog_recovers_power_law():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    slope, const = fit_loglog(x, 2.0 * x ** 1.5)
    assert abs(slope - 1.5) <= 1e-12
    assert abs(const - 2.0) <= 1e-12
    assert fit_loglog(x, np.zeros(4)) == (None, None)
    # two points left above the floor, but at one x: no slope to fit
    assert fit_loglog([1.0, 1.0, 2.0], [1.0, 2.0, 0.0]) == (None, None)


@pytest.mark.parametrize("samples, p", [
    ([], 2), (np.empty((0, 3)), 2), ([1.0, math.nan], 2),
    ([1.0, math.inf], 2), ([1.0, -math.inf], 2), ([1.0, 2.0], math.nan),
    ([1.0, 2.0], 0.5), ([1.0, 2.0], -1), ([1.0, 2.0], math.inf),
    ([1.0, 2.0], 10 ** 400), ([1.0, 2.0], "2"),
], ids=["empty", "empty_2d", "nan", "inf", "-inf", "p_nan", "p_half",
        "p_negative", "p_inf", "p_past_float_range", "p_string"])
def test_lp_moment_rejects_unusable_samples_and_p(samples, p):
    with pytest.raises(ConfigError):
        lp_moment(samples, p)


@pytest.mark.parametrize("x, y", [
    ([-1.0, 2.0, 3.0], [1.0, 2.0, 3.0]), ([0.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
    ([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]), ([2.0], [1.0]), ([], []),
    ([math.nan, 2.0, 3.0], [1.0, 2.0, 3.0]),
    ([math.inf, 2.0, 3.0], [1.0, 2.0, 3.0]),
    ([1.0, 2.0, 3.0], [1.0, math.nan, 3.0]),
    ([1.0, 2.0, 3.0], [1.0, math.inf, 3.0]),
    ([1.0, 2.0, 3.0], [1.0, 2.0]), ([[1.0, 2.0]], [[1.0, 2.0]]),
], ids=["x_negative", "x_zero", "one_distinct_x", "one_point", "empty",
        "x_nan", "x_inf", "y_nan", "y_inf", "lengths_differ", "2d"])
def test_fit_loglog_rejects_unusable_points(x, y, capfd):
    # rejected before LAPACK sees them: no DLASCL line on stderr
    with pytest.raises(ConfigError):
        fit_loglog(x, y)
    assert capfd.readouterr().err == ""


def test_rate_csv_columns(tmp_path):
    est = RateEstimate(np.array([1.0, 2.0]), np.array([0.5, 0.35]),
                       -0.5, 0.5, 2.0, 100)
    path = rate_to_csv(est, tmp_path / "rate.csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "lp_error", "p", "fitted_exponent",
                       "fitted_constant"]
    assert len(rows) == 3
    assert float(rows[1][1]) == 0.5

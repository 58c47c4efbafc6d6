"""End-to-end experiment tests on the cylinder.

A constant vertical perturbation makes every comparison quantity exact:
the perturbed height tracks the averaged one to machine precision and the
coupled deviation is literally eps * k3 * t.  The linear field gives the
stochastic cases: near-boundary exits and a running sup that stops at each
exit.  Its shrinking comparison errors, first-order deviation scaling and
scheme agreement are checked at full scale in test_acceptance.py.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from folevy import (BlowupError, ConstantK, IntegratorConfig, RngStream,
                    averaged_field, deviation_scaling, exit_probability,
                    integrate_path, lp_moment, make_cylinder_preset,
                    projected_perturbation, scheme_agreement,
                    transversal_comparison)
from folevy.experiments import _nonincreasing_in_eps
from folevy.marcus import resolve_grid

SEED = 20260816
X0 = np.array([1.0, 0.0, 0.0])


def _constant_vertical_setup(k3=1.0, **preset_kwargs):
    preset = make_cylinder_preset(k_choice=ConstantK(0.0, 0.0, k3),
                                  **preset_kwargs)
    avg = averaged_field(preset.chart, preset.fields,
                         func=lambda v: np.array([0.0, k3]))
    return preset, avg


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def test_projected_perturbation_observable():
    preset = make_cylinder_preset()
    psi = projected_perturbation(preset.chart, preset.fields, 0)
    x = preset.chart.leaf_nodes(np.array([0.4]))(np.array([1.5, 0.0]))[0]
    assert abs(psi(x) - 1.5 * math.cos(0.4) ** 2) <= 1e-12
    batch = psi(np.stack([x, X0]))
    assert batch.shape == (2,)


def test_nonincreasing_helper():
    eps = [0.05, 0.2, 0.1]
    assert _nonincreasing_in_eps(eps, [0.2, 0.5, 0.3], [0.0, 0.0, 0.0])
    assert not _nonincreasing_in_eps(eps, [0.6, 0.5, 0.3], [0.01, 0.01, 0.01])
    # a rise inside one standard error is tolerated
    assert _nonincreasing_in_eps(eps, [0.31, 0.5, 0.3], [0.0, 0.0, 0.05])


# ---------------------------------------------------------------------------
# transversal comparison
# ---------------------------------------------------------------------------

def test_comparison_exact_for_constant_vertical_field():
    preset, avg = _constant_vertical_setup()
    result = transversal_comparison(preset.fields, preset.chart, preset.driver,
                                    avg, X0, epsilons=[0.5, 0.1], horizon=1.0,
                                    n_paths=16, master_seed=SEED)
    assert np.max(result.sup_vertical) <= 1e-12
    assert np.max(result.sup_radial) <= 1e-12
    assert np.max(result.sup_norm) <= 2e-12
    assert result.solution.boundary_time is None
    # both sups are machine zero, so the monotonicity flag carries no
    # information here; just require the summary to report it
    assert "monotone_in_eps" in result.summary()


def test_comparison_running_sup_stops_at_each_exit():
    # on a thin annulus every path exits, and the kernel freezes it there;
    # the averaged path w keeps moving, so a sup that kept accumulating
    # would measure the frozen exit point against later w.  The reference
    # takes each single path, cut at its exit, against w on its own clock,
    # for the euclidean, radial and vertical sups alike.
    preset = make_cylinder_preset(r_min=0.9, r_max=1.1,
                                  k_choice=ConstantK(1.0, 0.0, 1.0))
    avg = averaged_field(preset.chart, preset.fields)
    epsilons, horizon, n_paths, seed = (0.5, 0.2), 1.2, 64, 3
    result = transversal_comparison(preset.fields, preset.chart,
                                    preset.driver, avg, X0, epsilons=epsilons,
                                    horizon=horizon, n_paths=n_paths,
                                    master_seed=seed)

    def distances(states, times, eps):
        """(euclidean, radial, vertical) sup distance to w."""
        w = result.solution.interp(np.minimum(eps * times, horizon))
        radial = np.abs(np.hypot(states[:, 0], states[:, 1]) - w[:, 0])
        vertical = np.abs(states[:, 2] - w[:, 1])
        return [np.hypot(radial, vertical).max(), radial.max(),
                vertical.max()]

    assert result.horizons.tolist() == [horizon]
    for i, eps in enumerate(epsilons):
        n_steps, h = resolve_grid(IntegratorConfig(), eps, horizon / eps)
        grid = np.arange(n_steps + 1) * h
        cut, kept = [], []
        for path in range(n_paths):
            traj = integrate_path(preset.fields, preset.chart,
                                  preset.driver, X0, horizon / eps, eps,
                                  rng=RngStream(seed, path))
            assert traj.exited
            cut.append(distances(traj.states, traj.times, eps))
            frozen = np.repeat(traj.states[-1:], n_steps + 1, axis=0)
            kept.append(distances(frozen, grid, eps)[0])
        cut = np.array(cut)
        for c, sup in enumerate((result.sup_norm, result.sup_radial,
                                 result.sup_vertical)):
            assert sup.shape == (len(epsilons), 1)
            assert sup[i, 0] == lp_moment(cut[:, c], 2)[0]
        assert lp_moment(np.array(kept), 2)[0] > 5 * result.sup_norm[i, 0]


def test_comparison_zero_perturbation_is_exact():
    preset = make_cylinder_preset(k_choice=ConstantK(0.0, 0.0, 0.0))
    avg = averaged_field(preset.chart, preset.fields,
                         func=lambda v: np.zeros(2))
    result = transversal_comparison(preset.fields, preset.chart, preset.driver,
                                    avg, X0, epsilons=[0.5], horizon=1.0,
                                    n_paths=8, master_seed=SEED)
    assert np.max(result.sup_norm) <= 1e-12


# ---------------------------------------------------------------------------
# exit probabilities
# ---------------------------------------------------------------------------

def test_exit_probability_near_boundary_time():
    preset = make_cylinder_preset(r_max=2.0)
    avg = averaged_field(preset.chart, preset.fields)
    result = exit_probability(preset.fields, preset.chart, preset.driver, avg,
                              X0, epsilons=[0.3, 0.1], gamma=0.1, n_paths=64,
                              master_seed=SEED)
    assert abs(result.t_gamma - 2.0 * math.log(1.9)) <= 1e-4
    assert np.all((result.probabilities >= 0) & (result.probabilities <= 1))
    assert np.all(result.std_errors >= 0)
    assert "nonincreasing_in_eps" in result.summary()


def test_exit_probability_zero_when_start_is_close():
    preset = make_cylinder_preset(r_max=2.0)
    avg = averaged_field(preset.chart, preset.fields)
    result = exit_probability(preset.fields, preset.chart, preset.driver, avg,
                              np.array([1.95, 0.0, 0.0]), epsilons=[0.2],
                              gamma=0.1, n_paths=8, master_seed=SEED)
    assert result.t_gamma == 0.0
    assert np.all(result.probabilities == 0.0)
    assert np.all(result.std_errors == 0.0)


def test_exit_probability_raises_on_non_finite_paths():
    # NaN paths are not exits: without the check every path "exited"
    preset = make_cylinder_preset(r_max=2.0)
    avg = averaged_field(preset.chart, preset.fields)
    fields = replace(preset.fields,
                     perturbation=lambda x: np.full(x.shape, np.nan))
    with pytest.raises(BlowupError, match="finite range"):
        exit_probability(fields, preset.chart, preset.driver, avg, X0,
                         epsilons=[0.3], gamma=0.1, n_paths=8,
                         master_seed=SEED)


# ---------------------------------------------------------------------------
# deviation scaling
# ---------------------------------------------------------------------------

def test_deviation_exactly_linear_for_constant_vertical_field():
    preset, _ = _constant_vertical_setup()
    result = deviation_scaling(preset.fields, preset.chart, preset.driver, X0,
                               epsilons=[0.5, 0.25], horizon=2.0,
                               observable="vertical", n_paths=8,
                               master_seed=SEED)
    assert np.max(np.abs(result.values - np.array([1.0, 0.5]))) <= 1e-12
    assert abs(result.exponent - 1.0) <= 1e-9
    assert abs(result.constant - 2.0) <= 1e-9
    assert result.summary()["linear_in_eps"]


def test_deviation_identically_zero_for_insensitive_observable():
    # a purely vertical perturbation never moves the radius
    preset, _ = _constant_vertical_setup()
    result = deviation_scaling(preset.fields, preset.chart, preset.driver, X0,
                               epsilons=[0.5, 0.25], horizon=2.0,
                               observable="radial", n_paths=8,
                               master_seed=SEED)
    assert result.identically_zero
    assert result.exponent is None
    assert result.summary()["linear_in_eps"] is None


def test_deviation_large_p_is_not_a_false_zero():
    # |dev|**1e300 underflows to 0 for every deviation below 1, which read
    # as deviations vanishing identically
    preset = make_cylinder_preset()
    result = deviation_scaling(preset.fields, preset.chart, preset.driver, X0,
                               [0.5, 0.25], 1.0, p=1e300, n_paths=4,
                               master_seed=SEED)
    assert not result.identically_zero
    assert np.all(result.values > 0) and np.all(np.isfinite(result.values))
    assert np.all(np.isfinite(result.std_errors))
    assert math.isfinite(result.exponent)


# ---------------------------------------------------------------------------
# discretization coupling
# ---------------------------------------------------------------------------

def test_scheme_agreement_generic_flow_matches_closed_form():
    # without a closed-form jump flow both halves step their jumps through
    # the Runge-Kutta jump solve
    preset = make_cylinder_preset()
    kwargs = dict(horizon=0.5, eps=0.5, n_paths=3, master_seed=SEED)
    exact = scheme_agreement(preset.fields, preset.chart, preset.driver, X0,
                             **kwargs)
    generic = scheme_agreement(preset.fields.without_exact_flow(),
                               preset.chart, preset.driver, X0, **kwargs)
    assert np.all(exact.l2_gaps > 0)
    np.testing.assert_allclose(generic.l2_gaps, exact.l2_gaps, rtol=0,
                               atol=1e-6)
    np.testing.assert_allclose(generic.std_errors, exact.std_errors, rtol=0,
                               atol=1e-6)

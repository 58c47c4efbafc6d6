"""End-to-end experiment tests on the cylinder.

A constant vertical perturbation makes every comparison quantity exact:
the perturbed height tracks the averaged one to machine precision and the
coupled deviation is literally eps * k3 * t.  The linear field gives the
stochastic cases: shrinking comparison errors, near-boundary exits, and
first-order deviation scaling.
"""

from __future__ import annotations

import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from folevy import (AveragedSolution, BlowupError, ComparisonResult,
                    ConfigError, ConstantK, DeviationResult, ExitProbabilityResult,
                    IntegratorConfig, RngStream, averaged_field,
                    comparison_to_csv, deviation_scaling, deviation_to_csv,
                    estimate_eta, exit_probability, exit_to_csv,
                    integrate_path, lp_moment, make_cylinder_preset,
                    projected_perturbation, scheme_agreement,
                    transversal_comparison, truncate_gamma)
from folevy import averaging, experiments
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


def test_comparison_error_shrinks_with_eps():
    preset = make_cylinder_preset()
    avg = averaged_field(preset.chart, preset.fields)
    result = transversal_comparison(preset.fields, preset.chart, preset.driver,
                                    avg, X0, epsilons=[0.3, 0.05], horizon=0.5,
                                    n_paths=64, master_seed=SEED)
    final = result.sup_norm[:, -1]
    assert final[1] < final[0], f"sup errors {final} did not shrink"
    assert np.all(result.sup_norm_se >= 0)


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


def test_comparison_rejects_horizon_past_boundary():
    preset = make_cylinder_preset(r_max=2.0)
    avg = averaged_field(preset.chart, preset.fields)
    with pytest.raises(ConfigError):
        transversal_comparison(preset.fields, preset.chart, preset.driver,
                               avg, X0, epsilons=[0.1], horizon=2.0,
                               n_paths=4, master_seed=SEED)


def test_comparison_validation():
    preset, avg = _constant_vertical_setup()
    args = (preset.fields, preset.chart, preset.driver, avg, X0)
    with pytest.raises(ValueError):
        transversal_comparison(*args, epsilons=[], horizon=1.0)
    with pytest.raises(ValueError):
        transversal_comparison(*args, epsilons=[1.5], horizon=1.0)
    with pytest.raises(ValueError):
        transversal_comparison(*args, epsilons=[0.1], horizon=-1.0)
    with pytest.raises(ValueError):
        transversal_comparison(*args, epsilons=[0.1], horizon=1.0, p=0.5)
    with pytest.raises(ValueError):
        transversal_comparison(*args, epsilons=[0.1], horizon=1.0, n_paths=1)


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


def test_exit_probability_needs_a_near_exit():
    preset, _ = _constant_vertical_setup(k3=0.0)
    avg = averaged_field(preset.chart, preset.fields,
                         func=lambda v: np.zeros(2))
    with pytest.raises(ConfigError):
        exit_probability(preset.fields, preset.chart, preset.driver, avg, X0,
                         epsilons=[0.1], gamma=0.1, n_paths=8,
                         search_horizon=5.0, master_seed=SEED)


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


def test_exit_probability_validation():
    preset = make_cylinder_preset(r_max=2.0)
    avg = averaged_field(preset.chart, preset.fields)
    args = (preset.fields, preset.chart, preset.driver, avg, X0)
    with pytest.raises(ValueError):
        exit_probability(*args, epsilons=[0.1], gamma=0.0)
    with pytest.raises(ValueError):
        exit_probability(*args, epsilons=[0.1], gamma=0.1, n_paths=1)
    with pytest.raises(ValueError):
        exit_probability(*args, epsilons=[2.0], gamma=0.1)


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


def test_deviation_radial_scaling_is_first_order():
    preset = make_cylinder_preset()
    result = deviation_scaling(preset.fields, preset.chart, preset.driver, X0,
                               epsilons=[0.2, 0.1, 0.05], horizon=1.0,
                               observable="radial", n_paths=48,
                               master_seed=SEED)
    assert 0.7 <= result.exponent <= 1.3, f"exponent {result.exponent:.3f}"
    assert np.all(np.diff(result.values) < 0)


@pytest.mark.parametrize("observable", [
    lambda x: x[..., 2] ** 2, ["radial"], {"radial": 1}])
def test_deviation_takes_only_an_observable_name(monkeypatch, observable):
    # a list or a dict is not hashable: the OBSERVABLES lookup gave a bare
    # TypeError for them
    def no_path(*args, **kwargs):
        raise AssertionError("a path ran before the observable was rejected")

    monkeypatch.setattr(experiments, "integrate_grid_ensemble", no_path)
    preset = make_cylinder_preset()
    with pytest.raises(ConfigError, match="unknown observable"):
        deviation_scaling(preset.fields, preset.chart, preset.driver, X0,
                          epsilons=[0.5, 0.25], horizon=1.0,
                          observable=observable, n_paths=4)


def test_grid_experiments_reject_jump_decomposition_before_any_work(
        monkeypatch):
    # the grid ensemble cannot run the jump decomposition, so neither the
    # averaged ODE nor the reference leaf average may be computed first
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the scheme was rejected")

    monkeypatch.setattr(experiments, "solve_averaged_ode", no_work)
    monkeypatch.setattr(averaging, "leaf_average_quadrature", no_work)
    preset = make_cylinder_preset()
    avg = averaged_field(preset.chart, preset.fields)
    args = (preset.fields, preset.chart, preset.driver)
    cfg = IntegratorConfig(scheme="jump_decomposition")
    calls = [
        lambda: transversal_comparison(*args, avg, X0, [0.5], 0.3, n_paths=4,
                                       cfg=cfg),
        lambda: exit_probability(*args, avg, X0, [0.5], 0.1, n_paths=4,
                                 cfg=cfg),
        lambda: deviation_scaling(*args, X0, [0.5], 0.3, n_paths=4, cfg=cfg),
        lambda: estimate_eta(*args, lambda s: s[..., 0], X0,
                             [5.0, 10.0, 20.0], n_paths=100, cfg=cfg),
    ]
    for call in calls:
        with pytest.raises(ConfigError, match="grid-based schemes only"):
            call()


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


def test_deviation_validation():
    preset = make_cylinder_preset()
    args = (preset.fields, preset.chart, preset.driver, X0)
    with pytest.raises(ConfigError):
        deviation_scaling(*args, epsilons=[0.1], horizon=1.0,
                          observable="angular")
    with pytest.raises(ValueError):
        deviation_scaling(*args, epsilons=[0.1], horizon=0.0)
    with pytest.raises(ValueError):
        deviation_scaling(*args, epsilons=[0.1], horizon=1.0, n_paths=1)
    with pytest.raises(ValueError):
        deviation_scaling(*args, epsilons=[-0.1], horizon=1.0)
    with pytest.raises(ValueError):
        deviation_scaling(*args, epsilons=[0.1], horizon=1.0, p=0.5)


# ---------------------------------------------------------------------------
# discretization coupling
# ---------------------------------------------------------------------------

def test_scheme_agreement_gap_shrinks_per_level():
    preset = make_cylinder_preset()
    result = scheme_agreement(preset.fields, preset.chart, preset.driver, X0,
                              horizon=1.0, eps=0.5, n_paths=32,
                              master_seed=SEED)
    assert np.all(result.l2_gaps > 0)
    assert np.all(np.diff(result.l2_gaps) < 0)
    assert np.all(result.ratios < 0.9), f"ratios {result.ratios}"


def test_scheme_agreement_needs_gamma_driver(monkeypatch):
    preset = make_cylinder_preset()
    def no_path(*args):
        raise AssertionError("a path ran before the driver was rejected")

    monkeypatch.setattr(experiments, "sample_jump_events", no_path)
    # a truncated driver has no closed-form small-jump mean per cutoff
    with pytest.raises(ConfigError, match="needs the Gamma driver"):
        scheme_agreement(preset.fields, preset.chart,
                         truncate_gamma(preset.driver, 0.01), X0, n_paths=4)
    with pytest.raises(ValueError):
        scheme_agreement(preset.fields, preset.chart, preset.driver, X0,
                         eps=0.0, n_paths=4)
    with pytest.raises(ValueError):
        scheme_agreement(preset.fields, preset.chart, preset.driver, X0,
                         levels=((0.001, 0.01),), n_paths=4)
    # not a nonempty sequence of (cutoff, step) pairs
    for levels in ([], [(0.08,)], [(0.08, 0.04, 1)], 5, [0.08, 0.04]):
        with pytest.raises(ConfigError, match="levels must be"):
            scheme_agreement(preset.fields, preset.chart, preset.driver, X0,
                             levels=levels, n_paths=4)
    with pytest.raises(ValueError):
        scheme_agreement(preset.fields, preset.chart, preset.driver, X0,
                         horizon=0.0, n_paths=4)


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


# ---------------------------------------------------------------------------
# CSV contracts
# ---------------------------------------------------------------------------

def test_csv_column_contracts(tmp_path):
    preset = make_cylinder_preset()
    sol = AveragedSolution(preset.chart, np.array([0.0, 1.0]),
                           np.array([[1.0, 0.0], [1.1, 0.0]]))
    comp = ComparisonResult(np.array([0.1]), np.array([1.0]), 2.0, 4,
                            np.array([[0.2]]), np.array([[0.01]]),
                            np.array([[0.1]]), np.array([[0.01]]),
                            np.array([[0.1]]), np.array([[0.01]]), sol)
    path = comparison_to_csv(comp, tmp_path / "comparison.csv")
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["epsilon", "t", "p", "sup_lp", "std_error", "n_paths"]

    exit_res = ExitProbabilityResult(np.array([0.1]), np.array([0.05]),
                                     np.array([0.01]), 0.1, 1.28, 4)
    path = exit_to_csv(exit_res, tmp_path / "exit.csv")
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["epsilon", "t_gamma", "gamma", "probability",
                      "std_error", "n_paths"]

    dev = DeviationResult(np.array([0.1]), np.array([0.2]), np.array([0.01]),
                          1.0, 2.0, "radial", 1.0, 2.0, 4)
    path = deviation_to_csv(dev, tmp_path / "deviation.csv")
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["epsilon", "t", "p", "sup_lp", "std_error", "n_paths"]

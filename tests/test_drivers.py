"""Distributional tests for the jump drivers.

The closed-form characteristic function is checked against direct numerical
integration of the marginal density before anything else relies on it; the
samplers (exact increments and truncated jump events) are then tested
against that oracle, against closed-form masses and means, and against each
other.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, special, stats

import folevy
from folevy import (GammaSubordinator, JumpEvents, RngStream,
                    TruncatedMeasure, characteristic_function,
                    circle_law_distance, marginal_samples, path_streams,
                    sample_jump_events, truncate_gamma)
from folevy.drivers import (_MIN_RATE, _TABLE_NODES, _TAIL_FRACTION, _exp1,
                            make_step_sampler, step_sums)
from folevy.errors import ConfigError

SEED = 20260816


def _cf_by_density_quadrature(rate, u, t):
    # E[exp(i*u*Y)] for Y with the Gamma(shape=t, rate) marginal density,
    # integrated directly; independent of the closed form under test
    dens = stats.gamma(a=t, scale=1.0 / rate).pdf
    re = integrate.quad(lambda y: math.cos(u * y) * dens(y), 0.0, np.inf,
                        limit=400)[0]
    im = integrate.quad(lambda y: math.sin(u * y) * dens(y), 0.0, np.inf,
                        limit=400)[0]
    return complex(re, im)


def _assert_close(value, target, tol, label=""):
    gap = abs(value - target)
    assert gap <= tol, f"{label} gap {gap:.3e} exceeds {tol:.1e}"


# ---------------------------------------------------------------------------
# characteristic function
# ---------------------------------------------------------------------------

def test_characteristic_function_matches_density_quadrature():
    cases = [(1.0, 0.5, 1.0), (1.0, 1.0, 1.0), (1.0, 2.0, 1.0),
             (1.0, 4.0, 1.0), (1.0, 2.0, 0.5), (1.0, 2.0, 3.0),
             (2.5, 1.7, 2.0)]
    for rate, u, t in cases:
        spec = GammaSubordinator(rate)
        _assert_close(characteristic_function(spec, u, t),
                      _cf_by_density_quadrature(rate, u, t), 1e-9,
                      f"cf({rate=}, {u=}, {t=})")


def test_characteristic_function_frozen_values():
    spec = GammaSubordinator(1.0)
    _assert_close(characteristic_function(spec, 0.0, 5.0), 1.0, 1e-15, "u=0")
    _assert_close(characteristic_function(spec, 1.0, 1.0),
                  complex(0.5, 0.5), 1e-12, "u=1")
    _assert_close(characteristic_function(spec, 2.0, 1.0),
                  complex(0.2, 0.4), 1e-12, "u=2")
    _assert_close(characteristic_function(spec, 4.0, 1.0),
                  complex(1.0 / 17.0, 4.0 / 17.0), 1e-12, "u=4")
    # cos^2 z = (1 + Re e^{2iz}) / 2, so E[cos^2 Z_1] = 0.6 at rate 1
    cos2 = 0.5 * (1.0 + characteristic_function(spec, 2.0, 1.0).real)
    _assert_close(cos2, 0.6, 1e-12, "E[cos^2 Z_1]")


def test_characteristic_function_array_input():
    spec = GammaSubordinator(1.3)
    u = np.array([0.0, 1.0, 2.5, -1.5])
    vals = characteristic_function(spec, u, 2.0)
    assert vals.shape == u.shape
    for uu, val in zip(u, vals):
        _assert_close(val, characteristic_function(spec, float(uu), 2.0),
                      1e-14, f"array u={uu}")


def test_characteristic_function_modulus_bounded():
    spec = GammaSubordinator(0.7)
    u = np.linspace(-8.0, 8.0, 33)
    assert np.all(np.abs(characteristic_function(spec, u, 2.5)) <= 1 + 1e-12)
    with pytest.raises(ValueError):
        characteristic_function(spec, 1.0, -0.5)


def test_characteristic_function_is_finite_past_the_float_range():
    # u/rate overflows at u = 1e308, rate 0.5, and a huge u/rate to a small
    # whole power overflows on the way; the modulus (1 + (u/rate)^2)^(-t/2)
    # and argument t*atan(u/rate) still give the value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rate, u, t in ((0.5, 1e308, 1.0), (0.5, -1e308, 1.0),
                           (0.5, 1.7e308, 0.5), (1.0, 1e155, 2.0),
                           (1.0, -1e200, 3.0), (_MIN_RATE, 1e10, 1e-3)):
            got = characteristic_function(GammaSubordinator(rate), u, t)
            log_mod = math.log(math.hypot(rate, u)) - math.log(rate)
            angle = t * math.atan2(u, rate)
            expected = math.exp(-t * log_mod) * complex(math.cos(angle),
                                                        math.sin(angle))
            assert math.isfinite(got.real) and math.isfinite(got.imag)
            _assert_close(got, expected, 1e-13 * max(abs(expected), 1e-300),
                          f"cf({rate=}, {u=}, {t=})")
        vals = characteristic_function(GammaSubordinator(0.5),
                                       np.array([1.0, 1e308]), 1.0)
        assert np.isfinite(vals).all()
        assert vals[0] == characteristic_function(GammaSubordinator(0.5),
                                                  1.0, 1.0)


def test_truncated_characteristic_function_is_a_config_error():
    # only the Gamma driver has a closed-form characteristic function
    trunc = truncate_gamma(GammaSubordinator(1.0), 0.05)
    for u in (1.0, np.array([0.5, 2.0])):
        with pytest.raises(ConfigError, match="needs the Gamma driver"):
            characteristic_function(trunc, u, 1.5)


# ---------------------------------------------------------------------------
# closed-form measure quantities, with quadrature cross-checks
# ---------------------------------------------------------------------------

def test_tail_mass_matches_quadrature():
    spec = GammaSubordinator(1.0)
    for cutoff in (0.05, 0.1, 1.0):
        by_quad = integrate.quad(lambda y: math.exp(-y) / y, cutoff, np.inf,
                                 limit=200)[0]
        _assert_close(spec.tail_mass(cutoff), by_quad, 1e-10,
                      f"tail mass {cutoff=}")
        _assert_close(spec.tail_mass(cutoff), special.exp1(cutoff), 1e-13)
    with pytest.raises(ValueError):
        spec.tail_mass(0.0)


def test_mean_below_matches_quadrature():
    spec = GammaSubordinator(1.0)
    # y * density = exp(-y), an exact antiderivative, so both routes agree
    for cutoff in (0.05, 0.1, 0.5):
        by_quad = integrate.quad(lambda y: y * math.exp(-y) / y, 0.0, cutoff)[0]
        _assert_close(spec.mean_below(cutoff), by_quad, 1e-12)
    _assert_close(spec.mean_below(0.1), 1.0 - math.exp(-0.1), 1e-15)
    spec2 = GammaSubordinator(2.0)
    _assert_close(spec2.mean_below(0.1), (1.0 - math.exp(-0.2)) / 2.0, 1e-15)


# ---------------------------------------------------------------------------
# the in-package exponential integral against scipy.special.exp1
# ---------------------------------------------------------------------------

def _assert_rel_close(values, refs, tol, label):
    rel = np.max(np.abs(values - refs) / refs)
    assert rel <= tol, f"{label}: relative gap {rel:.2e} exceeds {tol:.0e}"


def test_exp1_matches_scipy():
    x = np.exp(np.random.default_rng(SEED).uniform(
        math.log(1e-300), math.log(700.0), 10 ** 5))
    _assert_rel_close(_exp1(x), special.exp1(x), 4e-15, "log-uniform points")
    # the seam between the series and the continued fraction
    seam = np.array([np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)])
    _assert_rel_close(_exp1(seam), special.exp1(seam), 4e-15, "x = 1")
    # the inverse-CDF table nodes of the preset's driver at the base cutoff
    # of scheme_agreement
    ys = truncate_gamma(GammaSubordinator(1.0), 0.002).ys
    assert len(ys) == _TABLE_NODES
    _assert_rel_close(_exp1(ys), special.exp1(ys), 4e-15, "table nodes")
    assert _exp1(np.array([])).shape == (0,)
    assert _exp1(0.5).shape == ()
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no overflow on the way to 0
        assert _exp1(np.array([800.0, 1.7e308])).tolist() == [0.0, 0.0]


def test_truncate_gamma_outer_node_is_the_first_doubling_below_target():
    # the vectorized search picks the node the one-at-a-time doubling loop
    # picks: the first cutoff * 2**j with E1(rate * that) <= the target
    for rate in (1e-3, 0.5, 1.0, 3.0, 50.0):
        spec = GammaSubordinator(rate)
        # 1e-308 * 1e-3 is a subnormal rate * cutoff
        for cutoff in (1e-308, 1e-300, 1e-12, 0.002, 0.1, 1.0, 20.0 / rate,
                       600.0 / rate):
            target = special.exp1(rate * cutoff) * _TAIL_FRACTION
            hi = cutoff
            while special.exp1(rate * hi) > target:
                hi *= 2.0
            ys = np.exp(np.linspace(math.log(cutoff), math.log(hi),
                                    _TABLE_NODES))
            assert np.array_equal(truncate_gamma(spec, cutoff).ys, ys), \
                (rate, cutoff)
    # E1(1000) is 0, and 1e-14 * E1(710) underflows
    for cutoff in (1000.0, 710.0):
        with pytest.raises(ConfigError, match="tail mass"):
            truncate_gamma(GammaSubordinator(1.0), cutoff)


def test_gamma_spec_validation():
    with pytest.raises(ValueError):
        GammaSubordinator(0.0)
    with pytest.raises(ValueError):
        GammaSubordinator(-1.0)
    # the least rate is accepted, and the rates below it, a subnormal one
    # included, are ConfigErrors
    assert GammaSubordinator(_MIN_RATE).rate == _MIN_RATE
    for rate in (math.nextafter(_MIN_RATE, 0.0), 1e-200, 5e-324):
        with pytest.raises(ConfigError,
                           match=f"rate must be at least {_MIN_RATE}"):
            GammaSubordinator(rate)


# ---------------------------------------------------------------------------
# exact-increment sampling
# ---------------------------------------------------------------------------

def _gamma_steps(spec, h, n, stream):
    return make_step_sampler(spec, h)(RngStream(SEED, stream).generator(), n)


def test_increment_sums_follow_gamma_law():
    # increments over [k, k+1) summed in blocks of 16 sub-steps are unit-time
    # marginals; the KS test against the marginal law must not reject
    n_paths, per = 10_000, 16
    steps = _gamma_steps(GammaSubordinator(1.0), 1.0 / per, n_paths * per, 1)
    sums = steps[:, 0].reshape(n_paths, per).sum(axis=1)
    assert np.all(steps >= 0)
    pvalue = stats.kstest(sums, stats.gamma(a=1.0, scale=1.0).cdf).pvalue
    assert pvalue > 0.01, f"KS rejected the unit-time marginal law: p={pvalue:.4f}"


def test_increment_mean_matches_density_mean():
    steps = _gamma_steps(GammaSubordinator(1.0), 1.0, 1000, 2)
    dens = stats.gamma(a=1.0, scale=1.0).pdf
    mean_oracle = integrate.quad(lambda y: y * dens(y), 0.0, np.inf)[0]
    se = float(steps.std(ddof=1) / math.sqrt(len(steps)))
    _assert_close(float(steps.mean()), mean_oracle, 3 * se, "unit increment mean")


def test_zero_length_horizon_gives_empty_series():
    assert _gamma_steps(GammaSubordinator(1.0), 0.1, 0, 3).shape == (0, 1)
    trunc = truncate_gamma(GammaSubordinator(1.0), 0.05)
    events = sample_jump_events(trunc, 0.0, RngStream(SEED, 3))
    assert len(events.times) == 0
    assert step_sums(np.array([0.0]), events).shape == (1, 0, 1)


def test_increments_bitwise_reproducible():
    spec = GammaSubordinator(1.0)
    a = _gamma_steps(spec, 0.1, 50, 7)
    b = _gamma_steps(spec, 0.1, 50, 7)
    c = _gamma_steps(spec, 0.1, 50, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_grid_validation():
    spec = GammaSubordinator(1.0)
    trunc = truncate_gamma(spec, 0.05)
    for h in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ConfigError, match="step must be positive"):
            make_step_sampler(spec, h)
    for horizon in (-1.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="horizon must be nonnegative"):
            sample_jump_events(trunc, horizon, RngStream(SEED, 4))


# ---------------------------------------------------------------------------
# truncated measure and jump decomposition
# ---------------------------------------------------------------------------

def test_truncate_gamma_closed_forms():
    spec = GammaSubordinator(1.0)
    trunc = truncate_gamma(spec, 0.1)
    _assert_close(trunc.restricted_mass, special.exp1(0.1), 1e-12)
    _assert_close(trunc.compensator, 1.0 - math.exp(-0.1), 1e-12)
    # value quoted to five digits: (1 - e^{-0.1}) / 1
    _assert_close(trunc.compensator, 0.09516, 1e-5)
    # equality and hashing read the cutoff, mass and drift, not the tables
    # built from them
    assert isinstance(trunc, TruncatedMeasure)
    assert trunc == truncate_gamma(spec, 0.1)
    assert hash(trunc) == hash(truncate_gamma(spec, 0.1))
    assert trunc != truncate_gamma(spec, 0.2)
    assert trunc != truncate_gamma(GammaSubordinator(2.0), 0.1)
    with pytest.raises(ValueError):
        truncate_gamma(spec, 0.0)


def _scipy_quad(f, a, b):
    return integrate.quad(f, a, b, epsabs=1e-10, epsrel=1e-10, limit=400)[0]


def _gamma_density(rate):
    """The Gamma jump density exp(-rate*y)/y on y > 0."""
    return lambda y: math.exp(-rate * y) / y


def test_truncated_measure_quadratures_match_scipy():
    # mass and compensator against QUADPACK integrals of the jump density
    # exp(-2y)/y
    measure = truncate_gamma(GammaSubordinator(2.0), 0.05)
    density = _gamma_density(2.0)
    mass = _scipy_quad(density, 0.05, np.inf)
    _assert_close(measure.restricted_mass, mass, 1e-10 * mass, "mass")
    drift = _scipy_quad(lambda y: y * density(y), 0.0, 0.05)
    _assert_close(measure.compensator, drift, 1e-12 * drift, "compensator")


def test_truncated_measure_generic_matches_gamma_tables():
    # the inverse-CDF table built from E1 values matches the CDF of the
    # restricted density integrated by quadrature
    measure = truncate_gamma(GammaSubordinator(1.0), 0.1)
    density = _gamma_density(1.0)
    ys, cdf = measure.ys, measure.cdf
    total = _scipy_quad(density, ys[0], ys[-1])
    for k in (1, _TABLE_NODES // 4, _TABLE_NODES // 2, _TABLE_NODES - 2):
        by_quad = _scipy_quad(density, ys[0], ys[k]) / total
        _assert_close(cdf[k], by_quad, 1e-10, f"cdf node {k}")
    assert cdf[0] == 0.0 and cdf[-1] == 1.0


def test_truncated_measure_validation():
    measure = truncate_gamma(GammaSubordinator(1.0), 0.1)
    with pytest.raises(ValueError):
        truncate_gamma(GammaSubordinator(1.0), -0.1)
    with pytest.raises(ValueError):
        replace(measure, cutoff=-0.1)
    with pytest.raises(ValueError):
        # a measure with no mass above the cutoff has no jumps to draw
        replace(measure, restricted_mass=0.0)
    with pytest.raises(ValueError):
        replace(measure, compensator=-1e-3)
    # np.interp needs increasing sizes and a CDF from 0 to 1
    for ys, cdf in ((measure.ys[::-1], measure.cdf),
                    (measure.ys, 0.5 * measure.cdf),
                    (measure.ys, measure.cdf[::-1]),
                    (measure.ys[:-1], measure.cdf),
                    (measure.ys[:1], measure.cdf[:1])):
        with pytest.raises(ValueError, match="increasing table"):
            replace(measure, ys=ys, cdf=cdf)
    assert replace(measure) == measure


def test_truncated_sampler_mean_and_support():
    trunc = truncate_gamma(GammaSubordinator(1.0), 0.05)
    sizes = trunc.sample_sizes(RngStream(SEED, 6).generator(), 20_000)
    assert np.all(sizes >= 0.05 * (1 - 1e-9))
    mean_exact = math.exp(-0.05) / trunc.restricted_mass
    se = sizes.std(ddof=1) / math.sqrt(len(sizes))
    _assert_close(sizes.mean(), mean_exact, 4 * se, "restricted mean")


def test_jump_events_exceed_cutoff():
    trunc = truncate_gamma(GammaSubordinator(1.0), 0.1)
    events = sample_jump_events(trunc, 40.0, RngStream(SEED, 9))
    assert np.all(events.sizes > 0.1 * (1 - 1e-9))
    assert np.all(np.diff(events.times) >= 0)
    assert np.all((events.times >= 0) & (events.times <= 40.0))
    lam = trunc.restricted_mass * 40.0
    assert abs(len(events.times) - lam) <= 5 * math.sqrt(lam)


def _events_alone(trunc, horizon, stream):
    # the per-stream sampler the jump table replaced, kept as its reference
    gen = stream.generator()
    n = int(gen.poisson(trunc.restricted_mass * horizon))
    times = np.sort(gen.uniform(0.0, horizon, size=n))
    return times, trunc.sample_sizes(gen, n)[:, None]


def test_jump_table_rows_match_each_stream_alone():
    # a mean of 0.56 jumps per row: rows without jumps first, in the middle
    # and last, next to rows of several
    trunc = truncate_gamma(GammaSubordinator(1.0), 0.5)
    streams = path_streams(SEED, 16, 12)
    table = sample_jump_events(trunc, 1.0, *streams)
    counts = table.counts.tolist()
    assert counts[0] == counts[-1] == 0 and 0 in counts[1:-1]
    assert max(counts) >= 2 and len(table.times) == sum(counts)
    assert table.compensator.tobytes() == np.array([trunc.compensator]).tobytes()
    grid = np.linspace(0.0, 1.0, 5)
    sums = step_sums(grid, table)
    start = 0
    for i, stream in enumerate(streams):
        rows = slice(start, start + counts[i])
        start += counts[i]
        want_t, want_z = _events_alone(trunc, 1.0, stream)
        alone = sample_jump_events(trunc, 1.0, stream)
        for t, z in ((table.times[rows], table.sizes[rows]),
                     (alone.times, alone.sizes)):
            assert t.tobytes() == want_t.tobytes()
            assert z.shape == want_z.shape and z.tobytes() == want_z.tobytes()
        assert sums[i].tobytes() == step_sums(grid, alone)[0].tobytes()


def test_jump_table_validation():
    trunc = truncate_gamma(GammaSubordinator(1.0), 0.5)
    with pytest.raises(ConfigError, match="at least one stream"):
        sample_jump_events(trunc, 1.0)
    comp = np.zeros(1)
    for times, sizes, counts in (
            (np.zeros(2), np.zeros((2, 1)), np.array([1])),
            (np.zeros(2), np.zeros((2, 1)), np.array([3, -1])),
            (np.zeros(2), np.zeros((2, 1)), np.array([1.0, 1.0])),
            (np.zeros(2), np.zeros((2, 2)), np.array([2])),
            (np.zeros(2), np.zeros(2), np.array([2])),
            (np.zeros((2, 1)), np.zeros((2, 1)), np.array([2])),
            (np.array([0.5, 0.2]), np.zeros((2, 1)), np.array([2])),
            (np.array([0.5, 0.2, 0.1]), np.zeros((3, 1)), np.array([1, 2])),
            (np.array([0.5, np.nan]), np.zeros((2, 1)), np.array([2]))):
        with pytest.raises(ConfigError, match="jump table"):
            JumpEvents(times, sizes, counts, comp)
    # a later row may start before the row above it ends
    JumpEvents(np.array([0.5, 0.2, 0.3]), np.zeros((3, 1)), np.array([1, 2]),
               comp)


def test_gamma_events_require_truncation():
    with pytest.raises(ValueError, match="truncate"):
        sample_jump_events(GammaSubordinator(1.0), 1.0, RngStream(SEED, 10))


def test_increments_aggregate_the_event_set():
    # the per-interval sums plus the compensator drift reproduce the event
    # sum plus the compensator over the horizon
    trunc = truncate_gamma(GammaSubordinator(1.0), 0.05)
    grid = np.linspace(0.0, 8.0, 33)
    events = sample_jump_events(trunc, 8.0, RngStream(SEED, 11))
    sums = step_sums(grid, events)[0]
    assert sums.shape == (32, 1)
    assert len(events.times) > 0
    for k in range(32):
        inside = (events.times >= grid[k]) & (events.times < grid[k + 1])
        _assert_close(sums[k, 0], events.sizes[inside].sum(), 1e-12)
    total = float((sums + events.compensator * np.diff(grid)[:, None]).sum())
    expected = float(events.sizes.sum()) + trunc.compensator * 8.0
    _assert_close(total, expected, 1e-12 * max(1.0, abs(expected)))


def test_decomposition_displacement_matches_exact_mean():
    # total displacement of the jump decomposition over [0, T] agrees with
    # the exact-mode mean T/rate within Monte Carlo error
    spec = GammaSubordinator(1.0)
    trunc = truncate_gamma(spec, 0.01)
    horizon, n_paths = 50.0, 200
    totals = np.empty(n_paths)
    for k in range(n_paths):
        ev = sample_jump_events(trunc, horizon, RngStream(SEED, 100 + k))
        totals[k] = ev.sizes.sum() + trunc.compensator * horizon
    se = totals.std(ddof=1) / math.sqrt(n_paths)
    _assert_close(totals.mean(), horizon / spec.rate, 3 * se,
                  "decomposition displacement")


def test_empirical_cf_within_mc_bound():
    spec = GammaSubordinator(1.0)
    n = 100_000
    samples = marginal_samples(spec, 1.0, n, RngStream(SEED, 12))
    bound = 3.0 / math.sqrt(n)
    for u in (1.0, 2.0, 4.0):
        emp = np.exp(1j * u * samples).mean()
        _assert_close(emp, characteristic_function(spec, u, 1.0), bound,
                      f"empirical cf u={u}")


def test_step_sampler_matches_increment_law():
    spec = GammaSubordinator(2.0)
    h, n = 0.25, 20_000
    draw = make_step_sampler(spec, h)
    steps = draw(RngStream(SEED, 13).generator(), n)[:, 0]
    se = steps.std(ddof=1) / math.sqrt(n)
    _assert_close(steps.mean(), h / spec.rate, 4 * se, "gamma step mean")

    trunc = truncate_gamma(GammaSubordinator(1.0), 0.02)
    draw_t = make_step_sampler(trunc, h)
    steps_t = draw_t(RngStream(SEED, 14).generator(), n)[:, 0]
    # mean of jumps above the cutoff plus compensator drift is the full mean
    se_t = steps_t.std(ddof=1) / math.sqrt(n)
    _assert_close(steps_t.mean(), h * 1.0, 4 * se_t, "truncated step mean")
    with pytest.raises(ValueError):
        make_step_sampler(spec, 0.0)


# ---------------------------------------------------------------------------
# equidistribution of the wrapped marginal
# ---------------------------------------------------------------------------

def test_circle_law_distance_decays():
    spec = GammaSubordinator(1.0)
    assert circle_law_distance(spec, 0.0, 500, RngStream(SEED, 16)) == 1.0
    d = [circle_law_distance(spec, t, 4000, RngStream(SEED, 17))
         for t in (1.0, 10.0, 100.0)]
    assert d[0] > d[1] > d[2], f"distances not decreasing: {d}"
    far = circle_law_distance(spec, 200.0, 100_000, RngStream(SEED, 18))
    assert far < 0.02, f"wrapped law still far from uniform: {far:.4f}"
    with pytest.raises(ValueError):
        circle_law_distance(spec, 1.0, 50, RngStream(SEED, 19))


def test_circle_law_distance_is_the_kstest_statistic():
    spec = GammaSubordinator(1.0)
    for seed, t, n in ((SEED, 0.5, 100), (SEED + 1, 1.0, 1001),
                       (SEED + 2, 10.0, 4000), (SEED + 3, 0.0, 250)):
        angles = np.mod(marginal_samples(spec, t, n, RngStream(seed, 1)),
                        2.0 * math.pi)
        ref = stats.kstest(angles, stats.uniform(loc=0.0,
                                                 scale=2.0 * math.pi).cdf)
        assert circle_law_distance(spec, t, n, RngStream(seed, 1)) == \
            ref.statistic


# ---------------------------------------------------------------------------
# argument checks
# ---------------------------------------------------------------------------

_TRUNCATED = truncate_gamma(GammaSubordinator(1.0), 0.05)

_POSITIVE_FINITE_SITES = {
    "tail_mass cutoff": lambda v: GammaSubordinator(1.0).tail_mass(v),
    "truncate_gamma cutoff": lambda v: truncate_gamma(GammaSubordinator(1.0),
                                                      v),
    "TruncatedMeasure cutoff": lambda v: replace(_TRUNCATED, cutoff=v),
    "TruncatedMeasure restricted_mass": lambda v: replace(
        _TRUNCATED, restricted_mass=v),
}

_NONNEGATIVE_FINITE_SITES = {
    "TruncatedMeasure compensator": lambda v: replace(_TRUNCATED,
                                                      compensator=v),
    "sample_jump_events horizon": lambda v: sample_jump_events(
        _TRUNCATED, v, RngStream(SEED, 20)),
    "characteristic_function t": lambda v: characteristic_function(
        GammaSubordinator(1.0), 1.0, v),
    "marginal_samples t": lambda v: marginal_samples(
        GammaSubordinator(1.0), v, 10, RngStream(SEED, 21)),
}


@pytest.mark.parametrize("site", sorted(_POSITIVE_FINITE_SITES))
@pytest.mark.parametrize("value", [10 ** 400, math.nan, math.inf, -math.inf,
                                   0.0, -1, "abc", None])
def test_positive_finite_arguments_raise_config_error(site, value):
    # an integer too large for a float is as unusable as inf
    with pytest.raises(ConfigError, match="must be positive and finite"):
        _POSITIVE_FINITE_SITES[site](value)


@pytest.mark.parametrize("value", [10 ** 400, math.nan, math.inf, -math.inf,
                                   0.0, -1, "abc", None])
def test_gamma_rate_outside_its_range_raises_config_error(value):
    with pytest.raises(ConfigError,
                       match=f"rate must be at least {_MIN_RATE} and finite"):
        GammaSubordinator(value)


@pytest.mark.parametrize("site", sorted(_NONNEGATIVE_FINITE_SITES))
@pytest.mark.parametrize("value", [10 ** 400, math.nan, math.inf, -math.inf,
                                   -1, "abc", None])
def test_nonnegative_finite_arguments_raise_config_error(site, value):
    with pytest.raises(ConfigError, match="must be nonnegative and finite"):
        _NONNEGATIVE_FINITE_SITES[site](value)


def test_large_integer_arguments_are_numbers():
    assert GammaSubordinator(2 ** 64).rate == 2 ** 64
    assert GammaSubordinator(1.0).tail_mass(2 ** 64) == 0.0


class _NoDraws:
    def generator(self):
        raise AssertionError("drew from the stream before checking the count")


@pytest.mark.parametrize("call", [
    lambda rng: circle_law_distance(GammaSubordinator(1.0), 1.0, 150.5, rng),
    lambda rng: circle_law_distance(GammaSubordinator(1.0), 1.0, 1e6, rng),
    lambda rng: circle_law_distance(GammaSubordinator(1.0), 1.0, True, rng),
    lambda rng: circle_law_distance(GammaSubordinator(1.0), 1.0, "200", rng),
    lambda rng: marginal_samples(GammaSubordinator(1.0), 1.0, -3, rng),
    lambda rng: marginal_samples(GammaSubordinator(1.0), 1.0, 2.0, rng),
    lambda rng: marginal_samples(GammaSubordinator(1.0), 0.0, 2.5, rng),
    lambda rng: marginal_samples(GammaSubordinator(1.0), 1.0, False, rng),
])
def test_counts_must_be_nonnegative_integers(call):
    with pytest.raises(ConfigError, match="must be a nonnegative integer"):
        call(_NoDraws())


def test_package_runs_with_scipy_refused(tmp_path):
    # scipy is a test dependency only: with every scipy import refused, the
    # package imports, builds the preset and its averaged field, draws the
    # Gamma tail, runs a 4-path scheme comparison and the KS distance, and
    # `folevy check` passes, with the same numbers as in this process
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(folevy.__file__)))
    code = (
        "import sys\n"
        "class RefuseScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError('scipy refused: ' + name)\n"
        "sys.meta_path.insert(0, RefuseScipy())\n"
        "import folevy, folevy.cli\n"
        "preset = folevy.make_cylinder_preset()\n"
        "folevy.averaged_field(preset.chart, preset.fields)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        "print(repr(folevy.truncate_gamma(preset.driver, 0.002)"
        ".restricted_mass))\n"
        "print(repr(preset.driver.tail_mass(0.05)))\n"
        "print(repr(folevy.scheme_agreement(preset.fields, preset.chart, "
        "preset.driver, [1.0, 0.0, 0.0], levels=((0.08, 0.04),), "
        "n_paths=4, master_seed=5).l2_gaps.tolist()))\n"
        "print(repr(folevy.circle_law_distance(preset.driver, 1.0, 200, "
        "folevy.RngStream(5, 1))))\n"
        "sys.exit(folevy.cli.main(['check', '--out', sys.argv[1]]))\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "runs")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    preset = folevy.make_cylinder_preset()
    assert out[:5] == [
        "[]",
        repr(truncate_gamma(preset.driver, 0.002).restricted_mass),
        repr(preset.driver.tail_mass(0.05)),
        repr(folevy.scheme_agreement(
            preset.fields, preset.chart, preset.driver, [1.0, 0.0, 0.0],
            levels=((0.08, 0.04),), n_paths=4,
            master_seed=5).l2_gaps.tolist()),
        repr(circle_law_distance(preset.driver, 1.0, 200, RngStream(5, 1))),
    ]

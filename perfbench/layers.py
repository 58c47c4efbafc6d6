"""Per-layer microbenchmarks, each timed from outside through public calls.

Kernel figures are marginal costs per path-step: the time of an ``S``-step
call minus a 1-step call, over ``width * (S - 1)``, so stream set-up and
the first draw chunk do not count.  Every probe runs once per round, and
the rounds run one after another, so each probe's rounds spread over the
whole measurement.  An absolute figure is the fastest round: the shared
host slows a core by up to 2x for seconds at a time, and the fastest round
is the one it slowed least.  A differential figure (``drift``,
``contains``, ``frozen``, ``pair``: probe a minus probe b) is a's fastest
round times the median over rounds of the share of a's time that b did not
take in the same round; a slow stretch scales both probes of a round
alike, so the share carries little of it.  All inputs use fixed seeds.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

SEED = 990001
EPS = 0.05
H = 0.005                   # the default step at EPS, also used at eps = 0


def _noop(*args):
    pass


def _per_call(func, n):
    """Mean seconds per call of func() over n calls."""
    start = perf_counter()
    for _ in range(n):
        func()
    return (perf_counter() - start) / n


def _kernel_s(fl, fields, driver, x0, width, steps, eps, **kw):
    cfg = fl.IntegratorConfig(step_h=H)
    streams = fl.path_streams(SEED, 0, width)
    start = perf_counter()
    fl.integrate_grid_ensemble(fields, driver, x0, steps * H, eps, cfg,
                               streams, **kw)
    return perf_counter() - start


def _step_ns(fl, fields, driver, x0, width, steps, eps, **kw):
    """Marginal ns per path-step of one kernel configuration."""
    full = _kernel_s(fl, fields, driver, x0, width, steps, eps, **kw)
    one = _kernel_s(fl, fields, driver, x0, width, 1, eps, **kw)
    return (full - one) / (width * (steps - 1)) * 1e9


def _kernel_probes(fl, preset, scale):
    """marcus.* probes: the width ladder and the w64 differential runs,
    each returning ns per path-step."""
    f, drv, contains = preset.fields, preset.driver, preset.chart.contains
    x0 = np.array([1.0, 0.0, 0.0])
    inside = np.tile(x0, (64, 1))
    half_out = inside.copy()
    half_out[::2] = [6.0, 0.0, 0.0]        # outside r_max: exits at step 1
    s64 = max(2, int(2400 * scale))

    def run(x, width, steps, eps, **kw):
        return lambda: _step_ns(fl, f, drv, x, width, steps, eps, **kw)

    probes = {
        "jump": run(x0, 64, s64, 0.0),
        "bare": run(x0, 64, s64, EPS),
        "contains": run(x0, 64, s64, EPS, contains=contains),
        "pair": run(x0, 64, s64, EPS, pair_eps=0.0),
        "inside": run(inside, 64, s64, EPS, contains=contains),
        "frozen": run(half_out, 64, s64, EPS, contains=contains),
    }
    for w, s in ((64, 1200), (256, 600), (1024, 400), (4096, 400)):
        probes[f"w{w}"] = run(x0, w, max(2, int(s * scale)), EPS,
                              contains=contains, on_step=_noop)
    return probes


def _call_probes(fl, preset, scale):
    """Per-call probes of marcus, drivers, rng, geometry and averaging,
    each returning the figure in its metric's unit."""
    f, chart, drv = preset.fields, preset.chart, preset.driver

    def n(base):
        return max(10, int(base * scale))

    probes = {}
    x, z = np.array([1.0, 0.0, 0.0]), np.array([0.3])
    probes["marcus.jump_flow_us"] = lambda: 1e6 * _per_call(
        lambda: fl.jump_flow(f, x, z), n(2000))
    # the kernel hands the observer its own arrays, so the hook costs one
    # call per step, shared by the block's paths
    states, active = np.zeros((64, 3)), np.ones(64, dtype=bool)
    probes["marcus.observer_ns.w64"] = lambda: 1e9 / 64 * _per_call(
        lambda: _noop(1, H, states, active), n(20000))

    sampler = fl.drivers.make_step_sampler(drv, H)
    probes["drivers.gamma_draw_ns"] = lambda: 1e9 / 4096 * _per_call(
        lambda: sampler(fl.RngStream(SEED).generator(), 4096), n(100))

    trunc = fl.truncate_gamma(drv, 0.002)
    ev_streams = fl.path_streams(SEED, 0, n(300))

    def events():
        start = perf_counter()
        for stream in ev_streams:
            fl.sample_jump_events(trunc, 2.0, stream)
        return 1e6 * (perf_counter() - start) / len(ev_streams)

    probes["drivers.events_us"] = events
    probes["rng.generator_us"] = lambda: 1e6 * _per_call(
        lambda: fl.RngStream(SEED, 7).generator(), n(500))

    rng = np.random.default_rng(SEED)
    for w, calls in ((64, 2000), (1024, 300)):
        angle = rng.uniform(0.0, 2.0 * np.pi, w)
        pts = np.column_stack([np.cos(angle), np.sin(angle),
                               rng.uniform(-1.0, 1.0, w)])
        zs = rng.gamma(H, size=(w, 1))
        probes[f"geometry.rotate_ns.w{w}"] = (
            lambda pts=pts, zs=zs, w=w, c=n(calls): 1e9 / w * _per_call(
                lambda: f.exact_jump_flow(pts, zs), c))
        probes[f"geometry.contains_ns.w{w}"] = (
            lambda pts=pts, w=w, c=n(calls): 1e9 / w * _per_call(
                lambda: chart.contains(pts), c))
        if w == 64:
            probes["geometry.perturbation_ns.w64"] = (
                lambda pts=pts, c=n(calls): 1e9 / 64 * _per_call(
                    lambda: f.perturbation(pts), c))

    avg = fl.averaged_field(chart, f)
    v = np.array([1.0, 0.0])
    probes["averaging.field_eval_us"] = lambda: 1e6 * _per_call(
        lambda: avg.evaluate(v), n(500))
    probes["averaging.ode_s"] = lambda: _per_call(
        lambda: fl.solve_averaged_ode(avg, v, 1.0), 1)
    return probes


def layer_metrics(fl, preset, scale, rounds):
    """Every per-layer microbenchmark metric, from ``rounds`` rounds."""
    kernel = _kernel_probes(fl, preset, scale)
    calls = _call_probes(fl, preset, scale)
    probes = {**kernel, **calls}
    samples = {k: [] for k in probes}
    for _ in range(rounds):
        for k, probe in probes.items():
            samples[k].append(probe())

    def extra(a, b):
        return min(samples[a]) * median(
            1.0 - y / x for x, y in zip(samples[a], samples[b]))

    out = {k: min(samples[k]) for k in calls}
    out.update({f"marcus.step_ns.{w}": min(samples[w])
                for w in ("w64", "w256", "w1024", "w4096")})
    out.update({
        "marcus.jump_ns.w64": min(samples["jump"]),
        "marcus.drift_ns.w64": extra("bare", "jump"),
        "marcus.contains_ns.w64": extra("contains", "bare"),
        "marcus.frozen_ns.w64": extra("frozen", "inside"),
        "marcus.pair_ns.w64": extra("pair", "bare"),
    })
    return out

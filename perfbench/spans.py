"""Spans around the calls into each folevy layer, recorded from outside.

For a traced run the public names one folevy module imports from another
(``integrate_grid_ensemble``, ``map_blocks``, ``path_streams``, ...) are
rebound to timing wrappers, and the chart and field callables are wrapped
through ``dataclasses.replace``.  Nothing in ``src/`` changes; the original
names are restored when the run ends.

Coarse calls (the experiment, ``map_blocks``, block workers, kernel calls,
the averaged ODE) become spans of their own.  Per-step callables run
thousands of times per kernel call, so they are summed as a count and a
total time per enclosing span, which keeps memory bounded.  Every call's
self time (its duration minus its children's) is added to the layer key it
belongs to; the keys partition the traced wall time.

Untraced runs rebind only the coarse calls and wrap only the exact jump
flow and the perturbation field, in wrappers that read the clock
(``Marks``, see quiet_wall).
"""

from __future__ import annotations

import dataclasses
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# layer keys; each becomes the per-layer metric "<key>_share"
KEYS = ("experiments.self", "experiments.observer", "marcus.kernel_self",
        "geometry.contains", "geometry.flow", "geometry.perturbation",
        "drivers.sampler", "averaging.ode", "parallel.self", "rng.streams")


class Tracer:
    """Self time per layer key, coarse spans, and the kernel's live and
    computed path-steps, for one traced experiment call."""

    def __init__(self):
        self.spans = []            # coarse spans, in start order
        self.self_s = dict.fromkeys(KEYS, 0.0)
        self.live_steps = 0
        self.computed_steps = 0
        self.blocks = 0
        self._frames = []          # [child seconds] per open call
        self._open = []            # open coarse span records

    def wrap(self, name, key, func, coarse=False):
        """Timing wrapper for func, attributed to layer key."""

        def traced(*args, **kwargs):
            frame = [0.0]
            self._frames.append(frame)
            span = None
            if coarse:
                span = {"id": len(self.spans), "name": name,
                        "parent": self._open[-1]["id"] if self._open else None,
                        "calls": {}}
                self.spans.append(span)
                self._open.append(span)
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = perf_counter()
                self._frames.pop()
                dur = end - start
                self.self_s[key] += dur - frame[0]
                if self._frames:
                    self._frames[-1][0] += dur
                if coarse:
                    self._open.pop()
                    span.update(start=start, end=end)
                elif self._open:
                    agg = self._open[-1]["calls"].setdefault(name, [0, 0.0])
                    agg[0] += 1
                    agg[1] += dur

        return traced

    # --- wrappers that also look at arguments or results -------------------

    def kernel(self, func):
        def integrate_grid_ensemble(*args, on_step=None, on_step_pair=None,
                                    **kwargs):
            if on_step is not None:
                on_step = self.wrap("on_step", "experiments.observer", on_step)
            if on_step_pair is not None:
                on_step_pair = self.wrap("on_step_pair",
                                         "experiments.observer", on_step_pair)
            res = func(*args, on_step=on_step, on_step_pair=on_step_pair,
                       **kwargs)
            done = np.where(np.isfinite(res.exit_times),
                            np.rint(res.exit_times / res.h), res.n_steps)
            self.live_steps += int(done.sum())
            self.computed_steps += len(done) * res.n_steps
            return res

        return self.wrap("integrate_grid_ensemble", "marcus.kernel_self",
                         integrate_grid_ensemble, coarse=True)

    def map_blocks(self, func):
        def map_blocks(worker, *args, **kwargs):
            def block(a, b):
                self.blocks += 1
                return worker(a, b)
            return func(self.wrap("block", "experiments.self", block,
                                  coarse=True), *args, **kwargs)

        return self.wrap("map_blocks", "parallel.self", map_blocks,
                         coarse=True)

    def step_sampler(self, func):
        def make_step_sampler(*args, **kwargs):
            return self.wrap("draw", "drivers.sampler", func(*args, **kwargs))

        return self.wrap("make_step_sampler", "drivers.sampler",
                         make_step_sampler)

    def context(self, ctx):
        """Copy of a workload context whose chart and field callables and
        averaged-field evaluations are traced."""
        preset = ctx["preset"]
        chart = dataclasses.replace(preset.chart, contains=self.wrap(
            "contains", "geometry.contains", preset.chart.contains))
        fields = dataclasses.replace(
            preset.fields,
            exact_jump_flow=self.wrap("exact_jump_flow", "geometry.flow",
                                      preset.fields.exact_jump_flow),
            perturbation=self.wrap("perturbation", "geometry.perturbation",
                                   preset.fields.perturbation))
        out = dict(ctx, preset=dataclasses.replace(preset, chart=chart,
                                                   fields=fields))
        if "avg" in ctx:
            out["avg"] = dataclasses.replace(ctx["avg"], _evaluate=self.wrap(
                "evaluate", "averaging.ode", ctx["avg"]._evaluate))
        return out

    # --- results ----------------------------------------------------------

    def metrics(self):
        """Each layer's share of the traced wall time, which the self times
        partition, plus that wall time and the live-step share."""
        wall_s = sum(self.self_s.values())
        out = {f"{k}_share": self.self_s[k] / wall_s for k in KEYS}
        out["trace.wall_s"] = wall_s
        # a workload that never runs the grid kernel wastes no rows
        out["marcus.live_step_share"] = (
            self.live_steps / self.computed_steps if self.computed_steps
            else 1.0)
        return out


class Marks:
    """Clock readings at folevy's coarse public calls and at every call of
    the model's exact jump flow and perturbation field, for untraced timing.

    ``times`` holds the readings and ``codes`` what each marks: ``c`` on
    entry to and ``-c`` on exit from the coarse call ``CALLS[c - 1]``
    (blocks, kernel calls, a ``scheme`` path's jump events, the averaged
    ODE), and ``FIELDS[name]`` on entry to that callable of the fields the
    workload hands in: the kernel calls ``exact_jump_flow`` once per step
    and ``scheme`` once per jump or grid step, and every drift evaluation
    (four per RK4 step) calls ``perturbation`` when eps is not 0.  The
    readings cut an experiment call into segments of one drift evaluation
    or less than one step.  Every input derives from the seed, so segment i
    does the same work in every call.
    """

    CALLS = ("block", "integrate_grid_ensemble", "sample_jump_events",
             "solve_averaged_ode")
    FIELDS = {"exact_jump_flow": 100, "perturbation": 101}

    def __init__(self):
        self.times = array("d")
        self.codes = array("b")

    def around(self, name, func):
        code = self.CALLS.index(name) + 1
        mark, note = self.times.append, self.codes.append

        def marked(*args, **kwargs):
            mark(perf_counter())
            note(code)
            try:
                return func(*args, **kwargs)
            finally:
                mark(perf_counter())
                note(-code)

        return marked

    def _entry(self, code, func):
        mark, note = self.times.append, self.codes.append

        def marked(*args):
            mark(perf_counter())
            note(code)
            return func(*args)

        return marked

    def context(self, ctx):
        """Copy of a workload context whose exact jump flow and
        perturbation mark each call."""
        fields = ctx["preset"].fields
        fields = dataclasses.replace(fields, **{
            name: self._entry(code, getattr(fields, name))
            for name, code in self.FIELDS.items()
            if getattr(fields, name) is not None})
        return dict(ctx, preset=dataclasses.replace(ctx["preset"],
                                                    fields=fields))

    def segments(self, start, end):
        """Durations of the segments the readings cut [start, end] into,
        as a compact array."""
        edges = array("d", [start])
        edges.extend(self.times)
        edges.append(end)
        return array("d", (b - a for a, b in zip(edges, edges[1:])))


def fastest(cuts):
    """Each segment's fastest duration over pieces of work cut into the
    same segments (the same codes; see Marks and child.setup_cut), with
    the codes of the cut."""
    codes = list(cuts[0]["codes"])
    if any(list(c["codes"]) != codes for c in cuts):
        raise ValueError("the work was cut into different segments")
    return {"segments": [min(seg) for seg in
                         zip(*(c["segments"] for c in cuts))],
            "codes": codes}


def quiet_wall(cuts):
    """Wall time of a piece of work (an experiment call, a set-up) on a
    core no other tenant slows: the sum over segments of each segment's
    fastest duration.  Segment i does the same work in every cut, and on a
    host shared with other tenants a core runs about 1.8x slower in moments
    of about a millisecond, so the fastest duration of a short segment is
    one the host did not slow."""
    return sum(fastest(cuts)["segments"])


@contextmanager
def _rebound(patches):
    """Set each (module, name, value) for the duration, then restore."""
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    try:
        for mod, name, new in patches:
            setattr(mod, name, new)
        yield
    finally:
        for mod, name, old in saved:
            setattr(mod, name, old)


@contextmanager
def marked(marks, fl, ctx):
    """Rebind folevy's cross-module names to wrappers that add readings to
    marks, restoring them on exit, and yield ctx with its exact jump flow
    and perturbation marked too."""
    ex, av = fl.experiments, fl.averaging
    kernel = marks.around("integrate_grid_ensemble",
                          fl.marcus.integrate_grid_ensemble)

    def map_blocks(worker, *args, **kwargs):
        return fl._parallel.map_blocks(marks.around("block", worker), *args,
                                       **kwargs)

    with _rebound([
        (ex, "integrate_grid_ensemble", kernel),
        (av, "integrate_grid_ensemble", kernel),
        (ex, "map_blocks", map_blocks),
        (av, "map_blocks", map_blocks),
        (ex, "sample_jump_events", marks.around("sample_jump_events",
                                                ex.sample_jump_events)),
        (ex, "solve_averaged_ode", marks.around("solve_averaged_ode",
                                                ex.solve_averaged_ode)),
    ]):
        yield marks.context(ctx)


@contextmanager
def installed(tracer, fl):
    """Rebind folevy's cross-module names to tracer wrappers, restoring
    them on exit."""
    ex, av, mc = fl.experiments, fl.averaging, fl.marcus
    kernel = tracer.kernel(mc.integrate_grid_ensemble)
    blocks = tracer.map_blocks(fl._parallel.map_blocks)
    streams = tracer.wrap("path_streams", "rng.streams", fl.rng.path_streams)
    patches = [
        (ex, "integrate_grid_ensemble", kernel),
        (av, "integrate_grid_ensemble", kernel),
        (ex, "map_blocks", blocks),
        (av, "map_blocks", blocks),
        (ex, "path_streams", streams),
        (av, "path_streams", streams),
        (ex, "jump_flow", tracer.wrap("jump_flow", "marcus.kernel_self",
                                      mc.jump_flow)),
        (ex, "_drift_rk4", tracer.wrap("_drift_rk4", "marcus.kernel_self",
                                       mc._drift_rk4)),
        (ex, "sample_jump_events", tracer.wrap(
            "sample_jump_events", "drivers.sampler", ex.sample_jump_events)),
        (ex, "solve_averaged_ode", tracer.wrap(
            "solve_averaged_ode", "averaging.ode", ex.solve_averaged_ode,
            coarse=True)),
        (mc, "make_step_sampler", tracer.step_sampler(mc.make_step_sampler)),
    ]
    with _rebound(patches):
        yield tracer


def span_tree(tracer):
    """Spans with times relative to the first span's start, for writing."""
    t0 = tracer.spans[0]["start"] if tracer.spans else 0.0
    return [dict(s, start=s["start"] - t0, end=s["end"] - t0)
            for s in tracer.spans]

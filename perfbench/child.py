"""One measurement in a fresh interpreter; prints one JSON line.

    python3 perfbench/child.py setup WORKLOAD SEED SIZE
    python3 perfbench/child.py rep   WORKLOAD SEED SIZE ANCHOR
    python3 perfbench/child.py trace WORKLOAD SEED SIZE

SEED is an integer or ``default`` (the calibration seed), SIZE ``full`` or
``tiny``.  ``setup`` sets up and reports the set-up cut at each module
import (see setup_cut).  ``rep`` sets up, runs the workload CALLS times
untraced and reports the set-up cut, the peak resident memory, a
fingerprint of the outputs and each segment's fastest duration over the
calls (see spans.Marks for the cut); with ANCHOR 1 it then checks the
workload exactly at the calibration seed.  ``trace`` runs the layer
microbenchmarks, then rounds of the workload untraced at one and two
threads and traced.
"""

import sys
from time import perf_counter

_START = perf_counter()
_IMPORTS = []               # (clock reading, module) at each module import


def _on_import(event, args, note=_IMPORTS.append, clock=perf_counter):
    if event == "import":
        note((clock(), args[0]))


sys.addaudithook(_on_import)

import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import workloads as W  # noqa: E402

OUT_DIR = os.path.join(W.ROOT, ".perfbench_out")
CALLS = 6                   # timed calls per ``rep`` interpreter


class Session:
    """The set-up a fresh interpreter does before the timed call: import
    folevy (through tools/calibrate.py), read the baselines and build the
    workload's preset and averaged field."""

    def __init__(self, name, seed, size):
        self.cal = W.load_calibrate()
        import folevy
        self.fl = folevy
        self.w = W.WORKLOADS[name]
        self.base = self.w.base(W.load_baselines())
        self.ctx = self.w.setup(folevy, self.base)
        self.ctx["x0"] = self.cal.X0
        self.cal_seed = getattr(self.cal, self.w.seed_name)
        self.seed = self.cal_seed if seed == "default" else int(seed)
        self.full = size == "full"
        self.n_paths = self.base["n_paths"] if self.full else self.w.tiny_paths

    def run(self, threads=1, ctx=None):
        start = perf_counter()
        res = self.w.run(self.fl, ctx or self.ctx, self.base,
                         self.w.grid(self.base), self.n_paths, self.seed,
                         threads)
        return res, perf_counter() - start

    def check(self, res):
        values, ses = self.w.values(res)
        exact = self.full and self.seed == self.cal_seed
        return W.gate(self.w, values, ses, self.w.reference(self.base),
                      exact=exact, statistical=self.full)

    def anchor(self):
        """Exact check of the workload at the calibration seed."""
        res = self.w.run(self.fl, self.ctx, self.base, self.w.grid(self.base),
                         self.base["n_paths"], self.cal_seed, 1)
        return [(label + " (anchor)", ok) for label, ok in
                W.gate(self.w, self.w.values(res)[0], None,
                       self.w.reference(self.base), exact=True,
                       statistical=False)]


def fingerprint(obj):
    """Hash of every array and number in a result dataclass, recursively."""
    h = hashlib.sha256()

    def feed(o):
        for f in dataclasses.fields(o):
            v = getattr(o, f.name)
            if dataclasses.is_dataclass(v):
                feed(v)
            elif hasattr(v, "tobytes"):
                h.update(f.name.encode() + v.tobytes())
            elif isinstance(v, (bool, int, float, str, type(None))):
                h.update(f"{f.name}={v!r}".encode())
    feed(obj)
    return h.hexdigest()


def timed_call(session, ctx=None):
    """Run the workload once on ctx (default the session's), single-threaded,
    with marks (see spans.Marks); returns the result and the segment
    durations with the mark codes."""
    from spans import Marks, marked

    marks = Marks()
    with marked(marks, session.fl, ctx or session.ctx) as marked_ctx:
        start = perf_counter()
        res, _ = session.run(ctx=marked_ctx)
        end = perf_counter()
    return res, {"segments": marks.segments(start, end),
                 "codes": marks.codes}


def setup_cut(end):
    """The set-up [_START, end] cut at each module import: the imports of
    folevy, numpy and scipy happen in the same order in every interpreter,
    so segment i does the same work in each."""
    imports = [(t, name) for t, name in _IMPORTS if t < end]
    edges = [_START] + [t for t, _ in imports] + [end]
    return {"segments": [b - a for a, b in zip(edges, edges[1:])],
            "codes": [name for _, name in imports]}


def rep(session, anchor):
    setup = setup_cut(perf_counter())
    from spans import fastest

    calls = [timed_call(session) for _ in range(CALLS)]
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref = fingerprint(calls[0][0])
    checks = session.check(calls[0][0])
    checks += [(f"call {i} bit-identical to call 0", fingerprint(res) == ref)
               for i, (res, _) in enumerate(calls[1:], 1)]
    if anchor and not (session.full and session.seed == session.cal_seed):
        checks += session.anchor()
    return {"setup": setup, "peak_rss_mib": rss_mib, "fingerprint": ref,
            "fastest": fastest([cut for _, cut in calls]),
            "path_steps": session.w.path_steps(session.base, session.n_paths),
            "checks": checks}


def trace(session, name):
    """Layer microbenchmarks, then rounds of the workload untraced at one
    and two threads and traced.  The 2-thread speed-up compares the
    fastest calls of each kind; shares and spans come from the fastest
    traced call."""
    import layers
    from spans import Tracer, installed, span_tree

    fl = session.fl
    full = session.full
    metrics = layers.layer_metrics(fl, fl.make_cylinder_preset(),
                                   scale=1.0 if full else 0.02,
                                   rounds=9 if full else 1)

    threads = min(2, len(os.sched_getaffinity(0)))
    ref, checks = None, []
    walls1, walls2, traced = [], [], []
    for r in range(3 if full else 1):
        res1, wall1 = session.run()
        walls1.append(wall1)
        if ref is None:
            ref = fingerprint(res1)
            checks += session.check(res1)
        res2, wall2 = session.run(threads=threads)
        walls2.append(wall2)
        tracer = Tracer()
        with installed(tracer, fl):
            experiment = tracer.wrap(name, "experiments.self", session.run,
                                     coarse=True)
            res_t, wall_t = experiment(ctx=tracer.context(session.ctx))
        traced.append((wall_t, tracer))
        checks.append((f"round {r}: {threads} threads bit-identical to 1",
                       fingerprint(res2) == ref))
        checks.append((f"round {r}: traced bit-identical to untraced",
                       fingerprint(res_t) == ref))

    wall_t, tracer = min(traced, key=lambda c: c[0])
    metrics.update(tracer.metrics())
    metrics["parallel.blocks"] = tracer.blocks
    metrics["parallel.speedup_2t"] = min(walls1) / min(walls2)

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{name}-{session.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": session.seed,
                   "wall_s": wall_t, "self_s": tracer.self_s,
                   "spans": span_tree(tracer)}, fh, indent=1)
    return {"metrics": metrics, "checks": checks}


def main(argv):
    mode, name, seed, size = argv[:4]
    session = Session(name, seed, size)
    if mode == "setup":
        out = {"setup": setup_cut(perf_counter())}
    elif mode == "rep":
        out = rep(session, argv[4] == "1")
    else:
        out = trace(session, name)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])

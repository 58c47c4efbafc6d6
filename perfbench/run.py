"""folevy benchmark: one calibration-prefix workload, measured end to end.

    python3 perfbench/run.py --workload compare --seed 1 --seconds 45 --trace 0

Untraced (``--trace 0``), rounds of fresh interpreters run while they fit
in ``--seconds`` (at least MIN_ROUNDS of them).  In each round, one
interpreter per cpu (LANES at most), all at once and each pinned to its
cpu, sets up and runs the workload child.CALLS times (the first also
checks the workload exactly at the calibration seed); then as many only
set up.  The marks on the coarse calls and the model's fields (see
spans.Marks) cut every call into the same segments, and the module imports
cut every set-up (see child.setup_cut).  The result line gives the median
peak memory and, as wall_s and setup_s, the call's and the set-up's time
on an unloaded core (see spans.quiet_wall).
Traced (``--trace 1``), one interpreter runs the layer microbenchmarks, then
rounds of the workload untraced at one and two threads and traced (see
child.trace), and the result line gives the per-layer metrics.
``--size tiny`` shrinks the path counts and microbenchmarks for the smoke
test.

Every run checks the outputs (see workloads.gate) and prints, as its last
line, one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median
from time import perf_counter

import workloads as W
from spans import quiet_wall

HERE = os.path.dirname(os.path.abspath(__file__))
LANES = 2                   # children at once, one per cpu, at most nproc
MIN_ROUNDS = 3
DEADLINE_S = 170.0          # the whole run, children included


def _children(jobs, deadline):
    """Run child.py once per (args, cpus) job, all at once, each pinned to
    its cpus; returns the JSON objects they printed last.  A fixed hash seed
    makes every child import the same modules in the same order (see
    child.setup_cut)."""
    procs = []
    try:
        for args, cpus in jobs:
            procs.append(subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"), *args],
                cwd=W.ROOT, env=dict(os.environ, PYTHONHASHSEED="0"),
                stdout=subprocess.PIPE, text=True,
                preexec_fn=lambda cpus=cpus: os.sched_setaffinity(0, cpus)))
        outs = []
        for proc in procs:
            out, _ = proc.communicate(
                timeout=max(0.0, deadline - perf_counter()))
            if proc.returncode:
                raise subprocess.CalledProcessError(proc.returncode,
                                                    proc.args)
            outs.append(json.loads(out.strip().splitlines()[-1]))
        return outs
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def untraced(workload, seed, seconds, size, deadline):
    """Fresh-interpreter repetitions and the end-to-end metrics."""
    lanes = sorted(os.sched_getaffinity(0))[:LANES]
    start = perf_counter()
    reps, setups = [], []
    # start another round while it should end within the seconds
    while (len(reps) < MIN_ROUNDS * len(lanes)
           or (perf_counter() - start) * (1 + len(lanes) / len(reps))
           <= seconds):
        # the first child checks the workload at the calibration seed
        reps += _children([(["rep", workload, seed, size,
                             "0" if reps or k else "1"], {cpu})
                           for k, cpu in enumerate(lanes)], deadline)
        setups += _children([(["setup", workload, seed, size], {cpu})
                             for cpu in lanes], deadline)
    checks = [c for r in reps for c in r["checks"]]
    checks += [(f"interpreter {i} bit-identical to interpreter 0",
                r["fingerprint"] == reps[0]["fingerprint"])
               for i, r in enumerate(reps[1:], 1)]
    wall_s = quiet_wall([r["fastest"] for r in reps])
    metrics = {
        "wall_s": (wall_s, "s"),
        "path_steps_per_s": (reps[0]["path_steps"] / wall_s, "1/s"),
        "setup_s": (quiet_wall([r["setup"] for r in reps + setups]), "s"),
        "peak_rss_mib": (median(r["peak_rss_mib"] for r in reps), "MiB"),
    }
    return metrics, checks


def traced(workload, seed, size, deadline):
    out, = _children([(["trace", workload, seed, size],
                       os.sched_getaffinity(0))], deadline)
    with open(os.path.join(W.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    return ({k: (v, units[k]) for k, v in out["metrics"].items()},
            out["checks"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", default="default",
                        help="workload master seed (default: the "
                             "calibration seed)")
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    missing = [p for p in W.REQUIRED if not os.path.isfile(p)]
    if missing:
        print("folevy sources not found: " + ", ".join(missing),
              file=sys.stderr)
        return 2
    if args.seed != "default" and not args.seed.isdigit():
        parser.error("--seed must be a nonnegative integer")

    deadline = perf_counter() + DEADLINE_S
    if args.trace:
        metrics, checks = traced(args.workload, args.seed, args.size, deadline)
    else:
        metrics, checks = untraced(args.workload, args.seed, args.seconds,
                                   args.size, deadline)
    failed = [label for label, ok in checks if not ok]
    for label in failed:
        print(f"check failed: {label}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

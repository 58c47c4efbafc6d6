"""Command line front end, and the one module that writes a run directory.

Every subcommand reads an optional YAML config, applies `--set` overrides
and computes its result.  A `cmd_*` function only computes: it returns
the files to write, in write order (its CSVs, each a `(header, rows)`
table, then `summary.json`, or `check.json` for `check`, each a JSON
payload), the report lines and the exit code.  Numbers are written with
shortest round-trip formatting (Python's float repr), so identical
results serialize to identical bytes and parse back to identical doubles.

The output root (--out, then run.out_dir, then $FOLEVY_OUT_DIR, then
./runs) is checked first; only after the compute does `_run` write
`effective_config.yaml`, from which the run can be reproduced, then the
command's files.  It writes them into a hidden `.<command>-<stamp>.partial`
directory under the root and renames that to `<command>-<stamp>` after the
last file, so a run directory is whole or absent.  It prints the report
lines and one `wrote <path>` line per CSV.  Any FolevyError raised on the
way, a rejected input or a failed write included, exits with code 2 and
leaves no run directory behind.
"""
from __future__ import annotations

import argparse
import errno
import itertools
import json
import math
import os
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from .averaging import averaged_field, estimate_eta, solve_averaged_ode
from .config import (_MAX_FIELD_POINTS, ExperimentConfig, config_from_dict,
                     config_to_dict, dump_config, load_config,
                     preset_from_config)
from .drivers import characteristic_function, marginal_samples, truncate_gamma
from .errors import BlowupError, ConfigError, FolevyError
from .experiments import (deviation_scaling, exit_probability,
                          projected_perturbation, transversal_comparison)
from .geometry import tangency_check
from .marcus import integrate_grid_ensemble, integrate_path, jump_flow
from .rng import RngStream, path_streams


def fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        # NaN and the infinities have no JSON spelling
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_jsonify(payload), indent=2, sort_keys=True,
                            allow_nan=False) + "\n")


def _add_common(parser):
    parser.add_argument("--config", metavar="FILE", help="yaml config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="SECTION.KEY=VALUE",
                        help="override one config entry (repeatable)")
    parser.add_argument("--seed", type=int, help="override run.master_seed")
    parser.add_argument("--out", metavar="DIR", help="output directory root")


def _resolve_config(args) -> ExperimentConfig:
    raw = config_to_dict(load_config(args.config, args.overrides))
    # the flags are checked again with the run section, like its keys
    for key, flag in (("master_seed", args.seed), ("out_dir", args.out)):
        if flag is not None:
            raw["run"][key] = flag
    return config_from_dict(raw)


def _renamed(part, out) -> bool:
    """Rename `part` to `out`; False if a non-empty path holds `out`."""
    try:
        os.rename(part, out)
    except OSError as exc:
        if exc.errno in (errno.EEXIST, errno.ENOTEMPTY, errno.ENOTDIR):
            return False
        raise
    return True


def _run(args) -> int:
    """Check the output root, compute the subcommand's result, then write
    its files into a partial directory and rename that into place."""
    cfg = _resolve_config(args)
    root = cfg.run.out_dir or os.environ.get("FOLEVY_OUT_DIR") or "runs"
    # the root, or the nearest path above it that exists, must be a directory
    above = os.path.abspath(root)
    while not os.path.lexists(above):
        above = os.path.dirname(above)
    if not os.path.isdir(above):
        raise ConfigError(f"run.out_dir {root!r} cannot hold runs: {above} "
                          f"is not a directory")
    files, lines, code = args.compute(cfg, preset_from_config(cfg),
                                      cfg.integrator)
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    base = os.path.join(root, f"{args.command}-{stamp}")
    names = (f"{base}-{k}" if k > 1 else base for k in itertools.count(1))
    out = next(names)
    try:
        # a run owns the free name whose partial directory it made; a
        # rename would replace an empty directory there, so none may exist
        while True:
            part = os.path.join(root, f".{os.path.basename(out)}.partial")
            if not os.path.lexists(out):
                try:
                    os.makedirs(part)
                    break
                except FileExistsError:
                    pass
            out = next(names)
        with open(os.path.join(part, "effective_config.yaml"), "w",
                  encoding="utf-8") as fh:
            fh.write(dump_config(cfg))
        for name, content in files.items():
            if name.endswith(".csv"):
                write_csv(os.path.join(part, name), *content)
            else:
                write_json(os.path.join(part, name), content)
        # a path made at the name since then moves the run to the next one
        while os.path.lexists(out) or not _renamed(part, out):
            out = next(names)
    except OSError as exc:
        shutil.rmtree(part, ignore_errors=True)
        raise FolevyError(f"cannot write the run directory {out}: {exc}") \
            from None
    for line in lines:
        print(line)
    for name in files:
        if name.endswith(".csv"):
            print(f"wrote {Path(out, name)}")
    return code


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _sup_table(res, t, values, std_errors):
    """comparison.csv and deviation.csv: one sup Lp distance per eps."""
    return (["epsilon", "t", "p", "sup_lp", "std_error", "n_paths"],
            [(eps, t, res.p, val, se, res.n_paths)
             for eps, val, se in zip(res.epsilons, values, std_errors)])


def cmd_simulate(cfg, preset, icfg):
    exp, run = cfg.experiment, cfg.run
    traj = integrate_path(preset.fields, preset.chart, preset.driver, exp.x0,
                          exp.horizon, exp.epsilon, icfg,
                          RngStream(run.master_seed))
    x, y, z = traj.states.T
    end = traj.exit_time if traj.exited else math.inf
    rows = zip(traj.times, x, y, z, np.hypot(x, y), np.arctan2(y, x),
               traj.jump_flags, traj.times >= end)
    summary = {
        "epsilon": exp.epsilon,
        "horizon": exp.horizon,
        "scheme": icfg.scheme,
        "n_points": len(traj.times),
        "exited": traj.exited,
        "exit_time": traj.exit_time,
        "final_state": traj.states[-1],
    }
    tail = f", exited at t={traj.exit_time:g}" if traj.exited else ""
    return ({"trajectory.csv": (["t", "x", "y", "z", "r", "theta", "is_jump",
                                 "exited"], rows),
             "summary.json": summary},
            [f"simulated one path over {len(traj.times) - 1} recorded steps"
             f"{tail}"], 0)


def cmd_average(cfg, preset, icfg):
    exp = cfg.experiment
    if exp.n_r * exp.n_z > _MAX_FIELD_POINTS:
        raise ConfigError(f"experiment.n_r x experiment.n_z must be at most "
                          f"{_MAX_FIELD_POINTS}, got {exp.n_r * exp.n_z}")
    chart = preset.chart
    avg = averaged_field(chart, preset.fields)
    (r_lo, r_hi), (z_lo, z_hi) = chart.vertical_bounds
    rvals = np.linspace(r_lo, r_hi, exp.n_r + 2)[1:-1]
    zvals = np.linspace(z_lo, z_hi, exp.n_z + 2)[1:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        rows = [(r, z, *avg.evaluate((r, z))) for r in rvals for z in zvals]
    if not np.isfinite(rows).all():
        raise BlowupError("the averaged field left the finite range")
    sol = solve_averaged_ode(avg, chart.vertical_projection(exp.x0),
                             exp.horizon)
    summary = {
        "method": avg.method,
        "boundary_time": sol.boundary_time,
        "gamma": exp.gamma,
        "t_gamma": sol.time_to_margin(exp.gamma),
        "final_value": sol.values[-1],
        "solved_until": sol.times[-1],
    }
    note = "stays inside" if sol.boundary_time is None \
        else f"reaches the boundary at s={sol.boundary_time:.6g}"
    return ({"averaged_field.csv": (["r", "z", "q_r", "q_z"], rows),
             "averaged_path.csv": (["s", "w_r", "w_z"],
                                   zip(sol.times, *sol.values.T)),
             "summary.json": summary},
            [f"averaged path solved to s={sol.times[-1]:g} ({note})"], 0)


def cmd_eta(cfg, preset, icfg):
    exp, run = cfg.experiment, cfg.run
    comp = ("radial", "vertical").index(exp.observable)
    psi = projected_perturbation(preset.chart, preset.fields, comp)
    est = estimate_eta(preset.fields, preset.chart, preset.driver, psi,
                       exp.x0, exp.horizons, exp.p, exp.n_paths,
                       run.master_seed, icfg)
    if est.identically_zero:
        line = "time averages match the leaf average exactly; decay exponent 0"
    else:
        line = (f"fitted decay exponent {est.exponent:.4f} "
                f"(prefactor {est.constant:.4g})")
    rows = [(t, e, est.p, est.exponent, est.constant)
            for t, e in zip(est.horizons, est.lp_errors)]
    return ({"eta.csv": (["t", "lp_error", "p", "fitted_exponent",
                          "fitted_constant"], rows),
             "summary.json": {"observable": exp.observable, **est.summary()}},
            [line], 0)


def cmd_compare(cfg, preset, icfg):
    exp, run = cfg.experiment, cfg.run
    res = transversal_comparison(preset.fields, preset.chart, preset.driver,
                                 averaged_field(preset.chart, preset.fields),
                                 exp.x0, exp.epsilons, exp.horizon, exp.p,
                                 exp.n_paths, run.master_seed, icfg)
    lines = [f"eps={eps:g}: sup L{res.p:g} distance {res.sup_norm[i, 0]:.6g} "
             f"(se {res.sup_norm_se[i, 0]:.2g})"
             for i, eps in enumerate(res.epsilons)]
    return ({"comparison.csv": _sup_table(res, res.horizons[0],
                                          res.sup_norm[:, 0],
                                          res.sup_norm_se[:, 0]),
             "summary.json": res.summary()}, lines, 0)


def cmd_exit_prob(cfg, preset, icfg):
    exp, run = cfg.experiment, cfg.run
    res = exit_probability(preset.fields, preset.chart, preset.driver,
                           averaged_field(preset.chart, preset.fields),
                           exp.x0, exp.epsilons, exp.gamma, exp.n_paths,
                           run.master_seed, icfg,
                           search_horizon=exp.search_horizon)
    lines = [f"averaged path comes within gamma={res.gamma:g} of the boundary "
             f"at s={res.t_gamma:.6g}"]
    lines += [f"eps={eps:g}: exit probability {pr:.4f} (se {se:.4f})"
              for eps, pr, se in zip(res.epsilons, res.probabilities,
                                     res.std_errors)]
    rows = [(eps, res.t_gamma, res.gamma, pr, se, res.n_paths)
            for eps, pr, se in zip(res.epsilons, res.probabilities,
                                   res.std_errors)]
    return ({"exit_prob.csv": (["epsilon", "t_gamma", "gamma", "probability",
                                "std_error", "n_paths"], rows),
             "summary.json": res.summary()}, lines, 0)


def cmd_deviation(cfg, preset, icfg):
    exp, run = cfg.experiment, cfg.run
    res = deviation_scaling(preset.fields, preset.chart, preset.driver,
                            exp.x0, exp.epsilons, exp.horizon, exp.observable,
                            exp.p, exp.n_paths, run.master_seed, icfg)
    line = ("deviations vanish identically for this observable"
            if res.identically_zero
            else f"fitted scaling exponent {res.exponent:.4f} across eps")
    return ({"deviation.csv": _sup_table(res, res.horizon, res.values,
                                         res.std_errors),
             "summary.json": res.summary()}, [line], 0)


def cmd_charfn(cfg, preset, icfg):
    exp, run = cfg.experiment, cfg.run
    driver = preset.driver
    u = [float(v) for v in exp.u_values]
    exact = [characteristic_function(driver, uu, exp.t) for uu in u]
    samples = np.asarray(marginal_samples(driver, exp.t, exp.n_samples,
                                          RngStream(run.master_seed))).ravel()
    top = float(samples.max(initial=0.0))
    for uu in u:
        # from 2**52 on, the ulp of u*Z is 1 rad: e^(i*u*Z) keeps no phase
        if not abs(uu) * top < 2.0 ** 52:
            raise ConfigError(f"experiment.u_values: u = {uu:g} times a draw "
                              f"of Z_t ({top:g}) is at least 2**52, where "
                              f"u*Z keeps no phase")
    emp = [complex(np.mean(np.exp(1j * uu * samples))) for uu in u]
    gaps = [abs(a - b) for a, b in zip(exact, emp)]
    rows = [(uu, a.real, a.imag, b.real, b.imag, g)
            for uu, a, b, g in zip(u, exact, emp, gaps)]
    bound = 3.0 / math.sqrt(exp.n_samples)
    summary = {
        "t": exp.t,
        "n_samples": exp.n_samples,
        "u_values": u,
        "max_abs_gap": max(gaps),
        "mc_bound": bound,
        "within_mc_bound": bool(max(gaps) <= bound),
    }
    lines = [f"u={uu:g}: exact {a.real:+.6f}{a.imag:+.6f}i, mc gap {g:.2e}"
             for uu, a, g in zip(u, exact, gaps)]
    return ({"charfn.csv": (["u", "re_exact", "im_exact", "re_mc", "im_mc",
                             "abs_gap"], rows),
             "summary.json": summary}, lines, 0)


def cmd_check(cfg, preset, icfg):
    run = cfg.run
    chart, fields, driver = preset.chart, preset.fields, preset.driver
    checks = []

    # 300 points of U, on the leaves through v drawn 2.5% of each width of V
    # in from its ends
    gen = RngStream(run.master_seed, 900).generator()
    lo, hi = np.array(chart.vertical_bounds, dtype=float).T
    inset = 0.025 * (hi - lo)
    v = gen.uniform(lo + inset, hi - inset, size=(300, chart.vertical_dim))
    pts = chart.leaf_nodes(gen.uniform(0.0, 2 * np.pi, size=300))(v)
    # the geometric gaps are rounding relative to the largest leaf radius
    scale = max(1.0, float(np.max(np.hypot(pts[:, 0], pts[:, 1]))))

    worst = tangency_check(fields, chart, pts)
    checks.append(("driving fields tangent to leaves", worst <= 1e-8 * scale,
                   f"max |dPi(F)| {worst:.2e} over {len(pts)} points"))

    zs = gen.gamma(1.0, 1.0, size=64)
    x = pts[:64]
    moved = jump_flow(fields, x, zs[:, None])
    rad_err = float(np.max(np.abs(np.hypot(moved[:, 0], moved[:, 1])
                                  - np.hypot(x[:, 0], x[:, 1]))))
    checks.append(("jump flow preserves the leaf radius",
                   rad_err <= 1e-12 * scale,
                   f"max radius drift {rad_err:.2e}"))

    x1 = np.array([1.1, 0.0, 0.3])
    z1 = np.array([0.7])
    exact_move = fields.exact_jump_flow(x1, z1)
    generic_move = jump_flow(fields.without_exact_flow(), x1, z1)
    gap = float(np.max(np.abs(exact_move - generic_move)))
    checks.append(("generic jump solve matches the closed form", gap <= 1e-6,
                   f"gap {gap:.2e}"))

    # from the first check point, so the paths start inside U
    streams = path_streams(run.master_seed, 910, 8)
    res_a = integrate_grid_ensemble(fields, driver, pts[0], 2.0, 0.1, icfg,
                                    streams, contains=chart.contains)
    res_b = integrate_grid_ensemble(fields, driver, pts[0], 2.0, 0.1, icfg,
                                    streams, contains=chart.contains)
    same = (np.array_equal(res_a.final_states, res_b.final_states)
            and np.array_equal(res_a.exit_times, res_b.exit_times,
                               equal_nan=True))
    checks.append(("repeated runs are bit identical", same,
                   "final states and exit times compared"))

    ugrid = np.linspace(-6.0, 6.0, 25)
    cf = np.array([characteristic_function(driver, float(v), 1.5)
                   for v in ugrid])
    cf_ok = bool(np.all(np.abs(cf) <= 1 + 1e-12)
                 and abs(characteristic_function(driver, 0.0, 1.5) - 1) <= 1e-12)
    checks.append(("characteristic function bounded by one", cf_ok,
                   f"max modulus {float(np.max(np.abs(cf))):.6f}"))

    qavg = averaged_field(chart, fields, n_nodes=96)
    sec = cfg.preset
    (r_lo, r_hi), (z_lo, z_hi) = chart.vertical_bounds
    gaps, size = [], 1.0
    for frac in (0.25, 0.5, 0.75):
        rr = r_lo + frac * (r_hi - r_lo)
        v = np.array([rr, 0.5 * (z_lo + z_hi)])
        if sec.k_choice == "linear":
            expected = np.array([0.5 * rr, 0.0])
        else:
            expected = np.array([0.0, float(sec.k_constant[2])])
        gaps.append(float(np.max(np.abs(qavg.evaluate(v) - expected))))
        size = max(size, float(np.max(np.abs(expected))))
    avg_gap = max(gaps)
    checks.append(("leaf average backends agree", avg_gap <= 1e-10 * size,
                   f"max gap {avg_gap:.2e} quadrature vs closed form"))

    # a cutoff on the sizes' own scale 1/rate: rate * cut is 0.05 at any rate
    cut = 0.05 / driver.rate
    trunc = truncate_gamma(driver, cut)
    sizes = trunc.sample_sizes(RngStream(run.master_seed, 920).generator(), 4000)
    mean_exact = math.exp(-driver.rate * cut) / driver.rate / trunc.restricted_mass
    se = float(np.std(sizes, ddof=1) / math.sqrt(len(sizes)))
    mean_gap = abs(float(np.mean(sizes)) - mean_exact)
    trunc_ok = bool(np.all(sizes >= cut * (1 - 1e-9)) and mean_gap <= 5 * se)
    checks.append(("restricted jump sampler calibrated", trunc_ok,
                   f"mean gap {mean_gap:.2e} vs 5*se {5 * se:.2e}"))

    failed = sum(not ok for _, ok, _ in checks)
    lines = [f"[{'ok' if ok else 'FAIL'}] {name}: {detail}"
             for name, ok, detail in checks]
    lines.append(f"{failed} of {len(checks)} checks failed" if failed
                 else f"all {len(checks)} checks passed")
    report = {"checks": [{"name": n, "passed": bool(ok), "detail": d}
                         for n, ok, d in checks],
              "all_passed": not failed}
    return {"check.json": report}, lines, 1 if failed else 0


_COMMANDS = [
    ("simulate", "integrate one path and dump it as csv", cmd_simulate),
    ("average", "tabulate the averaged field and solve the averaged flow",
     cmd_average),
    ("eta", "estimate the ergodic-average decay exponent", cmd_eta),
    ("compare", "sup distance between rescaled paths and the averaged flow",
     cmd_compare),
    ("exit-prob", "exit probabilities before the averaged near-exit time",
     cmd_exit_prob),
    ("deviation", "scaling of coupled transversal deviations in eps",
     cmd_deviation),
    ("charfn", "closed-form vs monte carlo characteristic function",
     cmd_charfn),
    ("check", "run the invariant battery; nonzero exit on failure", cmd_check),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="folevy",
        description="jump-driven flows on a foliated cylinder: simulation, "
                    "averaging, and rate experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, compute in _COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        _add_common(sp)
        sp.set_defaults(compute=compute)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except FolevyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

"""Command line front end.

Every subcommand reads an optional YAML config, applies `--set` overrides,
and writes its artifacts into a fresh time-stamped directory under the
output root (--out, then run.out_dir, then $FOLEVY_OUT_DIR, then ./runs).
The effective configuration is copied next to the outputs so a run can be
reproduced from its directory alone.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np
import yaml

from .averaging import (averaged_field, estimate_eta, eta_grid,
                        leaf_average_quadrature, rate_to_csv,
                        solve_averaged_ode)
from .config import (ExperimentConfig, apply_overrides, config_from_dict,
                     dump_config, integrator_from_config, preset_from_config)
from .drivers import characteristic_function, marginal_samples, truncate_gamma
from .errors import ConfigError, FolevyError
from .experiments import (comparison_to_csv, deviation_scaling,
                          deviation_to_csv, exit_probability, exit_to_csv,
                          projected_perturbation, transversal_comparison)
from .geometry import tangency_check
from .marcus import (IntegratorConfig, integrate_grid_ensemble,
                     integrate_perturbed, integrate_unperturbed, jump_flow,
                     trajectory_to_csv)
from .rng import RngStream, path_streams
from .tables import write_csv, write_json


def _add_common(parser):
    parser.add_argument("--config", metavar="FILE", help="yaml config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="SECTION.KEY=VALUE",
                        help="override one config entry (repeatable)")
    parser.add_argument("--seed", type=int, help="override run.master_seed")
    parser.add_argument("--threads", type=int,
                        help="override run.threads (accepted, no effect)")
    parser.add_argument("--out", metavar="DIR", help="output directory root")


def _resolve_config(args) -> ExperimentConfig:
    raw = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        try:
            raw = yaml.safe_load(text) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"config is not valid yaml: {exc}") from exc
    raw = apply_overrides(raw, args.overrides)
    cfg = config_from_dict(raw)
    run = cfg.run
    if args.seed is not None:
        run = replace(run, master_seed=args.seed)
    if args.threads is not None:
        run = replace(run, threads=args.threads)
    if args.out is not None:
        run = replace(run, out_dir=args.out)
    return replace(cfg, run=run)


def _make_run_dir(cfg: ExperimentConfig, command: str) -> str:
    root = cfg.run.out_dir or os.environ.get("FOLEVY_OUT_DIR") or "runs"
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    base = os.path.join(root, f"{command}-{stamp}")
    path, k = base, 1
    while True:
        try:
            os.makedirs(path)
            return path
        except FileExistsError:
            k += 1
            path = f"{base}-{k}"


def _setup(args, command, check=None):
    # check(cfg, icfg) raises ConfigError before the run directory exists
    cfg = _resolve_config(args)
    preset = preset_from_config(cfg)
    icfg = integrator_from_config(cfg)
    if check is not None:
        check(cfg, icfg)
    out = _make_run_dir(cfg, command)
    with open(os.path.join(out, "effective_config.yaml"), "w",
              encoding="utf-8") as fh:
        fh.write(dump_config(cfg))
    return cfg, preset, icfg, out


def _component_index(observable):
    if observable == "radial":
        return 0
    if observable == "vertical":
        return 1
    raise ConfigError("experiment.observable must be 'radial' or 'vertical'")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args):
    cfg, preset, icfg, out = _setup(args, "simulate")
    exp, run = cfg.experiment, cfg.run
    rng = RngStream(run.master_seed, run.stream_base)
    x0 = np.asarray(exp.x0, dtype=float)
    if exp.epsilon == 0:
        traj = integrate_unperturbed(preset.fields, preset.chart, preset.driver,
                                     x0, exp.horizon, icfg, rng)
    else:
        traj = integrate_perturbed(preset.fields, preset.chart, preset.driver,
                                   x0, exp.horizon, exp.epsilon, icfg, rng)
    csv_path = trajectory_to_csv(traj, os.path.join(out, "trajectory.csv"))
    write_json(os.path.join(out, "summary.json"), {
        "epsilon": exp.epsilon,
        "horizon": exp.horizon,
        "scheme": icfg.scheme,
        "n_points": len(traj.times),
        "exited": traj.exited,
        "exit_time": traj.exit_time,
        "final_state": traj.states[-1],
    })
    tail = f", exited at t={traj.exit_time:g}" if traj.exited else ""
    print(f"simulated one path over {len(traj.times) - 1} recorded steps{tail}")
    print(f"wrote {csv_path}")
    return 0


def cmd_average(args):
    cfg, preset, icfg, out = _setup(args, "average")
    exp, run = cfg.experiment, cfg.run
    chart = preset.chart
    avg = averaged_field(chart, preset.fields, method=exp.method,
                         n_nodes=exp.n_nodes, driver=preset.driver,
                         horizon=exp.search_horizon, cfg=icfg,
                         rng=RngStream(run.master_seed, run.stream_base))
    (r_lo, r_hi), (z_lo, z_hi) = chart.vertical_bounds
    rvals = np.linspace(r_lo, r_hi, exp.n_r + 2)[1:-1]
    zvals = np.linspace(z_lo, z_hi, exp.n_z + 2)[1:-1]
    rows = []
    for r in rvals:
        for z in zvals:
            q = avg.evaluate((r, z))
            rows.append((r, z, q[0], q[1]))
    field_csv = write_csv(os.path.join(out, "averaged_field.csv"),
                          ["r", "z", "q_r", "q_z"], rows)
    x0 = np.asarray(exp.x0, dtype=float)
    sol = solve_averaged_ode(avg, chart.vertical_projection(x0), exp.horizon,
                             exp.ode_step)
    path_csv = write_csv(os.path.join(out, "averaged_path.csv"),
                         ["s", "w_r", "w_z"],
                         zip(sol.times, sol.values[:, 0], sol.values[:, 1]))
    t_gamma = sol.time_to_margin(exp.gamma)
    write_json(os.path.join(out, "summary.json"), {
        "method": exp.method,
        "boundary_time": sol.boundary_time,
        "gamma": exp.gamma,
        "t_gamma": t_gamma,
        "final_value": sol.values[-1],
        "solved_until": sol.times[-1],
    })
    note = "stays inside" if sol.boundary_time is None \
        else f"reaches the boundary at s={sol.boundary_time:.6g}"
    print(f"averaged path solved to s={sol.times[-1]:g} ({note})")
    print(f"wrote {field_csv}")
    print(f"wrote {path_csv}")
    return 0


def _check_eta(cfg, icfg):
    exp = cfg.experiment
    try:
        eta_grid(exp.horizons, exp.p, exp.n_paths, icfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"eta: {exc}") from exc


def cmd_eta(args):
    cfg, preset, icfg, out = _setup(args, "eta", _check_eta)
    exp, run = cfg.experiment, cfg.run
    comp = _component_index(exp.observable)
    psi = projected_perturbation(preset.chart, preset.fields, comp)
    est = estimate_eta(preset.fields, preset.chart, preset.driver, psi,
                       np.asarray(exp.x0, dtype=float), exp.horizons, exp.p,
                       exp.n_paths, run.master_seed, run.stream_base, icfg,
                       run.threads)
    csv_path = rate_to_csv(est, os.path.join(out, "eta.csv"))
    write_json(os.path.join(out, "summary.json"), {
        "observable": exp.observable,
        "horizons": est.horizons,
        "lp_errors": est.lp_errors,
        "exponent": est.exponent,
        "constant": est.constant,
        "identically_zero": est.identically_zero,
        "p": est.p,
        "n_paths": est.n_paths,
    })
    if est.identically_zero:
        print("time averages match the leaf average exactly; decay exponent 0")
    else:
        print(f"fitted decay exponent {est.exponent:.4f} "
              f"(prefactor {est.constant:.4g})")
    print(f"wrote {csv_path}")
    return 0


def cmd_compare(args):
    cfg, preset, icfg, out = _setup(args, "compare")
    exp, run = cfg.experiment, cfg.run
    avg = averaged_field(preset.chart, preset.fields, method=exp.method,
                         n_nodes=exp.n_nodes, driver=preset.driver,
                         horizon=exp.search_horizon, cfg=icfg,
                         rng=RngStream(run.master_seed, run.stream_base))
    res = transversal_comparison(preset.fields, preset.chart, preset.driver,
                                 avg, np.asarray(exp.x0, dtype=float),
                                 exp.epsilons, exp.horizon, exp.p, exp.n_paths,
                                 None, run.master_seed, run.stream_base, icfg,
                                 run.threads, exp.ode_step)
    csv_path = comparison_to_csv(res, os.path.join(out, "comparison.csv"))
    write_json(os.path.join(out, "summary.json"), res.summary())
    for i, eps in enumerate(res.epsilons):
        print(f"eps={eps:g}: sup L{res.p:g} distance "
              f"{res.sup_norm[i, -1]:.6g} (se {res.sup_norm_se[i, -1]:.2g})")
    print(f"wrote {csv_path}")
    return 0


def cmd_exit_prob(args):
    cfg, preset, icfg, out = _setup(args, "exit-prob")
    exp, run = cfg.experiment, cfg.run
    avg = averaged_field(preset.chart, preset.fields, method=exp.method,
                         n_nodes=exp.n_nodes, driver=preset.driver,
                         horizon=exp.search_horizon, cfg=icfg,
                         rng=RngStream(run.master_seed, run.stream_base))
    res = exit_probability(preset.fields, preset.chart, preset.driver, avg,
                           np.asarray(exp.x0, dtype=float), exp.epsilons,
                           exp.gamma, exp.n_paths, run.master_seed,
                           run.stream_base, icfg, run.threads, exp.ode_step,
                           exp.search_horizon)
    csv_path = exit_to_csv(res, os.path.join(out, "exit_prob.csv"))
    write_json(os.path.join(out, "summary.json"), res.summary())
    print(f"averaged path comes within gamma={res.gamma:g} of the boundary "
          f"at s={res.t_gamma:.6g}")
    for eps, pr, se in zip(res.epsilons, res.probabilities, res.std_errors):
        print(f"eps={eps:g}: exit probability {pr:.4f} (se {se:.4f})")
    print(f"wrote {csv_path}")
    return 0


def cmd_deviation(args):
    cfg, preset, icfg, out = _setup(args, "deviation")
    exp, run = cfg.experiment, cfg.run
    res = deviation_scaling(preset.fields, preset.chart, preset.driver,
                            np.asarray(exp.x0, dtype=float), exp.epsilons,
                            exp.horizon, exp.observable, exp.p, exp.n_paths,
                            run.master_seed, run.stream_base, icfg, run.threads)
    csv_path = deviation_to_csv(res, os.path.join(out, "deviation.csv"))
    write_json(os.path.join(out, "summary.json"), res.summary())
    if res.identically_zero:
        print("deviations vanish identically for this observable")
    else:
        print(f"fitted scaling exponent {res.exponent:.4f} across eps")
    print(f"wrote {csv_path}")
    return 0


def cmd_charfn(args):
    cfg, preset, icfg, out = _setup(args, "charfn")
    exp, run = cfg.experiment, cfg.run
    driver = preset.driver
    u = [float(v) for v in exp.u_values]
    exact = [characteristic_function(driver, uu, exp.t) for uu in u]
    samples = np.asarray(marginal_samples(driver, exp.t, exp.n_samples,
                                          RngStream(run.master_seed,
                                                    run.stream_base))).ravel()
    emp = [complex(np.mean(np.exp(1j * uu * samples))) for uu in u]
    gaps = [abs(a - b) for a, b in zip(exact, emp)]
    rows = [(uu, a.real, a.imag, b.real, b.imag, g)
            for uu, a, b, g in zip(u, exact, emp, gaps)]
    csv_path = write_csv(os.path.join(out, "charfn.csv"),
                         ["u", "re_exact", "im_exact", "re_mc", "im_mc",
                          "abs_gap"], rows)
    bound = 3.0 / math.sqrt(exp.n_samples)
    write_json(os.path.join(out, "summary.json"), {
        "t": exp.t,
        "n_samples": exp.n_samples,
        "u_values": u,
        "max_abs_gap": max(gaps),
        "mc_bound": bound,
        "within_mc_bound": bool(max(gaps) <= bound),
    })
    for uu, a, g in zip(u, exact, gaps):
        print(f"u={uu:g}: exact {a.real:+.6f}{a.imag:+.6f}i, mc gap {g:.2e}")
    print(f"wrote {csv_path}")
    return 0


def cmd_check(args):
    cfg, preset, icfg, out = _setup(args, "check")
    run = cfg.run
    chart, fields, driver = preset.chart, preset.fields, preset.driver
    checks = []

    gen = RngStream(run.master_seed, 900).generator()
    r = gen.uniform(preset.r_min * 1.05, preset.r_max * 0.95, size=300)
    phi = gen.uniform(0.0, 2 * np.pi, size=300)
    zc = gen.uniform(preset.z_min * 0.95, preset.z_max * 0.95, size=300)
    pts = np.stack([r * np.cos(phi), r * np.sin(phi), zc], axis=-1)
    uu, vv = chart.to_chart(pts)
    err = float(np.max(np.abs(chart.from_chart(uu, vv) - pts)))
    checks.append(("chart round trip", err <= 1e-10, f"max error {err:.2e}"))

    rep = tangency_check(fields, chart, 512, RngStream(run.master_seed, 901))
    checks.append(("driving fields tangent to leaves",
                   rep.max_violation <= 1e-8,
                   f"max |dPi(F)| {rep.max_violation:.2e} "
                   f"over {rep.n_checked} points"))

    zs = gen.gamma(1.0, 1.0, size=64)
    x = pts[:64]
    moved = np.stack([jump_flow(fields, xi, np.array([zi]), icfg)
                      for xi, zi in zip(x, zs)])
    rad_err = float(np.max(np.abs(np.hypot(moved[:, 0], moved[:, 1])
                                  - np.hypot(x[:, 0], x[:, 1]))))
    checks.append(("jump flow preserves the leaf radius", rad_err <= 1e-12,
                   f"max radius drift {rad_err:.2e}"))

    x1 = np.array([1.1, 0.0, 0.3])
    z1 = np.array([0.7])
    exact_move = fields.exact_jump_flow(x1, z1)
    generic_move = jump_flow(fields.without_exact_flow(), x1, z1, icfg)
    gap = float(np.max(np.abs(exact_move - generic_move)))
    checks.append(("generic jump solve matches the closed form", gap <= 1e-6,
                   f"gap {gap:.2e}"))

    streams = path_streams(run.master_seed, 910, 8)
    res_a = integrate_grid_ensemble(fields, driver, np.array([1.0, 0.0, 0.0]),
                                    2.0, 0.1, icfg, streams,
                                    contains=chart.contains)
    res_b = integrate_grid_ensemble(fields, driver, np.array([1.0, 0.0, 0.0]),
                                    2.0, 0.1, icfg, streams,
                                    contains=chart.contains)
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

    qavg = averaged_field(chart, fields, method="quadrature", n_nodes=96)
    sec = cfg.preset
    gaps = []
    for frac in (0.25, 0.5, 0.75):
        rr = sec.r_min + frac * (sec.r_max - sec.r_min)
        v = np.array([rr, 0.5 * (sec.z_min + sec.z_max)])
        if sec.k_choice == "linear":
            expected = np.array([0.5 * rr, 0.0])
        else:
            expected = np.array([0.0, float(sec.k_constant[2])])
        gaps.append(float(np.max(np.abs(qavg.evaluate(v) - expected))))
    avg_gap = max(gaps)
    checks.append(("leaf average backends agree", avg_gap <= 1e-10,
                   f"max gap {avg_gap:.2e} quadrature vs closed form"))

    trunc = truncate_gamma(driver, 0.05)
    sizes = trunc.sample_sizes(RngStream(run.master_seed, 920).generator(), 4000)
    mean_exact = math.exp(-driver.rate * 0.05) / driver.rate / trunc.restricted_mass
    se = float(np.std(sizes, ddof=1) / math.sqrt(len(sizes)))
    mean_gap = abs(float(np.mean(sizes)) - mean_exact)
    trunc_ok = bool(np.all(sizes >= 0.05 * (1 - 1e-9)) and mean_gap <= 5 * se)
    checks.append(("restricted jump sampler calibrated", trunc_ok,
                   f"mean gap {mean_gap:.2e} vs 5*se {5 * se:.2e}"))

    failed = [name for name, ok, _ in checks if not ok]
    for name, ok, detail in checks:
        print(f"[{'ok' if ok else 'FAIL'}] {name}: {detail}")
    write_json(os.path.join(out, "check.json"), {
        "checks": [{"name": n, "passed": bool(ok), "detail": d}
                   for n, ok, d in checks],
        "all_passed": not failed,
    })
    if failed:
        print(f"{len(failed)} of {len(checks)} checks failed")
        return 1
    print(f"all {len(checks)} checks passed")
    return 0


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
    for name, help_text, handler in _COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        _add_common(sp)
        sp.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except FolevyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

"""Config round trips, override parsing, and the command line surface.

CLI tests run main() in process against temporary output directories and
small --set overrides, checking artifact layout, frozen oracle values in
the emitted CSVs, and bitwise equality of repeated runs.
"""

from __future__ import annotations

import ast
import csv
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import folevy
from folevy import (ConfigError, ConstantK, DomainError, GammaSubordinator,
                    IntegratorConfig, LinearK, RngStream, averaged_field,
                    averaging,
                    characteristic_function, circle_law_distance, cli,
                    deviation_scaling, estimate_eta, exit_probability,
                    experiments, integrate_grid_ensemble, integrate_path,
                    jump_flow, leaf_average_quadrature, lp_moment,
                    make_cylinder_preset, marginal_samples, path_streams,
                    sample_jump_events, scheme_agreement, solve_averaged_ode,
                    tangency_check, transversal_comparison, truncate_gamma)
from folevy.cli import main
from folevy.drivers import _MIN_RATE, make_step_sampler
from folevy.marcus import resolve_grid
from folevy.config import (_FLOAT, ExperimentConfig, _parse_yaml,
                           apply_overrides,
                           config_from_dict, config_to_dict, dump_config,
                           load_config, loads_config, preset_from_config)

SMALL = [
    "--set", "experiment.n_paths=8",
    "--set", "experiment.epsilons=[0.5, 0.25]",
    "--set", "experiment.horizon=0.3",
]


def _run_dir(root):
    entries = [os.path.join(root, name) for name in sorted(os.listdir(root))]
    assert entries, f"no run directory under {root}"
    return entries[-1]


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_round_trip_is_idempotent():
    cfg = ExperimentConfig()
    text = dump_config(cfg)
    again = loads_config(text)
    assert again == cfg
    assert dump_config(again) == text


def test_config_round_trip_preserves_overridden_values(tmp_path):
    cfg = loads_config("preset:\n  theta: 2.5\nexperiment:\n  epsilons: [0.4, 0.2]\n"
                       "integrator:\n  step_h: 1e-3\n")
    assert cfg.preset.theta == 2.5
    assert cfg.experiment.epsilons == (0.4, 0.2)
    assert cfg.integrator.step_h == 0.001
    path = tmp_path / "cfg.yaml"
    path.write_text(dump_config(cfg))
    assert load_config(path) == cfg


def test_config_rejects_unknown_entries():
    with pytest.raises(ConfigError, match="unknown config key run.bogus"):
        config_from_dict({"run": {"bogus": 1}})
    with pytest.raises(ConfigError, match="unknown config section"):
        config_from_dict({"runtime": {}})
    with pytest.raises(ConfigError):
        loads_config("preset: [not, a, mapping]\n")


def test_apply_overrides_parses_yaml_values():
    raw = apply_overrides({}, ["preset.theta=2.5",
                               "experiment.epsilons=[0.4, 0.2]",
                               "run.stream_base=4",
                               "experiment.observable=vertical",
                               "integrator.step_h=1e-3",
                               "experiment.epsilon=1E-1",
                               "experiment.u_values=[1e0, 2, -.5e+1]"])
    cfg = config_from_dict(raw)
    assert cfg.integrator.step_h == 0.001
    assert cfg.experiment.epsilon == 0.1
    assert cfg.experiment.u_values == (1.0, 2, -5.0)
    assert cfg.preset.theta == 2.5
    assert cfg.experiment.epsilons == (0.4, 0.2)
    assert cfg.run.stream_base == 4
    assert cfg.experiment.observable == "vertical"
    # a section left empty in a file reads as null and takes overrides
    raw = apply_overrides({"experiment": None}, ["experiment.horizon=0.5"])
    assert config_from_dict(raw).experiment.horizon == 0.5


def test_apply_overrides_rejects_malformed_assignments():
    for bad in ("theta=2", "preset.theta", "preset.theta.deep=1", "=3"):
        with pytest.raises(ConfigError):
            apply_overrides({}, [bad])
    with pytest.raises(ConfigError):
        config_from_dict(apply_overrides({}, ["preset.bogus=1"]))
    with pytest.raises(ConfigError, match="config root must be a mapping"):
        apply_overrides(["a", "b"], ["preset.theta=1"])


def test_preset_from_config_wires_field_choice():
    cfg = loads_config("preset:\n  k_choice: constant\n  k_constant: [0.5, 0.0, 2.0]\n")
    preset = preset_from_config(cfg)
    assert isinstance(preset.fields.perturbation, ConstantK)
    assert preset.fields.perturbation.k3 == 2.0
    default = preset_from_config(ExperimentConfig())
    assert isinstance(default.fields.perturbation, LinearK)
    with pytest.raises(ConfigError):
        preset_from_config(loads_config("preset:\n  k_choice: cubic\n"))
    with pytest.raises(ConfigError):
        preset_from_config(loads_config("preset:\n  r_min: 1.5\n"))


def test_integrator_section_validates_scheme():
    # the integrator section is the integrator's config, checked at load
    cfg = loads_config("integrator:\n  scheme: jump_decomposition\n")
    assert isinstance(cfg.integrator, IntegratorConfig)
    assert cfg.integrator.scheme == "jump_decomposition"
    for gone in ("euler", "exact_leaf"):
        with pytest.raises(ConfigError, match="scheme must be one of"):
            loads_config(f"integrator:\n  scheme: {gone}\n")


def test_config_to_dict_uses_plain_types():
    plain = config_to_dict(ExperimentConfig())
    assert isinstance(plain["experiment"]["epsilons"], list)
    assert set(plain) == {"preset", "integrator", "run", "experiment"}


# ---------------------------------------------------------------------------
# CLI error handling
# ---------------------------------------------------------------------------

def test_cli_exit_codes_for_bad_configs(tmp_path, capsys):
    assert main(["check", "--config", str(tmp_path / "missing.yaml")]) == 2
    assert "cannot read config" in capsys.readouterr().err

    broken = tmp_path / "broken.yaml"
    broken.write_text("preset: [unclosed\n")
    assert main(["check", "--config", str(broken)]) == 2

    unknown = tmp_path / "unknown.yaml"
    unknown.write_text("run:\n  bogus: 1\n")
    assert main(["check", "--config", str(unknown)]) == 2
    assert "unknown config key" in capsys.readouterr().err

    for k_constant in ("[a, b, c]", "1"):
        constant = tmp_path / "constant.yaml"
        constant.write_text("preset:\n  k_choice: constant\n"
                            f"  k_constant: {k_constant}\n")
        assert main(["simulate", "--out", str(tmp_path / "runs"),
                     "--config", str(constant)]) == 2
        assert "preset.k_constant" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_output_root_that_is_no_directory_fails_before_the_compute(
        tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "_COMMANDS",
                        [("simulate", "", lambda *a: calls.append(a))])
    afile = tmp_path / "afile"
    afile.write_text("")
    for root in (afile, afile / "sub" / "runs"):
        assert main(["simulate", "--out", str(root)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: run.out_dir") and err.count("\n") == 1
        assert f"{afile} is not a directory" in err
    monkeypatch.setenv("FOLEVY_OUT_DIR", str(afile))
    assert main(["simulate"]) == 2
    assert "run.out_dir" in capsys.readouterr().err
    assert calls == []
    assert sorted(os.listdir(tmp_path)) == ["afile"]


def test_write_error_leaves_no_run_directory(tmp_path, capsys, monkeypatch):
    # a full disk used to end in an OSError traceback and leave a run
    # directory with the files written before it
    def full(path, payload):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "write_json", full)
    out = tmp_path / "runs"
    assert main(["simulate", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write the run directory {out}/")
    assert err.endswith("No space left on device\n") and err.count("\n") == 1
    assert os.listdir(out) == []


def test_a_run_takes_a_name_no_directory_holds(tmp_path, monkeypatch):
    # an empty directory, which a rename would replace, and another run's
    # partial directory both keep their names
    monkeypatch.setattr(cli, "time", SimpleNamespace(
        gmtime=lambda: None, strftime=lambda *args: "STAMP"))
    out = tmp_path / "runs"
    (out / "simulate-STAMP").mkdir(parents=True)
    (out / ".simulate-STAMP-2.partial").mkdir()
    for _ in range(2):
        assert main(["simulate", "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == [
        ".simulate-STAMP-2.partial", "simulate-STAMP", "simulate-STAMP-3",
        "simulate-STAMP-4"]
    assert os.listdir(out / "simulate-STAMP") == []


@pytest.mark.parametrize("hook, held", [("write_json", []),
                                        ("rename", ["other"])])
def test_a_name_taken_after_the_claim_moves_the_run_on(tmp_path, monkeypatch,
                                                       hook, held):
    # a path made at the claimed name while the files are written, or just
    # before the rename, is neither replaced nor fails the run
    monkeypatch.setattr(cli, "time", SimpleNamespace(
        gmtime=lambda: None, strftime=lambda *args: "STAMP"))
    out = tmp_path / "runs"
    taken = out / "simulate-STAMP"
    module = cli if hook == "write_json" else os
    original = getattr(module, hook)

    def take(*args):
        if not taken.exists():
            taken.mkdir()
            for name in held:
                (taken / name).write_text("")
        return original(*args)

    monkeypatch.setattr(module, hook, take)
    assert main(["simulate", "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["simulate-STAMP", "simulate-STAMP-2"]
    assert os.listdir(taken) == held
    assert "summary.json" in os.listdir(out / "simulate-STAMP-2")


@pytest.mark.parametrize("text, key", [
    ("experiment:\n  epsilon: 0.1\n  epsilon: 0.5\n", "experiment.epsilon"),
    ("experiment:\n  epsilon: 0.1\nexperiment:\n  horizon: 1.0\n",
     "experiment"),
    ("experiment:\n  x0: [1, 0, {a: 1, a: 2}]\n", "experiment.x0.a"),
], ids=["key", "section", "nested"])
def test_repeated_config_key_fails_before_run_dir(tmp_path, capsys, text, key):
    # PyYAML keeps the last of two equal keys without a word
    config = tmp_path / "repeated.yaml"
    config.write_text(text)
    out = tmp_path / "runs"
    assert main(["simulate", "--out", str(out), "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: config key {key} is repeated\n"
    assert not out.exists()
    # one name in two mappings, or twice through an alias, is no repeat
    assert _parse_yaml("a: &n {a: 1}\nb: {a: 2}\nc: [*n, *n]\n") == \
        {"a": {"a": 1}, "b": {"a": 2}, "c": [{"a": 1}, {"a": 1}]}


def test_repeated_key_in_override_is_named_by_config_path(tmp_path, capsys):
    # the key path starts at the override's section.key, not at the value
    out = tmp_path / "runs"
    assert main(["simulate", "--out", str(out),
                 "--set", "experiment.x0={a: 1, a: 2}"]) == 2
    err = capsys.readouterr().err
    assert err == "error: config key experiment.x0.a is repeated\n"
    assert not out.exists()


def test_invalid_path_count_fails_before_run_dir(tmp_path, capsys):
    out = tmp_path / "runs"
    cases = [("compare", f"experiment.n_paths={bad}", "experiment.n_paths")
             for bad in ("1", "0", "2.5", "true")]
    cases += [
        ("eta", "experiment.n_paths=50", "n_paths must be at least 100"),
        ("eta", "experiment.horizons=[1, 2]", "three distinct horizons"),
        ("simulate", "experiment.epsilon=2", "experiment.epsilon"),
        ("simulate", "experiment.epsilon=-0.1", "experiment.epsilon"),
        ("simulate", "experiment.horizon=-1", "experiment.horizon"),
        ("simulate", "experiment.horizon=.inf", "experiment.horizon"),
        ("compare", "experiment.epsilons=[0.1, 0]", "experiment.epsilons"),
        ("compare", "experiment.epsilons=[1.5]", "experiment.epsilons"),
        ("compare", "experiment.epsilons=0.1", "experiment.epsilons"),
        ("exit-prob", "experiment.gamma=-1", "experiment.gamma"),
        ("exit-prob", "experiment.gamma=0", "experiment.gamma"),
        ("exit-prob", "experiment.gamma=.nan", "experiment.gamma"),
        ("exit-prob", "experiment.search_horizon=.inf",
         "experiment.search_horizon"),
        ("average", "experiment.search_horizon=0", "experiment.search_horizon"),
        ("compare", "experiment.ode_step=0", "experiment.ode_step"),
        ("average", "experiment.ode_step=-1e-3", "experiment.ode_step"),
        ("simulate", "experiment.x0=[1, 0]", "experiment.x0"),
        ("simulate", "experiment.x0=[1, 0, .nan]", "experiment.x0"),
        ("simulate", "experiment.x0=[1, 0, z]", "experiment.x0"),
        ("simulate", "experiment.x0=1", "experiment.x0"),
        ("compare", "experiment.horizon=5",
         "reaches the transversal boundary at s=3.21888"),
        ("average", "experiment.x0=[6, 0, 0]",
         "v0 lies outside the transversal domain"),
        ("simulate", "experiment.x0=[6, 0, 0]", "outside the chart domain"),
        # every ensemble experiment checks its start point first
        ("compare", "experiment.x0=[10.0, 0.0, 0.0]",
         "outside the chart domain"),
        ("exit-prob", "experiment.x0=[10.0, 0.0, 0.0]",
         "outside the chart domain"),
        ("eta", "experiment.x0=[10.0, 0.0, 0.0]", "outside the chart domain"),
        ("deviation", "experiment.x0=[10.0, 0.0, 0.0]",
         "outside the chart domain"),
        ("deviation", "experiment.x0=[0, 0, 0]", "outside the chart domain"),
        ("exit-prob", "experiment.search_horizon=0.5",
         "over the whole search horizon 0.5"),
        ("eta", "experiment.observable=bogus", "experiment.observable"),
        ("compare", "experiment.p=0.5", "experiment.p"),
        ("average", "experiment.n_nodes=4", "n_nodes must be at least 8"),
        ("charfn", "experiment.t=-1", "t must be nonnegative"),
        ("charfn", "experiment.n_samples=0", "experiment.n_samples"),
        ("deviation", "experiment.p=0.5", "experiment.p"),
        ("deviation", "experiment.epsilons=[0.5]", "two distinct eps"),
        ("deviation", "experiment.epsilons=[0.5, 0.5]", "two distinct eps"),
        ("eta", "experiment.p=1", "moment order p must be at least 2"),
        ("simulate", "integrator.scheme=exact_leaf", "scheme must be one of"),
        ("simulate", "integrator.step_h=abc", "integrator.step_h"),
        ("simulate", "integrator.jump_cutoff=abc", "integrator.jump_cutoff"),
        ("simulate", "preset.r_min=abc", "preset.r_min"),
        ("average", "experiment.n_nodes=abc", "experiment.n_nodes"),
        ("average", "experiment.n_r=abc", "experiment.n_r"),
        ("eta", "experiment.horizons=abc", "experiment.horizons"),
        ("eta", "experiment.horizons=[10, abc, 100]", "experiment.horizons"),
        ("charfn", "experiment.u_values=abc", "experiment.u_values"),
        ("charfn", "experiment.u_values=[]", "experiment.u_values"),
        ("average", "experiment.n_nodes=8.5", "n_nodes must be at least 8"),
        ("average", "experiment.n_r=0", "experiment.n_r"),
        ("average", "experiment.n_z=-1", "experiment.n_z"),
        ("average", "experiment.n_z=2.5", "experiment.n_z"),
        ("simulate", "run.out_dir=5", "run.out_dir"),
        ("simulate", "run.stream_base=0.001", "stream_index must be"),
        ("simulate", "run.stream_base=-7", "stream_index must be"),
        ("simulate", "run.threads=1", "unknown config key run.threads"),
        ("simulate", "integrator.splitting=lie",
         "unknown config key integrator.splitting"),
        ("simulate", "preset.kappa=0.5", "unknown config key preset.kappa"),
        # the Gamma rate has a floor of 1e-150; a subnormal one is below it
        ("simulate", "preset.theta=9.99e-151", "rate must be at least 1e-150"),
        ("charfn", "preset.theta=5e-324", "rate must be at least 1e-150"),
        # u*Z from 2**52 on, past the float range too, keeps no phase
        ("charfn", "experiment.u_values=[1, 1e308]",
         "u = 1e+308 times a draw of Z_t"),
        ("charfn", "experiment.u_values=[1, 1e20]",
         "u = 1e+20 times a draw of Z_t"),
        # Z_t near 1e300: no u of the defaults leaves u*Z a phase
        ("charfn", "experiment.t=1e300", "is at least 2**52"),
        ("compare", "experiment.method=quadrature",
         "unknown config key experiment.method"),
        ("simulate", "preset.k_constant=[1, 2, .nan]", "preset.k_constant"),
        ("charfn", "experiment.t=.nan", "experiment.t"),
        ("charfn", "experiment.t=.inf", "experiment.t"),
        ("simulate", "integrator.step_h=.inf", "integrator.step_h"),
        ("simulate", "integrator.step_h=1e-9", "more than the 1e+08 allowed"),
        ("simulate", "integrator.step_h=1e-320", "more than the 1e+08 allowed"),
        ("average", "experiment.ode_step=1e-300", "more than the 1e+08 allowed"),
        # counts that size an allocation up front have a ceiling
        ("average", "experiment.n_nodes=100000000000",
         "n_nodes must be at least 8 and at most 10000000"),
        ("charfn", "experiment.n_samples=100000000000",
         "experiment.n_samples must be at least 1 and at most 10000000"),
        ("check", "integrator.jump_ode_substeps=1000000000000",
         "jump_ode_substeps must be at least 1 and at most 10000"),
        ("average", "experiment.n_r=100000000000",
         "experiment.n_r must be at least 1 and at most 100000"),
        ("average", "experiment.n_z=100000000000",
         "experiment.n_z must be at least 1 and at most 100000"),
        # with the default n_z = 5: 500000 averaged-field evaluations
        ("average", "experiment.n_r=100000",
         "experiment.n_r x experiment.n_z must be at most 100000"),
        # the paths x steps an ensemble call plans have a ceiling
        ("compare", "experiment.n_paths=100000000000",
         "path-steps, more than the 1e+10 allowed"),
        ("eta", "experiment.n_paths=100000000000",
         "path-steps, more than the 1e+10 allowed"),
    ]
    # an integer past the float range is not a finite number
    cases += [(command, f"experiment.horizon={10 ** 400}",
               "experiment.horizon must be a finite number")
              for command in ("average", "compare", "simulate")]
    for command, override, message in cases:
        assert main([command, "--out", str(out), "--set", override]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert err.startswith("error: ") and err.count("\n") == 1
    # the --seed flag meets the range of run.master_seed
    assert main(["simulate", "--out", str(out), "--seed", "-7"]) == 2
    assert capsys.readouterr().err == \
        "error: master_seed must be a nonnegative integer\n"
    assert not out.exists()


class _Reached(Exception):
    """Raised by the stand-ins for the path kernel, the stream maker and a
    stream's generator."""


def _reached(*args, **kwargs):
    raise _Reached


class _Unread:
    """A stream that ends the call at its first draw."""
    generator = _reached


_PRESET = make_cylinder_preset()
_ARGS = (_PRESET.fields, _PRESET.chart, _PRESET.driver)
_AVG = averaged_field(_PRESET.chart, _PRESET.fields)
_X0 = np.array([1.0, 0.0, 0.0])
_GAMMA = GammaSubordinator(1.0)
_TRUNCATED = truncate_gamma(_GAMMA, 0.01)
_SOL = solve_averaged_ode(_AVG, np.array([1.0, 0.0]), 0.1)
_PSI = lambda s: s[..., 0]
_ETA = partial(estimate_eta, *_ARGS, _PSI, _X0)


# The one table of argument checks: site -> (the call with value v in
# place of one argument, its valid value, its kind, values out of its
# range).  The row of a _real, _reals or _count call is keyed by the
# function that makes it (a __post_init__ by its class) and the value it
# checks, `self.` dropped; any other row by the function it calls and
# the argument that it varies.
_SITES = {
    "transversal_comparison.epsilons": (lambda v: transversal_comparison(
        *_ARGS, _AVG, _X0, v, 0.3, n_paths=4), [0.5], "list",
        [[0.0], [1.5], [-0.5]]),
    "transversal_comparison.horizon": (lambda v: transversal_comparison(
        *_ARGS, _AVG, _X0, [0.5], v, n_paths=4), 0.3, "real", [0, -1.0]),
    "transversal_comparison.p": (lambda v: transversal_comparison(
        *_ARGS, _AVG, _X0, [0.5], 0.3, p=v, n_paths=4), 2, "real", [0.5]),
    "transversal_comparison.n_paths": (lambda v: transversal_comparison(
        *_ARGS, _AVG, _X0, [0.5], 0.3, n_paths=v), 4, "count", [1, 0, 10 ** 11]),
    "transversal_comparison.master_seed": (lambda v: transversal_comparison(
        *_ARGS, _AVG, _X0, [0.5], 0.3, n_paths=4, master_seed=v), 0,
        "count", []),
    "transversal_comparison.stream_base": (lambda v: transversal_comparison(
        *_ARGS, _AVG, _X0, [0.5], 0.3, n_paths=4, stream_base=v), 0,
        "count", []),
    "transversal_comparison.ode_step": (lambda v: transversal_comparison(
        *_ARGS, _AVG, _X0, [0.5], 0.3, n_paths=4, ode_step=v), 1e-3,
        "real", [0, -1e-3]),
    "transversal_comparison.threads": (lambda v: transversal_comparison(
        *_ARGS, _AVG, _X0, [0.5], 0.3, n_paths=4, threads=v), 1, "count",
        [0]),
    "exit_probability.epsilons": (lambda v: exit_probability(
        *_ARGS, _AVG, _X0, v, 0.1, n_paths=4), [0.5], "list", [[1.5], [2.0]]),
    "exit_probability.gamma": (lambda v: exit_probability(
        *_ARGS, _AVG, _X0, [0.5], v, n_paths=4), 0.1, "real", [0, 0.0, -1.0]),
    "exit_probability.n_paths": (lambda v: exit_probability(
        *_ARGS, _AVG, _X0, [0.5], 0.1, n_paths=v), 4, "count",
        [1, 10 ** 11]),
    "exit_probability.master_seed": (lambda v: exit_probability(
        *_ARGS, _AVG, _X0, [0.5], 0.1, n_paths=4, master_seed=v), 0,
        "count", []),
    "exit_probability.stream_base": (lambda v: exit_probability(
        *_ARGS, _AVG, _X0, [0.5], 0.1, n_paths=4, stream_base=v), 0,
        "count", []),
    "exit_probability.ode_step": (lambda v: exit_probability(
        *_ARGS, _AVG, _X0, [0.5], 0.1, n_paths=4, ode_step=v), 1e-3,
        "real", [0]),
    "exit_probability.search_horizon": (lambda v: exit_probability(
        *_ARGS, _AVG, _X0, [0.5], 0.1, n_paths=4, search_horizon=v), 50.0,
        "real", [0, -1.0]),
    "deviation_scaling.epsilons": (lambda v: deviation_scaling(
        *_ARGS, _X0, v, 0.3, n_paths=4), [0.5, 0.25], "list",
        [[0.0], [0.5], [0.5, 0.5], [-0.1], ["a"]]),
    "deviation_scaling.horizon": (lambda v: deviation_scaling(
        *_ARGS, _X0, [0.5, 0.25], v, n_paths=4), 0.3, "real", [0, 0.0]),
    "deviation_scaling.observable": (lambda v: deviation_scaling(
        *_ARGS, _X0, [0.5, 0.25], 0.3, v, n_paths=4), "radial", None,
        ["angular"]),
    "deviation_scaling.p": (lambda v: deviation_scaling(
        *_ARGS, _X0, [0.5, 0.25], 0.3, p=v, n_paths=4), 2, "real", [0.5]),
    "deviation_scaling.n_paths": (lambda v: deviation_scaling(
        *_ARGS, _X0, [0.5, 0.25], 0.3, n_paths=v), 4, "count",
        [1, 10 ** 11]),
    "deviation_scaling.master_seed": (lambda v: deviation_scaling(
        *_ARGS, _X0, [0.5, 0.25], 0.3, n_paths=4, master_seed=v), 0,
        "count", []),
    "deviation_scaling.stream_base": (lambda v: deviation_scaling(
        *_ARGS, _X0, [0.5, 0.25], 0.3, n_paths=4, stream_base=v), 0,
        "count", []),
    "scheme_agreement.horizon": (lambda v: scheme_agreement(
        *_ARGS, _X0, horizon=v, n_paths=4), 2.0, "real", [0]),
    "scheme_agreement.eps": (lambda v: scheme_agreement(
        *_ARGS, _X0, eps=v, n_paths=4), 0.5, "real", [0, 1.5]),
    "scheme_agreement.level_cutoff": (lambda v: scheme_agreement(
        *_ARGS, _X0, levels=((v, 0.04),), n_paths=4), 0.08, "real",
        [0.002, 0.001]),
    "scheme_agreement.level_step": (lambda v: scheme_agreement(
        *_ARGS, _X0, levels=((0.08, v),), n_paths=4), 0.04, "real", [0]),
    "scheme_agreement.n_paths": (lambda v: scheme_agreement(
        *_ARGS, _X0, n_paths=v), 4, "count", [1, 3.5, 10 ** 11]),
    "scheme_agreement.master_seed": (lambda v: scheme_agreement(
        *_ARGS, _X0, n_paths=4, master_seed=v), 0, "count", []),
    "scheme_agreement.stream_base": (lambda v: scheme_agreement(
        *_ARGS, _X0, n_paths=4, stream_base=v), 0, "count", []),
    "scheme_agreement.threads": (lambda v: scheme_agreement(
        *_ARGS, _X0, n_paths=4, threads=v), 1, "count", [0]),
    "estimate_eta.horizons": (lambda v: _ETA(v, n_paths=100),
                              [5.0, 10.0, 20.0], "list",
                              [[5.0, -10.0, 20.0], [-1.0, 5.0, 10.0],
                               ["abc", 20, 30], [5.0, 10.0], [5.0, 5.0, 10.0],
                               [5.0055, 10.0, 20.0]]),
    "estimate_eta.psi": (lambda v: estimate_eta(
        *_ARGS, v, _X0, [5.0, 10.0, 20.0], n_paths=100), _PSI, None,
        ["radial", 1.0, None]),
    "estimate_eta.p": (lambda v: _ETA([5.0, 10.0, 20.0], p=v, n_paths=100),
                       2, "real", [1, 1.5]),
    "estimate_eta.n_paths": (lambda v: _ETA([5.0, 10.0, 20.0], n_paths=v),
                             100, "count", [50, 99, 100.5, 10 ** 11]),
    "estimate_eta.master_seed": (lambda v: _ETA(
        [5.0, 10.0, 20.0], n_paths=100, master_seed=v), 0, "count", []),
    "estimate_eta.stream_base": (lambda v: _ETA(
        [5.0, 10.0, 20.0], n_paths=100, stream_base=v), 0, "count", []),
    "lp_moment.p": (lambda v: lp_moment([1.0, 2.0], v), 2, "real",
                    [0.5, -1, "2"]),
    "time_to_margin.gamma": (lambda v: _SOL.time_to_margin(v), 0.1, "real",
                             [-0.1]),
    "solve_averaged_ode.horizon": (lambda v: solve_averaged_ode(
        _AVG, np.array([1.0, 0.0]), v), 0.1, "real", [0, -1.0]),
    "solve_averaged_ode.step": (lambda v: solve_averaged_ode(
        _AVG, np.array([1.0, 0.0]), 0.1, v), 1e-3, "real", [0]),
    "_leaf_mean.n_nodes": (lambda v: leaf_average_quadrature(
        _PRESET.chart, _PSI, np.array([1.0, 0.0]), n_nodes=v), 64, "count",
        [7, 10 ** 8, 10 ** 11, 10 ** 400]),
    "make_cylinder_preset.r_min": (lambda v: make_cylinder_preset(
        r_min=v, r_max=2.0), 0.5, "real", [1.5, 0.0]),
    "make_cylinder_preset.r_max": (lambda v: make_cylinder_preset(
        r_min=0.5, r_max=v), 2.0, "real", [0.9]),
    "make_cylinder_preset.z_min": (lambda v: make_cylinder_preset(
        z_min=v, z_max=-1.0), -2.0, "real", [1.0]),
    "make_cylinder_preset.z_max": (lambda v: make_cylinder_preset(
        z_min=1.0, z_max=v), 2.0, "real", [-1.0]),
    "IntegratorConfig.scheme": (lambda v: IntegratorConfig(scheme=v),
                                "grid_increment", None,
                                ["euler", "exact_leaf"]),
    "IntegratorConfig.step_h": (lambda v: IntegratorConfig(step_h=v), 0.01,
                                "real", [0, 0.0, -1e-3]),
    "IntegratorConfig.jump_ode_substeps": (
        lambda v: IntegratorConfig(jump_ode_substeps=v), 20, "count",
        [0, 10 ** 4 + 1]),
    "IntegratorConfig.jump_cutoff": (lambda v: IntegratorConfig(
        jump_cutoff=v), 1e-3, "real", [0, -1e-3]),
    "resolve_grid.horizon": (lambda v: resolve_grid(
        IntegratorConfig(), 0.1, v), 1.0, "real", [-1, -1.0]),
    # a step so fine that the horizon takes more than 1e8 of them
    "resolve_grid.step_h": (lambda v: resolve_grid(
        IntegratorConfig(step_h=v), 0.1, 1.0), 0.01, None, [1e-9]),
    "integrate_grid_ensemble.eps": (lambda v: integrate_grid_ensemble(
        _ARGS[0], _ARGS[2], _X0, 1.0, v, IntegratorConfig(), [_Unread()],
        contains=_PRESET.chart.contains), 0.1, "real", [-1.0, 2.0]),
    "integrate_grid_ensemble.pair_eps": (lambda v: integrate_grid_ensemble(
        _ARGS[0], _ARGS[2], _X0, 1.0, 0.1, IntegratorConfig(), [_Unread()],
        pair_eps=v), 0.1, "real", [-1.0, 2.0]),
    "integrate_path.eps": (lambda v: integrate_path(
        *_ARGS, _X0, 1.0, v, rng=_Unread()), 0.1, "real", [-0.1, 1.5]),
    "integrate_path.horizon": (lambda v: integrate_path(
        *_ARGS, _X0, v, rng=_Unread()), 1.0, "real", [-1.0]),
    # the drivers take None and an int -1 as well
    "GammaSubordinator.rate": (lambda v: GammaSubordinator(v), _MIN_RATE,
                               "real", [0, 0.0, -1.0, -1, None, 1e-151,
                                        math.nextafter(_MIN_RATE, 0.0),
                                        1e-200, 5e-324]),
    "tail_mass.cutoff": (lambda v: _GAMMA.tail_mass(v), 0.05, "real",
                         [0.0, -1, None]),
    "TruncatedMeasure.cutoff": (lambda v: replace(
        _TRUNCATED, cutoff=v), 0.01, "real", [0, 0.0, -1, -0.1, None]),
    "TruncatedMeasure.restricted_mass": (lambda v: replace(
        _TRUNCATED, restricted_mass=v), 1.0, "real", [0, 0.0, -1, None]),
    "TruncatedMeasure.compensator": (lambda v: replace(
        _TRUNCATED, compensator=v), 0.0, "real", [-1.0, -1, -1e-3, None]),
    "truncate_gamma.cutoff": (lambda v: truncate_gamma(_GAMMA, v), 0.01,
                              "real", [0, 0.0, -1, -0.1, None]),
    "make_step_sampler.h": (lambda v: make_step_sampler(_GAMMA, v), 0.1,
                            "real", [0.0, -0.1, -1, None]),
    "characteristic_function.t": (lambda v: characteristic_function(
        _GAMMA, 1.0, v), 1.0, "real", [-1.0, -1, None]),
    "characteristic_function.u": (lambda v: characteristic_function(
        _GAMMA, v, 1.0), 1.0, "real", [[1.0, math.nan], [math.inf]]),
    "marginal_samples.t": (lambda v: marginal_samples(
        _GAMMA, v, 10, _Unread()), 1.0, "real", [-1.0, -1, None]),
    "marginal_samples.n": (lambda v: marginal_samples(
        _GAMMA, 1.0, v, _Unread()), 10, "count",
        [-3, 2.0, 10 ** 8, 10 ** 400]),
    # the count is checked before the t == 0 return
    "marginal_samples.n_at_t0": (lambda v: marginal_samples(
        _GAMMA, 0.0, v, _Unread()), 10, "count", [-3, 2.0]),
    "circle_law_distance.t": (lambda v: circle_law_distance(
        _GAMMA, v, 200, _Unread()), 1.0, "real", [-1.0]),
    "circle_law_distance.n_paths": (lambda v: circle_law_distance(
        _GAMMA, 1.0, v, _Unread()), 200, "count",
        [99, 150.5, 1e6, "200", 10 ** 8, 10 ** 12, 10 ** 400]),
    "sample_jump_events.horizon": (lambda v: sample_jump_events(
        truncate_gamma(_GAMMA, 0.05), v, _Unread()), 1.0, "real",
        [-1.0, -1, None]),
    "RngStream.master_seed": (lambda v: RngStream(v), 1, "count", []),
    "RngStream.stream_index": (lambda v: RngStream(1, v), 1, "count", []),
    "path_streams.master_seed": (lambda v: path_streams(v, 0, 2), 1,
                                 "count", []),
    "path_streams.base": (lambda v: path_streams(1, v, 2), 0, "count", []),
    "path_streams.n_paths": (lambda v: path_streams(1, 0, v), 2, "count",
                             []),
}

# site -> a fragment of the message its every rejection holds
_POSITIVE = "must be positive and finite"
_MESSAGES = {
    "GammaSubordinator.rate": f"rate must be at least {_MIN_RATE} and finite",
    "tail_mass.cutoff": f"cutoff {_POSITIVE}",
    "TruncatedMeasure.cutoff": f"cutoff {_POSITIVE}",
    "TruncatedMeasure.restricted_mass": f"restricted mass {_POSITIVE}",
    "truncate_gamma.cutoff": f"cutoff {_POSITIVE}",
    "make_step_sampler.h": f"step {_POSITIVE}",
    "TruncatedMeasure.compensator": "compensator must be nonnegative and finite",
    "sample_jump_events.horizon": "horizon must be nonnegative and finite",
    "characteristic_function.t": "t must be nonnegative and finite",
    "marginal_samples.t": "t must be nonnegative and finite",
    "marginal_samples.n": "must be a nonnegative integer",
    "marginal_samples.n_at_t0": "must be a nonnegative integer",
    "circle_law_distance.n_paths": "must be a nonnegative integer",
    "integrate_grid_ensemble.eps": "eps must be nonnegative and at most 1",
    "integrate_grid_ensemble.pair_eps": "pair_eps must be nonnegative",
    "estimate_eta.psi": "psi must be callable",
}

# invalid for any argument of the kind: an integer past the float range,
# nan and +-inf, strings, bools, and for counts non-integral values
_INVALID = {
    "real": [10 ** 400, -10 ** 400, math.nan, math.inf, -math.inf, "abc",
             "1", True, False],
    "count": [-1, 2.5, np.float64(3.0), math.nan, math.inf, "3", True,
              False],
}
_INVALID["list"] = [[0.5, v] for v in _INVALID["real"]] + ["abc", [], 0.5]
_CASES = [(site, v) for site, (_, _, kind, out) in sorted(_SITES.items())
          for v in _INVALID.get(kind, []) + out]


def _no_work(monkeypatch):
    # an entry point that checks its arguments first never reaches these
    for module in (experiments, averaging):
        monkeypatch.setattr(module, "path_streams", _reached)
        monkeypatch.setattr(module, "integrate_grid_ensemble", _reached)


@pytest.mark.parametrize("site, value", _CASES,
                         ids=[f"{s}-{v!r:.24}" for s, v in _CASES])
def test_invalid_numbers_are_config_errors_before_any_path(site, value,
                                                           monkeypatch):
    assert issubclass(ConfigError, ValueError)
    _no_work(monkeypatch)
    with pytest.raises(ConfigError) as info:
        _SITES[site][0](value)
    assert _MESSAGES.get(site, "") in str(info.value)


@pytest.mark.parametrize("site", sorted(_SITES))
def test_argument_sites_accept_their_valid_value(site, monkeypatch):
    # each site of the test above rejects its value, not another argument
    call, valid, _, _ = _SITES[site]
    _no_work(monkeypatch)
    try:
        call(valid)
    except _Reached:
        pass


_STARTS = {
    "transversal_comparison": lambda x0: transversal_comparison(
        *_ARGS, _AVG, x0, [0.5], 0.3, n_paths=4),
    "exit_probability": lambda x0: exit_probability(
        *_ARGS, _AVG, x0, [0.5], 0.1, n_paths=4),
    "deviation_scaling": lambda x0: deviation_scaling(
        *_ARGS, x0, [0.5, 0.25], 0.3, n_paths=4),
    "scheme_agreement": lambda x0: scheme_agreement(*_ARGS, x0, n_paths=4),
    "estimate_eta": lambda x0: estimate_eta(
        *_ARGS, lambda s: s[..., 0], x0, [5.0, 10.0, 20.0], n_paths=100),
}


@pytest.mark.parametrize("name", sorted(_STARTS))
def test_ensemble_experiments_check_the_start_first(name, monkeypatch):
    # a start outside U is a DomainError and one of the wrong dimension a
    # ConfigError, both before the averaged solve, the leaf mean or a path
    _no_work(monkeypatch)
    monkeypatch.setattr(experiments, "solve_averaged_ode", _reached)
    monkeypatch.setattr(averaging, "leaf_average_quadrature", _reached)
    run = _STARTS[name]
    for x0 in ([10.0, 0.0, 0.0], [0.0, 0.0, 0.0]):
        with pytest.raises(DomainError, match="outside the chart domain"):
            run(np.array(x0))
    for x0 in (np.array([1.0, 0.0]), "abc", ["a", 0.0, 0.0]):
        with pytest.raises(ConfigError, match="dimension 3"):
            run(x0)
    with pytest.raises(_Reached):
        run(_X0)


KEYS = [(sec.name, key.name, getattr(getattr(ExperimentConfig(), sec.name),
                                     key.name))
        for sec in fields(ExperimentConfig)
        for key in fields(sec.default_factory)]


# boundary and negative numbers, the wrong type, NaN, +-inf, bools, null
# and lists: none of them asks for much work from a command that accepts it
_POOL = [0, 1, -1, 0.0, 1.0, -0.5, 2.5, 1e-3, math.nan, math.inf, -math.inf,
         True, False, None, "abc", "", "radial", "constant", "strang",
         "exact_leaf", [], [0.5], [1, 0, 0], [1.0, math.nan, "a"]]


def _overrides(wide):
    """1 to 3 (section.key, value) pairs; a value is the key's default or
    from _POOL, or with `wide` any integer, float or short list."""
    def values(default):
        pool = st.one_of(st.just(default), st.sampled_from(_POOL))
        if not wide:
            return pool
        return st.one_of(pool, st.integers(), st.floats(),
                         st.lists(st.one_of(st.floats(), st.integers(),
                                            st.just("a")), max_size=4))
    pair = st.sampled_from(KEYS).flatmap(
        lambda k: st.tuples(st.just(k[:2]), values(k[2])))
    return st.lists(pair, min_size=1, max_size=3)


def _raw(overrides):
    raw = {}
    for (section, key), value in overrides:
        raw.setdefault(section, {})[key] = value
    return raw


@settings(max_examples=300, deadline=None)
@given(overrides=_overrides(wide=True))
# integers past the float range, and at its edge, for a key the drivers
# check; nan and inf for the same key
@example(overrides=[(("preset", "theta"), 2 ** 64)])
@example(overrides=[(("preset", "theta"), 10 ** 400)])
@example(overrides=[(("preset", "theta"), math.nan)])
@example(overrides=[(("preset", "theta"), math.inf)])
def test_every_config_key_returns_or_raises_config_error(overrides):
    # any value of any key either builds the integrator section and the
    # preset or is rejected with ConfigError; no other exception escapes
    try:
        cfg = config_from_dict(_raw(overrides))
        preset_from_config(cfg)
        assert isinstance(cfg.integrator, IntegratorConfig)
    except ConfigError:
        pass


# a string for a free-text key: any text, or one that YAML 1.2 reads as a
# number (1e5, .5, 3) and so must be written quoted
_TEXT = st.one_of(st.text(max_size=8), st.from_regex(_FLOAT, fullmatch=True))


@settings(max_examples=300, deadline=None)
@given(overrides=_overrides(wide=True),
       text=st.tuples(st.just(("run", "out_dir")), _TEXT))
def test_dumped_config_reads_back_equal(overrides, text):
    try:
        cfg = config_from_dict(_raw([*overrides, text]))
    except ConfigError:
        return
    assert loads_config(dump_config(cfg)) == cfg


@settings(max_examples=12, deadline=None)
@given(command=st.sampled_from(["simulate", "average", "charfn", "compare"]),
       overrides=_overrides(wide=False))
def test_cli_runs_exit_zero_with_a_run_dir_or_two_without(tmp_path_factory,
                                                          command, overrides):
    out = tmp_path_factory.mktemp("runs") / "runs"
    args = [command, "--out", str(out), *SMALL,
            "--set", "experiment.n_samples=200"]
    for (section, key), value in overrides:
        text = yaml.safe_dump(value, default_flow_style=True).split("\n")[0]
        args += ["--set", f"{section}.{key}={text}"]
    code = main(args)
    assert code in (0, 2)
    assert out.exists() == (code == 0)


def test_import_leaves_yaml_unloaded():
    # PyYAML is imported only where a config is parsed or written, and the
    # config annotations are resolved only where a config is checked, so
    # importing the package and building the preset and its averaged
    # field do neither; parsing a config then still works
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(folevy.__file__)))
    code = ("import sys, folevy\n"
            "preset = folevy.make_cylinder_preset()\n"
            "folevy.averaged_field(preset.chart, preset.fields)\n"
            "print(sorted(m for m in sys.modules if m.startswith('yaml')))\n"
            "print(folevy.config._hints.cache_info().currsize)\n"
            "cfg = folevy.loads_config('preset: {theta: 2.5}')\n"
            "print(cfg.preset.theta)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out == ["[]", "0", "2.5"]


def _package_trees():
    src = os.path.dirname(folevy.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read())


def test_package_raises_no_bare_value_error():
    found = []
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                found.append(f"{name}:{node.lineno}")
    assert found == []


# scheme_agreement checks each of its levels as a pair (c, h)
_LEVELS = {"scheme_agreement.c": "scheme_agreement.level_cutoff",
           "scheme_agreement.h": "scheme_agreement.level_step"}


def test_every_argument_check_has_a_row_in_the_table():
    # each _real, _reals or _count call outside the config has a row of
    # _SITES with an argument kind under the key the table's comment gives
    keys = []

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            name = owner
            if isinstance(child, ast.ClassDef) or (
                    isinstance(child, ast.FunctionDef)
                    and child.name != "__post_init__"):
                name = child.name
            if isinstance(child, ast.Call) and getattr(
                    child.func, "id", None) in ("_real", "_reals", "_count"):
                value = ast.unparse(child.args[0]).removeprefix("self.")
                key = f"{name}.{value}"
                keys.append(_LEVELS.get(key, key))
            walk(child, name)

    for name, tree in _package_trees():
        if name not in ("config.py", "errors.py"):
            walk(tree, None)
    assert len(keys) > 60
    assert [k for k in keys if _SITES.get(k, (0, 0, None))[2] is None] == []


def test_compare_solves_the_averaged_ode_once(tmp_path, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return solve_averaged_ode(*args, **kwargs)

    monkeypatch.setattr(experiments, "solve_averaged_ode", counting)
    monkeypatch.setattr(cli, "solve_averaged_ode", counting)
    assert main(["compare", "--out", str(tmp_path / "runs"), *SMALL]) == 0
    assert len(calls) == 1


def test_cli_check_passes_and_writes_report(tmp_path):
    out = tmp_path / "runs"
    assert main(["check", "--out", str(out), "--seed", "7"]) == 0
    report = json.load(open(os.path.join(_run_dir(out), "check.json")))
    assert report["all_passed"]
    assert len(report["checks"]) == 7


@pytest.mark.parametrize("bounds", [
    ["preset.r_min=0.99", "preset.r_max=1.01"],
    ["preset.z_min=1", "preset.z_max=5"],
    # gaps that are rounding relative to the radius, and a cutoff that
    # scales with the rate
    ["preset.r_max=1e6"],
    ["preset.theta=1e20"],
], ids=["narrow_annulus", "positive_z_box", "large_radius", "large_rate"])
def test_cli_check_points_lie_inside_any_domain(tmp_path, monkeypatch,
                                                bounds):
    # the check points come from the chart's own bounds, so they lie
    # inside U however narrow or far from the origin U is
    checked = []

    def spy(fields, chart, points):
        checked.append(bool(np.all(chart.contains(points))))
        return tangency_check(fields, chart, points)

    monkeypatch.setattr(cli, "tangency_check", spy)
    out = tmp_path / "runs"
    overrides = [arg for b in bounds for arg in ("--set", b)]
    assert main(["check", "--out", str(out), *overrides]) == 0
    assert checked == [True]
    report = json.load(open(os.path.join(_run_dir(out), "check.json")))
    assert report["all_passed"] and len(report["checks"]) == 7


def test_cli_check_fails_a_radius_drift_beyond_rounding(tmp_path, monkeypatch):
    def drifting(fields, x, z, cfg):
        moved = jump_flow(fields, x, z, cfg)
        moved[..., :2] *= 1 + 1e-9
        return moved

    monkeypatch.setattr(cli, "jump_flow", drifting)
    out = tmp_path / "runs"
    assert main(["check", "--out", str(out)]) == 1
    report = json.load(open(os.path.join(_run_dir(out), "check.json")))
    assert [c["name"] for c in report["checks"] if not c["passed"]] == [
        "jump flow preserves the leaf radius"]


def test_cli_check_repeat_runs_start_inside_u(tmp_path, monkeypatch):
    # on a box that leaves out z = 0, a start at (1, 0, 0) lies outside U,
    # and every path of the repeated-run check "exited" at its first step
    runs = []

    def spy(*args, **kwargs):
        res = integrate_grid_ensemble(*args, **kwargs)
        runs.append(res)
        return res

    monkeypatch.setattr(cli, "integrate_grid_ensemble", spy)
    overrides = ["--set", "preset.z_min=1", "--set", "preset.z_max=5"]
    assert main(["check", "--out", str(tmp_path / "runs"), *overrides]) == 0
    assert len(runs) == 2
    for res in runs:
        assert not np.any(res.exit_times <= res.h)


def test_cli_non_finite_paths_exit_two(tmp_path, capsys, monkeypatch):
    # a perturbation that returns NaN: the paths leave the finite range,
    # which exits 2 instead of an exit probability of 1
    def nan_preset(cfg):
        preset = preset_from_config(cfg)
        nan = replace(preset.fields,
                      perturbation=lambda x: np.full(x.shape, np.nan))
        return replace(preset, fields=nan)

    # the averaged field of the preset as configured, NaN-free
    monkeypatch.setattr(cli, "_averaged", lambda cfg, preset: averaged_field(
        preset.chart, preset_from_config(cfg).fields))
    monkeypatch.setattr(cli, "preset_from_config", nan_preset)
    out = tmp_path / "runs"
    assert main(["exit-prob", "--out", str(out), "--set", "preset.r_max=2.0",
                 "--set", "experiment.epsilons=[0.5]",
                 "--set", "experiment.n_paths=4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite range" in err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["eta", "--set", "experiment.n_paths=100",
     "--set", "experiment.horizons=[1,2,3]"],
    ["average"],
], ids=["eta", "average"])
def test_cli_overflowing_field_exits_two(tmp_path, capsys, command):
    # the leaf averages and time integrals of a field of size 1e308
    # overflow: that used to print numpy's warnings, then end in
    # lp_moment's ConfigError or the averaged ODE's BlowupError
    out = tmp_path / "runs"
    assert main([*command, "--out", str(out),
                 "--set", "preset.k_choice=constant",
                 "--set", "preset.k_constant=[1e308,1e308,1e308]"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "finite range" in err[0]
    assert not out.exists()


def test_cli_check_failure_exits_one_with_report(tmp_path, capsys,
                                                 monkeypatch):
    monkeypatch.setattr(cli, "tangency_check", lambda *args: 1.0)
    out = tmp_path / "runs"
    assert main(["check", "--out", str(out), "--seed", "7"]) == 1
    run = _run_dir(out)
    assert sorted(os.listdir(run)) == ["check.json", "effective_config.yaml"]
    report = json.load(open(os.path.join(run, "check.json")))
    assert not report["all_passed"]
    assert [c["name"] for c in report["checks"] if not c["passed"]] == [
        "driving fields tangent to leaves"]
    assert capsys.readouterr().out.splitlines()[-1] == "1 of 7 checks failed"


# ---------------------------------------------------------------------------
# artifacts per subcommand
# ---------------------------------------------------------------------------

# command, tiny-size arguments, the CSVs it writes in write order
SUBCOMMANDS = [
    ("simulate", [], ["trajectory.csv"]),
    ("average", ["--set", "experiment.n_nodes=16"],
     ["averaged_field.csv", "averaged_path.csv"]),
    ("eta", ["--set", "experiment.horizons=[1.0, 2.0, 4.0]",
             "--set", "experiment.n_paths=100"], ["eta.csv"]),
    ("compare", SMALL, ["comparison.csv"]),
    ("exit-prob", ["--set", "preset.r_max=2.0",
                   "--set", "experiment.epsilons=[0.5]",
                   "--set", "experiment.n_paths=4"], ["exit_prob.csv"]),
    ("deviation", SMALL, ["deviation.csv"]),
    ("charfn", ["--set", "experiment.n_samples=200"], ["charfn.csv"]),
    ("check", [], []),
]


@pytest.mark.parametrize("command, args, csvs", SUBCOMMANDS,
                         ids=[c for c, _, _ in SUBCOMMANDS])
def test_subcommand_run_directory_and_wrote_lines(tmp_path, capsys, command,
                                                  args, csvs):
    out = tmp_path / "runs"
    assert main([command, "--out", str(out), "--seed", "5", *args]) == 0
    # one entry: no partial directory is left beside the run directory
    (name,) = os.listdir(out)
    assert name.startswith(f"{command}-")
    run = out / name
    report = "check.json" if command == "check" else "summary.json"
    assert set(os.listdir(run)) == {"effective_config.yaml", report, *csvs}
    wrote = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("wrote ")]
    assert wrote == [f"wrote {run / csv_name}" for csv_name in csvs]


def test_simulate_unperturbed_trajectory(tmp_path):
    out = tmp_path / "runs"
    assert main(["simulate", "--out", str(out), "--seed", "11",
                 "--set", "experiment.epsilon=0.0"]) == 0
    run = _run_dir(out)
    rows = _read_rows(os.path.join(run, "trajectory.csv"))
    assert rows[0] == ["t", "x", "y", "z", "r", "theta", "is_jump", "exited"]
    assert len(rows) == 102
    radii = np.array([float(r[4]) for r in rows[1:]])
    assert np.max(np.abs(radii - 1.0)) <= 1e-12
    summary = json.load(open(os.path.join(run, "summary.json")))
    assert summary["epsilon"] == 0.0
    assert not summary["exited"]
    assert os.path.exists(os.path.join(run, "effective_config.yaml"))


def test_least_rate_runs_with_finite_output(tmp_path):
    # just above the floor, jump sizes of order 1/rate and the squares in
    # the check battery's sample variance stay finite; an overflow would
    # raise here, as RuntimeWarnings are errors in this suite.  charfn
    # takes u of order rate, so that u*Z keeps its phase
    rate = math.nextafter(_MIN_RATE, 1.0)
    assert GammaSubordinator(rate).rate == rate
    u_values = f"experiment.u_values=[{rate!r}, {4 * rate!r}]"
    for command, extra in (("check", []), ("simulate", []),
                           ("charfn", ["--set", u_values])):
        out = tmp_path / command
        assert main([command, "--out", str(out),
                     "--set", f"preset.theta={rate!r}", *extra]) == 0
        run = _run_dir(out)
        for name in sorted(os.listdir(run)):
            text = open(os.path.join(run, name)).read()
            assert not re.search(r"\b(nan|inf|NaN|Infinity)\b", text), name
        if command == "check":
            report = json.load(open(os.path.join(run, "check.json")))
            assert report["all_passed"]
        if command == "charfn":
            summary = json.load(open(os.path.join(run, "summary.json")))
            assert math.isfinite(summary["max_abs_gap"])
            assert summary["within_mc_bound"]
    # at the default u = 1, 2, 4 the draws of Z_t near 1e151 leave no phase
    assert main(["charfn", "--out", str(tmp_path / "no_phase"),
                 "--set", f"preset.theta={rate!r}"]) == 2


def test_effective_config_records_overrides(tmp_path):
    out = tmp_path / "runs"
    assert main(["simulate", "--out", str(out), "--seed", "123",
                 "--set", "preset.theta=2.0", "--set", "run.stream_base=3"]) == 0
    eff = loads_config(open(os.path.join(_run_dir(out),
                                         "effective_config.yaml")).read())
    assert eff.preset.theta == 2.0
    assert eff.run.master_seed == 123
    assert eff.run.stream_base == 3
    assert eff.run.out_dir == str(out)


def test_out_dir_env_var_is_honored(tmp_path, monkeypatch):
    monkeypatch.setenv("FOLEVY_OUT_DIR", str(tmp_path / "envruns"))
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--seed", "3"]) == 0
    assert os.path.isdir(tmp_path / "envruns")
    assert not os.path.exists(tmp_path / "runs")


def test_average_writes_field_and_path(tmp_path):
    out = tmp_path / "runs"
    assert main(["average", "--out", str(out)]) == 0
    run = _run_dir(out)
    field_rows = _read_rows(os.path.join(run, "averaged_field.csv"))
    assert field_rows[0] == ["r", "z", "q_r", "q_z"]
    assert len(field_rows) == 26
    for row in field_rows[1:]:
        # linear field: q = (r/2, 0) at every tabulated point
        assert abs(float(row[2]) - float(row[0]) / 2.0) <= 1e-10
        assert abs(float(row[3])) <= 1e-12
    path_rows = _read_rows(os.path.join(run, "averaged_path.csv"))
    assert path_rows[0] == ["s", "w_r", "w_z"]
    summary = json.load(open(os.path.join(run, "summary.json")))
    assert summary["boundary_time"] is None


def test_eta_csv_and_summary(tmp_path):
    out = tmp_path / "runs"
    assert main(["eta", "--out", str(out),
                 "--set", "experiment.horizons=[5.0, 10.0, 20.0]",
                 "--set", "experiment.n_paths=100"]) == 0
    run = _run_dir(out)
    rows = _read_rows(os.path.join(run, "eta.csv"))
    assert rows[0] == ["t", "lp_error", "p", "fitted_exponent",
                       "fitted_constant"]
    assert len(rows) == 4
    summary = json.load(open(os.path.join(run, "summary.json")))
    assert summary["exponent"] < 0
    assert not summary["identically_zero"]


def test_charfn_frozen_values(tmp_path):
    out = tmp_path / "runs"
    assert main(["charfn", "--out", str(out), "--seed", "21"]) == 0
    run = _run_dir(out)
    rows = _read_rows(os.path.join(run, "charfn.csv"))
    assert rows[0] == ["u", "re_exact", "im_exact", "re_mc", "im_mc",
                       "abs_gap"]
    by_u = {float(r[0]): r for r in rows[1:]}
    assert abs(float(by_u[1.0][1]) - 0.5) <= 1e-12
    assert abs(float(by_u[1.0][2]) - 0.5) <= 1e-12
    assert abs(float(by_u[2.0][1]) - 0.2) <= 1e-12
    assert abs(float(by_u[2.0][2]) - 0.4) <= 1e-12
    summary = json.load(open(os.path.join(run, "summary.json")))
    assert summary["within_mc_bound"]
    assert summary["max_abs_gap"] <= summary["mc_bound"]


def test_exit_prob_subcommand(tmp_path):
    out = tmp_path / "runs"
    assert main(["exit-prob", "--out", str(out),
                 "--set", "preset.r_max=2.0",
                 "--set", "experiment.epsilons=[0.3]",
                 "--set", "experiment.n_paths=8"]) == 0
    run = _run_dir(out)
    rows = _read_rows(os.path.join(run, "exit_prob.csv"))
    assert rows[0] == ["epsilon", "t_gamma", "gamma", "probability",
                       "std_error", "n_paths"]
    summary = json.load(open(os.path.join(run, "summary.json")))
    assert abs(summary["t_gamma"] - 1.2837) <= 1e-3


def test_deviation_subcommand(tmp_path):
    out = tmp_path / "runs"
    assert main(["deviation", "--out", str(out),
                 "--set", "experiment.n_paths=4",
                 "--set", "experiment.epsilons=[0.5, 0.25]",
                 "--set", "experiment.horizon=0.5"]) == 0
    run = _run_dir(out)
    rows = _read_rows(os.path.join(run, "deviation.csv"))
    assert rows[0] == ["epsilon", "t", "p", "sup_lp", "std_error", "n_paths"]
    summary = json.load(open(os.path.join(run, "summary.json")))
    assert summary["observable"] == "radial"


def test_simulate_is_reproducible_across_runs(tmp_path):
    blobs = []
    for name in ("a", "b"):
        root = tmp_path / name
        assert main(["simulate", "--out", str(root), "--seed", "77"]) == 0
        blobs.append(open(os.path.join(_run_dir(root), "trajectory.csv"),
                          "rb").read())
    assert blobs[0] == blobs[1]

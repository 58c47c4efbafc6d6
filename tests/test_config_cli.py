"""Config round trips, override parsing, the command line surface, and
the library's rejections.

CLI tests run main() in process against temporary output directories and
small --set overrides, checking artifact layout, frozen oracle values in
the emitted CSVs, and bitwise equality of repeated runs.  `_SITES` is the
one table of every argument check and every ConfigError or DomainError
the library raises.
"""

from __future__ import annotations

import ast
import csv
import errno
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
                    IntegratorConfig, JumpEvents, LinearK, RngStream,
                    averaged_field, averaging, characteristic_function,
                    circle_law_distance, cli, deviation_scaling, dpi_k,
                    estimate_eta, exit_probability, experiments, fit_loglog,
                    integrate_grid_ensemble, integrate_path, jump_flow,
                    leaf_average_quadrature, lp_moment, make_cylinder_preset,
                    marginal_samples, path_streams, sample_jump_events,
                    scheme_agreement, solve_averaged_ode, tangency_check,
                    transversal_comparison, truncate_gamma)
from folevy.cli import main
from folevy.drivers import _MIN_RATE, make_step_sampler
from folevy.marcus import _make_drift, resolve_grid, step_events
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
    # an empty file reads as null: the defaults
    assert config_from_dict(None) == ExperimentConfig()
    with pytest.raises(ConfigError, match="config root must be a mapping"):
        config_from_dict([1])
    with pytest.raises(ConfigError, match="section 'run' must be a mapping"):
        apply_overrides({"run": [1]}, ["run.master_seed=3"])


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
    # directory with the files written before it; a rename the file system
    # refuses fails the same way
    for module, hook, code in ((cli, "write_json", errno.ENOSPC),
                               (os, "rename", errno.EACCES)):
        def refuse(*args):
            raise OSError(code, os.strerror(code))

        out = tmp_path / hook
        with monkeypatch.context() as patch:
            patch.setattr(module, hook, refuse)
            assert main(["simulate", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write the run directory {out}/")
        assert err.endswith(f"{os.strerror(code)}\n") and err.count("\n") == 1
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
    """Raised by the stand-ins for the path kernel, the stream maker, a
    stream's generator, and a field's first evaluation."""


def _reached(*args, **kwargs):
    raise _Reached


class _Unread:
    """A stream that ends the call at its first draw."""
    generator = _reached


_PRESET = make_cylinder_preset()
_ARGS = (_PRESET.fields, _PRESET.chart, _PRESET.driver)
_AVG = averaged_field(_PRESET.chart, _PRESET.fields)
_X0 = np.array([1.0, 0.0, 0.0])
_XS = np.array([[1.0, 0.0, 0.0], [1.2, 0.0, 0.0]])
_GAMMA = GammaSubordinator(1.0)
_TRUNCATED = truncate_gamma(_GAMMA, 0.01)
_YS, _CDF = _TRUNCATED.ys, _TRUNCATED.cdf
_SOL = solve_averaged_ode(_AVG, np.array([1.0, 0.0]), 0.1)
_PSI = lambda s: s[..., 0]
_GENERIC = _PRESET.fields.without_exact_flow()
# stand-ins that end the call at the first evaluation of the perturbation,
# or of the averaged field
_K_REACHED = replace(_PRESET.fields, perturbation=_reached)
_AVG_REACHED = averaged_field(_PRESET.chart, _PRESET.fields, func=_reached)
_DECOMPOSITION = IntegratorConfig(scheme="jump_decomposition")
_INC = [[[0.1], [0.2]], [[0.3], [-0.4]]]    # 2 paths of 2 steps of 0.5
_LINE = [1.0, 2.0, 3.0]
# transversal points of the wrong shape, or not numbers
_NOT_V = [[1.0], None, [1.0, 0.0, 0.0], "a", [[1, 0], [1, 0]], ["a", 0.0],
          [[1.0, 0.0], [1.0]]]

# the ensemble experiments and the grid kernel at a small size, every
# argument a keyword a row may replace
_TC = partial(transversal_comparison, *_ARGS, avg=_AVG, x0=_X0,
              epsilons=[0.5], horizon=0.3, n_paths=4)
_EXIT = partial(exit_probability, *_ARGS, avg=_AVG, x0=_X0, epsilons=[0.5],
                gamma=0.1, n_paths=4)
_DEV = partial(deviation_scaling, *_ARGS, x0=_X0, epsilons=[0.5, 0.25],
               horizon=0.3, n_paths=4)
_SCHEME = partial(scheme_agreement, *_ARGS, x0=_X0, n_paths=4)
_ETA = partial(estimate_eta, *_ARGS, psi=_PSI, x0=_X0,
               horizons=[5.0, 10.0, 20.0], n_paths=100)
_RUNS = {"transversal_comparison": _TC, "exit_probability": _EXIT,
         "deviation_scaling": _DEV, "scheme_agreement": _SCHEME,
         "estimate_eta": _ETA}
_ENS = partial(integrate_grid_ensemble, fields=_PRESET.fields,
               driver=_PRESET.driver, x0=_X0, horizon=1.0, eps=0.1,
               cfg=IntegratorConfig(), streams=[_Unread()] * 3)
# the same with integrate_path and the grid kernel, each ended at its
# first piece of work: the averaged solve, the leaf mean, a draw or a path
_UNWORKED = {**_RUNS, "integrate_grid_ensemble": _ENS,
             "transversal_comparison": partial(_TC, avg=_AVG_REACHED),
             "exit_probability": partial(_EXIT, avg=_AVG_REACHED),
             "estimate_eta": partial(_ETA, psi=_reached),
             "integrate_path": partial(integrate_path, *_ARGS, x0=_X0,
                                       horizon=1.0, rng=_Unread())}
# the callers of _check_start, and those of _grid_config
_STARTED = sorted(_UNWORKED.keys() - {"integrate_grid_ensemble"})
_GRIDDED = sorted(_UNWORKED.keys() - {"integrate_path", "scheme_agreement"})


# The one table of the library's rejections: site -> (the call with value
# v in place of one argument, its valid value, its kind, values out of its
# range).  The row of a _real, _reals, _count or _floats call is keyed by
# the function that makes it (a __post_init__ by its class, a nested
# function by the one that defines it) and the value it checks, `self.`
# dropped; the row of a `raise ConfigError` or `raise DomainError`, of
# kind "raise", by that function and a name for the check.
_SITES = {
    # each experiment's seed and first stream index are counts
    **{f"{name}.{key}": (lambda v, run=run, key=key: run(**{key: v}), 0,
                         "count", [])
       for name, run in _RUNS.items()
       for key in ("master_seed", "stream_base")},
    "transversal_comparison.epsilons": (lambda v: _TC(epsilons=v), [0.5],
                                        "list", [[0.0], [1.5], [-0.5]]),
    "transversal_comparison.horizon": (lambda v: _TC(horizon=v), 0.3, "real",
                                       [0, -1.0]),
    "transversal_comparison.p": (lambda v: _TC(p=v), 2, "real", [0.5]),
    "transversal_comparison.n_paths": (lambda v: _TC(n_paths=v), 4, "count",
                                       [1, 0]),
    "transversal_comparison.ode_step": (lambda v: _TC(ode_step=v), 1e-3,
                                        "real", [0, -1e-3]),
    "transversal_comparison.threads": (lambda v: _TC(threads=v), 1, "count",
                                       [0]),
    # the averaged path reaches r_max = 5 at s = 2 log 5
    "transversal_comparison.boundary": (lambda v: _TC(horizon=v), 0.3,
                                        "raise", [5.0]),
    "exit_probability.epsilons": (lambda v: _EXIT(epsilons=v), [0.5], "list",
                                  [[1.5], [2.0]]),
    "exit_probability.gamma": (lambda v: _EXIT(gamma=v), 0.1, "real",
                               [0, 0.0, -1.0]),
    "exit_probability.n_paths": (lambda v: _EXIT(n_paths=v), 4, "count", [1]),
    "exit_probability.ode_step": (lambda v: _EXIT(ode_step=v), 1e-3, "real",
                                  [0]),
    "exit_probability.search_horizon": (lambda v: _EXIT(search_horizon=v),
                                        50.0, "real", [0, -1.0]),
    # up to s = 1 the averaged path keeps a gap above 1.4 to the boundary
    "exit_probability.near_exit": (lambda v: _EXIT(search_horizon=v), 50.0,
                                   "raise", [1.0]),
    "deviation_scaling.epsilons": (lambda v: _DEV(epsilons=v), [0.5, 0.25],
                                   "list", [[0.0], [-0.1], ["a"]]),
    "deviation_scaling.distinct_eps": (lambda v: _DEV(epsilons=v),
                                       [0.5, 0.25], "raise",
                                       [[0.5], [0.5, 0.5]]),
    "deviation_scaling.horizon": (lambda v: _DEV(horizon=v), 0.3, "real",
                                  [0, 0.0]),
    "deviation_scaling.p": (lambda v: _DEV(p=v), 2, "real", [0.5]),
    "deviation_scaling.n_paths": (lambda v: _DEV(n_paths=v), 4, "count", [1]),
    "_resolve_observable.observable": (lambda v: _DEV(observable=v),
                                       "radial", "raise",
                                       ["angular", _PSI, ["radial"],
                                        {"radial": 1}]),
    "scheme_agreement.horizon": (lambda v: _SCHEME(horizon=v), 2.0, "real",
                                 [0, 0.0]),
    "scheme_agreement.eps": (lambda v: _SCHEME(eps=v), 0.5, "real",
                             [0, 0.0, 1.5]),
    "scheme_agreement.level_cutoff": (lambda v: _SCHEME(levels=((v, 0.04),)),
                                      0.08, "real", [0.002, 0.001]),
    "scheme_agreement.level_step": (lambda v: _SCHEME(levels=((0.08, v),)),
                                    0.04, "real", [0]),
    "scheme_agreement.levels": (lambda v: _SCHEME(levels=v), ((0.08, 0.04),),
                                "raise", [[], [(0.08,)], [(0.08, 0.04, 1)], 5,
                                          [0.08, 0.04]]),
    "scheme_agreement.n_paths": (lambda v: _SCHEME(n_paths=v), 4, "count",
                                 [1, 3.5]),
    "scheme_agreement.threads": (lambda v: _SCHEME(threads=v), 1, "count",
                                 [0]),
    # a driver without closed-form small-jump means, before any path
    "mean_below.driver": (lambda v: scheme_agreement(
        _PRESET.fields, _PRESET.chart, v, _X0, n_paths=4), _GAMMA, "raise",
        [_TRUNCATED]),
    "estimate_eta.horizons": (lambda v: _ETA(horizons=v), [5.0, 10.0, 20.0],
                              "list", [[5.0, -10.0, 20.0], [-1.0, 5.0, 10.0],
                                       ["abc", 20, 30]]),
    "estimate_eta.distinct_horizons": (lambda v: _ETA(horizons=v),
                                       [5.0, 10.0, 20.0], "raise",
                                       [[5.0, 10.0], [5.0, 5.0, 10.0]]),
    "estimate_eta.grid": (lambda v: _ETA(horizons=v), [5.0, 10.0, 20.0],
                          "raise", [[5.0055, 10.0, 20.0]]),
    "estimate_eta.psi": (lambda v: _ETA(psi=v), _PSI, "raise",
                         ["radial", 1.0, None]),
    "estimate_eta.p": (lambda v: _ETA(p=v), 2, "real", [1, 1.5]),
    "estimate_eta.n_paths": (lambda v: _ETA(n_paths=v), 100, "count",
                             [50, 99, 100.5]),
    # every experiment plans its path-steps before the first path
    "_check_plan.path_steps": (lambda v: _RUNS[v[0]](n_paths=v[1]),
                               ("deviation_scaling", 4), "raise",
                               [(name, 10 ** 11) for name in sorted(_RUNS)]),
    # every caller rejects the scheme before any solve, leaf mean or draw
    "_grid_config.scheme": (lambda v: _UNWORKED[v[0]](cfg=v[1]),
                            ("estimate_eta", None), "raise",
                            [(name, _DECOMPOSITION) for name in _GRIDDED]),
    "lp_moment.p": (lambda v: lp_moment([1.0, 2.0], v), 2, "real",
                    [0.5, -1, "2"]),
    "lp_moment.samples": (lambda v: lp_moment(v, 2), [1.0, 2.0], "raise",
                          [[], np.empty((0, 3)), [1.0, math.nan],
                           [1.0, math.inf], [1.0, -math.inf]]),
    # rejected before LAPACK sees them
    "fit_loglog.points": (lambda v: fit_loglog(*v), (_LINE, _LINE), "raise", [
        ([-1.0, 2.0, 3.0], _LINE), ([0.0, 2.0, 3.0], _LINE),
        ([1.0, 1.0, 1.0], _LINE), ([math.nan, 2.0, 3.0], _LINE),
        ([math.inf, 2.0, 3.0], _LINE), (_LINE, [1.0, math.nan, 3.0]),
        (_LINE, [1.0, math.inf, 3.0]), (_LINE, [1.0, 2.0]), ([2.0], [1.0]),
        ([], []), ([[1.0, 2.0]], [[1.0, 2.0]])]),
    "time_to_margin.gamma": (lambda v: _SOL.time_to_margin(v), 0.1, "real",
                             [-0.1]),
    "interp.s": (lambda v: _SOL.interp(v), 0.05, "floats", ["a", ["a", 0.1]]),
    # a nan fails every comparison, so it used to interpolate nan
    "interp.range": (lambda v: _SOL.interp(v), 0.05, "raise",
                     [-0.5, 1.5, math.nan, [0.05, math.nan], math.inf,
                      -math.inf]),
    "solve_averaged_ode.horizon": (lambda v: solve_averaged_ode(
        _AVG, np.array([1.0, 0.0]), v), 0.1, "real", [0, 0.0, -1.0]),
    "solve_averaged_ode.step": (lambda v: solve_averaged_ode(
        _AVG, np.array([1.0, 0.0]), 0.1, v), 1e-3, "real", [0, -1e-3]),
    # the start is checked before the field is evaluated
    "solve_averaged_ode.v0": (lambda v: solve_averaged_ode(
        _AVG_REACHED, v, 1.0), [1.0, 0.0], "floats", _NOT_V),
    "solve_averaged_ode.domain": (lambda v: solve_averaged_ode(
        _AVG_REACHED, v, 1.0), [1.0, 0.0], "raise",
        [[9.0, 0.0], [0.1, 0.0], [1.0, 20.0]]),
    "averaged_field.func": (lambda v: averaged_field(
        _PRESET.chart, _PRESET.fields, func=v), _PSI, "raise",
        ["analytic", np.array([0.0, 1.0])]),
    "leaf_average_quadrature.v": (lambda v: leaf_average_quadrature(
        _PRESET.chart, _reached, v), [1.0, 0.0], "floats", _NOT_V),
    # np.arange(8.5) has 9 nodes, so a fractional count divided the sum
    # of 9 values by 8.5
    "_leaf_mean.n_nodes": (lambda v: leaf_average_quadrature(
        _PRESET.chart, _PSI, np.array([1.0, 0.0]), n_nodes=v), 64, "count",
        [4, 7, 8.5, 9.0, np.float64(16.0), 10 ** 8, 10 ** 11, 10 ** 400]),
    "make_cylinder_preset.r_min": (lambda v: make_cylinder_preset(
        r_min=v, r_max=2.0), 0.5, "real", []),
    "make_cylinder_preset.r_max": (lambda v: make_cylinder_preset(
        r_min=0.5, r_max=v), 2.0, "real", []),
    "make_cylinder_preset.radii": (lambda v: make_cylinder_preset(*v),
                                   (0.5, 2.0), "raise",
                                   [(1.5, 2.0), (0.0, 2.0), (0.5, 0.9)]),
    "make_cylinder_preset.z_min": (lambda v: make_cylinder_preset(
        z_min=v, z_max=-1.0), -2.0, "real", []),
    "make_cylinder_preset.z_max": (lambda v: make_cylinder_preset(
        z_min=1.0, z_max=v), 2.0, "real", []),
    "make_cylinder_preset.heights": (lambda v: make_cylinder_preset(
        z_min=v[0], z_max=v[1]), (-2.0, 2.0), "raise",
        [(1.0, -1.0), (1.0, 1.0)]),
    # a name or a number failed only at the first field evaluation
    "make_cylinder_preset.k_choice": (lambda v: make_cylinder_preset(
        k_choice=v), ConstantK(0.0, 0.0, 1.0), "raise",
        ["linear", 3.0, [ConstantK(0.0, 0.0, 1.0)]]),
    # the shape is checked before the domain and the perturbation
    "dpi_k.x": (lambda v: dpi_k(_PRESET.chart, _K_REACHED, v), _X0, "floats",
                [[1.0, 0.0], [1.0, 0.0, 0.0, 0.0], "a", 1.0, [[1.0, 0.0]],
                 [[1.0, 0.0, 0.0], [1.0]]]),
    # one point outside a batch
    "dpi_k.domain": (lambda v: dpi_k(_PRESET.chart, _K_REACHED, v), _X0,
                     "raise", [[10.0, 0.0, 0.0], [_X0, [0.1, 0.0, 0.0]]]),
    "tangency_check.points": (lambda v: tangency_check(
        _PRESET.fields, _PRESET.chart, v), _XS, "floats",
        [np.ones((2, 2)), np.ones((2, 3, 1)), "abc",
         [[1.0, 0.0], [1.0, 0.0, 0.0]], None]),
    "tangency_check.array": (lambda v: tangency_check(
        _PRESET.fields, _PRESET.chart, v), _XS, "raise",
        [np.empty((0, 3)), _X0, [[1.0, 0.0, math.nan]],
         [[1.0, 0.0, math.inf]], [[1.0, 0.0, -math.inf]]]),
    "tangency_check.domain": (lambda v: tangency_check(
        _PRESET.fields, _PRESET.chart, [_X0, v]), _XS[1], "raise",
        [[10.0, 0.0, 0.0], [0.1, 0.0, 0.0], [1.0, 0.0, 20.0]]),
    "IntegratorConfig.scheme": (lambda v: IntegratorConfig(scheme=v),
                                "grid_increment", "raise",
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
    "_step_count.steps": (lambda v: resolve_grid(
        IntegratorConfig(step_h=v), 0.1, 1.0), 0.01, "raise", [1e-9]),
    # one value for a batch of states, alone or beside a drift
    "_make_drift.perturbation": (lambda v: _make_drift(replace(
        _PRESET.fields, drift=v[0], perturbation=lambda x: v[1]), 0.3)(_XS),
        (None, _XS), "raise", [(drift, value) for drift in (None, _PSI)
                               for value in (np.array([0.1, 0.0, 0.2]), 0.5)]),
    "integrate_grid_ensemble.eps": (lambda v: _ENS(
        eps=v, contains=_PRESET.chart.contains), 0.1, "real", [-1.0, 2.0]),
    "integrate_grid_ensemble.pair_eps": (lambda v: _ENS(pair_eps=v), 0.1,
                                         "real", [-1.0, 2.0]),
    # 3 paths start from one point or from one row each, checked before
    # any stream draws
    "integrate_grid_ensemble.x0": (lambda v: _ENS(x0=v), _X0, "floats",
                                   ["abc", ["a", 0.0, 0.0],
                                    [["a", 0.0, 0.0]] * 3]),
    "integrate_grid_ensemble.x0_rows": (lambda v: _ENS(x0=np.ones(v)), (3, 3),
                                        "raise", [(2, 3), (1, 3), (4, 3),
                                                  (3, 1, 3), ()]),
    # supplied increments are checked before any step
    "integrate_grid_ensemble.increments": (lambda v: _ENS(
        fields=_K_REACHED, driver=None, cfg=IntegratorConfig(step_h=0.5),
        streams=None, increments=v), _INC, "floats",
        [np.full((2, 2, 1), "a"), [[[0.1]]]]),
    "integrate_grid_ensemble.increment_block": (lambda v: _ENS(
        fields=_K_REACHED, driver=None, cfg=IntegratorConfig(step_h=0.5),
        streams=None, increments=v), _INC, "raise",
        [_INC[0], [_INC]] + [[_INC[0], [[0.3], [z]]]
                             for z in (math.nan, math.inf, -math.inf)]),
    # one error class whatever the field set, before either flow
    "jump_flow.sizes": (lambda v: jump_flow(v[0], _XS, v[1]),
                        (_GENERIC, [[0.5], [0.2]]), "raise",
                        [(fields, z) for fields in (_PRESET.fields, _GENERIC)
                         for z in (math.nan, math.inf, -math.inf,
                                   [[0.5], [math.nan]], [[0.5], [math.inf]],
                                   [[0.5], [-math.inf]])]),
    # jumps needing more than 1e4 substeps (2e5 for z = 1e4), whatever the
    # good row beside them
    "_jump_rk4.substeps": (lambda v: jump_flow(_GENERIC, _XS, [[0.5], [v]]),
                           0.2, "raise", [1e300, 1e7, 1e4]),
    # sizes are checked before any step; two rows of one jump each
    "step_events.sizes": (lambda v: step_events(
        _K_REACHED, _XS, np.linspace(0.0, 1.0, 11), JumpEvents(
            np.array([0.3, 0.5]), np.array([[0.5], [v]]), np.array([1, 1]),
            np.zeros(1)), 0.3, IntegratorConfig()), 0.2, "raise",
        [math.nan, math.inf, -math.inf]),
    "integrate_path.eps": (lambda v: integrate_path(
        *_ARGS, _X0, 1.0, v, rng=_Unread()), 0.1, "real", [-0.1, 1.5]),
    "integrate_path.horizon": (lambda v: integrate_path(
        *_ARGS, _X0, v, rng=_Unread()), 1.0, "real", [-1.0]),
    # every caller checks the start before any solve, leaf mean or path
    "_check_start.x0": (lambda v: _UNWORKED[v[0]](x0=v[1]),
                        ("integrate_path", _X0), "floats",
                        [(name, x0) for name in _STARTED
                         for x0 in ([1.0, 0.0], "abc", ["a", 0.0, 0.0])]),
    "_check_start.domain": (lambda v: _UNWORKED[v[0]](x0=v[1]),
                            ("integrate_path", _X0), "raise",
                            [(name, x0) for name in _STARTED
                             for x0 in ([10.0, 0.0, 0.0], [0.0, 0.0, 0.0])]),
    # the drivers take None and an int -1 as well
    "GammaSubordinator.rate": (lambda v: GammaSubordinator(v), _MIN_RATE,
                               "real", [0, 0.0, -1.0, -1, None, 1e-151,
                                        math.nextafter(_MIN_RATE, 0.0),
                                        1e-200, 5e-324]),
    "finite_law.driver": (lambda v: sample_jump_events(v, 1.0, _Unread()),
                          _TRUNCATED, "raise", [_GAMMA]),
    "tail_mass.cutoff": (lambda v: _GAMMA.tail_mass(v), 0.05, "real",
                         [0.0, -1, None]),
    "TruncatedMeasure.cutoff": (lambda v: replace(
        _TRUNCATED, cutoff=v), 0.01, "real", [0, 0.0, -1, -0.1, None]),
    "TruncatedMeasure.restricted_mass": (lambda v: replace(
        _TRUNCATED, restricted_mass=v), 1.0, "real", [0, 0.0, -1, None]),
    "TruncatedMeasure.compensator": (lambda v: replace(
        _TRUNCATED, compensator=v), 0.0, "real", [-1.0, -1, -1e-3, None]),
    # np.interp needs increasing sizes and a CDF from 0 to 1
    "TruncatedMeasure.table": (lambda v: replace(
        _TRUNCATED, ys=v[0], cdf=v[1]), (_YS, _CDF), "raise",
        [(_YS[::-1], _CDF), (_YS, 0.5 * _CDF), (_YS, _CDF[::-1]),
         (_YS[:-1], _CDF), (_YS[:1], _CDF[:1])]),
    "truncate_gamma.cutoff": (lambda v: truncate_gamma(_GAMMA, v), 0.01,
                              "real", [0, 0.0, -1, -0.1, None]),
    # E1(1000) is 0, and 1e-14 * E1(710) underflows
    "truncate_gamma.tail_mass": (lambda v: truncate_gamma(_GAMMA, v), 0.01,
                                 "raise", [1000.0, 710.0]),
    "make_step_sampler.h": (lambda v: make_step_sampler(_GAMMA, v), 0.1,
                            "real", [0.0, -0.1, -1, None]),
    "characteristic_function.t": (lambda v: characteristic_function(
        _GAMMA, 1.0, v), 1.0, "real", [-1.0, -1, None]),
    "characteristic_function.u": (lambda v: characteristic_function(
        _GAMMA, v, 1.0), 1.0, "raise", [[1.0, math.nan], [math.inf],
                                        10 ** 400, math.nan, "1", True]),
    # only the Gamma driver has a closed-form characteristic function
    "cf.driver": (lambda v: characteristic_function(v[0], v[1], 1.5),
                  (_GAMMA, 1.0), "raise",
                  [(_TRUNCATED, 1.0), (_TRUNCATED, np.array([0.5, 2.0]))]),
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
    "sample_jump_events.streams": (lambda v: sample_jump_events(
        _TRUNCATED, 1.0, *v), [_Unread()], "raise", [[]]),
    # a later row may start before the row above it ends
    "JumpEvents.table": (lambda v: JumpEvents(*v, np.zeros(1)),
                         ([0.5, 0.2, 0.3], np.zeros((3, 1)), np.array([1, 2])),
                         "raise", [
        (np.zeros(2), np.zeros((2, 1)), np.array([1])),
        (np.zeros(2), np.zeros((2, 1)), np.array([3, -1])),
        (np.zeros(2), np.zeros((2, 1)), np.array([1.0, 1.0])),
        (np.zeros(2), np.zeros((2, 2)), np.array([2])),
        (np.zeros(2), np.zeros(2), np.array([2])),
        (np.zeros((2, 1)), np.zeros((2, 1)), np.array([2]))]),
    "JumpEvents.order": (lambda v: JumpEvents(*v, np.zeros(1)),
                         ([0.5, 0.2, 0.3], np.zeros((3, 1)), np.array([1, 2])),
                         "raise", [
        ([0.5, 0.2], np.zeros((2, 1)), np.array([2])),
        ([0.5, 0.2, 0.1], np.zeros((3, 1)), np.array([1, 2])),
        ([0.5, math.nan], np.zeros((2, 1)), np.array([2]))]),
    "RngStream.master_seed": (lambda v: RngStream(v), 1, "count", []),
    "RngStream.stream_index": (lambda v: RngStream(1, v), 1, "count", []),
    "generate_state.dtype": (lambda v: RngStream(1).generate_state(2, v),
                             np.uint32, "raise",
                             [np.float64, np.int32, np.uint16]),
    "path_streams.master_seed": (lambda v: path_streams(v, 0, 2), 1,
                                 "count", []),
    "path_streams.base": (lambda v: path_streams(1, v, 2), 0, "count", []),
    "path_streams.n_paths": (lambda v: path_streams(1, 0, v), 2, "count",
                             []),
}

# site -> a fragment of the message its every rejection holds
_POSITIVE = "must be positive and finite"
_INCREMENTS = "increments must be finite numbers of shape"
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
    "transversal_comparison.boundary": "reaches the transversal boundary",
    "exit_probability.near_exit": "no near-exit time",
    "deviation_scaling.distinct_eps": "needs two distinct eps values",
    "_resolve_observable.observable": "unknown observable",
    "scheme_agreement.levels": "levels must be a nonempty list",
    "mean_below.driver": "needs the Gamma driver",
    "estimate_eta.distinct_horizons": "need at least three distinct horizons",
    "estimate_eta.grid": "horizons must sit on the integration grid",
    "estimate_eta.psi": "psi must be callable",
    "_check_plan.path_steps": "path-steps, more than the 1e+10 allowed",
    "_grid_config.scheme": "grid-based schemes only",
    "lp_moment.samples": "needs a nonempty array of finite samples",
    "fit_loglog.points": "fit_loglog needs finite positive x",
    "interp.s": "interp needs times that are numbers",
    "interp.range": "outside the solved range",
    "solve_averaged_ode.v0": "transversal point of dimension 2",
    "solve_averaged_ode.domain": "v0 lies outside the transversal domain",
    "averaged_field.func": "func must be callable",
    "leaf_average_quadrature.v": "transversal point of dimension 2",
    "make_cylinder_preset.radii": "need 0 < r_min < 1 < r_max",
    "make_cylinder_preset.heights": "need z_min < z_max",
    "make_cylinder_preset.k_choice": "k_choice must be a field",
    "dpi_k.x": "dpi_k needs points of dimension 3",
    "dpi_k.domain": "dpi_k evaluated outside the chart domain",
    "tangency_check.points": "tangency_check needs a nonempty finite",
    "tangency_check.array": "tangency_check needs a nonempty finite",
    "tangency_check.domain": "tangency_check evaluated outside the chart",
    "IntegratorConfig.scheme": "scheme must be one of",
    "_step_count.steps": "steps, more than the 1e+08 allowed",
    "_make_drift.perturbation": "must return one vector per state",
    "integrate_grid_ensemble.x0": "one row for each of the 3 paths",
    "integrate_grid_ensemble.x0_rows": "one row for each of the 3 paths",
    "integrate_grid_ensemble.increments": _INCREMENTS,
    "integrate_grid_ensemble.increment_block": _INCREMENTS,
    "jump_flow.sizes": "jump_flow needs finite jump sizes",
    "_jump_rk4.substeps": "Runge-Kutta substeps allowed",
    "step_events.sizes": "step_events needs finite jump sizes",
    "_check_start.x0": "x0 must be a point of dimension 3",
    "_check_start.domain": "lies outside the chart domain",
    "finite_law.driver": "apply truncate_gamma(spec, cutoff) first",
    "TruncatedMeasure.table": "ys and cdf must be an increasing table",
    "truncate_gamma.tail_mass": "too small or too large to tabulate",
    "characteristic_function.u": "u must be finite numbers",
    "cf.driver": "the characteristic function needs the Gamma driver",
    "sample_jump_events.streams": "needs at least one stream",
    "JumpEvents.table": "a jump table needs times (n,), sizes (n, dimension)",
    "JumpEvents.order": "a jump table needs each row in time order",
    "generate_state.dtype": "only support uint32 or uint64",
}
# the rows that raise DomainError; every other row raises ConfigError
_EXCEPTIONS = dict.fromkeys(["solve_averaged_ode.domain", "dpi_k.domain",
                             "tangency_check.domain", "_check_start.domain"],
                            DomainError)

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
def test_invalid_arguments_are_rejected_before_any_work(site, value,
                                                        monkeypatch, capfd):
    assert issubclass(ConfigError, ValueError)
    _no_work(monkeypatch)
    with pytest.raises(_EXCEPTIONS.get(site, ConfigError)) as info:
        _SITES[site][0](value)
    assert _MESSAGES.get(site, "") in str(info.value)
    # nothing reached a library that prints, such as LAPACK's DLASCL line
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("site", sorted(_SITES))
def test_argument_sites_accept_their_valid_value(site, monkeypatch):
    # each site of the test above rejects its value, not another argument
    call, valid, _, _ = _SITES[site]
    _no_work(monkeypatch)
    try:
        call(valid)
    except _Reached:
        pass


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
    # outside the config and the command line, each _real, _reals or
    # _count call has a row of an argument kind under the key the table's
    # comment gives, each _floats call a row of kind "floats", and each
    # function as many rows of kind "raise" as it has raise statements
    checks, floats, raises = [], [], []

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            name = owner
            if isinstance(child, ast.ClassDef) or (
                    isinstance(child, ast.FunctionDef)
                    and child.name != "__post_init__"
                    and (owner is None or isinstance(node, ast.ClassDef))):
                name = child.name
            called = getattr(getattr(child, "func", None), "id", None)
            if isinstance(child, ast.Call) and called in (
                    "_real", "_reals", "_count", "_floats"):
                value = ast.unparse(child.args[0]).removeprefix("self.")
                key = f"{name}.{value}"
                found = floats if called == "_floats" else checks
                found.append(_LEVELS.get(key, key))
            raised = getattr(getattr(child, "exc", None), "func", None)
            if isinstance(child, ast.Raise) and getattr(raised, "id", None) \
                    in ("ConfigError", "DomainError"):
                raises.append(name)
            walk(child, name)

    for name, tree in _package_trees():
        if name not in ("cli.py", "config.py", "errors.py"):
            walk(tree, None)
    kinds = {site: row[2] for site, row in _SITES.items()}
    assert len(checks) > 60 and len(raises) >= 40
    assert [k for k in checks if kinds.get(k) not in _INVALID] == []
    assert sorted(floats) == sorted(k for k in kinds if kinds[k] == "floats")
    assert sorted(raises) == sorted(k.split(".")[0] for k in kinds
                                    if kinds[k] == "raise")


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
    assert report["all_passed"] and len(report["checks"]) == 7


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

# command, tiny-size arguments, each file it writes in write order (a CSV
# as its header and row count, summary.json or check.json as its keys),
# and the conditions that show the files hold the run's result: col(csv,
# name) reads a column as floats (false as 0), doc is the JSON file
SUBCOMMANDS = [
    ("simulate", ["--set", "experiment.epsilon=0.0"],
     {"trajectory.csv": ("t x y z r theta is_jump exited", 101),
      "summary.json": "epsilon exit_time exited final_state horizon "
                      "n_points scheme"},
     # unperturbed, the path keeps to the unit circle
     lambda col, doc: [
         np.abs(col("trajectory.csv", "r") - 1.0).max() <= 1e-12,
         col("trajectory.csv", "t")[0] == 0.0,
         [col("trajectory.csv", c)[-1] for c in "xyz"] == doc["final_state"],
         not col("trajectory.csv", "exited").any(),
         doc["epsilon"] == 0.0 and doc["exited"] is False]),
    ("average", ["--set", "experiment.n_nodes=16"],
     {"averaged_field.csv": ("r z q_r q_z", 25),
      "averaged_path.csv": ("s w_r w_z", 1001),
      "summary.json": "boundary_time final_value gamma method solved_until "
                      "t_gamma"},
     # the linear field averages to q = (r/2, 0) at every tabulated point
     lambda col, doc: [
         np.abs(col("averaged_field.csv", "q_r")
                - col("averaged_field.csv", "r") / 2).max() <= 1e-10,
         np.abs(col("averaged_field.csv", "q_z")).max() <= 1e-12,
         doc["boundary_time"] is None]),
    ("eta", ["--set", "experiment.horizons=[1.0, 2.0, 4.0]",
             "--set", "experiment.n_paths=100"],
     {"eta.csv": ("t lp_error p fitted_exponent fitted_constant", 3),
      "summary.json": "constant exponent horizons identically_zero "
                      "lp_errors n_paths observable p"},
     lambda col, doc: [
         list(col("eta.csv", "lp_error")) == doc["lp_errors"],
         set(col("eta.csv", "fitted_exponent")) == {doc["exponent"]},
         doc["exponent"] < 0 and doc["identically_zero"] is False]),
    ("compare", SMALL,
     {"comparison.csv": ("epsilon t p sup_lp std_error n_paths", 2),
      "summary.json": "boundary_time epsilons horizons monotone_in_eps "
                      "n_paths p sup_norm sup_norm_se sup_radial "
                      "sup_radial_se sup_vertical sup_vertical_se"},
     lambda col, doc: [
         [[v] for v in col("comparison.csv", "sup_lp")] == doc["sup_norm"],
         set(col("comparison.csv", "t")) == {0.3}]),
    ("exit-prob", ["--set", "preset.r_max=2.0",
                   "--set", "experiment.epsilons=[0.5]",
                   "--set", "experiment.n_paths=4"],
     {"exit_prob.csv": ("epsilon t_gamma gamma probability std_error "
                        "n_paths", 1),
      "summary.json": "epsilons gamma n_paths nonincreasing_in_eps "
                      "probabilities std_errors t_gamma"},
     lambda col, doc: [abs(doc["t_gamma"] - 1.2837) <= 1e-3]),
    ("deviation", SMALL,
     {"deviation.csv": ("epsilon t p sup_lp std_error n_paths", 2),
      "summary.json": "constant epsilons exponent horizon identically_zero "
                      "linear_in_eps n_paths observable p std_errors values"},
     lambda col, doc: [
         list(col("deviation.csv", "sup_lp")) == doc["values"],
         doc["observable"] == "radial"]),
    ("charfn", ["--set", "experiment.n_samples=200"],
     {"charfn.csv": ("u re_exact im_exact re_mc im_mc abs_gap", 3),
      "summary.json": "max_abs_gap mc_bound n_samples t u_values "
                      "within_mc_bound"},
     # the closed form at t = 1 is 1 / (1 - i u)
     lambda col, doc: [
         np.abs(col("charfn.csv", "re_exact")[:2] - [0.5, 0.2]).max() <= 1e-12,
         np.abs(col("charfn.csv", "im_exact")[:2] - [0.5, 0.4]).max() <= 1e-12,
         doc["within_mc_bound"] and doc["max_abs_gap"] <= doc["mc_bound"]]),
    ("check", [], {"check.json": "all_passed checks"},
     lambda col, doc: [doc["all_passed"], len(doc["checks"]) == 7]),
    ("check", ["--set", "preset.k_choice=constant"],
     {"check.json": "all_passed checks"},
     lambda col, doc: [doc["all_passed"], len(doc["checks"]) == 7]),
    # past s = 2 log 5, where w_r = exp(s/2) reaches r_max = 5, the path
    # ends one step beyond the boundary
    ("average", ["--set", "experiment.horizon=5"],
     {"averaged_field.csv": ("r z q_r q_z", 25),
      "averaged_path.csv": ("s w_r w_z", 3220),
      "summary.json": "boundary_time final_value gamma method solved_until "
                      "t_gamma"},
     lambda col, doc: [
         abs(doc["boundary_time"] - 2 * math.log(5)) <= 1e-6,
         col("averaged_path.csv", "w_r")[-1] > 5.0]),
    # a constant vertical field has no radial part: the errors vanish
    ("eta", ["--set", "preset.k_choice=constant",
             "--set", "preset.k_constant=[0, 0, 1]",
             "--set", "experiment.horizons=[1.0, 2.0, 4.0]",
             "--set", "experiment.n_paths=100"],
     {"eta.csv": ("t lp_error p fitted_exponent fitted_constant", 3),
      "summary.json": "constant exponent horizons identically_zero "
                      "lp_errors n_paths observable p"},
     lambda col, doc: [
         not col("eta.csv", "lp_error").any(),
         doc["exponent"] == 0.0 and doc["identically_zero"] is True]),
    # a path that leaves U: only its last row, at the exit time, is exited
    ("simulate", ["--set", "preset.r_max=1.05"],
     {"trajectory.csv": ("t x y z r theta is_jump exited", 50),
      "summary.json": "epsilon exit_time exited final_state horizon "
                      "n_points scheme"},
     lambda col, doc: [
         list(col("trajectory.csv", "exited")) == [0.0] * 49 + [1.0],
         col("trajectory.csv", "t")[-1] == doc["exit_time"],
         col("trajectory.csv", "r")[-1] > 1.05 and doc["exited"] is True]),
]


@pytest.mark.parametrize("command, args, files, holds", SUBCOMMANDS,
                         ids=[row[0] for row in SUBCOMMANDS[:8]]
                         + ["check-constant", "average-boundary",
                            "eta-exact", "simulate-exits"])
def test_subcommand_run_directory_and_wrote_lines(tmp_path, capsys, command,
                                                  args, files, holds):
    out = tmp_path / "runs"
    assert main([command, "--out", str(out), "--seed", "5", *args]) == 0
    # one entry: no partial directory is left beside the run directory
    (name,) = os.listdir(out)
    assert name.startswith(f"{command}-")
    run = out / name
    assert set(os.listdir(run)) == {"effective_config.yaml", *files}
    tables = {}
    for fname, spec in files.items():
        if fname.endswith(".csv"):
            header, *rows = _read_rows(run / fname)
            assert (header, len(rows)) == (spec[0].split(), spec[1]), fname
            tables[fname] = dict(zip(header, zip(*rows)))
        else:
            doc = json.load(open(run / fname))
            assert sorted(doc) == spec.split()
    # a column named after a number of the summary holds that number
    for fname, table in tables.items():
        for key, cells in table.items():
            if type(doc.get(key)) in (int, float):
                assert {float(c) for c in cells} == {doc[key]}, (fname, key)
    conditions = holds(lambda f, c: np.array([json.loads(v) for v in
                                              tables[f][c]], dtype=float), doc)
    assert all(conditions), conditions
    wrote = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("wrote ")]
    assert wrote == [f"wrote {run / n}" for n in files if n.endswith(".csv")]


# a run's files spell each value one way: bools as JSON does, floats as
# their shortest round-trip repr, numpy scalars as the Python ones
@pytest.mark.parametrize("value, text", [
    (True, "true"), (np.bool_(False), "false"), (0.1, "0.1"), ("z", "z"),
    (np.float32(0.5), "0.5"), (2.5e-17, "2.5e-17"), (np.int64(7), "7")])
def test_csv_cells_spell_each_value_one_way(value, text):
    assert cli.fmt(value) == text


@pytest.mark.parametrize("value, text", [
    (float("nan"), "null"), (np.array([[1, 2]]), "[[1, 2]]"),
    ({"a": np.float64("nan"), "b": float("inf"), "c": float("nan"),
      "d": np.float32("-inf")},
     '{"a": null, "b": null, "c": null, "d": null}'),
    (np.array([0.5, 1.0]), "[0.5, 1.0]"),
    ((np.bool_(True), np.int64(3)), "[true, 3]"),
    ({"a": np.float64(0.25)}, '{"a": 0.25}')])
def test_json_values_are_plain_python(value, text):
    assert json.dumps(cli._jsonify(value)) == text


@settings(max_examples=50, deadline=None)
@given(xs=st.lists(st.floats(allow_nan=False), min_size=1, max_size=8))
def test_csv_cells_parse_back_to_the_written_doubles(tmp_path_factory, xs):
    path = tmp_path_factory.mktemp("csv") / "row.csv"
    cli.write_csv(path, [f"c{i}" for i in range(len(xs))], [xs, np.array(xs)])
    _, *rows = _read_rows(path)
    assert [[float(c) for c in row] for row in rows] == [xs, xs]


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


def test_simulate_is_reproducible_across_runs(tmp_path):
    blobs = []
    for name in ("a", "b"):
        root = tmp_path / name
        assert main(["simulate", "--out", str(root), "--seed", "77"]) == 0
        blobs.append(open(os.path.join(_run_dir(root), "trajectory.csv"),
                          "rb").read())
    assert blobs[0] == blobs[1]

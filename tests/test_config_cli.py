"""Config round trips, override parsing, and the command line surface.

CLI tests run main() in process against temporary output directories and
small --set overrides, checking artifact layout, frozen oracle values in
the emitted CSVs, and bitwise equality of threaded against serial runs.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np
import pytest

from folevy import ConfigError, ConstantK, LinearK
from folevy.cli import main
from folevy.config import (ExperimentConfig, apply_overrides, config_from_dict,
                           config_to_dict, dump_config, integrator_from_config,
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
    cfg = loads_config("preset:\n  theta: 2.5\nexperiment:\n  epsilons: [0.4, 0.2]\n")
    assert cfg.preset.theta == 2.5
    assert cfg.experiment.epsilons == (0.4, 0.2)
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
                               "run.threads=4",
                               "experiment.observable=vertical"])
    cfg = config_from_dict(raw)
    assert cfg.preset.theta == 2.5
    assert cfg.experiment.epsilons == (0.4, 0.2)
    assert cfg.run.threads == 4
    assert cfg.experiment.observable == "vertical"


def test_apply_overrides_rejects_malformed_assignments():
    for bad in ("theta=2", "preset.theta", "preset.theta.deep=1", "=3"):
        with pytest.raises(ConfigError):
            apply_overrides({}, [bad])
    with pytest.raises(ConfigError):
        config_from_dict(apply_overrides({}, ["preset.bogus=1"]))


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


def test_integrator_from_config_validates_scheme():
    cfg = loads_config("integrator:\n  scheme: jump_decomposition\n")
    assert integrator_from_config(cfg).scheme == "jump_decomposition"
    with pytest.raises(ConfigError):
        integrator_from_config(loads_config("integrator:\n  scheme: euler\n"))


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
    ]
    for command, override, message in cases:
        assert main([command, "--out", str(out), "--set", override]) == 2
        assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_check_passes_and_writes_report(tmp_path):
    out = tmp_path / "runs"
    assert main(["check", "--out", str(out), "--seed", "7"]) == 0
    report = json.load(open(os.path.join(_run_dir(out), "check.json")))
    assert report["all_passed"]
    assert len(report["checks"]) == 8


# ---------------------------------------------------------------------------
# artifacts per subcommand
# ---------------------------------------------------------------------------

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


def test_effective_config_records_overrides(tmp_path):
    out = tmp_path / "runs"
    assert main(["simulate", "--out", str(out), "--seed", "123",
                 "--set", "preset.theta=2.0", "--threads", "3"]) == 0
    eff = loads_config(open(os.path.join(_run_dir(out),
                                         "effective_config.yaml")).read())
    assert eff.preset.theta == 2.0
    assert eff.run.master_seed == 123
    assert eff.run.threads == 3
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


def test_compare_csv_identical_across_threads(tmp_path):
    outs = {}
    for threads in ("1", "8"):
        root = tmp_path / f"threads{threads}"
        assert main(["compare", "--out", str(root), "--seed", "42",
                     "--threads", threads, *SMALL]) == 0
        outs[threads] = open(os.path.join(_run_dir(root), "comparison.csv"),
                             "rb").read()
    assert outs["1"] == outs["8"]
    assert len(outs["1"]) > 0


def test_simulate_is_reproducible_across_runs(tmp_path):
    blobs = []
    for name in ("a", "b"):
        root = tmp_path / name
        assert main(["simulate", "--out", str(root), "--seed", "77"]) == 0
        blobs.append(open(os.path.join(_run_dir(root), "trajectory.csv"),
                          "rb").read())
    assert blobs[0] == blobs[1]

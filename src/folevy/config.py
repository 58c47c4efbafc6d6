"""Run configuration: a strict YAML layer over nested dataclasses.

Unknown sections or keys are rejected rather than ignored, so a typo in a
config file fails loudly; so is a value that is not a number (a bool is
not one) for a key declared `float`, `int` or `Optional[float]`.
Round-tripping through `config_to_dict` and `config_from_dict` is
idempotent; `--set section.key=value` overrides are YAML-parsed scalars
applied on the raw dict before validation.  PyYAML is imported on first
use, by the functions that parse or write YAML, so importing the package
loads no yaml module.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, fields
from typing import Optional

from .errors import ConfigError


@dataclass(frozen=True)
class PresetSection:
    r_min: float = 0.2
    r_max: float = 5.0
    z_min: float = -10.0
    z_max: float = 10.0
    theta: float = 1.0
    k_choice: str = "linear"              # "linear" or "constant"
    k_constant: tuple = (0.0, 0.0, 1.0)   # used when k_choice == "constant"
    kappa: Optional[float] = None


@dataclass(frozen=True)
class IntegratorSection:
    scheme: str = "grid_increment"
    step_h: Optional[float] = None
    jump_ode_substeps: int = 20
    splitting: str = "strang"
    jump_cutoff: float = 1e-3


@dataclass(frozen=True)
class RunSection:
    master_seed: int = 20260816
    stream_base: int = 0
    threads: int = 0                      # accepted for old configs, no effect
    out_dir: Optional[str] = None


@dataclass(frozen=True)
class ExperimentSection:
    x0: tuple = (1.0, 0.0, 0.0)
    epsilon: float = 0.1
    epsilons: tuple = (0.2, 0.1, 0.05)
    horizon: float = 1.0
    horizons: tuple = (10.0, 30.0, 100.0)
    p: float = 2.0
    n_paths: int = 200
    gamma: float = 0.1
    observable: str = "radial"
    method: str = "quadrature"            # averaged-field backend
    n_nodes: int = 64
    n_r: int = 5
    n_z: int = 5
    u_values: tuple = (1.0, 2.0, 4.0)
    t: float = 1.0
    n_samples: int = 20000
    ode_step: float = 1e-3
    search_horizon: float = 50.0


@dataclass(frozen=True)
class ExperimentConfig:
    preset: PresetSection = field(default_factory=PresetSection)
    integrator: IntegratorSection = field(default_factory=IntegratorSection)
    run: RunSection = field(default_factory=RunSection)
    experiment: ExperimentSection = field(default_factory=ExperimentSection)


_SECTIONS = {
    "preset": PresetSection,
    "integrator": IntegratorSection,
    "run": RunSection,
    "experiment": ExperimentSection,
}


def _freeze(value):
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _build_section(cls, data, section):
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"section {section!r} must be a mapping")
    declared = {f.name: f.type for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in declared:
            raise ConfigError(f"unknown config key {section}.{key}")
        kind = declared[key]
        if kind in ("float", "int", "Optional[float]") and not (
                _real(value) or value is None and kind == "Optional[float]"):
            raise ConfigError(f"{section}.{key} must be a number, got {value!r}")
        kwargs[key] = _freeze(value)
    return cls(**kwargs)


def config_from_dict(data) -> ExperimentConfig:
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    for key in data:
        if key not in _SECTIONS:
            raise ConfigError(f"unknown config section {key!r}")
    cfg = ExperimentConfig(**{
        name: _build_section(cls, data.get(name), name)
        for name, cls in _SECTIONS.items()
    })
    _check_experiment(cfg.experiment)
    return cfg


def _real(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value):
    return _real(value) and (isinstance(value, int) or math.isfinite(value))


def _positive(value):
    return _finite(value) and value > 0


def _count(value, least):
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= least


def _check_experiment(exp: ExperimentSection):
    """Reject experiment values no subcommand can run, before any work."""
    eps = exp.epsilons
    x0 = exp.x0
    for key, ok, want in (
            ("x0", isinstance(x0, tuple) and len(x0) == 3
             and all(_finite(c) for c in x0), "three finite numbers"),
            ("gamma", _positive(exp.gamma), "a positive finite number"),
            ("ode_step", _positive(exp.ode_step), "a positive finite number"),
            ("search_horizon", _positive(exp.search_horizon),
             "a positive finite number"),
            ("n_paths", _count(exp.n_paths, 2), "an integer of at least 2"),
            ("n_samples", _count(exp.n_samples, 1),
             "an integer of at least 1"),
            ("p", _finite(exp.p) and exp.p >= 1,
             "a finite number of at least 1"),
            ("epsilon", _real(exp.epsilon) and 0 <= exp.epsilon <= 1,
             "a number in [0, 1]"),
            ("epsilons", isinstance(eps, tuple) and len(eps) > 0
             and all(_real(e) and 0 < e <= 1 for e in eps),
             "a nonempty list of numbers in (0, 1]"),
            ("horizon", _positive(exp.horizon), "a positive finite number"),
            ("horizons", isinstance(exp.horizons, tuple)
             and all(_finite(t) for t in exp.horizons),
             "a list of finite numbers"),
            ("u_values", isinstance(exp.u_values, tuple)
             and len(exp.u_values) > 0
             and all(_finite(u) for u in exp.u_values),
             "a nonempty list of finite numbers"),
            ("n_r", _count(exp.n_r, 1), "an integer of at least 1"),
            ("n_z", _count(exp.n_z, 1), "an integer of at least 1")):
        if not ok:
            raise ConfigError(f"experiment.{key} must be {want}, "
                              f"got {getattr(exp, key)!r}")


def loads_config(text: str) -> ExperimentConfig:
    import yaml
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid yaml: {exc}") from exc
    return config_from_dict(raw)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_config(fh.read())


def _plain(value):
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, list):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def config_to_dict(cfg: ExperimentConfig) -> dict:
    out = {}
    for name, cls in _SECTIONS.items():
        section = getattr(cfg, name)
        out[name] = {f.name: _plain(getattr(section, f.name)) for f in fields(cls)}
    return out


def dump_config(cfg: ExperimentConfig) -> str:
    import yaml
    return yaml.safe_dump(config_to_dict(cfg), sort_keys=True)


def apply_overrides(data, assignments):
    """Apply `section.key=value` strings onto a raw config dict."""
    import yaml
    out = copy.deepcopy(data) if data else {}
    for item in assignments or []:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        parts = key.strip().split(".")
        if len(parts) != 2 or not all(parts):
            raise ConfigError(f"override key {key.strip()!r} must be section.key")
        section, name = parts
        slot = out.setdefault(section, {})
        if not isinstance(slot, dict):
            raise ConfigError(f"section {section!r} must be a mapping")
        slot[name] = yaml.safe_load(raw) if raw.strip() else None
    return out


# ---------------------------------------------------------------------------
# object construction from validated config
# ---------------------------------------------------------------------------

def preset_from_config(cfg: ExperimentConfig):
    from .geometry import ConstantK, LinearK, make_cylinder_preset
    sec = cfg.preset
    if sec.k_choice == "linear":
        k = LinearK()
    elif sec.k_choice == "constant":
        if not (isinstance(sec.k_constant, tuple) and len(sec.k_constant) == 3
                and all(_real(v) for v in sec.k_constant)):
            raise ConfigError("preset.k_constant needs exactly three numbers, "
                              f"got {sec.k_constant!r}")
        k = ConstantK(*(float(v) for v in sec.k_constant))
    else:
        raise ConfigError("preset.k_choice must be 'linear' or 'constant'")
    return make_cylinder_preset(
        r_min=sec.r_min, r_max=sec.r_max, z_min=sec.z_min, z_max=sec.z_max,
        theta=sec.theta, k_choice=k, kappa=sec.kappa)


def integrator_from_config(cfg: ExperimentConfig):
    from .marcus import IntegratorConfig
    sec = cfg.integrator
    return IntegratorConfig(
        scheme=sec.scheme, step_h=sec.step_h,
        jump_ode_substeps=sec.jump_ode_substeps,
        splitting=sec.splitting, jump_cutoff=sec.jump_cutoff)

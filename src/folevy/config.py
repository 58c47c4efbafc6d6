"""Run configuration: a strict YAML layer over nested dataclasses.

Each section dataclass's annotations are the one statement of what its
keys accept, and `config_from_dict` checks every key against them: an
unknown section or key is rejected, a number must be finite (a bool is
not one), a tuple must have its declared length and a `Literal` key one
of its listed strings.  An `int` key takes any finite number here; that
it be whole is part of its range.  The integrator section is
`marcus.IntegratorConfig` itself, so its `__post_init__` checks the
integrator ranges as the config is loaded.  `_RANGES` maps each
experiment key that no constructor checks to a call of the checks in
`errors` that every library entry point runs too, so a key's error reads
`section.key must be ...`; the preset and seed ranges are checked by the
objects built from them, before any work starts.

Round-tripping through `config_to_dict` and `config_from_dict` is
idempotent; `--set section.key=value` overrides are YAML-parsed scalars
applied on the raw dict before validation.  `_parse_yaml` is the one YAML
reader, with YAML 1.2 floats, so ``1e-3`` is a number.  PyYAML and the
resolved annotations are loaded on first use, so importing the package
loads neither.
"""

from __future__ import annotations

import copy
import re
from dataclasses import asdict, dataclass, field
from functools import cache, partial
from typing import (Literal, Optional, Union, get_args, get_origin,
                    get_type_hints)

from .errors import _MAX_COUNT, ConfigError, _count, _real, _reals
from .marcus import IntegratorConfig    # loaded by the package before this


@dataclass(frozen=True)
class PresetSection:
    r_min: float = 0.2
    r_max: float = 5.0
    z_min: float = -10.0
    z_max: float = 10.0
    theta: float = 1.0
    k_choice: Literal["linear", "constant"] = "linear"
    k_constant: tuple[float, float, float] = (0.0, 0.0, 1.0)  # for "constant"


@dataclass(frozen=True)
class RunSection:
    master_seed: int = 20260816
    out_dir: Optional[str] = None


@dataclass(frozen=True)
class ExperimentSection:
    x0: tuple[float, float, float] = (1.0, 0.0, 0.0)
    epsilon: float = 0.1
    epsilons: tuple[float, ...] = (0.2, 0.1, 0.05)
    horizon: float = 1.0
    horizons: tuple[float, ...] = (10.0, 30.0, 100.0)
    p: float = 2.0
    n_paths: int = 200
    gamma: float = 0.1
    observable: Literal["radial", "vertical"] = "radial"
    n_r: int = 5
    n_z: int = 5
    u_values: tuple[float, ...] = (1.0, 2.0, 4.0)
    t: float = 1.0
    n_samples: int = 20000
    search_horizon: float = 50.0


@dataclass(frozen=True)
class ExperimentConfig:
    preset: PresetSection = field(default_factory=PresetSection)
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    run: RunSection = field(default_factory=RunSection)
    experiment: ExperimentSection = field(default_factory=ExperimentSection)


_SECTIONS = {
    "preset": PresetSection,
    "integrator": IntegratorConfig,
    "run": RunSection,
    "experiment": ExperimentSection,
}


# averaged-field evaluations of `folevy average`, experiment.n_r x n_z:
# 4000x the default grid
_MAX_FIELD_POINTS = 10**5

# section.key -> the check of its range, run on a value of the declared
# type: the ranges that no object built from the config checks
_RANGES = {
    "experiment.epsilon": partial(_real, least=0, most=1),
    "experiment.epsilons": partial(_reals, above=0, most=1),
    "experiment.horizon": partial(_real, above=0),
    "experiment.gamma": partial(_real, above=0),
    "experiment.search_horizon": partial(_real, above=0, most=1e3),
    "experiment.p": partial(_real, least=1),
    "experiment.u_values": _reals,
    "experiment.n_paths": partial(_count, least=2),
    "experiment.n_samples": partial(_count, least=1, most=_MAX_COUNT),
    "experiment.n_r": partial(_count, least=1, most=_MAX_FIELD_POINTS),
    "experiment.n_z": partial(_count, least=1, most=_MAX_FIELD_POINTS),
}


@cache
def _hints(cls):
    return get_type_hints(cls)


def _mismatch(kind, value):
    """None if `value` has the declared type `kind`, else what it needs."""
    origin, args = get_origin(kind), get_args(kind)
    if kind in (int, float):
        try:
            _real(value, "")
        except ConfigError:
            return "a finite number"
        return None
    if origin is Literal:
        ok = isinstance(value, str) and value in args
        return None if ok else "one of " + ", ".join(map(repr, args))
    if origin is Union:                  # Optional[X]
        want = None if value is None else _mismatch(args[0], value)
        return want and f"{want} or null"
    if origin is tuple:                 # of floats: n of them, or any number
        n = None if args[-1] is Ellipsis else len(args)
        ok = isinstance(value, (list, tuple)) and n in (None, len(value)) \
            and not any(_mismatch(float, v) for v in value)
        return None if ok else (f"a list of {n} finite numbers" if n
                                else "a list of finite numbers")
    return None if isinstance(value, str) else "a string"


def _build_section(cls, data, section):
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"section {section!r} must be a mapping")
    hints = _hints(cls)
    for key, value in data.items():
        name = f"{section}.{key}"
        if key not in hints:
            raise ConfigError(f"unknown config key {name}")
        want = _mismatch(hints[key], value)
        if want:
            raise ConfigError(f"{name} must be {want}, got {value!r}")
        if name in _RANGES:
            _RANGES[name](value, name)
    return cls(**{key: tuple(value) if isinstance(value, list) else value
                  for key, value in data.items()})


def config_from_dict(data) -> ExperimentConfig:
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    for key in data:
        if key not in _SECTIONS:
            raise ConfigError(f"unknown config section {key!r}")
    return ExperimentConfig(**{
        name: _build_section(cls, data.get(name), name)
        for name, cls in _SECTIONS.items()
    })


# YAML 1.2's float pattern; PyYAML follows YAML 1.1, whose pattern needs a
# dot, so without it 1e-3 would be read as a string, and the string "1e5"
# written unquoted, to be read back as a number
_FLOAT = r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"


def _unique_keys(node, path, seen):
    """ConfigError naming the path of the first key repeated in a mapping
    of the composed YAML tree; a node that aliases share is walked once."""
    import yaml
    if id(node) in seen or isinstance(node, yaml.ScalarNode):
        return
    seen.add(id(node))
    if isinstance(node, yaml.SequenceNode):
        for item in node.value:
            _unique_keys(item, path, seen)
        return
    keys = set()
    for key, value in node.value:
        name = path + [str(key.value)]
        if (key.tag, name[-1]) in keys:
            raise ConfigError(f"config key {'.'.join(name)} is repeated")
        keys.add((key.tag, name[-1]))
        _unique_keys(value, name, seen)


@cache
def _yaml12(base):
    """A subclass of PyYAML's SafeLoader or SafeDumper with YAML 1.2 floats;
    the loader also rejects a key repeated in any mapping, naming it by its
    path below the `key_path` that _parse_yaml sets."""
    def construct_document(self, node):
        _unique_keys(node, list(self.key_path), set())
        return base.construct_document(self, node)
    loads = hasattr(base, "construct_document")
    cls = type(base.__name__, (base,),
               {"construct_document": construct_document} if loads else {})
    # appended after the YAML 1.1 int resolver, so 3 stays an int
    cls.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(_FLOAT),
                              list("-+.0123456789"))
    return cls


def _parse_yaml(text, key_path=()):
    """The one YAML reader: safe loading, with YAML 1.2 floats.  The
    document sits at `key_path` of the config, so a repeated key inside an
    override value is named by its full path."""
    import yaml
    try:
        # yaml.load, with the key path set on the loader
        loader = _yaml12(yaml.SafeLoader)(text)
        loader.key_path = key_path
        try:
            return loader.get_single_data()
        finally:
            loader.dispose()
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid yaml: {exc}") from exc


def loads_config(text: str) -> ExperimentConfig:
    return config_from_dict(_parse_yaml(text))


def load_config(path=None, overrides=()) -> ExperimentConfig:
    """The config of the YAML file at `path` (None: the defaults), with
    `section.key=value` overrides applied before it is checked."""
    raw = None
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        raw = _parse_yaml(text)
    return config_from_dict(apply_overrides(raw, overrides))


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {name: {key: list(v) if isinstance(v, tuple) else v
                   for key, v in section.items()}
            for name, section in asdict(cfg).items()}


def dump_config(cfg: ExperimentConfig) -> str:
    import yaml
    return yaml.dump(config_to_dict(cfg), Dumper=_yaml12(yaml.SafeDumper),
                     sort_keys=True)


def apply_overrides(data, assignments):
    """Apply `section.key=value` strings onto a raw config dict."""
    if data is not None and not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    out = copy.deepcopy(data) if data else {}
    for item in assignments or []:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        parts = key.strip().split(".")
        if len(parts) != 2 or not all(parts):
            raise ConfigError(f"override key {key.strip()!r} must be section.key")
        section, name = parts
        if out.get(section) is None:            # absent, or empty in a file
            out[section] = {}
        slot = out[section]
        if not isinstance(slot, dict):
            raise ConfigError(f"section {section!r} must be a mapping")
        slot[name] = _parse_yaml(raw, parts) if raw.strip() else None
    return out


# ---------------------------------------------------------------------------
# object construction from validated config
# ---------------------------------------------------------------------------

def preset_from_config(cfg: ExperimentConfig):
    from .geometry import ConstantK, LinearK, make_cylinder_preset
    sec = cfg.preset
    k = LinearK() if sec.k_choice == "linear" \
        else ConstantK(*(float(v) for v in sec.k_constant))
    return make_cylinder_preset(
        r_min=sec.r_min, r_max=sec.r_max, z_min=sec.z_min, z_max=sec.z_max,
        theta=sec.theta, k_choice=k)


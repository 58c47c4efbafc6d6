"""Exception types shared across the package, and the argument checks
that every entry point and the config run before any work: each returns
its value or raises `ConfigError`."""

import math
import operator

_MAX_COUNT = 10**7      # of nodes or samples: 100x any calibration or demo


class FolevyError(Exception):
    pass


class ConfigError(FolevyError, ValueError):
    """An argument or configuration value no computation can use."""


class DomainError(FolevyError, ValueError):
    """A point was handed to an operation outside its chart domain."""


class QuadratureError(FolevyError, RuntimeError):
    """Adaptive quadrature failed to converge; never returned as silent NaN."""


class BlowupError(FolevyError, RuntimeError):
    """Jump-ODE integration left the finite range.

    Carries the ode time reached so the failing jump can be located.
    """

    def __init__(self, message, sigma=None):
        super().__init__(message)
        self.sigma = sigma


def _real(value, name, above=None, least=None, most=None):
    """`value` if it is a finite real number (a bool is not one, nor a
    string, nor an integer past the float range) with value > above,
    value >= least and value <= most, for each bound given."""
    try:
        ok = (not isinstance(value, bool) and math.isfinite(value)
              and (above is None or value > above)
              and (least is None or value >= least)
              and (most is None or value <= most))
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        bounds = []
        if above is not None:
            bounds.append("positive" if above == 0 else f"above {above}")
        if least is not None:
            bounds.append("nonnegative" if least == 0 else f"at least {least}")
        if most is not None:
            bounds.append(f"at most {most}")
        elif bounds:
            bounds.append("finite")
        want = " and ".join(bounds) or "a finite number"
        raise ConfigError(f"{name} must be {want}, got {value!r}")
    return value


def _count(value, name, least=0, most=None):
    """`value` if it is an integer (a numpy one too) with least <= value
    and, when a ceiling is given, value <= most."""
    try:
        ok = not isinstance(value, bool) and operator.index(value) >= least \
            and (most is None or value <= most)
    except TypeError:
        ok = False
    if not ok:
        bounds = []
        if least > 0:
            bounds.append(f"at least {least}")
        if most is not None:
            bounds.append(f"at most {most}")
        want = "a nonnegative integer"
        if bounds:
            want = " and ".join(bounds) + ", and must be " + want
        raise ConfigError(f"{name} must be {want}")
    return value


def _reals(values, name, **bounds):
    """`values` as a list of floats, the form every caller uses, if it is
    a nonempty sequence of numbers that each pass `_real` with `bounds`."""
    try:
        values = list(values)
    except TypeError:
        values = []
    if not values:
        raise ConfigError(f"{name} must be a nonempty list of numbers")
    return [float(_real(v, name, **bounds)) for v in values]

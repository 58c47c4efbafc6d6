"""Exception types shared across the package."""


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

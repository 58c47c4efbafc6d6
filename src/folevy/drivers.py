"""Pure-jump Levy drivers and their distributional oracles.

Three driver kinds are supported, all of finite variation:

* `GammaSubordinator` -- one-sided jump measure dens(y) = exp(-rate*y)/y on
  (0, inf).  Increments over a step of length dt have the exact marginal
  Gamma(shape=dt, rate=rate), which is what exact-mode sampling uses, and
  the characteristic function (1 - i*u/rate)**(-t) in closed form.
* `CompoundPoisson` -- finite activity, user-supplied jump sampler/density.
* `TruncatedMeasure` -- a jump density restricted to |y| > cutoff.  Sampling
  draws a Poisson number of jumps from the normalized restricted measure;
  the mean of the discarded small jumps is restored as a constant
  compensator drift b = int_{|y|<=cutoff} y dens(y) dy.

Increment semantics are uncompensated throughout: the simulated process is
the plain sum of its jumps (plus the explicit compensator drift in
truncated mode), so closed forms and quadrature below use the exponent
int (e^{iuy} - 1) dens(y) dy without a centering term.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import integrate, special, stats

from .errors import DomainError, QuadratureError
from .rng import RngStream

QUAD_ABS_TOL = 1e-10
_TABLE_NODES = 4097
_TAIL_FRACTION = 1e-14


# ---------------------------------------------------------------------------
# quadrature helpers
# ---------------------------------------------------------------------------

def _quad(f, a, b, tol=QUAD_ABS_TOL):
    """Adaptive quadrature that refuses to return garbage silently."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value, err = integrate.quad(f, a, b, epsabs=tol, epsrel=1e-10, limit=400)
    bad = [w for w in caught if issubclass(w.category, integrate.IntegrationWarning)]
    if bad or not np.isfinite(value) or err > max(100 * tol, 1e-7 * abs(value)):
        raise QuadratureError(
            f"quadrature on [{a}, {b}] did not converge (value={value}, err={err})"
        )
    return value


def _exp_tail_term(density, kappa, y):
    # log-space evaluation: e^(kappa|y|) alone overflows long before the
    # product with a decaying density does
    d = float(density(y))
    if d <= 0.0 or not math.isfinite(d):
        return 0.0
    expo = kappa * abs(y) + math.log(d)
    return math.inf if expo > 709.0 else math.exp(expo)


def _tail_grows(term):
    # quad can return a huge finite number without warning when the
    # integrand grows exponentially; an integrable tail must decay, so a
    # non-decreasing pair of far probes means the moment does not exist
    a, b = term(128.0), term(512.0)
    if math.isinf(a) or math.isinf(b):
        return True
    return b > 0.0 and b >= a


def _exp_moment_integral(density, lo, hi, kappa):
    """int_{|y|<=1} y^2 dens + int_{|y|>1} e^(kappa|y|) dens over [lo, hi].

    This is the usual reading of the wedge criterion e^{kappa|y|} ^ |y|^2:
    the quadratic part controls the origin, the exponential part the tails.
    Raises QuadratureError when the tail integral diverges.
    """
    if lo == -np.inf and _tail_grows(
            lambda y: _exp_tail_term(density, kappa, -y)):
        raise QuadratureError(
            f"exponential moment tail integral of order {kappa} diverges")
    if hi == np.inf and _tail_grows(
            lambda y: _exp_tail_term(density, kappa, y)):
        raise QuadratureError(
            f"exponential moment tail integral of order {kappa} diverges")
    total = 0.0
    if lo < -1.0:
        total += _quad(lambda y: _exp_tail_term(density, kappa, y), lo, -1.0)
    if lo < 0.0:
        total += _quad(lambda y: y * y * density(y), max(lo, -1.0), 0.0)
    if hi > 0.0:
        total += _quad(lambda y: y * y * density(y), 0.0, min(hi, 1.0))
    if hi > 1.0:
        total += _quad(lambda y: _exp_tail_term(density, kappa, y), 1.0, hi)
    return total


# ---------------------------------------------------------------------------
# driver kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaSubordinator:
    """Standard Gamma subordinator with jump density exp(-rate*y)/y, y > 0."""

    rate: float
    exp_moment_order: Optional[float] = None  # kappa; defaults to rate/2

    dimension = 1

    def __post_init__(self):
        if not (self.rate > 0 and np.isfinite(self.rate)):
            raise ValueError(f"rate must be positive and finite, got {self.rate}")
        kappa = self.rate / 2 if self.exp_moment_order is None else self.exp_moment_order
        if not (0 < kappa < self.rate):
            # the tail integral int_1^inf e^((kappa-rate)y)/y dy diverges
            raise ValueError(
                f"exponential moment order must sit in (0, rate): kappa={kappa}, rate={self.rate}"
            )
        object.__setattr__(self, "exp_moment_order", float(kappa))
        # the check is analytic above; run the quadrature too so a broken
        # closed form cannot slip through unnoticed
        value = _exp_moment_integral(self.levy_density, 0.0, np.inf, kappa)
        if not np.isfinite(value):
            raise ValueError("exponential moment integral is not finite")

    def levy_density(self, y):
        y = np.asarray(y, dtype=float)
        return np.where(y > 0, np.exp(-self.rate * y) / np.where(y > 0, y, 1.0), 0.0)

    def tail_mass(self, cutoff):
        """Measure of (cutoff, inf): the exponential integral E1(rate*cutoff)."""
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        return float(special.exp1(self.rate * cutoff))

    def mean_below(self, cutoff):
        """int_0^cutoff y dens(y) dy = (1 - exp(-rate*cutoff)) / rate."""
        return float(-math.expm1(-self.rate * cutoff) / self.rate)


@dataclass(frozen=True)
class CompoundPoisson:
    """Finite-activity driver: jump_sampler(gen, n) -> (n, dimension) sizes."""

    intensity: float
    jump_sampler: Callable[[np.random.Generator, int], np.ndarray]
    jump_density: Optional[Callable] = None
    dimension: int = 1
    exp_moment_order: float = 1.0
    support: tuple = (-np.inf, np.inf)

    def __post_init__(self):
        if not (self.intensity > 0 and np.isfinite(self.intensity)):
            raise ValueError(f"intensity must be positive and finite, got {self.intensity}")
        if self.dimension < 1:
            raise ValueError("dimension must be a positive integer")
        if self.exp_moment_order <= 0:
            raise ValueError("exponential moment order must be positive")
        if self.dimension == 1 and self.jump_density is not None:
            try:
                value = self.intensity * _exp_moment_integral(
                    lambda y: float(self.jump_density(y)), self.support[0],
                    self.support[1], self.exp_moment_order)
            except QuadratureError as exc:
                raise ValueError(
                    f"exponential moment integral of order "
                    f"{self.exp_moment_order} diverges") from exc
            if not np.isfinite(value):
                raise ValueError("exponential moment integral is not finite")
        else:
            # no usable density: estimate lambda*E[e^(kappa|Y|)] from the sampler
            probe = np.asarray(self.jump_sampler(np.random.Generator(np.random.Philox(0)), 4096))
            probe = probe.reshape(len(probe), -1)
            est = np.exp(self.exp_moment_order * np.linalg.norm(probe, axis=1)).mean()
            if not np.isfinite(est):
                raise ValueError("exponential moment estimate overflowed; lower the order")


@dataclass(frozen=True)
class TruncatedMeasure:
    """One-dimensional jump density restricted to |y| > cutoff.

    `density` is the full jump density away from the origin; `support` is the
    closed interval it lives on (one of the endpoints may be infinite, and
    the interval may sit on one side of 0).  Construction computes the
    restricted mass, the compensator drift, and an inverse-CDF table used
    for size sampling, and rejects measures whose restricted mass is not
    finite and positive.
    """

    density: Callable[[float], float]
    cutoff: float
    exp_moment_order: float = 1.0
    support: tuple = (0.0, np.inf)

    dimension = 1

    def __post_init__(self):
        if not (self.cutoff > 0 and np.isfinite(self.cutoff)):
            raise ValueError(f"cutoff must be positive and finite, got {self.cutoff}")
        lo, hi = self.support
        if not lo < hi:
            raise ValueError("support must be a nondegenerate interval")
        value = _exp_moment_integral(lambda y: float(self.density(y)), lo, hi,
                                     self.exp_moment_order)
        if not np.isfinite(value):
            raise ValueError("exponential moment integral is not finite")

        sides = []  # (sign, inner, outer)
        if hi > self.cutoff:
            sides.append((1.0, self.cutoff, hi))
        if lo < -self.cutoff:
            sides.append((-1.0, self.cutoff, -lo))
        if not sides:
            raise ValueError("support carries no mass beyond the cutoff")

        tables = []
        masses = []
        for sign, inner, outer in sides:
            dens = (lambda y, s=sign: float(self.density(s * y)))
            outer_eff = outer
            if not np.isfinite(outer):
                outer_eff = self._find_tail(dens, inner)
            mass = _quad(dens, inner, outer_eff)
            if not (mass > 0 and np.isfinite(mass)):
                raise ValueError(f"restricted mass on one side is not finite-positive: {mass}")
            ys = np.exp(np.linspace(math.log(inner), math.log(outer_eff), _TABLE_NODES))
            vals = np.array([dens(y) for y in ys])
            cdf = np.concatenate([[0.0], np.cumsum(np.diff(ys) * (vals[1:] + vals[:-1]) / 2)])
            cdf /= cdf[-1]
            tables.append((sign, ys, cdf))
            masses.append(mass)

        drift = 0.0
        if hi > 0:
            drift += _quad(lambda y: y * float(self.density(y)), max(lo, 0.0),
                           min(hi, self.cutoff))
        if lo < 0:
            drift += _quad(lambda y: y * float(self.density(y)), max(lo, -self.cutoff),
                           min(hi, 0.0))

        object.__setattr__(self, "_tables", tuple(tables))
        object.__setattr__(self, "_side_masses", tuple(masses))
        object.__setattr__(self, "restricted_mass", float(sum(masses)))
        object.__setattr__(self, "compensator", float(drift))

    @staticmethod
    def _find_tail(dens, inner):
        total = _quad(dens, inner, inner * 2) or 1.0
        outer = max(2.0 * inner, 1.0)
        while True:
            tail = integrate.quad(dens, outer, outer * 2, epsabs=1e-16, limit=200)[0]
            if tail < _TAIL_FRACTION * total:
                return outer
            outer *= 2.0
            if outer > 1e12:
                raise ValueError("tail of the jump density decays too slowly to tabulate")

    def sample_sizes(self, gen, n):
        """n jump sizes from the normalized restricted measure."""
        if n == 0:
            return np.empty(0)
        u = gen.uniform(size=n)
        if len(self._tables) == 1:
            sign, ys, cdf = self._tables[0]
            return sign * np.interp(u, cdf, ys)
        p_pos = self._side_masses[0] / self.restricted_mass
        pick = gen.uniform(size=n) < p_pos
        out = np.empty(n)
        for idx, (sign, ys, cdf) in enumerate(self._tables):
            sel = pick if idx == 0 else ~pick
            out[sel] = sign * np.interp(u[sel], cdf, ys)
        return out


def truncate_gamma(spec: GammaSubordinator, cutoff: float) -> TruncatedMeasure:
    """Gamma measure restricted to (cutoff, inf), with closed-form mass/drift.

    The inverse CDF is tabulated from exact values of the exponential
    integral rather than re-integrated numerically.
    """
    if not (cutoff > 0 and np.isfinite(cutoff)):
        raise ValueError(f"cutoff must be positive and finite, got {cutoff}")
    theta = spec.rate
    mass = spec.tail_mass(cutoff)
    # outer node: E1(theta*y) below _TAIL_FRACTION of the restricted mass
    target = mass * _TAIL_FRACTION
    hi = cutoff
    while special.exp1(theta * hi) > target:
        hi *= 2.0
    ys = np.exp(np.linspace(math.log(cutoff), math.log(hi), _TABLE_NODES))
    cdf = 1.0 - special.exp1(theta * ys) / mass
    cdf[0] = 0.0
    cdf = cdf / cdf[-1]
    obj = TruncatedMeasure.__new__(TruncatedMeasure)
    object.__setattr__(obj, "density", spec.levy_density)
    object.__setattr__(obj, "cutoff", float(cutoff))
    object.__setattr__(obj, "exp_moment_order", spec.exp_moment_order)
    object.__setattr__(obj, "support", (0.0, np.inf))
    object.__setattr__(obj, "_tables", ((1.0, ys, cdf),))
    object.__setattr__(obj, "_side_masses", (mass,))
    object.__setattr__(obj, "restricted_mass", float(mass))
    object.__setattr__(obj, "compensator", spec.mean_below(cutoff))
    return obj


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IncrementSeries:
    """Driver increments on a time grid.

    `increments[k]` approximates Z(grid[k+1]) - Z(grid[k]).  In decomposition
    mode it is the sum of the recorded above-cutoff jumps in the interval
    plus compensator_drift * dt; in exact mode it is an exact draw and
    compensator_drift is zero.
    """

    grid: np.ndarray
    increments: np.ndarray
    large_jumps: Optional[tuple] = None        # ((time, size-vector), ...)
    compensator_drift: Optional[np.ndarray] = None

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        inc = np.asarray(self.increments, dtype=float)
        if grid.ndim != 1 or len(grid) < 1 or grid[0] != 0.0:
            raise ValueError("grid must be one-dimensional and start at 0")
        if len(grid) > 1 and not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        if inc.shape[0] != len(grid) - 1:
            raise ValueError("need exactly one increment per grid interval")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "increments", inc)
        if self.compensator_drift is not None:
            object.__setattr__(self, "compensator_drift",
                               np.asarray(self.compensator_drift, dtype=float))


@dataclass(frozen=True)
class JumpEvents:
    """Above-cutoff jumps on [0, horizon] plus the small-jump mean drift."""

    horizon: float
    times: np.ndarray
    sizes: np.ndarray           # (n, dimension)
    compensator: np.ndarray     # (dimension,) drift per unit time


def _finite_law(spec):
    """(rate, size_draw, dimension, compensator) of a finite-activity driver."""
    if isinstance(spec, CompoundPoisson):
        return (spec.intensity, spec.jump_sampler, spec.dimension,
                np.zeros(spec.dimension))
    if isinstance(spec, TruncatedMeasure):
        return (spec.restricted_mass, spec.sample_sizes, 1,
                np.array([spec.compensator]))
    if isinstance(spec, GammaSubordinator):
        raise ValueError("Gamma driver has no finite event set; "
                         "apply truncate_gamma(spec, cutoff) first")
    raise TypeError(f"unknown driver spec {type(spec).__name__}")


def sample_jump_events(spec, horizon, rng: RngStream) -> JumpEvents:
    """Poisson jump times with iid sizes; Gamma drivers must be truncated first."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    rate, size_draw, dim, comp = _finite_law(spec)
    gen = rng.generator()
    n = int(gen.poisson(rate * horizon))
    times = np.sort(gen.uniform(0.0, horizon, size=n))
    sizes = np.asarray(size_draw(gen, n), dtype=float).reshape(n, dim)
    return JumpEvents(float(horizon), times, sizes, comp)


def step_sums(grid, events):
    """Per-interval sums of the jumps of each row's JumpEvents, shape
    (rows, len(grid) - 1, dimension); a jump at t counts in the interval
    [grid[k], grid[k+1]) holding t, and each sum runs in time order."""
    inc = np.zeros((len(events), len(grid) - 1, events[0].sizes.shape[1]))
    rows = np.repeat(np.arange(len(events)), [len(e.times) for e in events])
    idx = np.searchsorted(grid, np.concatenate([e.times for e in events]),
                          side="right") - 1
    np.add.at(inc, (rows, np.clip(idx, 0, len(grid) - 2)),
              np.concatenate([e.sizes for e in events]))
    return inc


def sample_increments(spec, grid, rng: RngStream) -> IncrementSeries:
    """Driver increments on `grid` (strictly increasing, starting at 0).

    GammaSubordinator: exact marginal draws, Gamma(shape=dt, rate=rate).
    CompoundPoisson / TruncatedMeasure: jumps above the cutoff recorded as
    (time, size) pairs and aggregated per interval, with the compensator
    drift added.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 1:
        raise ValueError("grid must be a one-dimensional array")
    if grid[0] != 0.0:
        raise ValueError("grid must start at 0")
    if len(grid) > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be strictly increasing")

    if isinstance(spec, GammaSubordinator):
        dt = np.diff(grid)
        gen = rng.generator()
        draws = gen.gamma(shape=dt, scale=1.0 / spec.rate) if len(dt) else np.empty(0)
        return IncrementSeries(grid, draws.reshape(-1, 1),
                               compensator_drift=np.zeros(1))

    events = sample_jump_events(spec, float(grid[-1]), rng)
    inc = step_sums(grid, [events])[0] + events.compensator * np.diff(grid)[:, None]
    pairs = tuple((float(t), s.copy()) for t, s in zip(events.times, events.sizes))
    return IncrementSeries(grid, inc, large_jumps=pairs,
                           compensator_drift=events.compensator.copy())


def make_step_sampler(spec, h):
    """Per-path sampler of exact-mode increments for a uniform step h.

    Returns fn(gen, n) -> (n, dimension) consecutive increments.  Used by the
    ensemble kernel, which draws each path's increments from its own stream.
    """
    if h <= 0:
        raise ValueError("step must be positive")
    if isinstance(spec, GammaSubordinator):
        scale = 1.0 / spec.rate

        def draw(gen, n):
            return gen.gamma(shape=h, scale=scale, size=n).reshape(n, 1)
        return draw
    rate, size_draw, dim, comp = _finite_law(spec)

    def draw(gen, n):
        counts = gen.poisson(rate * h, size=n)
        sizes = np.asarray(size_draw(gen, int(counts.sum())), dtype=float).reshape(-1, dim)
        out = np.zeros((n, dim))
        np.add.at(out, np.repeat(np.arange(n), counts), sizes)
        return out + comp[None, :] * h
    return draw


# ---------------------------------------------------------------------------
# distributional oracles
# ---------------------------------------------------------------------------

def characteristic_function(spec, u, t):
    """E[exp(i * u * Z_t)] for scalar or array u.

    Gamma subordinator: closed form (1 - i*u/rate)**(-t).  Other drivers:
    exp(t * psi(u)) with psi evaluated by adaptive quadrature of the
    uncompensated exponent (plus i*u*b for the truncated compensator).
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    u_arr = np.asarray(u, dtype=float)
    if isinstance(spec, GammaSubordinator):
        out = np.power(1.0 - 1j * u_arr / spec.rate, -t)
        return complex(out) if np.isscalar(u) else out
    if getattr(spec, "dimension", 1) != 1:
        raise NotImplementedError("characteristic function only for scalar drivers")

    def psi(uu):
        if isinstance(spec, CompoundPoisson):
            if spec.jump_density is None:
                raise ValueError("CompoundPoisson needs jump_density for closed evaluation")
            lo, hi = spec.support
            re = _quad(lambda y: math.cos(uu * y) * float(spec.jump_density(y)), lo, hi)
            im = _quad(lambda y: math.sin(uu * y) * float(spec.jump_density(y)), lo, hi)
            return spec.intensity * (complex(re, im) - 1.0)
        # truncated measure: jumps above the cutoff plus compensator drift
        val = 0.0 + 0.0j
        for sign, ys, _ in spec._tables:
            a, b = ys[0], ys[-1]
            dens = (lambda y, s=sign: float(spec.density(s * y)))
            re = _quad(lambda y: (math.cos(uu * sign * y) - 1.0) * dens(y), a, b)
            im = _quad(lambda y: math.sin(uu * sign * y) * dens(y), a, b)
            val += complex(re, im)
        return val + 1j * uu * spec.compensator

    if np.isscalar(u):
        return complex(np.exp(t * psi(float(u))))
    return np.array([np.exp(t * psi(float(uu))) for uu in u_arr])


def marginal_samples(spec, t, n, rng: RngStream):
    """n independent samples of Z_t (scalar drivers)."""
    if getattr(spec, "dimension", 1) != 1:
        raise NotImplementedError("marginal sampling only for scalar drivers")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return np.zeros(n)
    # Z_t is one increment over a step of length t
    return make_step_sampler(spec, t)(rng.generator(), n)[:, 0]


def circle_law_distance(spec, t, n_paths, rng: RngStream) -> float:
    """Kolmogorov-Smirnov distance of Z_t mod 2*pi from uniform on [0, 2*pi).

    Monte Carlo with n_paths >= 100 samples; the distance decays to the
    sampling floor as t grows, which is how leafwise equidistribution of the
    driven rotation is checked.
    """
    if n_paths < 100:
        raise ValueError("n_paths must be at least 100 for a usable distance")
    samples = marginal_samples(spec, t, n_paths, rng)
    angles = np.mod(samples, 2.0 * math.pi)
    return float(stats.kstest(angles, stats.uniform(loc=0.0, scale=2.0 * math.pi).cdf).statistic)

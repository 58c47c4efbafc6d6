"""The Gamma subordinator, its truncation, and their distributional oracles.

The driver is the Gamma subordinator, pure-jump and of finite variation,
in one of two forms:

* `GammaSubordinator` -- jump measure dens(y) = exp(-rate*y)/y on
  (0, inf).  Increments over a step of length dt have the exact marginal
  Gamma(shape=dt, rate=rate), which is what exact-mode sampling uses, and
  the characteristic function (1 - i*u/rate)**(-t) in closed form.
* `TruncatedMeasure` -- that measure restricted to (cutoff, inf), as
  `truncate_gamma` builds it.  Sampling draws a Poisson number of jumps
  from the normalized restricted measure; the mean of the discarded small
  jumps is restored as a constant compensator drift
  b = int_0^cutoff y dens(y) dy.

Each form answers for itself through one method set: `step_sampler(h)`,
`finite_law()` (rate, size draw, dimension and compensator of the event
set; the truncation only), `cf(u, t)`, `for_events(cutoff)` (the finite
driver a jump-decomposition path samples) and `mean_below(cutoff)` (closed
form; the untruncated driver only).

Increment semantics are uncompensated throughout: the simulated process is
the plain sum of its jumps (plus the explicit compensator drift in
truncated mode), so closed forms and quadrature below use the exponent
int (e^{iuy} - 1) dens(y) dy without a centering term.

The exponential-moment check and the truncated characteristic-function
exponent integrate with `_quad`, an adaptive Gauss-Kronrod rule in this
module; the tail mass and the inverse-CDF table use `_exp1`, the
exponential integral E1 from its power series and continued fraction;
`circle_law_distance` computes its Kolmogorov-Smirnov statistic directly.
The module needs only numpy; the test suite checks all three against a
reference library.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import (_MAX_COUNT, ConfigError, QuadratureError, _count,
                     _real)
from .rng import RngStream

QUAD_ABS_TOL = 1e-10
_TABLE_NODES = 4097
_TAIL_FRACTION = 1e-14


# ---------------------------------------------------------------------------
# quadrature helpers
# ---------------------------------------------------------------------------

# Gauss-Kronrod 7/15 rule on [-1, 1] (QUADPACK dqk15): the 15 Kronrod
# nodes in increasing order, their weights, and the 7-point Gauss weights,
# which sit on every second node and are zero on the others
_XK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
       0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
       0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
       0.207784955007898467600689403773245, 0.0)
_WK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
       0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
       0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
       0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.0, 0.129484966168869693270611432679082, 0.0,
       0.279705391489276667901467771423780, 0.0,
       0.381830050505118944950369775488975, 0.0,
       0.417959183673469387755102040816327)
_GK_X = np.array([-x for x in _XK] + list(_XK[-2::-1]))
_GK_WK = np.array(_WK + _WK[-2::-1])
_GK_WG = np.array(_WG + _WG[-2::-1])
_EPS = np.finfo(float).eps


def _gk15(f, a, b):
    """(integral, error estimate) of f over the finite [a, b] by G7/K15."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    fx = np.array([f(x) for x in (c + h * _GK_X).tolist()], dtype=float)
    resk = _GK_WK @ fx
    err = abs((resk - _GK_WG @ fx) * h)
    resabs = abs(h) * (_GK_WK @ np.abs(fx))
    resasc = abs(h) * (_GK_WK @ np.abs(fx - 0.5 * resk))
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return resk * h, max(err, 50.0 * _EPS * resabs)


def _on_unit_interval(f, a, b):
    """f over [a, b] with an infinite end, as an integrand over (0, 1]
    under x = a + (1 - t)/t, x = b - (1 - t)/t, or both halves of the line."""
    if math.isinf(a) and math.isinf(b):
        return lambda t: (f((1.0 - t) / t) + f((t - 1.0) / t)) / (t * t)
    if math.isinf(b):
        return lambda t: f(a + (1.0 - t) / t) / (t * t)
    return lambda t: f(b - (1.0 - t) / t) / (t * t)


def _adaptive_gk15(f, a, b, epsabs, epsrel, limit):
    """(value, error estimate, converged) of the integral of f over [a, b].

    Globally adaptive: the subinterval with the largest error estimate is
    bisected until the summed estimate is at most max(epsabs,
    epsrel*|value|), `limit` subintervals exist, or a subinterval cannot be
    split any further.  Infinite ends are mapped onto (0, 1] first, as
    QUADPACK's QAGI does.
    """
    if a > b:
        value, err, converged = _adaptive_gk15(f, b, a, epsabs, epsrel, limit)
        return -value, err, converged
    if a == b:
        return 0.0, 0.0, True
    if math.isinf(a) or math.isinf(b):
        f, a, b = _on_unit_interval(f, a, b), 0.0, 1.0
    value, err = _gk15(f, a, b)
    heap = [(-err, a, b, value)]
    area, errsum = value, err
    while not errsum <= max(epsabs, epsrel * abs(area)):
        if len(heap) >= limit or not math.isfinite(errsum):
            break
        neg_err, lo, hi, old = heap[0]
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        heapq.heapreplace(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        area += v1 + v2 - old
        errsum += e1 + e2 + neg_err
    value = math.fsum(item[3] for item in heap)
    err = math.fsum(-item[0] for item in heap)
    return value, err, err <= max(epsabs, epsrel * abs(value))


def _quad(f, a, b, tol=QUAD_ABS_TOL):
    """Integral of f over [a, b] (ends may be infinite), or QuadratureError.

    `_adaptive_gk15` with absolute and relative tolerance 1e-10 by default
    and at most 400 subintervals: the 7-point Gauss and 15-point Kronrod
    pair (G7/K15) on each subinterval, global bisection of the one with the
    largest error estimate, and no epsilon extrapolation.  That is QUADPACK's
    QAG with key 1 (Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner,
    QUADPACK, Springer 1983).  A result that misses its tolerance or is not
    finite raises instead of being returned.
    """
    value, err, converged = _adaptive_gk15(f, a, b, tol, 1e-10, 400)
    if not converged or not math.isfinite(value):
        raise QuadratureError(
            f"quadrature on [{a}, {b}] did not converge (value={value}, err={err})"
        )
    return value


# ---------------------------------------------------------------------------
# the exponential integral E1
# ---------------------------------------------------------------------------

_EULER_GAMMA = 0.5772156649015329
# c_k = (-1)^k / ((k+1) (k+1)!), k = 0 .. 17: for 0 < x <= 1 the sum
# sum_k c_k x^k exceeds 0.79 and |c_17| x^17 is below 1e-17
_E1_SERIES = tuple((-1.0) ** k / ((k + 1) * math.factorial(k + 1))
                   for k in range(18))


def _exp1(x):
    """The exponential integral E1(x) = int_x^inf e^(-t)/t dt, elementwise
    for an array of x > 0 (Abramowitz and Stegun 5.1.11 and 5.1.22): the
    power series for x <= 1, the continued fraction for x > 1."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    small = x <= 1.0
    if small.any():
        out[small] = _exp1_series(x[small])
    if not small.all():
        out[~small] = _exp1_fraction(x[~small])
    return out


def _exp1_series(x):
    # E1 = -gamma - ln x + x * sum_k c_k x^k in Horner form, without the
    # terms from the first one below 1e-17 at the largest x on
    top = float(x.max())
    n = next((k for k, c in enumerate(_E1_SERIES) if abs(c) * top ** k < 1e-17),
             len(_E1_SERIES))
    p = np.zeros(x.shape)
    for c in reversed(_E1_SERIES[:n]):
        p *= x
        p += c
    p *= x
    p -= np.log(x)
    return p - _EULER_GAMMA


def _exp1_fraction(x):
    """E1 = e^(-x) / (x+1 - 1/(x+3 - 4/(x+5 - 9/(x+7 - ...)))), the even part
    of A&S 5.1.22, from level m = 10 + floor(64/x) up.

    Writing the fraction as e^(-x) / (x + 1 - t_1) with t_k = k^2 / (x + 2k
    + 1 - t_(k+1)), its tail obeys t_k = k - sqrt(x k) + (2x - 1)/4 +
    O(1/sqrt(k)) as k grows; starting from that value of t_(m+1) instead of
    0 reaches the rounding floor at two thirds of the depth.  All x step
    through the levels together, so a level costs three array operations on
    the x deep enough to need it."""
    order = np.argsort(x)           # ascending x: descending depth
    xs = x[order]
    depth = 10 + (64.0 / xs).astype(np.intp)
    # active[k]: how many of the sorted x have depth >= k
    active = np.searchsorted(-depth, -np.arange(depth[0] + 1),
                             side="right").tolist()
    # the denominator x + 2m + 1 - t_(m+1) at m = depth
    s = 0.5 * xs + depth + 0.25 + np.sqrt(xs) * np.sqrt(depth + 1.0)
    q = np.empty(xs.shape)
    for k in range(int(depth[0]), 0, -1):
        n = active[k]
        sk, qk = s[:n], q[:n]
        np.divide(k * k, sk, out=qk)
        np.add(xs[:n], 2.0 * k - 1.0, out=sk)
        sk -= qk
    out = np.empty(x.shape)
    out[order] = np.exp(-xs) / s
    return out


def _exp_tail_term(density, kappa, y):
    # log-space evaluation: e^(kappa|y|) alone overflows long before the
    # product with a decaying density does
    d = float(density(y))
    if d <= 0.0 or not math.isfinite(d):
        return 0.0
    expo = kappa * abs(y) + math.log(d)
    return math.inf if expo > 709.0 else math.exp(expo)


def _tail_grows(term):
    # adaptive quadrature can converge to a huge finite number when the
    # integrand grows exponentially; an integrable tail must decay, so a
    # non-decreasing pair of far probes means the moment does not exist
    a, b = term(128.0), term(512.0)
    if math.isinf(a) or math.isinf(b):
        return True
    return b > 0.0 and b >= a


def _exp_moment_integral(density, kappa):
    """int_0^1 y^2 dens + int_1^inf e^(kappa y) dens for a density on (0, inf).

    This is the usual reading of the wedge criterion e^{kappa|y|} ^ |y|^2:
    the quadratic part controls the origin, the exponential part the tail.
    Raises QuadratureError when the tail integral diverges.
    """
    tail = partial(_exp_tail_term, density, kappa)
    if _tail_grows(tail):
        raise QuadratureError(
            f"exponential moment tail integral of order {kappa} diverges")
    return (_quad(lambda y: y * y * density(y), 0.0, 1.0)
            + _quad(tail, 1.0, np.inf))


def _check_exp_moment(density, kappa):
    """ConfigError unless `_exp_moment_integral` converges to a finite value."""
    try:
        value = _exp_moment_integral(density, kappa)
    except QuadratureError as exc:      # e.g. a Gamma rate of 1e-138
        raise ConfigError(f"exponential moment integral of order {kappa} "
                          f"does not converge") from exc
    if not np.isfinite(value):
        raise ConfigError("exponential moment integral is not finite")


# ---------------------------------------------------------------------------
# the Gamma driver and its truncation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaSubordinator:
    """Standard Gamma subordinator with jump density exp(-rate*y)/y, y > 0."""

    rate: float
    exp_moment_order: Optional[float] = None  # kappa; defaults to rate/2

    dimension = 1

    def __post_init__(self):
        _real(self.rate, "rate", above=0)
        kappa = self.rate / 2 if self.exp_moment_order is None else self.exp_moment_order
        if not 0 < _real(kappa, "exponential moment order") < self.rate:
            # the tail integral int_1^inf e^((kappa-rate)y)/y dy diverges
            raise ConfigError(
                f"exponential moment order must sit in (0, rate): kappa={kappa}, rate={self.rate}"
            )
        object.__setattr__(self, "exp_moment_order", float(kappa))
        # the check is analytic above; run the quadrature too so a broken
        # closed form cannot slip through unnoticed
        _check_exp_moment(self.levy_density, kappa)

    def levy_density(self, y):
        y = np.asarray(y, dtype=float)
        return np.where(y > 0, np.exp(-self.rate * y) / np.where(y > 0, y, 1.0), 0.0)

    def tail_mass(self, cutoff):
        """Measure of (cutoff, inf): the exponential integral E1(rate*cutoff)."""
        _real(cutoff, "cutoff", above=0)
        return float(_exp1(self.rate * cutoff))

    def mean_below(self, cutoff):
        """int_0^cutoff y dens(y) dy = (1 - exp(-rate*cutoff)) / rate."""
        return float(-math.expm1(-self.rate * cutoff) / self.rate)

    def step_sampler(self, h):
        def draw(gen, n):
            return gen.gamma(shape=h, scale=1.0 / self.rate, size=n).reshape(n, 1)
        return draw

    def finite_law(self):
        raise ConfigError("Gamma driver has no finite event set; "
                          "apply truncate_gamma(spec, cutoff) first")

    def cf(self, u, t):
        return np.power(1.0 - 1j * u / self.rate, -t)

    def for_events(self, cutoff):
        return truncate_gamma(self, cutoff)


@dataclass(frozen=True)
class TruncatedMeasure:
    """The Gamma jump measure restricted to (cutoff, inf), from `truncate_gamma`.

    It holds the restricted mass, the compensator drift of the discarded
    small jumps, the full jump density its `cf` integrates, and the
    inverse-CDF table (`ys`, `cdf`) that size sampling interpolates.
    """

    cutoff: float
    restricted_mass: float
    compensator: float
    density: Callable[[float], float]
    ys: np.ndarray = field(compare=False, repr=False)
    cdf: np.ndarray = field(compare=False, repr=False)

    dimension = 1

    def __post_init__(self):
        _real(self.cutoff, "cutoff", above=0)
        _real(self.restricted_mass, "restricted mass", above=0)
        _real(self.compensator, "compensator", least=0)
        ys, cdf = np.asarray(self.ys), np.asarray(self.cdf)
        if not (ys.ndim == 1 and ys.shape == cdf.shape and len(ys) >= 2
                and np.all(np.diff(ys) > 0) and np.all(np.diff(cdf) >= 0)
                and cdf[0] == 0.0 and cdf[-1] == 1.0):
            raise ConfigError("ys and cdf must be an increasing table of "
                              "sizes and its CDF from 0 to 1")

    def sample_sizes(self, gen, n):
        """n jump sizes from the normalized restricted measure."""
        return np.interp(gen.uniform(size=n), self.cdf, self.ys)

    def step_sampler(self, h):
        def draw(gen, n):
            counts = gen.poisson(self.restricted_mass * h, size=n)
            sizes = self.sample_sizes(gen, int(counts.sum()))
            out = np.zeros((n, 1))
            np.add.at(out, np.repeat(np.arange(n), counts), sizes[:, None])
            return out + self.compensator * h
        return draw

    def finite_law(self):
        return (self.restricted_mass, self.sample_sizes, 1,
                np.array([self.compensator]))

    def cf(self, u, t):
        return np.array([np.exp(t * self._exponent(uu))
                         for uu in u.ravel().tolist()]).reshape(u.shape)

    def _exponent(self, u):
        # the jumps above the cutoff plus the compensator drift
        a, b = self.ys[0], self.ys[-1]
        re = _quad(lambda y: (math.cos(u * y) - 1.0) * float(self.density(y)),
                   a, b)
        im = _quad(lambda y: math.sin(u * y) * float(self.density(y)), a, b)
        return complex(re, im) + 1j * u * self.compensator

    def for_events(self, cutoff):
        return self

    def mean_below(self, cutoff):
        raise ConfigError("scheme agreement needs the Gamma driver "
                          "(closed-form small-jump means per cutoff)")


def truncate_gamma(spec: GammaSubordinator, cutoff: float) -> TruncatedMeasure:
    """Gamma measure restricted to (cutoff, inf), with closed-form mass/drift.

    The inverse CDF is tabulated from exact values of the exponential
    integral rather than integrated numerically.
    """
    theta = spec.rate
    mass = spec.tail_mass(cutoff)
    target = mass * _TAIL_FRACTION
    if not (target > 0.0 and mass < math.inf):
        raise ConfigError(f"rate*cutoff = {theta * cutoff} leaves a tail mass "
                          f"E1 = {mass} too small or too large to tabulate")
    # outer node: the first doubling hi = cutoff * 2**j at which E1(theta*hi)
    # is at most the target, by theta*hi >= 746 at the latest.  As
    # exp(-x)/(x+1) < E1(x) < exp(-x)/x (A&S 5.1.19), the bounds settle every
    # doubling but those whose bounds straddle the target, and one _exp1
    # call settles these; the bounds are compared in logs, as exp(-x)
    # underflows before the target does
    n_doublings = math.ceil(math.log2(746.0) - math.log2(theta * cutoff)) + 1
    his = np.ldexp(cutoff, np.arange(n_doublings))
    x = theta * his
    log_target = math.log(target)
    ends = -x - np.log(x) <= log_target
    straddle = np.flatnonzero(~ends & (-x - np.log1p(x) <= log_target))
    ends[straddle] = _exp1(x[straddle]) <= target
    hi = his[np.argmax(ends)]
    ys = np.exp(np.linspace(math.log(cutoff), math.log(hi), _TABLE_NODES))
    cdf = 1.0 - _exp1(theta * ys) / mass
    cdf[0] = 0.0
    cdf = cdf / cdf[-1]
    return TruncatedMeasure(float(cutoff), mass, spec.mean_below(cutoff),
                            spec.levy_density, ys, cdf)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JumpEvents:
    """Above-cutoff jumps on [0, horizon] plus the small-jump mean drift."""

    times: np.ndarray
    sizes: np.ndarray           # (n, dimension)
    compensator: np.ndarray     # (dimension,) drift per unit time


def sample_jump_events(spec, horizon, rng: RngStream) -> JumpEvents:
    """Poisson jump times with iid sizes; Gamma drivers must be truncated first."""
    _real(horizon, "horizon", least=0)
    rate, size_draw, dim, comp = spec.finite_law()
    gen = rng.generator()
    n = int(gen.poisson(rate * horizon))
    times = np.sort(gen.uniform(0.0, horizon, size=n))
    sizes = np.asarray(size_draw(gen, n), dtype=float).reshape(n, dim)
    return JumpEvents(times, sizes, comp)


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


def make_step_sampler(spec, h):
    """The driver's fn(gen, n) -> (n, dimension) of n consecutive exact
    increments over steps of length h, one path's stream at a time."""
    _real(h, "step", above=0)
    return spec.step_sampler(h)


# ---------------------------------------------------------------------------
# distributional oracles
# ---------------------------------------------------------------------------

def characteristic_function(spec, u, t):
    """E[exp(i * u * Z_t)] for scalar or array u, from the driver's `cf`."""
    _real(t, "t", least=0)
    u_arr = np.asarray(u)
    if u_arr.dtype.kind not in "iuf":       # a bool array is not numeric
        raise ConfigError(f"u must be numeric, got {u!r}")
    if spec.dimension != 1:
        raise NotImplementedError("characteristic function only for scalar drivers")
    out = spec.cf(u_arr.astype(float), t)
    return complex(out) if np.isscalar(u) else out


def marginal_samples(spec, t, n, rng: RngStream):
    """n independent samples of Z_t (scalar drivers)."""
    if getattr(spec, "dimension", 1) != 1:
        raise NotImplementedError("marginal sampling only for scalar drivers")
    _real(t, "t", least=0)
    _count(n, "n", most=_MAX_COUNT)
    if t == 0:
        return np.zeros(n)
    # Z_t is one increment over a step of length t
    return make_step_sampler(spec, t)(rng.generator(), n)[:, 0]


def circle_law_distance(spec, t, n_paths, rng: RngStream) -> float:
    """Kolmogorov-Smirnov distance of Z_t mod 2*pi from uniform on [0, 2*pi).

    Monte Carlo with n_paths >= 100 samples; the distance decays to the
    sampling floor as t grows, which is how leafwise equidistribution of the
    driven rotation is checked.  The statistic is the one-sample KS
    statistic max_i max(i/n - F_i, F_i - (i-1)/n) of the sorted wrapped
    samples' uniform CDF values F_i = angle_i / (2*pi).
    """
    _count(n_paths, "n_paths", 100, _MAX_COUNT)
    samples = marginal_samples(spec, t, n_paths, rng)
    cdf = np.sort(np.mod(samples, 2.0 * math.pi)) / (2.0 * math.pi)
    d_plus = (np.arange(1.0, n_paths + 1) / n_paths - cdf).max()
    d_minus = (cdf - np.arange(0.0, n_paths) / n_paths).max()
    return float(max(d_plus, d_minus))

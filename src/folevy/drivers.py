"""The Gamma subordinator, its truncation, and their distributional oracles.

The driver is the Gamma subordinator, pure-jump and of finite variation,
in one of two forms:

* `GammaSubordinator` -- jump measure dens(y) = exp(-rate*y)/y on
  (0, inf), which has exponential moments of every order below the rate.
  Increments over a step of length dt have the exact marginal
  Gamma(shape=dt, rate=rate), which is what exact-mode sampling uses, and
  the characteristic function (1 - i*u/rate)**(-t) in closed form.
* `TruncatedMeasure` -- that measure restricted to (cutoff, inf), as
  `truncate_gamma` builds it.  Sampling draws a Poisson number of jumps
  from the normalized restricted measure; the mean of the discarded small
  jumps is restored as a constant compensator drift
  b = int_0^cutoff y dens(y) dy.

Each form answers for itself through one method set: `step_sampler(h)`,
`finite_law()` (rate, size quantile u -> size and compensator of the event
set, whose length is the driver dimension; the truncation only), `cf(u, t)`
and `mean_below(cutoff)` (closed forms; the untruncated driver only) and
`for_events(cutoff)` (the finite driver a jump-decomposition path samples).

`sample_jump_events` samples a block of paths, one stream each, into one
`JumpEvents` table: every row's jump times and sizes, row after row and
each row in time order, with per-row counts and the compensator.  A row
holds the draws its stream gives alone: a Poisson count, uniform times
and uniform size quantiles, mapped to sizes through the truncation's
inverse-CDF table.  `step_sums` reads the table into per-step increments.

Increment semantics are uncompensated throughout: the simulated process is
the plain sum of its jumps (plus the explicit compensator drift in
truncated mode), so the closed forms use the exponent
int (e^{iuy} - 1) dens(y) dy without a centering term.

The tail mass and the inverse-CDF table use `_exp1`, the exponential
integral E1 from its power series and continued fraction;
`circle_law_distance` computes its Kolmogorov-Smirnov statistic directly.
The module needs only numpy; the test suite checks both against a
reference library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import _MAX_COUNT, ConfigError, _count, _real
from .rng import RngStream

# the least Gamma rate: jump sizes and increments scale as 1/rate <= 1e150,
# so their squares, as in a sample variance, stay finite
_MIN_RATE = 1e-150
_TABLE_NODES = 4097
_TAIL_FRACTION = 1e-14


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


# ---------------------------------------------------------------------------
# the Gamma driver and its truncation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaSubordinator:
    """Standard Gamma subordinator with jump density exp(-rate*y)/y, y > 0,
    for a rate of at least `_MIN_RATE`."""

    rate: float

    def __post_init__(self):
        _real(self.rate, "rate", least=_MIN_RATE)

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
        # where the power overflows on the way (u/rate past the float range,
        # or a huge u/rate to a small whole power), the same value from the
        # modulus log(hypot(rate, u)) - log(rate) and argument -atan2(u, rate)
        with np.errstate(over="ignore", invalid="ignore"):
            base = 1.0 - 1j * u / self.rate
            out = np.power(base, -t)
        lost = ~(np.isfinite(base) & np.isfinite(out))
        if not lost.any():
            return out
        log_mod = np.log(np.hypot(self.rate, u)) - math.log(self.rate)
        return np.where(lost, np.exp(t * (1j * np.arctan2(u, self.rate)
                                          - log_mod)), out)

    def for_events(self, cutoff):
        return truncate_gamma(self, cutoff)


@dataclass(frozen=True)
class TruncatedMeasure:
    """The Gamma jump measure restricted to (cutoff, inf), from `truncate_gamma`.

    It holds the restricted mass, the compensator drift of the discarded
    small jumps, and the inverse-CDF table (`ys`, `cdf`) that size
    sampling interpolates.
    """

    cutoff: float
    restricted_mass: float
    compensator: float
    ys: np.ndarray = field(compare=False, repr=False)
    cdf: np.ndarray = field(compare=False, repr=False)

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

    def quantile(self, u):
        """Jump sizes at the quantiles u of the normalized restricted
        measure, from the inverse-CDF table."""
        return np.interp(u, self.cdf, self.ys)

    def sample_sizes(self, gen, n):
        """n jump sizes from the normalized restricted measure."""
        return self.quantile(gen.uniform(size=n))

    def step_sampler(self, h):
        def draw(gen, n):
            counts = gen.poisson(self.restricted_mass * h, size=n)
            sizes = self.sample_sizes(gen, int(counts.sum()))
            out = np.zeros((n, 1))
            np.add.at(out, np.repeat(np.arange(n), counts), sizes[:, None])
            return out + self.compensator * h
        return draw

    def finite_law(self):
        return self.restricted_mass, self.quantile, np.array([self.compensator])

    def cf(self, u, t):
        raise ConfigError("the characteristic function needs the Gamma "
                          "driver (closed form in u and t)")

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
    return TruncatedMeasure(float(cutoff), mass, spec.mean_below(cutoff), ys,
                            cdf)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JumpEvents:
    """Above-cutoff jumps of a block of rows on [0, horizon], as one table,
    plus the small-jump mean drift.

    `times` (n,) and `sizes` (n, dimension) hold every row's jumps, row
    after row and each row in time order: row i's are the `counts[i]`
    entries after those of the rows before it.
    """

    times: np.ndarray
    sizes: np.ndarray           # (n, dimension)
    counts: np.ndarray          # (rows,) jumps per row
    compensator: np.ndarray     # (dimension,) drift per unit time

    def __post_init__(self):
        times, sizes, counts = (np.asarray(a) for a in
                                (self.times, self.sizes, self.counts))
        n = len(times)
        if not (times.ndim == 1 and counts.ndim == 1
                and counts.dtype.kind in "iu" and np.all(counts >= 0)
                and int(counts.sum()) == n
                and sizes.shape == (n, np.size(self.compensator))):
            raise ConfigError("a jump table needs times (n,), sizes (n, "
                              "dimension) and per-row counts summing to n")
        if not np.all((np.diff(times) >= 0) | (np.diff(self.rows()) > 0)):
            raise ConfigError("a jump table needs each row in time order")

    def rows(self):
        """The row of each jump, shape (n,)."""
        return np.repeat(np.arange(len(self.counts)), self.counts)


def sample_jump_events(spec, horizon, *streams: RngStream) -> JumpEvents:
    """Poisson jump times with iid sizes, one table row per stream; Gamma
    drivers must be truncated first.

    Each row gets the bits its stream gives alone: per stream a generator,
    a Poisson count, that many uniform times and as many uniform size
    quantiles, in that order.  One stable lexsort puts each row's times in
    order, and the sizes stay in draw order, the k-th size going to the
    k-th time.
    """
    _real(horizon, "horizon", least=0)
    if not streams:
        raise ConfigError("sample_jump_events needs at least one stream")
    rate, quantile, comp = spec.finite_law()
    mean = rate * horizon
    times, quantiles = [], []
    for stream in streams:
        gen = stream.generator()
        n = int(gen.poisson(mean))
        times.append(gen.uniform(0.0, horizon, size=n))
        quantiles.append(gen.uniform(size=n))
    counts = np.array([len(t) for t in times], dtype=np.intp)
    times = np.concatenate(times)
    row = np.repeat(np.arange(len(streams)), counts)
    times = times[np.lexsort((times, row))]
    sizes = quantile(np.concatenate(quantiles)).reshape(len(times), len(comp))
    return JumpEvents(times, sizes, counts, comp)


def step_sums(grid, events: JumpEvents):
    """Per-interval sums of each row's jumps, shape (rows, len(grid) - 1,
    dimension); a jump at t counts in the interval [grid[k], grid[k+1])
    holding t, and each sum runs in time order."""
    inc = np.zeros((len(events.counts), len(grid) - 1, events.sizes.shape[1]))
    idx = np.searchsorted(grid, events.times, side="right") - 1
    np.add.at(inc, (events.rows(), np.clip(idx, 0, len(grid) - 2)),
              events.sizes)
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
    out = spec.cf(u_arr.astype(float), t)
    return complex(out) if np.isscalar(u) else out


def marginal_samples(spec, t, n, rng: RngStream):
    """n independent samples of Z_t."""
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

"""Sampling and log-density primitives for the model's distributions.

Covers Beta, Dirichlet, Gamma (shape/rate), truncated Normal, categorical
and Uniform.  All densities are computed in log space; outside-support
evaluations return -inf rather than NaN.  Samplers take an explicit
numpy Generator so each thread of execution can own its stream.

Parameter containers accept scalars or arrays (fields broadcast), which
lets the particle engine evaluate whole particle populations in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, log_ndtr, ndtr, ndtri

# Smallest admissible simplex component; Dirichlet draws are clamped here
# and renormalized so downstream log densities stay finite.
SIMPLEX_FLOOR = 1e-12
# sample_categorical searches draws of at least this many indices in
# sorted-key order.  By timeit on a 2-CPU Intel Xeon host, the sorted
# search first wins at 800-900 keys (CDF of 1-3 times as many entries)
# and takes 0.5-0.75 of the plain search's time from 1,000 keys up.
SORTED_SEARCH_MIN_KEYS = 1024


@dataclass(frozen=True)
class BetaParams:
    """Shape parameters of a Beta distribution; both must be positive."""

    a: float | np.ndarray
    b: float | np.ndarray

    def __post_init__(self):
        if not (np.all(np.asarray(self.a) > 0) and np.all(np.asarray(self.b) > 0)):
            raise ValueError("Beta shape parameters must be strictly positive")


@dataclass(frozen=True)
class DirichletParams:
    """Concentration vector of a Dirichlet distribution.

    The last axis is the simplex dimension (>= 2); leading axes broadcast
    over independent distributions.
    """

    concentration: np.ndarray

    def __post_init__(self):
        conc = np.asarray(self.concentration, dtype=float)
        object.__setattr__(self, "concentration", conc)
        if conc.shape[-1] < 2:
            raise ValueError("Dirichlet dimension must be >= 2")
        if not np.all(conc > 0):
            raise ValueError("Dirichlet concentrations must be strictly positive")


@dataclass(frozen=True)
class TruncNormalParams:
    """Normal(mean, sd^2) truncated to (lower, upper)."""

    mean: float
    sd: float
    lower: float = -math.inf
    upper: float = math.inf

    def __post_init__(self):
        if not self.sd > 0:
            raise ValueError("sd must be strictly positive")
        if not self.lower < self.upper:
            raise ValueError("lower must be strictly less than upper")


@dataclass(frozen=True)
class GammaParams:
    """Gamma distribution in shape/rate form: mean = shape/rate."""

    shape: float
    rate: float

    def __post_init__(self):
        if not (self.shape > 0 and self.rate > 0):
            raise ValueError("Gamma shape and rate must be strictly positive")


def _beta_logs(y) -> tuple[np.ndarray, np.ndarray]:
    """log(y) and log(1 - y) for the Beta density at y; raises ValueError
    unless every y lies strictly inside (0,1)."""
    y = np.asarray(y, dtype=float)
    if not np.all((y > 0) & (y < 1)):
        raise ValueError("Beta density requires y strictly inside (0,1)")
    return np.log(y), np.log1p(-y)


def _beta_log_kernel(log_y, log1m_y, a, b):
    """Beta(a, b) log density from log(y) and log(1 - y), with no domain
    check: the one implementation, called by the particle engine with logs
    it takes once per pass and by the MH observation factor with the logs
    of _beta_logs, taken once per MH stage.  a and b broadcast."""
    return (
        (a - 1) * log_y
        + (b - 1) * log1m_y
        - (gammaln(a) + gammaln(b) - gammaln(a + b))
    )


def require_open_simplex(x: np.ndarray, what: str) -> None:
    """Raise ValueError unless every row of x has entries in (0, 1) and
    sums to one within 1e-9 (the domain of the Dirichlet density)."""
    if not np.all((x > 0) & (x < 1)):
        raise ValueError(f"{what} must have components inside (0,1)")
    if not np.all(np.abs(x.sum(axis=-1) - 1.0) <= 1e-9):
        raise ValueError(f"{what} must sum to 1 within 1e-9")


def _short_sum(x: np.ndarray):
    """x.sum(axis=-1) bit for bit, added column by column: numpy adds fewer
    than 8 terms left to right too, but through a per-row reduce."""
    if not 2 <= x.shape[-1] < 8:
        return x.sum(axis=-1)
    total = x[..., 0] + x[..., 1]
    for j in range(2, x.shape[-1]):
        total += x[..., j]
    return total


def _dirichlet_log_kernel(log_x, conc: np.ndarray):
    """Dirichlet log density from log(x), with no domain check: the one
    implementation, called by dirichlet_logpdf after its check and by the
    particle engine with a log(x) it checked and took once per pass."""
    return (
        gammaln(_short_sum(conc))
        - _short_sum(gammaln(conc))
        + _short_sum((conc - 1) * log_x)
    )


def dirichlet_logpdf(x, params: DirichletParams):
    """Log density of Dirichlet(concentration) at simplex point(s) x.

    x must lie on the open simplex: entries in (0,1), summing to one
    within 1e-9.  Broadcasts over leading axes of x and the concentration.
    """
    x = np.asarray(x, dtype=float)
    require_open_simplex(x, "Dirichlet density argument")
    out = _dirichlet_log_kernel(np.log(x), params.concentration)
    return out if np.ndim(out) else float(out)


def sample_dirichlet(params: DirichletParams, rng: np.random.Generator) -> np.ndarray:
    """Draw from Dirichlet(concentration) via normalized Gamma variates.

    Components are floored at SIMPLEX_FLOOR and renormalized so the draw
    never contains exact zeros (zero components would push log densities
    to -inf downstream).
    """
    x = rng.standard_gamma(params.concentration)
    x /= _short_sum(x)[..., None]
    np.maximum(x, SIMPLEX_FLOOR, out=x)
    x /= _short_sum(x)[..., None]
    return x


def gamma_logpdf(x, params: GammaParams):
    """Log density of Gamma(shape, rate) at x; -inf for x <= 0."""
    x = np.asarray(x, dtype=float)
    a, b = params.shape, params.rate
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(
            x > 0,
            a * math.log(b) - gammaln(a) + (a - 1) * np.log(np.where(x > 0, x, 1.0)) - b * x,
            -np.inf,
        )
    return out if out.ndim else float(out)


def sample_gamma(params: GammaParams, rng: np.random.Generator, size=None):
    """Draw from Gamma(shape, rate)."""
    return rng.standard_gamma(params.shape, size=size) / params.rate


def uniform_logpdf(x, lower: float, upper: float):
    """Log density of Uniform(lower, upper); -inf outside the interval."""
    x = np.asarray(x, dtype=float)
    out = np.where((x > lower) & (x < upper), -math.log(upper - lower), -np.inf)
    return out if out.ndim else float(out)


def sample_uniform(lower: float, upper: float, rng: np.random.Generator, size=None):
    """Draw from Uniform(lower, upper)."""
    return rng.uniform(lower, upper, size=size)


def _standardized_bounds(params: TruncNormalParams) -> tuple[float, float]:
    lo = (params.lower - params.mean) / params.sd
    hi = (params.upper - params.mean) / params.sd
    return lo, hi


def trunc_normal_mass(params: TruncNormalParams) -> float:
    """Probability a Normal(mean, sd^2) draw lands in (lower, upper)."""
    lo, hi = _standardized_bounds(params)
    # Work in the left tail (symmetry) to avoid cancellation of CDFs near 1.
    if lo >= 0:
        lo, hi = -hi, -lo
    return float(ndtr(hi) - ndtr(lo))


def trunc_normal_log_mass(params: TruncNormalParams) -> float:
    """log of the truncation mass, accurate even for far-tail windows."""
    lo, hi = _standardized_bounds(params)
    if lo >= 0:
        lo, hi = -hi, -lo
    a, b = float(log_ndtr(lo)), float(log_ndtr(hi))
    d = a - b  # <= 0
    if d == 0.0:
        return -math.inf
    # log(e^b - e^a) = b + log(1 - e^d)
    if d > -math.log(2):
        return b + math.log(-math.expm1(d))
    return b + math.log1p(-math.exp(d))


def trunc_normal_logpdf(x, params: TruncNormalParams):
    """Log density of the truncated Normal; -inf outside (lower, upper)."""
    x = np.asarray(x, dtype=float)
    z = (x - params.mean) / params.sd
    log_mass = trunc_normal_log_mass(params)
    core = -0.5 * z * z - 0.5 * math.log(2 * math.pi) - math.log(params.sd) - log_mass
    out = np.where((x > params.lower) & (x < params.upper), core, -np.inf)
    return out if out.ndim else float(out)


def sample_trunc_normal(
    params: TruncNormalParams, rng: np.random.Generator, size=None
):
    """Draw from the truncated Normal.

    Uses plain rejection from the untruncated Normal when the acceptance
    mass exceeds 0.1 (cheap, exact), and inverse-CDF sampling otherwise
    (robust for narrow or far-out truncation windows).
    """
    n = 1 if size is None else int(np.prod(size))
    mass = trunc_normal_mass(params)
    if mass > 0.1:
        out = np.empty(n)
        filled = 0
        while filled < n:
            # Expected acceptance ratio is `mass`; over-draw accordingly.
            want = n - filled
            draws = params.mean + params.sd * rng.standard_normal(
                max(16, int(want / mass * 1.2))
            )
            good = draws[(draws > params.lower) & (draws < params.upper)]
            take = min(want, good.size)
            out[filled : filled + take] = good[:take]
            filled += take
    else:
        lo, hi = _standardized_bounds(params)
        flip = lo >= 0
        if flip:
            lo, hi = -hi, -lo
        u = rng.uniform(ndtr(lo), ndtr(hi), size=n)
        z = ndtri(u)
        if flip:
            z = -z
        out = params.mean + params.sd * z
        # Inverse CDF can land exactly on a bound in float arithmetic.
        out = np.clip(out, np.nextafter(params.lower, math.inf),
                      np.nextafter(params.upper, -math.inf))
    if size is None:
        return float(out[0])
    return out.reshape(size)


def sample_categorical(weights, rng: np.random.Generator, size=None):
    """Draw index (or indices) i with probability weights[i] by inverse CDF.

    The weights must be nonnegative and sum to 1; they are not checked
    here, because every caller passes weights it has just normalised (the
    particle engine raises on degenerate weights before drawing).  One
    uniform per draw; indices are 0-based.  size is None (one index, an
    int) or a count (an index array).

    Draws of at least SORTED_SEARCH_MIN_KEYS indices search the CDF for
    their uniforms in ascending order and scatter the results back; fewer
    are searched in draw order.  Both return the same indices: a binary
    search of one key does not depend on the keys searched before it.
    Ascending keys let numpy's search start from the previous key's
    result and walk the CDF in memory order, which pays for the sort only
    once there are many keys.
    """
    cdf = np.cumsum(weights, dtype=float)
    cdf[-1] = 1.0
    u = rng.random(size)
    if size is None or u.size < SORTED_SEARCH_MIN_KEYS:
        idx = np.searchsorted(cdf, u, side="right")
    else:
        order = np.argsort(u)
        idx = np.empty(u.shape, dtype=np.intp)
        idx[order] = np.searchsorted(cdf, u[order], side="right")
    idx = np.minimum(idx, len(cdf) - 1)
    return int(idx) if size is None else idx


def logsumexp(log_values) -> float:
    """Exact-order-invariant log-sum-exp over a 1-D array.

    Uses math.fsum for the mantissa sum, so permuting the inputs cannot
    change the result bit-for-bit (needed for the particle engine's
    label-exchangeability guarantee).
    """
    lv = np.asarray(log_values, dtype=float)
    m = lv.max() if lv.size else -math.inf
    if not np.isfinite(m):
        return -math.inf
    return float(m + math.log(math.fsum(np.exp(lv - m).tolist())))

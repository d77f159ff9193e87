"""Sampling and log-density primitives for the model's distributions.

Covers Beta, Dirichlet, Gamma (shape/rate), truncated Normal, categorical
and Uniform, and systematic resampling.  All densities are computed in
log space; outside-support evaluations return -inf rather than NaN.
Samplers take an explicit numpy Generator so each thread of execution
can own its stream.

Only the Dirichlet and Beta kernels broadcast over arrays, which lets the
particle engine weigh and propagate whole particle populations in one
call.  The truncated Normal, Gamma and Uniform functions, which the
priors and the MH proposals use one value at a time, take and return
floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, log_ndtr, ndtr, ndtri

# Smallest admissible simplex component; Dirichlet draws are clamped here
# and renormalized so downstream log densities stay finite.
SIMPLEX_FLOOR = 1e-12


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
    return _normalize_gamma_draws(rng.standard_gamma(params.concentration))


def _normalize_gamma_draws(x: np.ndarray) -> np.ndarray:
    """Turn Gamma variates x (last axis: the components) into Dirichlet
    draws in place: normalize, floor at SIMPLEX_FLOOR, normalize again.
    The second step of sample_dirichlet, for callers that draw the
    variates of several generators into one array."""
    x /= _short_sum(x)[..., None]
    np.maximum(x, SIMPLEX_FLOOR, out=x)
    x /= _short_sum(x)[..., None]
    return x


def gamma_logpdf(x: float, params: GammaParams) -> float:
    """Log density of Gamma(shape, rate) at x; -inf for x <= 0 and for
    x = +inf."""
    if not 0 < x < math.inf:
        return -math.inf
    a, b = params.shape, params.rate
    # np.log, not math.log: they differ in the last bit on a few inputs.
    return float(a * math.log(b) - gammaln(a) + (a - 1) * np.log(x) - b * x)


def sample_gamma(params: GammaParams, rng: np.random.Generator) -> float:
    """Draw from Gamma(shape, rate)."""
    return rng.standard_gamma(params.shape) / params.rate


def uniform_logpdf(x: float, lower: float, upper: float) -> float:
    """Log density of Uniform(lower, upper); -inf outside the interval."""
    return -math.log(upper - lower) if lower < x < upper else -math.inf


def _standardized_bounds(params: TruncNormalParams) -> tuple[float, float]:
    lo = (params.lower - params.mean) / params.sd
    hi = (params.upper - params.mean) / params.sd
    return lo, hi


def trunc_normal_log_mass(params: TruncNormalParams) -> float:
    """log of the probability that a Normal(mean, sd^2) draw lands in
    (lower, upper), accurate even for far-tail windows."""
    lo, hi = _standardized_bounds(params)
    # Work in the left tail (symmetry) to avoid cancellation of CDFs near 1.
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


def trunc_normal_logpdf(x: float, params: TruncNormalParams) -> float:
    """Log density of the truncated Normal; -inf outside (lower, upper)."""
    if not params.lower < x < params.upper:
        return -math.inf
    z = (x - params.mean) / params.sd
    log_mass = trunc_normal_log_mass(params)
    return -0.5 * z * z - 0.5 * math.log(2 * math.pi) - math.log(params.sd) - log_mass


def sample_trunc_normal(params: TruncNormalParams, rng: np.random.Generator) -> float:
    """Draw from the truncated Normal.

    Uses plain rejection from the untruncated Normal, one draw per try,
    when the acceptance mass exceeds 0.1 (cheap, exact), and inverse-CDF
    sampling otherwise (robust for narrow or far-out truncation windows).
    """
    if trunc_normal_log_mass(params) > math.log(0.1):
        while True:
            draw = params.mean + params.sd * rng.standard_normal()
            if params.lower < draw < params.upper:
                return draw
    lo, hi = _standardized_bounds(params)
    flip = lo >= 0
    if flip:
        lo, hi = -hi, -lo
    z = ndtri(rng.uniform(ndtr(lo), ndtr(hi)))
    if flip:
        z = -z
    # Inverse CDF can land exactly on a bound in float arithmetic.
    return float(np.clip(params.mean + params.sd * z,
                         np.nextafter(params.lower, math.inf),
                         np.nextafter(params.upper, -math.inf)))


def sample_categorical(weights, rng: np.random.Generator) -> int:
    """Draw one index i with probability weights[i] by inverse CDF.

    The weights must be nonnegative and sum to 1; they are not checked
    here, because every caller passes weights it has just normalised.
    One uniform u; the index is the number of CDF entries <= u (0-based),
    with the last CDF entry taken as 1.0.
    """
    cdf = np.add.accumulate(np.asarray(weights, dtype=float))
    cdf[-1] = 1.0
    idx = np.searchsorted(cdf, rng.random(), side="right")
    return min(int(idx), len(cdf) - 1)


def systematic_offspring(weights, rng: np.random.Generator) -> np.ndarray:
    """Offspring counts of a systematic resample of N = len(weights)
    particles (Kitagawa 1996; Carpenter, Clifford & Fearnhead 1999).

    With the cumulative weights c (last entry taken as 1.0) and one
    uniform u, particles 0..i together get floor(N * c[i] + u) offspring,
    clipped to [0, N].  So the counts sum to exactly N, particle i gets
    N * w[i] of them on average, floor(N * w[i]) or ceil(N * w[i]) up to
    the rounding of the cumulative sum, and a zero weight gets none.
    np.repeat(np.arange(N), counts) lists the ancestors in particle order.
    The weights must be nonnegative and sum to 1; they are not checked
    here (see sample_categorical).
    """
    n = len(weights)
    cdf = np.add.accumulate(np.asarray(weights, dtype=float))
    cdf[-1] = 1.0
    edges = np.clip(np.floor(cdf * n + rng.random()), 0, n).astype(np.intp)
    return np.diff(edges, prepend=0)


def logsumexp(log_values) -> float:
    """Log-sum-exp over a 1-D array: logsumexp_rows of a single row (-inf
    when empty)."""
    lv = np.asarray(log_values, dtype=float)
    if not lv.size:
        return -math.inf
    return logsumexp_rows(lv[None])[0]


def logsumexp_rows(log_values: np.ndarray) -> list[float]:
    """Log-sum-exp of each row of a 2-D array: the row maximum plus the
    log of np.add.reduce over the exps shifted by it.

    Each row is reduced on its own, so a row's result equals that row
    reduced alone, whatever the other rows hold; the batched CSMC-AS pass
    relies on this to give each chain the bits of its pass alone.  The
    sum is numpy's pairwise sum, which differs from the exact sum of the
    terms by a few ulps and depends on their order.  A row whose maximum
    is not finite (all -inf, or holding NaN or +inf) gives -inf.
    """
    peak = np.maximum.reduce(log_values, axis=1, keepdims=True)
    finite = np.isfinite(peak[:, 0])
    if not finite.all():
        # Shift those rows by 0, so that their exps raise no warning.
        peak[~finite] = 0.0
    sums = np.add.reduce(np.exp(log_values - peak), axis=1).tolist()
    return [
        p + math.log(total) if ok else -math.inf
        for p, ok, total in zip(peak[:, 0].tolist(), finite.tolist(), sums)
    ]

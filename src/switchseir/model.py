"""The switching Beta-Dirichlet SEIR state-space model.

Latent structure: a K-state first-order Markov regime chain x_t selects a
transmission-rate modifier f_{x_t}; the SEIR proportion vector theta_t
follows a Dirichlet centered on the RK4-propagated previous state with
precision kappa; the observed infectious proportion y_t follows a Beta
centered on p_t * I_t with precision lambda (p_t is a piecewise-constant
identification rate).

This module owns the parameter container, the prior specification, every
conditional log density, the joint log posterior, and forward simulation.
All indices (time, regimes) are 0-based internally; file formats label
them from 1.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import gammaln

from .distributions import (
    BetaParams,
    DirichletParams,
    GammaParams,
    TruncNormalParams,
    beta_logpdf,
    dirichlet_logpdf,
    gamma_logpdf,
    sample_categorical,
    sample_dirichlet,
    sample_gamma,
    sample_trunc_normal,
    sample_uniform,
    trunc_normal_logpdf,
    uniform_logpdf,
)
from .seir import EpidemicRates, rk4_step

# Observed proportions are pulled this far inside (0,1) at ingestion; the
# Beta density is undefined on the boundary.
OBS_EPS = 1e-6
# MH id of a transition-matrix row update (the scalar ids are listed by
# scalar_param_ids).
ROW_ID = "rows"


def modifier_band(k: int, n_regimes: int) -> tuple[float, float]:
    """Support interval of the regime-k transmission modifier (k >= 1).

    Regime 0 is pinned at 1; the remaining regimes partition (0, 1) into
    n_regimes - 1 equal bands ordered from least to most suppressive.
    """
    if not 1 <= k < n_regimes:
        raise ValueError("banded modifiers exist for regimes 1..K-1 only")
    width = 1.0 / (n_regimes - 1)
    upper = 1.0 - (k - 1) * width
    return upper - width, upper


@dataclass(frozen=True)
class ParameterSet:
    """Static parameters psi of the model.

    ident_rates holds (rate, start_index) pairs with strictly increasing
    0-based start indices, the first being 0; the rate in force at time t
    is the last segment whose start index is <= t.  modifiers[0] is
    exactly 1 and modifiers[k] must lie in its band.
    """

    alpha: float
    beta: float
    gamma: float
    lambda_: float
    kappa: float
    ident_rates: tuple[tuple[float, int], ...]
    trans_matrix: np.ndarray
    modifiers: np.ndarray

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "lambda_", "kappa"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")
        rates = tuple((float(p), int(s)) for p, s in self.ident_rates)
        object.__setattr__(self, "ident_rates", rates)
        if not rates or rates[0][1] != 0:
            raise ValueError("first identification-rate segment must start at 0")
        starts = [s for _, s in rates]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("identification-rate start indices must increase")
        if any(not 0 < p < 1 for p, _ in rates):
            raise ValueError("identification rates must lie in (0, 1)")

        pm = np.asarray(self.trans_matrix, dtype=float)
        if pm.ndim != 2 or pm.shape[0] != pm.shape[1]:
            raise ValueError("trans_matrix must be square")
        if np.any(pm < 0) or np.any(pm > 1):
            raise ValueError("transition probabilities must lie in [0, 1]")
        if np.any(np.abs(pm.sum(axis=1) - 1.0) > 1e-9):
            raise ValueError("transition matrix rows must sum to 1")
        pm.setflags(write=False)
        object.__setattr__(self, "trans_matrix", pm)

        mods = np.asarray(self.modifiers, dtype=float)
        if mods.shape != (pm.shape[0],):
            raise ValueError("modifiers length must equal the number of regimes")
        if mods[0] != 1.0:
            raise ValueError("regime-0 modifier must be exactly 1")
        for k in range(1, len(mods)):
            lo, hi = modifier_band(k, len(mods))
            if not lo < mods[k] < hi:
                raise ValueError(
                    f"modifier {k} = {mods[k]} outside its band ({lo}, {hi})"
                )
        mods.setflags(write=False)
        object.__setattr__(self, "modifiers", mods)

    @property
    def n_regimes(self) -> int:
        return self.trans_matrix.shape[0]

    def ident_rate_at(self, t: int) -> float:
        """Identification rate in force at 0-based time t."""
        rate = self.ident_rates[0][0]
        for p, start in self.ident_rates:
            if start <= t:
                rate = p
        return rate

    def ident_series(self, horizon: int) -> np.ndarray:
        """Identification-rate vector over times 0..horizon-1."""
        starts = np.array([s for _, s in self.ident_rates])
        values = np.array([p for p, _ in self.ident_rates])
        seg = np.searchsorted(starts, np.arange(horizon), side="right") - 1
        return values[seg]

    def rates_for(self, regime) -> EpidemicRates:
        """Epidemic rates with the modifier(s) of the given regime(s)."""
        return EpidemicRates(
            self.alpha, self.beta, self.gamma, self.modifiers[np.asarray(regime)]
        )


@dataclass(frozen=True)
class PriorSpec:
    """Hyperparameters of every prior, plus the initial-state priors.

    row_concentrations holds one Dirichlet concentration vector per
    regime (empty for a single-regime model, whose transition matrix is
    the fixed 1x1 identity).  Modifier priors are the uniform bands
    implied by n_regimes.  ident_start_times mirrors
    ParameterSet.ident_rates structure (0-based, first = 0).
    """

    n_regimes: int
    alpha: TruncNormalParams
    beta: TruncNormalParams
    gamma: TruncNormalParams
    lambda_: GammaParams
    kappa: GammaParams
    ident: tuple[TruncNormalParams, ...]
    row_concentrations: tuple[tuple[float, ...], ...]
    ident_start_times: tuple[int, ...] = (0,)
    theta1: DirichletParams = field(
        default_factory=lambda: DirichletParams(np.array([100.0, 1.0, 1.0, 1.0]))
    )

    def __post_init__(self):
        if self.n_regimes < 1:
            raise ValueError("n_regimes must be >= 1")
        if self.n_regimes == 1:
            if self.row_concentrations:
                raise ValueError("single-regime model takes no row priors")
        elif len(self.row_concentrations) != self.n_regimes:
            raise ValueError("need one row concentration vector per regime")
        for row in self.row_concentrations:
            if len(row) != self.n_regimes or any(c <= 0 for c in row):
                raise ValueError("row concentrations must be positive, length K")
        if len(self.ident) != len(self.ident_start_times):
            raise ValueError("one identification-rate prior per segment")
        if not self.ident or self.ident_start_times[0] != 0:
            raise ValueError("first identification-rate segment must start at 0")
        if self.theta1.concentration.shape != (4,):
            raise ValueError("theta1 prior must be 4-dimensional")


@dataclass(frozen=True)
class LatentPath:
    """A latent trajectory: SEIR states (T, 4) and regimes (T,) int."""

    thetas: np.ndarray
    regimes: np.ndarray

    def __post_init__(self):
        th = np.asarray(self.thetas, dtype=float)
        xs = np.asarray(self.regimes, dtype=int)
        if th.ndim != 2 or th.shape[1] != 4 or xs.shape != (th.shape[0],):
            raise ValueError("thetas must be (T, 4) with matching regimes (T,)")
        th.setflags(write=False)
        xs.setflags(write=False)
        object.__setattr__(self, "thetas", th)
        object.__setattr__(self, "regimes", xs)

    def __len__(self) -> int:
        return self.thetas.shape[0]


def obs_logdensity(y: float, theta: np.ndarray, t: int, params: ParameterSet) -> float:
    """Log Beta density of observing proportion y from state theta at time t."""
    if not 0 < y < 1:
        raise ValueError("observed proportion must lie in (0, 1)")
    p = params.ident_rate_at(t)
    mean = p * theta[..., 2]
    a = params.lambda_ * mean
    b = params.lambda_ * (1.0 - mean)
    if np.ndim(a) == 0:
        if a <= 0 or b <= 0:
            return -math.inf
        return beta_logpdf(y, BetaParams(a, b))
    out = np.full(np.shape(a), -np.inf)
    ok = (a > 0) & (b > 0)
    if np.any(ok):
        out[ok] = beta_logpdf(y, BetaParams(a[ok], b[ok]))
    return out


def obs_loglik_series(
    y: np.ndarray, thetas: np.ndarray, params: ParameterSet
) -> float:
    """Sum of observation log densities over a full series."""
    y = np.asarray(y, dtype=float)
    mean = params.ident_series(len(y)) * thetas[:, 2]
    a = params.lambda_ * mean
    b = params.lambda_ * (1.0 - mean)
    if np.any(a <= 0) or np.any(b <= 0):
        return -math.inf
    return float(np.sum(beta_logpdf(y, BetaParams(a, b))))


def transition_mean(theta: np.ndarray, rates: EpidemicRates) -> np.ndarray:
    """Dirichlet mean of the next state: theta propagated one step by RK4.

    rates carries the destination regime's modifier(s), as built by
    ParameterSet.rates_for; a filter that propagates under the same
    regimes at every step builds it once per pass.
    """
    return rk4_step(theta, rates)


def trans_logdensity(
    theta_next: np.ndarray, theta: np.ndarray, x_next, params: ParameterSet
):
    """Log Dirichlet density of theta_next given theta under regime x_next."""
    eta = transition_mean(theta, params.rates_for(x_next))
    try:
        return dirichlet_logpdf(theta_next, DirichletParams(params.kappa * eta))
    except ValueError:
        return -math.inf


def trans_loglik_series(
    thetas: np.ndarray, regimes: np.ndarray, params: ParameterSet
) -> float:
    """Sum of state-transition log densities along a path (t = 1..T-1)."""
    if thetas.shape[0] < 2:
        return 0.0
    eta = transition_mean(thetas[:-1], params.rates_for(regimes[1:]))
    try:
        return float(
            np.sum(dirichlet_logpdf(thetas[1:], DirichletParams(params.kappa * eta)))
        )
    except ValueError:
        return -math.inf


def regime_logprob(x_next: int, x: int, params: ParameterSet) -> float:
    """Log transition probability of the regime chain."""
    k = params.n_regimes
    if not (0 <= x < k and 0 <= x_next < k):
        raise ValueError("regime index out of range")
    p = params.trans_matrix[x, x_next]
    return math.log(p) if p > 0 else -math.inf


def regime_loglik_series(regimes: np.ndarray, params: ParameterSet) -> float:
    """Sum of regime log transition probabilities along a path."""
    if len(regimes) < 2:
        return 0.0
    probs = params.trans_matrix[regimes[:-1], regimes[1:]]
    if np.any(probs <= 0):
        return -math.inf
    return float(np.sum(np.log(probs)))


def initial_logdensity(theta1: np.ndarray, x1: int, priors: PriorSpec) -> float:
    """Log density of the initial state pair under its independent priors."""
    if not 0 <= x1 < priors.n_regimes:
        raise ValueError("initial regime out of range")
    try:
        lp = dirichlet_logpdf(theta1, priors.theta1)
    except ValueError:
        return -math.inf
    return lp - math.log(priors.n_regimes)


def _prior_term(which: str, params: ParameterSet, priors: PriorSpec) -> float:
    """Prior log density of one entry of psi: a scalar id (see
    replace_param) or row<k> for transition-matrix row k (1-based)."""
    if which.startswith("row"):
        k = int(which[3:]) - 1
        c = np.asarray(priors.row_concentrations[k], dtype=float)
        row = params.trans_matrix[k]
        if np.any(row <= 0) or np.any(row >= 1):
            return -math.inf
        return float(
            gammaln(c.sum()) - gammaln(c).sum() + np.sum((c - 1) * np.log(row))
        )
    value = get_param(params, which)
    if which in ("alpha", "beta", "gamma"):
        return trunc_normal_logpdf(value, getattr(priors, which))
    if which == "lambda":
        return gamma_logpdf(value, priors.lambda_)
    if which == "kappa":
        return gamma_logpdf(value, priors.kappa)
    if which.startswith("p"):
        return trunc_normal_logpdf(value, priors.ident[_segment(which)])
    lo, hi = modifier_band(int(which[1:]) - 1, params.n_regimes)
    return uniform_logpdf(value, lo, hi)


def _prior_terms(params: ParameterSet, priors: PriorSpec) -> dict[str, float]:
    """Every prior term of psi by id, in the order param_log_prior adds them."""
    ids = scalar_param_ids(params)
    ids += [f"row{k + 1}" for k in range(len(priors.row_concentrations))]
    return {which: _prior_term(which, params, priors) for which in ids}


def _sum_in_order(values) -> float:
    """Left-to-right float sum: every caller adds the same terms in the
    same order, so cached and full evaluations agree bit for bit."""
    return float(functools.reduce(operator.add, values))


def param_log_prior(params: ParameterSet, priors: PriorSpec) -> float:
    """Sum of prior log densities over every entry of psi."""
    return _sum_in_order(_prior_terms(params, priors).values())


@dataclass(frozen=True)
class PosteriorTerms:
    """joint_log_posterior at (path, params), kept factor by factor.

    The factors are the observation, state-transition and regime
    log-likelihoods, the initial-state prior and one prior term per
    entry of psi.  moved(which, params) recomputes only what entry
    `which` touches and re-adds all terms in the fixed order of
    joint_log_posterior, so an MH target kept this way equals a full
    evaluation bit for bit.
    """

    path: LatentPath
    y: np.ndarray
    priors: PriorSpec
    params: ParameterSet
    obs: float
    trans: float
    regime: float
    initial: float
    prior: dict[str, float]
    total: float = field(init=False)

    def __post_init__(self):
        prior = _sum_in_order(self.prior.values())
        parts = self.obs + self.trans + self.regime + self.initial + prior
        object.__setattr__(self, "total", parts if np.isfinite(parts) else -math.inf)

    @classmethod
    def build(
        cls, path: LatentPath, y: np.ndarray, params: ParameterSet, priors: PriorSpec
    ) -> PosteriorTerms:
        y = np.asarray(y, dtype=float)
        if len(y) != len(path):
            raise ValueError("observation series and path lengths differ")
        return cls(
            path, y, priors, params,
            obs=obs_loglik_series(y, path.thetas, params),
            trans=trans_loglik_series(path.thetas, path.regimes, params),
            regime=regime_loglik_series(path.regimes, params),
            initial=initial_logdensity(path.thetas[0], int(path.regimes[0]), priors),
            prior=_prior_terms(params, priors),
        )

    def moved(self, which: str, params: ParameterSet) -> PosteriorTerms:
        """Terms at params, which differ from self.params in entry `which`
        only (ROW_ID: in transition-matrix rows only)."""
        path, prior = self.path, dict(self.prior)
        if which == ROW_ID:
            for k in range(len(self.priors.row_concentrations)):
                prior[f"row{k + 1}"] = _prior_term(f"row{k + 1}", params, self.priors)
            regime = regime_loglik_series(path.regimes, params)
            return replace(self, params=params, prior=prior, regime=regime)
        prior[which] = _prior_term(which, params, self.priors)
        if which == "lambda" or which.startswith("p"):
            obs = obs_loglik_series(self.y, path.thetas, params)
            return replace(self, params=params, prior=prior, obs=obs)
        trans = trans_loglik_series(path.thetas, path.regimes, params)
        return replace(self, params=params, prior=prior, trans=trans)


def joint_log_posterior(
    path: LatentPath, y: np.ndarray, params: ParameterSet, priors: PriorSpec
) -> float:
    """Log of the joint posterior density of (path, psi) given y.

    Factorizes as observation terms + state transitions + regime
    transitions + initial-state priors + parameter priors; any
    zero-density factor makes the result -inf (never NaN).
    """
    return PosteriorTerms.build(path, y, params, priors).total


def sample_initial(
    priors: PriorSpec, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """Draw (theta_1, x_1) from the independent initial priors."""
    theta1 = sample_dirichlet(priors.theta1, rng)
    x1 = int(rng.integers(priors.n_regimes))
    return theta1, x1


def draw_params(priors: PriorSpec, rng: np.random.Generator) -> ParameterSet:
    """Draw a complete psi from the priors (used to start a chain)."""
    k = priors.n_regimes
    idents = tuple(
        (sample_trunc_normal(prior, rng), start)
        for prior, start in zip(priors.ident, priors.ident_start_times)
    )
    if k == 1:
        pm = np.ones((1, 1))
    else:
        pm = np.stack(
            [
                sample_dirichlet(DirichletParams(np.asarray(c, dtype=float)), rng)
                for c in priors.row_concentrations
            ]
        )
    mods = np.ones(k)
    for j in range(1, k):
        lo, hi = modifier_band(j, k)
        mods[j] = sample_uniform(lo, hi, rng)
    return ParameterSet(
        alpha=sample_trunc_normal(priors.alpha, rng),
        beta=sample_trunc_normal(priors.beta, rng),
        gamma=sample_trunc_normal(priors.gamma, rng),
        lambda_=sample_gamma(priors.lambda_, rng),
        kappa=sample_gamma(priors.kappa, rng),
        ident_rates=idents,
        trans_matrix=pm,
        modifiers=mods,
    )


def simulate_dataset(
    params: ParameterSet,
    priors: PriorSpec,
    horizon: int,
    rng: np.random.Generator,
    initial: tuple[np.ndarray, int] | None = None,
) -> tuple[np.ndarray, LatentPath]:
    """Forward-simulate (y, latent path) of the given length.

    The initial pair is drawn from the priors unless supplied explicitly.
    """
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    thetas = np.empty((horizon, 4))
    regimes = np.empty(horizon, dtype=int)
    if initial is None:
        thetas[0], regimes[0] = sample_initial(priors, rng)
    else:
        thetas[0] = np.asarray(initial[0], dtype=float)
        regimes[0] = int(initial[1])
    for t in range(1, horizon):
        regimes[t] = sample_categorical(params.trans_matrix[regimes[t - 1]], rng)
        eta = transition_mean(thetas[t - 1], params.rates_for(regimes[t]))
        thetas[t] = sample_dirichlet(DirichletParams(params.kappa * eta), rng)
    p_t = params.ident_series(horizon)
    mean = p_t * thetas[:, 2]
    y = rng.beta(params.lambda_ * mean, params.lambda_ * (1.0 - mean))
    # Same interior clamp as data ingestion, so a simulated series passes
    # through the loaders unchanged.
    y = np.clip(y, OBS_EPS, 1.0 - OBS_EPS)
    return y, LatentPath(thetas, regimes)


def _segment(which: str) -> int:
    """0-based identification-rate segment of id p (one segment) or p<j>."""
    return int(which[1:]) - 1 if len(which) > 1 else 0


def replace_param(params: ParameterSet, which: str, value: float) -> ParameterSet:
    """Return params with one scalar entry replaced.

    `which` is one of alpha, beta, gamma, lambda, kappa, p<j> (1-based
    segment) or f<k> (1-based regime, k >= 2).
    """
    if which in ("alpha", "beta", "gamma"):
        return replace(params, **{which: value})
    if which == "lambda":
        return replace(params, lambda_=value)
    if which == "kappa":
        return replace(params, kappa=value)
    if which.startswith("p"):
        j = _segment(which)
        rates = list(params.ident_rates)
        rates[j] = (value, rates[j][1])
        return replace(params, ident_rates=tuple(rates))
    if which.startswith("f"):
        k = int(which[1:]) - 1
        mods = params.modifiers.copy()
        mods[k] = value
        return replace(params, modifiers=mods)
    raise ValueError(f"unknown parameter id: {which}")


def scalar_param_ids(params_or_priors) -> list[str]:
    """MH-updated scalar parameter ids, in sweep order."""
    n_ident = len(
        params_or_priors.ident_rates
        if isinstance(params_or_priors, ParameterSet)
        else params_or_priors.ident
    )
    k = params_or_priors.n_regimes
    ids = ["alpha", "beta", "gamma", "lambda", "kappa"]
    if n_ident == 1:
        ids.append("p")
    else:
        ids.extend(f"p{j + 1}" for j in range(n_ident))
    ids.extend(f"f{j + 1}" for j in range(1, k))
    return ids


def get_param(params: ParameterSet, which: str) -> float:
    """Read one scalar entry of psi by id (see replace_param)."""
    if which in ("alpha", "beta", "gamma"):
        return getattr(params, which)
    if which == "lambda":
        return params.lambda_
    if which == "kappa":
        return params.kappa
    if which.startswith("p"):
        return params.ident_rates[_segment(which)][0]
    if which.startswith("f"):
        return float(params.modifiers[int(which[1:]) - 1])
    raise ValueError(f"unknown parameter id: {which}")


def param_support(which: str, priors: PriorSpec) -> tuple[float, float]:
    """Support interval of one scalar entry of psi (proposal bounds)."""
    if which in ("alpha", "beta", "gamma", "lambda", "kappa"):
        return 0.0, math.inf
    if which.startswith("p"):
        prior = priors.ident[_segment(which)]
        return prior.lower, prior.upper
    if which.startswith("f"):
        return modifier_band(int(which[1:]) - 1, priors.n_regimes)
    raise ValueError(f"unknown parameter id: {which}")

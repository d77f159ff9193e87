"""The switching Beta-Dirichlet SEIR state-space model.

Latent structure: a K-state first-order Markov regime chain x_t selects a
transmission-rate modifier f_{x_t}; the SEIR proportion vector theta_t
follows a Dirichlet centered on the RK4-propagated previous state with
precision kappa; the observed infectious proportion y_t follows a Beta
centered on p_t * I_t with precision lambda (p_t is a piecewise-constant
identification rate).

This module owns the parameter container, the prior specification, the
table of MH-updated parameter entries (param_table), every conditional
log density, the joint log posterior, and forward simulation.
All indices (time, regimes) are 0-based internally; file formats label
them from 1.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Any

import numpy as np

from .distributions import (
    DirichletParams,
    GammaParams,
    TruncNormalParams,
    _beta_log_kernel,
    _beta_logs,
    _dirichlet_log_kernel,
    require_open_simplex,
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
# MH id of a transition-matrix row update (every id is listed by
# param_table).
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
        for entry in _RATE_ENTRIES:
            _check_positive(entry.id, entry.get(self))
        rates = tuple((float(p), int(s)) for p, s in self.ident_rates)
        object.__setattr__(self, "ident_rates", rates)
        if not rates or rates[0][1] != 0:
            raise ValueError("first identification-rate segment must start at 0")
        starts = [s for _, s in rates]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("identification-rate start indices must increase")
        for p, _ in rates:
            _check_ident_rate(p)

        pm = _checked_trans_matrix(self.trans_matrix)
        object.__setattr__(self, "trans_matrix", pm)

        mods = np.asarray(self.modifiers, dtype=float)
        if mods.shape != (pm.shape[0],):
            raise ValueError("modifiers length must equal the number of regimes")
        if mods[0] != 1.0:
            raise ValueError("regime-0 modifier must be exactly 1")
        for k in range(1, len(mods)):
            _check_modifier(mods, k)
        mods.setflags(write=False)
        object.__setattr__(self, "modifiers", mods)

    @property
    def n_regimes(self) -> int:
        return self.trans_matrix.shape[0]

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


# Field rules shared by ParameterSet and the param_table setters.
def _check_positive(pid: str, value: float) -> None:
    if not value > 0:
        raise ValueError(f"{pid} must be strictly positive")


def _check_ident_rate(p: float) -> None:
    if not 0 < p < 1:
        raise ValueError("identification rates must lie in (0, 1)")


def _checked_trans_matrix(matrix) -> np.ndarray:
    """matrix as a read-only float array, checked to be row-stochastic."""
    pm = np.asarray(matrix, dtype=float)
    if pm.ndim != 2 or pm.shape[0] != pm.shape[1]:
        raise ValueError("trans_matrix must be square")
    if np.any(pm < 0) or np.any(pm > 1):
        raise ValueError("transition probabilities must lie in [0, 1]")
    if np.any(np.abs(pm.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("transition matrix rows must sum to 1")
    pm.setflags(write=False)
    return pm


def _check_modifier(mods: np.ndarray, k: int) -> None:
    lo, hi = modifier_band(k, len(mods))
    if not lo < mods[k] < hi:
        raise ValueError(f"modifier {k} = {mods[k]} outside its band ({lo}, {hi})")


def _with_fields(params: ParameterSet, **fields) -> ParameterSet:
    """params with fields replaced, without re-running __post_init__: the
    caller has checked each field it sets with that field's rule."""
    out = object.__new__(ParameterSet)
    out.__dict__.update(params.__dict__, **fields)
    return out


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


def _obs_loglik(
    log_y: np.ndarray, log1m_y: np.ndarray, thetas: np.ndarray, params: ParameterSet
) -> float:
    """Sum of observation log densities over a full series, from log y
    and log(1 - y) (taken once by PosteriorTerms.build after its (0, 1)
    check); -inf where a Beta shape is not positive."""
    mean = params.ident_series(len(log_y)) * thetas[:, 2]
    a = params.lambda_ * mean
    b = params.lambda_ * (1.0 - mean)
    if np.any(a <= 0) or np.any(b <= 0):
        return -math.inf
    return float(np.sum(_beta_log_kernel(log_y, log1m_y, a, b)))


def transition_mean(theta: np.ndarray, rates: EpidemicRates) -> np.ndarray:
    """Dirichlet mean of the next state: theta propagated one step by RK4.

    rates carries the destination regime's modifier(s), as built by
    ParameterSet.rates_for; a filter that propagates under the same
    regimes at every step builds it once per pass.
    """
    return rk4_step(theta, rates)


def _path_means(path: LatentPath, params: ParameterSet) -> np.ndarray:
    """Transition means of steps t = 1..T-1 along a path."""
    return transition_mean(path.thetas[:-1], params.rates_for(path.regimes[1:]))


def _trans_loglik(log_next: np.ndarray | None, eta: np.ndarray, kappa: float) -> float:
    """Sum of state-transition log densities along a path: the
    Dirichlet(kappa * eta_t) log density of theta_{t+1} over t, from
    log theta_{2:T} (None when the path leaves the open simplex: -inf)."""
    conc = kappa * eta
    if log_next is None or not np.all(conc > 0):
        return -math.inf
    return float(np.sum(_dirichlet_log_kernel(log_next, conc)))


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


@dataclass(frozen=True)
class ParamEntry:
    """One MH-updated entry of psi, as listed by param_table.

    id is the MH id, the step-size key and the report label.  get and set
    read and replace the entry (for ROW_ID, the whole transition matrix);
    support(priors) bounds its proposals (for ROW_ID, each row entry);
    log_prior(params, priors) gives its prior terms (one per row for
    ROW_ID); default_step(priors) is its initial proposal SD; factor
    names the likelihood factor of PosteriorTerms that a move changes.
    """

    id: str
    get: Callable[[ParameterSet], Any]
    set: Callable[[ParameterSet, Any], ParameterSet]
    support: Callable[[PriorSpec], tuple[float, float]]
    log_prior: Callable[[ParameterSet, PriorSpec], tuple[float, ...]]
    default_step: Callable[[PriorSpec], float]
    factor: str


def _trunc_normal_step(prior: TruncNormalParams) -> float:
    return 0.5 * prior.sd


def _gamma_step(prior: GammaParams) -> float:
    return 0.5 * math.sqrt(prior.shape) / prior.rate


def _rate_entry(pid: str, name: str, logpdf, step, factor: str) -> ParamEntry:
    """A positive rate: ParameterSet field `name` with prior PriorSpec.`name`."""

    def set_(params: ParameterSet, value: float) -> ParameterSet:
        _check_positive(pid, value)
        return _with_fields(params, **{name: value})

    return ParamEntry(
        pid,
        get=operator.attrgetter(name),
        set=set_,
        support=lambda priors: (0.0, math.inf),
        log_prior=lambda params, priors: (
            logpdf(getattr(params, name), getattr(priors, name)),
        ),
        default_step=lambda priors: step(getattr(priors, name)),
        factor=factor,
    )


def _ident_entry(j: int, pid: str) -> ParamEntry:
    """Identification rate of segment j (0-based) with prior PriorSpec.ident[j]."""

    def get(params: ParameterSet) -> float:
        return params.ident_rates[j][0]

    def set_(params: ParameterSet, value: float) -> ParameterSet:
        _check_ident_rate(value)
        rates = list(params.ident_rates)
        rates[j] = (float(value), rates[j][1])
        return _with_fields(params, ident_rates=tuple(rates))

    return ParamEntry(
        pid,
        get,
        set_,
        support=lambda priors: (priors.ident[j].lower, priors.ident[j].upper),
        log_prior=lambda params, priors: (
            trunc_normal_logpdf(get(params), priors.ident[j]),
        ),
        default_step=lambda priors: _trunc_normal_step(priors.ident[j]),
        factor="obs",
    )


def _modifier_entry(k: int, n_regimes: int) -> ParamEntry:
    """Modifier of regime k >= 1 (0-based), uniform on its band."""
    lo, hi = modifier_band(k, n_regimes)

    def get(params: ParameterSet) -> float:
        return float(params.modifiers[k])

    def set_(params: ParameterSet, value: float) -> ParameterSet:
        mods = params.modifiers.copy()
        mods[k] = value
        _check_modifier(mods, k)
        mods.setflags(write=False)
        return _with_fields(params, modifiers=mods)

    return ParamEntry(
        f"f{k + 1}",
        get,
        set_,
        support=lambda priors: (lo, hi),
        log_prior=lambda params, priors: (uniform_logpdf(get(params), lo, hi),),
        default_step=lambda priors: 0.1 * (hi - lo),
        factor="trans",
    )


def _row_log_priors(params: ParameterSet, priors: PriorSpec) -> tuple[float, ...]:
    """Dirichlet prior term of every transition-matrix row; -inf for a row
    with an entry outside (0, 1)."""
    terms = []
    for k, conc in enumerate(priors.row_concentrations):
        row = params.trans_matrix[k]
        if np.any(row <= 0) or np.any(row >= 1):
            terms.append(-math.inf)
        else:
            c = np.asarray(conc, dtype=float)
            terms.append(float(_dirichlet_log_kernel(np.log(row), c)))
    return tuple(terms)


# Entries that exist for every (K, number of p segments), in sweep order.
_RATE_ENTRIES = (
    _rate_entry("alpha", "alpha", trunc_normal_logpdf, _trunc_normal_step, "trans"),
    _rate_entry("beta", "beta", trunc_normal_logpdf, _trunc_normal_step, "trans"),
    _rate_entry("gamma", "gamma", trunc_normal_logpdf, _trunc_normal_step, "trans"),
    _rate_entry("lambda", "lambda_", gamma_logpdf, _gamma_step, "obs"),
    _rate_entry("kappa", "kappa", gamma_logpdf, _gamma_step, "trans"),
)
_ROWS_ENTRY = ParamEntry(
    ROW_ID,
    get=operator.attrgetter("trans_matrix"),
    set=lambda params, m: _with_fields(params, trans_matrix=_checked_trans_matrix(m)),
    support=lambda priors: (0.0, 1.0),
    log_prior=_row_log_priors,
    default_step=lambda priors: 0.05,
    factor="regime",
)


@functools.cache
def param_table(n_regimes: int, n_segments: int) -> Mapping[str, ParamEntry]:
    """Every MH-updated entry of psi by id, in sweep order.

    The ids are alpha, beta, gamma, lambda, kappa, the identification
    rates (p for a single segment, else p1..pJ), the modifiers f2..fK
    and, for K >= 2, ROW_ID.  Built once per (K, segment count).
    """
    entries = list(_RATE_ENTRIES)
    if n_segments == 1:
        entries.append(_ident_entry(0, "p"))
    else:
        entries += [_ident_entry(j, f"p{j + 1}") for j in range(n_segments)]
    entries += [_modifier_entry(k, n_regimes) for k in range(1, n_regimes)]
    if n_regimes >= 2:
        entries.append(_ROWS_ENTRY)
    return MappingProxyType({entry.id: entry for entry in entries})


def _sum_in_order(values) -> float:
    """Left-to-right float sum: every caller adds the same terms in the
    same order, so cached and full evaluations agree bit for bit."""
    return float(functools.reduce(operator.add, values))


@dataclass(frozen=True)
class PosteriorTerms:
    """joint_log_posterior at (path, params), kept factor by factor.

    The factors are the observation, state-transition and regime
    log-likelihoods, the initial-state prior and the prior terms of each
    param_table entry.  moved(which, params) recomputes only the prior
    terms of entry `which` and the likelihood factor it moves, then
    re-adds all terms in the fixed order of joint_log_posterior, so an MH
    target kept this way equals a full evaluation bit for bit.  Each
    likelihood factor keeps its fixed inputs: log_y and log1m_y, log y
    and log(1 - y) taken once by build after checking y inside (0, 1);
    log_next, log theta_{2:T} taken once by build (None off the open
    simplex); and eta, the transition means at params, which a kappa
    move reuses.
    """

    path: LatentPath
    priors: PriorSpec
    params: ParameterSet
    obs: float
    trans: float
    regime: float
    initial: float
    prior: dict[str, tuple[float, ...]]
    log_y: np.ndarray = field(repr=False)
    log1m_y: np.ndarray = field(repr=False)
    log_next: np.ndarray | None = field(repr=False)
    eta: np.ndarray = field(repr=False)
    total: float = field(init=False)

    def __post_init__(self):
        prior = _sum_in_order(t for terms in self.prior.values() for t in terms)
        parts = self.obs + self.trans + self.regime + self.initial + prior
        object.__setattr__(self, "total", parts if np.isfinite(parts) else -math.inf)

    @classmethod
    def build(
        cls, path: LatentPath, y: np.ndarray, params: ParameterSet, priors: PriorSpec
    ) -> PosteriorTerms:
        y = np.asarray(y, dtype=float)
        if len(y) != len(path):
            raise ValueError("observation series and path lengths differ")
        log_y, log1m_y = _beta_logs(y)
        table = param_table(params.n_regimes, len(params.ident_rates))
        try:
            require_open_simplex(path.thetas[1:], "path states")
            log_next = np.log(path.thetas[1:])
        except ValueError:
            log_next = None
        eta = _path_means(path, params)
        return cls(
            path, priors, params,
            obs=_obs_loglik(log_y, log1m_y, path.thetas, params),
            trans=_trans_loglik(log_next, eta, params.kappa),
            regime=regime_loglik_series(path.regimes, params),
            initial=initial_logdensity(path.thetas[0], int(path.regimes[0]), priors),
            prior={pid: e.log_prior(params, priors) for pid, e in table.items()},
            log_y=log_y,
            log1m_y=log1m_y,
            log_next=log_next,
            eta=eta,
        )

    def moved(self, which: str, params: ParameterSet) -> PosteriorTerms:
        """Terms at params, which differ from self.params in entry `which`
        of param_table only."""
        entry = param_table(params.n_regimes, len(params.ident_rates))[which]
        prior = {**self.prior, which: entry.log_prior(params, self.priors)}
        if entry.factor == "obs":
            obs = _obs_loglik(self.log_y, self.log1m_y, self.path.thetas, params)
            changed = {"obs": obs}
        elif entry.factor == "regime":
            changed = {"regime": regime_loglik_series(self.path.regimes, params)}
        else:  # kappa scales the Dirichlet concentrations, not the means.
            eta = self.eta if which == "kappa" else _path_means(self.path, params)
            trans = _trans_loglik(self.log_next, eta, params.kappa)
            changed = {"trans": trans, "eta": eta}
        return replace(self, params=params, prior=prior, **changed)


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

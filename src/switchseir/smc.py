"""Particle machinery: bootstrap SMC, block-conditional SMC with ancestor
sampling and reference-trajectory extraction.  Each pass also returns its
marginal-likelihood estimate.

Both filters use the transition densities as proposals, so the
unnormalized importance weight at every step reduces to the observation
density.  Resampling is multinomial at every step.  Within a step all
particle work is vectorized; weight normalization uses an
order-invariant log-sum-exp, so particle labels are exchangeable
bit-for-bit.

The conditional filter keeps a per-step transition cache (the previous
particles propagated under every regime) that block propagation and
ancestor sampling both read; what is constant over a pass is computed
once per pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    DirichletParams,
    _beta_log_kernel,
    _dirichlet_log_kernel,
    logsumexp,
    require_open_simplex,
    sample_categorical,
    sample_dirichlet,
)
from .model import LatentPath, ParameterSet, PriorSpec, transition_mean


class DegenerateWeightsError(RuntimeError):
    """All particle weights underflowed at one time step.

    The engine aborts rather than injecting uniform weights: silent
    recovery would corrupt the invariant distribution of the particle
    Gibbs kernel built on top of it.
    """

    def __init__(self, step: int, detail: str = ""):
        self.step = step
        msg = f"all particle weights degenerate at time step {step}"
        super().__init__(msg + (f" ({detail})" if detail else ""))


@dataclass(frozen=True)
class ParticleSystem:
    """Complete output of one SMC/CSMC pass.

    thetas: (T, N, 4); regimes: (T, N); log_weights and norm_weights:
    (T, N); ancestors: (T-1, N) with ancestors[t] indexing the time-t
    parents of the time-t+1 particles; log_marginal: sum over t of
    log mean unnormalized weight.
    """

    thetas: np.ndarray
    regimes: np.ndarray
    log_weights: np.ndarray
    norm_weights: np.ndarray
    ancestors: np.ndarray
    log_marginal: float

    @property
    def n_steps(self) -> int:
        return self.thetas.shape[0]

    @property
    def n_particles(self) -> int:
        return self.thetas.shape[1]


@dataclass(frozen=True)
class ReferenceTrajectory:
    """A retained latent path plus the particle lineage it was read from."""

    path: LatentPath
    lineage: np.ndarray

    def __post_init__(self):
        lin = np.asarray(self.lineage, dtype=int)
        if lin.shape != (len(self.path),):
            raise ValueError("lineage length must match the path")
        lin.setflags(write=False)
        object.__setattr__(self, "lineage", lin)


def _obs_log_weights_for(y: np.ndarray, params: ParameterSet):
    """Return log_weights(thetas, t): the observation log density of every
    particle at step t.  The identification rate p_t, log y_t and
    log(1 - y_t) are computed here, once per pass."""
    p = params.ident_series(len(y))
    log_y = [math.log(v) for v in y]
    log1m_y = [math.log1p(-v) for v in y]
    lam = params.lambda_

    def log_weights(thetas: np.ndarray, t: int) -> np.ndarray:
        mean = p[t] * thetas[:, 2]
        a = lam * mean
        b = lam * (1.0 - mean)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_beta = _beta_log_kernel(log_y[t], log1m_y[t], a, b)
        return np.where((a > 0) & (b > 0), log_beta, -np.inf)

    return log_weights


def _normalize_step(log_w: np.ndarray, t: int) -> tuple[np.ndarray, float]:
    total = logsumexp(log_w)
    if not np.isfinite(total):
        raise DegenerateWeightsError(t)
    w = np.exp(log_w - total)
    return w / w.sum(), total - math.log(len(log_w))


def _draw_initial_thetas(
    priors: PriorSpec, n: int, rng: np.random.Generator, deterministic: bool
) -> np.ndarray:
    conc = priors.theta1.concentration
    if deterministic:
        return np.broadcast_to(conc / conc.sum(), (n, 4)).copy()
    return sample_dirichlet(
        DirichletParams(np.broadcast_to(conc, (n, 4))), rng
    )


def run_smc(
    y: np.ndarray,
    params: ParameterSet,
    priors: PriorSpec,
    n_particles: int,
    rng: np.random.Generator,
    deterministic_transitions: bool = False,
) -> ParticleSystem:
    """Bootstrap particle filter over the observation series.

    deterministic_transitions collapses the Dirichlet state transition to
    a point mass at its mean and pins theta_1 at its prior mean; it
    exists only so tests can compare against exact path enumeration.
    """
    y = np.asarray(y, dtype=float)
    horizon, n = len(y), n_particles
    if horizon < 1:
        raise ValueError("need at least one observation")
    if n < 2:
        raise ValueError("need at least two particles")
    k = params.n_regimes

    thetas = np.empty((horizon, n, 4))
    regimes = np.empty((horizon, n), dtype=int)
    log_w = np.empty((horizon, n))
    norm_w = np.empty((horizon, n))
    ancestors = np.empty((max(horizon - 1, 0), n), dtype=int)

    obs_log_weights = _obs_log_weights_for(y, params)
    thetas[0] = _draw_initial_thetas(priors, n, rng, deterministic_transitions)
    regimes[0] = rng.integers(k, size=n)
    log_w[0] = obs_log_weights(thetas[0], 0)
    norm_w[0], log_marginal = _normalize_step(log_w[0], 0)

    row_cdf = np.cumsum(params.trans_matrix, axis=1)
    row_cdf[:, -1] = 1.0

    for t in range(1, horizon):
        anc = sample_categorical(norm_w[t - 1], rng, size=n)
        ancestors[t - 1] = anc
        # Regime proposal: one uniform per particle through the ancestor's row CDF.
        u = rng.random(n)
        regimes[t] = np.argmax(u[:, None] < row_cdf[regimes[t - 1][anc]], axis=1)
        eta = transition_mean(thetas[t - 1][anc], params.rates_for(regimes[t]))
        if deterministic_transitions:
            thetas[t] = eta
        else:
            thetas[t] = sample_dirichlet(DirichletParams(params.kappa * eta), rng)
        log_w[t] = obs_log_weights(thetas[t], t)
        norm_w[t], inc = _normalize_step(log_w[t], t)
        log_marginal += inc

    return ParticleSystem(thetas, regimes, log_w, norm_w, ancestors, log_marginal)


def run_csmc_as(
    y: np.ndarray,
    params: ParameterSet,
    priors: PriorSpec,
    reference: ReferenceTrajectory,
    m_per_regime: int,
    rng: np.random.Generator,
) -> ParticleSystem:
    """Conditional SMC with block-deterministic regimes and ancestor sampling.

    Regimes are assigned deterministically in K blocks of M particles;
    the reference pair overwrites the last slot of its regime's block at
    every step, and its ancestor is redrawn with ancestor-sampling
    weights.  Non-reference ancestors are M multinomial draws from the
    previous weights, replicated across the K blocks.

    At each step one transition_mean call propagates the N previous
    particles under all K regimes into a (K, N, 4) cache: block
    propagation gathers row [regime of the block, ancestor] from it, and
    ancestor sampling reads row [reference regime].  The reference states
    must lie on the open simplex (rows summing to 1 within 1e-9); they
    are checked once, before any particle work.
    """
    y = np.asarray(y, dtype=float)
    horizon, m, k = len(y), m_per_regime, params.n_regimes
    if m < 2:
        raise ValueError("need at least two particles per regime")
    ref = reference.path
    if len(ref) != horizon:
        raise ValueError("reference length must match the observation series")
    if np.any(ref.regimes < 0) or np.any(ref.regimes >= k):
        raise ValueError("reference regimes out of range")
    require_open_simplex(ref.thetas, "reference states")

    n = k * m
    block_regimes = np.repeat(np.arange(k), m)
    # Particle j descends from the (j mod M)-th of the M resampled ancestors.
    block_slots = np.tile(np.arange(m), k)
    rates = params.rates_for(np.arange(k)[:, None])
    # log_p_into[x, j]: log probability of moving from particle j's regime to x.
    with np.errstate(divide="ignore"):
        log_p_into = np.log(params.trans_matrix.T[:, block_regimes])
    log_ref = np.log(ref.thetas)
    obs_log_weights = _obs_log_weights_for(y, params)

    thetas = np.empty((horizon, n, 4))
    # The reference slot lies in its own regime's block, so every particle
    # carries its block's regime at every step.
    regimes = np.tile(block_regimes, (horizon, 1))
    log_w = np.empty((horizon, n))
    norm_w = np.empty((horizon, n))
    ancestors = np.empty((max(horizon - 1, 0), n), dtype=int)

    def ref_slot(t: int) -> int:
        return (int(ref.regimes[t]) + 1) * m - 1

    thetas[0] = _draw_initial_thetas(priors, n, rng, False)
    thetas[0, ref_slot(0)] = ref.thetas[0]
    log_w[0] = obs_log_weights(thetas[0], 0)
    norm_w[0], log_marginal = _normalize_step(log_w[0], 0)

    for t in range(1, horizon):
        eta = transition_mean(np.broadcast_to(thetas[t - 1], (k, n, 4)), rates)
        anc = sample_categorical(norm_w[t - 1], rng, size=m)[block_slots]
        conc = params.kappa * eta[block_regimes, anc]
        thetas[t] = sample_dirichlet(DirichletParams(conc), rng)

        x_ref = int(ref.regimes[t])
        slot = ref_slot(t)
        thetas[t, slot] = ref.thetas[t]
        conc_ref = params.kappa * eta[x_ref]
        anc[slot] = _ancestor_sampling_draw(
            log_ref[t], conc_ref, log_p_into[x_ref], norm_w[t - 1], rng, t
        )
        ancestors[t - 1] = anc

        log_w[t] = obs_log_weights(thetas[t], t)
        norm_w[t], inc = _normalize_step(log_w[t], t)
        log_marginal += inc

    return ParticleSystem(thetas, regimes, log_w, norm_w, ancestors, log_marginal)


def _ancestor_sampling_draw(
    log_theta_ref: np.ndarray,
    conc_ref: np.ndarray,
    log_p_ref: np.ndarray,
    norm_w_prev: np.ndarray,
    rng: np.random.Generator,
    t: int,
) -> int:
    """Draw the reference particle's ancestor index.

    Weights are proportional to transition density to the reference state
    times regime transition probability times the previous normalized
    weight (the observation factor is constant across candidates and
    drops out of the normalization).  conc_ref is kappa times the cached
    transition means under the reference regime; log_p_ref holds each
    candidate's log probability of moving into that regime.
    """
    log_g = _dirichlet_log_kernel(log_theta_ref, conc_ref)
    with np.errstate(divide="ignore"):
        log_as = log_g + log_p_ref + np.log(norm_w_prev)
    total = logsumexp(log_as)
    if not np.isfinite(total):
        raise DegenerateWeightsError(t, "ancestor-sampling weights all zero")
    w = np.exp(log_as - total)
    return sample_categorical(w / w.sum(), rng)


def sample_reference(
    system: ParticleSystem, rng: np.random.Generator
) -> ReferenceTrajectory:
    """Draw a trajectory from the particle system by backward lineage trace."""
    horizon = system.n_steps
    lineage = np.empty(horizon, dtype=int)
    lineage[-1] = sample_categorical(system.norm_weights[-1], rng)
    for t in range(horizon - 2, -1, -1):
        lineage[t] = system.ancestors[t][lineage[t + 1]]
    idx = np.arange(horizon)
    path = LatentPath(system.thetas[idx, lineage], system.regimes[idx, lineage])
    return ReferenceTrajectory(path, lineage)

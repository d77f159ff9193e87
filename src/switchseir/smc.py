"""Particle machinery: bootstrap SMC, block-conditional SMC with ancestor
sampling and reference-trajectory extraction.  Each pass also returns its
marginal-likelihood estimate.

The bootstrap filter draws states and regimes from their transition
densities, so its unnormalized importance weight at every step reduces
to the observation density.  The conditional filter draws states from
the state transition density, but assigns regimes by block, M particles
per regime, and its step weights also carry only the observation
density: the regime transition probabilities enter that filter only
through ancestor sampling.  Both filters weigh particles with
model._obs_log_density, whose sum over a path is the observation factor
of the MH target (model.PosteriorTerms).

The bootstrap filter resamples systematically at every step
(distributions.systematic_offspring): one uniform per step gives each
particle N times its weight as offspring on average, so the likelihood
estimate stays unbiased.  The scheme is not guaranteed to beat
multinomial draws (Douc, Cappe & Moulines 2005), but on the stored
three-regime series at N = 10^4 it cuts the variance of log Z about
threefold.  Its draws depend on particle order.  The conditional filter
resamples multinomially, one uniform and one binary search per index.
Within a step all particle work is vectorized; weight normalization uses
a max-shifted log-sum-exp (distributions.logsumexp_rows), which reduces
each chain's row on its own.

The bootstrap filter holds a step's particles component-first, as one
contiguous (4, N) array, and gathers, propagates and weighs them in that
layout; each step's Dirichlet draws are stored in the (T, N, 4) output.
Its infection rates per regime are taken once per pass from the
ParameterSet, whose modifiers are already checked.

The conditional filter runs C chains in one pass (run_csmc_as_batch),
each with its own parameters, reference and generator, and one chain is
the case C = 1.  The particles of all chains sit on one chain axis:
propagation (a per-step transition cache of the previous particles under
every regime), the gathers, the observation and ancestor-sampling
weights, their exps and row sums run once per step over all chains.
What makes a chain's result its own stays per chain, in the order a
chain alone would take it: every draw from its generator (resampling
uniforms, Gamma variates, the ancestor-sampling uniform), each CDF
search, and the degeneracy check.  Each row sum, the log-sum-exps'
included, has the bits of that row reduced alone.  A chain whose weights
degenerate leaves the pass at that step with its DegenerateWeightsError;
the others go on.  So each chain's result equals its pass alone bit for
bit, whatever the other chains hold.  What is constant over a pass is
computed once per pass.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .distributions import (
    DirichletParams,
    _dirichlet_log_kernel,
    _normalize_gamma_draws,
    logsumexp,
    logsumexp_rows,
    require_open_simplex,
    sample_categorical,
    sample_dirichlet,
    systematic_offspring,
)
from .model import LatentPath, ParameterSet, PriorSpec, _obs_log_density, transition_mean
from .seir import EpidemicRates, rk4_components


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

    thetas: (T, N, 4) float64; regimes: (T, N) of the smallest signed
    integer type that holds K (int8 for every K <= 128); log_weights and
    norm_weights: (T, N) float64; ancestors: (T-1, N) int32, with
    ancestors[t] indexing the time-t parents of the time-t+1 particles;
    log_marginal: sum over t of log mean unnormalized weight.  The
    conditional filter's regimes are one read-only row broadcast over the
    steps, since its blocks fix every particle's regime.
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


def _check_particle_count(n: int) -> None:
    if n < 2:
        raise ValueError("need at least two particles")
    if n > np.iinfo(np.int32).max:
        raise ValueError("at most 2**31 - 1 particles: ancestors are stored as int32")


def _regime_dtype(k: int) -> np.dtype:
    """The smallest signed integer type that holds regimes 0..K-1."""
    return np.min_scalar_type(-k)


def _normalize_step(log_w: np.ndarray, t: int) -> tuple[np.ndarray, float]:
    """The bootstrap filter's step-t weights normalized, and the step's log
    mean weight; raises DegenerateWeightsError when every weight vanishes."""
    total = logsumexp(log_w)
    if not np.isfinite(total):
        raise DegenerateWeightsError(t)
    return _normalize_rows(log_w[None], [total])[0], total - math.log(len(log_w))


def _draw_initial_thetas(
    priors: PriorSpec, n: int, rng: np.random.Generator
) -> np.ndarray:
    conc = np.broadcast_to(priors.theta1.concentration, (n, 4))
    return sample_dirichlet(DirichletParams(conc), rng)


def run_smc(
    y: np.ndarray,
    params: ParameterSet,
    priors: PriorSpec,
    n_particles: int,
    rng: np.random.Generator,
) -> ParticleSystem:
    """Bootstrap particle filter over the observation series.

    Draws theta_1 from priors.theta1 and the first regime uniformly; at
    each later step, a particle's regime from its ancestor's row of the
    transition matrix and its state from the Dirichlet transition
    (concentration kappa times the RK4 mean).  Its weight is the
    observation density alone.  Resamples systematically at every step
    (systematic_offspring): each particle's expected offspring count is N
    times its weight, so exp(log_marginal) is unbiased for the
    likelihood, and the draws depend on particle order.
    """
    y = np.asarray(y, dtype=float)
    horizon, n = len(y), n_particles
    if horizon < 1:
        raise ValueError("need at least one observation")
    _check_particle_count(n)
    k = params.n_regimes

    thetas = np.empty((horizon, n, 4))
    regimes = np.empty((horizon, n), dtype=_regime_dtype(k))
    log_w = np.empty((horizon, n))
    norm_w = np.empty((horizon, n))
    ancestors = np.empty((max(horizon - 1, 0), n), dtype=np.int32)

    p, lam = params.ident_series(horizon), params.lambda_
    alpha, gamma, kappa = params.alpha, params.gamma, params.kappa
    infect_rates = params.modifiers * params.beta
    log_y = [math.log(v) for v in y]
    log1m_y = [math.log1p(-v) for v in y]
    thetas[0] = _draw_initial_thetas(priors, n, rng)
    regimes[0] = rng.integers(k, size=n)
    x = np.ascontiguousarray(thetas[0].T)
    log_w[0] = _obs_log_density(x[2], p[0], lam, log_y[0], log1m_y[0])
    norm_w[0], log_marginal = _normalize_step(log_w[0], 0)

    # Columns 0..K-2 of the row CDFs, one contiguous row each; the regime
    # proposal takes the last column as 1.0.
    cdf_cols = np.cumsum(params.trans_matrix, axis=1).T[:-1].copy()

    labels = np.arange(n, dtype=np.int32)
    for t in range(1, horizon):
        anc = np.repeat(labels, systematic_offspring(norm_w[t - 1], rng))
        ancestors[t - 1] = anc
        # Regime proposal: one uniform u per particle through the ancestor's
        # row CDF, last entry 1.0.  The first j with u < cdf[j] is the number
        # of columns j < K-1 with cdf[j] <= u, since those columns are
        # nondecreasing and the last entry exceeds u.
        prev = regimes[t - 1].take(anc)
        u = rng.random(n)
        regime = regimes[t]
        regime[...] = 0
        for col in cdf_cols:
            regime += u >= col.take(prev)
        eta = rk4_components(x.take(anc, axis=1), infect_rates.take(regime), alpha, gamma)
        eta *= kappa
        # The draw reads the concentrations in (particle, component)
        # order, as the row layout does, so the Gamma variates match.
        thetas[t] = sample_dirichlet(DirichletParams(eta.T), rng)
        x = np.ascontiguousarray(thetas[t].T)
        log_w[t] = _obs_log_density(x[2], p[t], lam, log_y[t], log1m_y[t])
        norm_w[t], inc = _normalize_step(log_w[t], t)
        log_marginal += inc

    return ParticleSystem(thetas, regimes, log_w, norm_w, ancestors, log_marginal)


def run_csmc_as_batch(
    y: np.ndarray,
    priors: PriorSpec,
    params: Sequence[ParameterSet],
    references: Sequence[ReferenceTrajectory],
    m_per_regime: int,
    rngs: Sequence[np.random.Generator],
) -> list[ParticleSystem | DegenerateWeightsError]:
    """Conditional SMC with block-deterministic regimes and ancestor
    sampling, for C chains at once.

    Chain c runs on params[c] against references[c] and draws from
    rngs[c]; all chains share the series y, the priors, K and M.  The
    result of chain c is its ParticleSystem, or the DegenerateWeightsError
    its pass raised: a chain whose weights degenerate stops there, as it
    would alone, and the other chains go on unchanged.  Each result
    equals a pass of its chain alone bit for bit.

    Regimes are assigned deterministically in K blocks of M particles;
    the reference pair overwrites the last slot of its regime's block at
    every step, and its ancestor is redrawn with ancestor-sampling
    weights.  Non-reference ancestors are M multinomial draws from the
    previous weights, replicated across the K blocks.

    At each step one transition_mean call propagates the previous
    particles of every chain under all K regimes into a cache of C * K * N
    rows in (chain, regime, particle) order: block propagation gathers
    row (chain, regime of the block, ancestor) from it, and ancestor
    sampling reads the N rows of (chain, reference regime).  The
    reference states must lie on the open simplex (rows
    summing to 1 within 1e-9); every chain's inputs are checked before
    any particle work.
    """
    y = np.asarray(y, dtype=float)
    horizon, m = len(y), m_per_regime
    if m < 2:
        raise ValueError("need at least two particles per regime")
    if not len(params) == len(references) == len(rngs) > 0:
        raise ValueError("need one parameter set, reference and generator per chain")
    k = params[0].n_regimes
    for chain_params, reference in zip(params, references):
        if chain_params.n_regimes != k:
            raise ValueError("the chains of one pass must share the number of regimes")
        ref = reference.path
        if len(ref) != horizon:
            raise ValueError("reference length must match the observation series")
        if np.any(ref.regimes < 0) or np.any(ref.regimes >= k):
            raise ValueError("reference regimes out of range")
        require_open_simplex(ref.thetas, "reference states")

    n = k * m
    _check_particle_count(n)
    # Particle j descends from the (j mod M)-th of the M resampled ancestors.
    block_slots = np.tile(np.arange(m), k)
    log_y = [math.log(v) for v in y]
    log1m_y = [math.log1p(-v) for v in y]
    results: list = [None] * len(params)
    b = _ChainBatch(list(range(len(params))), params, references, rngs, m, horizon)

    for i, g in enumerate(b.rngs):
        b.thetas[0, i] = _draw_initial_thetas(priors, n, g)
    b.thetas[0].reshape(-1, 4)[b.ref_flat[0]] = b.ref_thetas[0]
    b = _weigh_step(b, 0, log_y, log1m_y, results)
    if b is None:
        return results

    for t in range(1, horizon):
        c = len(b.ids)
        eta = transition_mean(np.repeat(b.thetas[t - 1], k, axis=0).reshape(-1, 4), b.rates)
        log_as = _ancestor_log_weights(b, eta, t)
        as_totals = logsumexp_rows(log_as)
        if -math.inf in as_totals:
            details = [
                "ancestor-sampling weights not a number" if nan
                else "ancestor-sampling weights all zero"
                for nan in np.isnan(log_as).any(axis=1).tolist()
            ]
            live = _retire(b, as_totals, results, t, details)
            if not live:
                return results
            eta = eta.reshape(c, -1, 4).take(live, axis=0).reshape(-1, 4)
            b, log_as = b.keep(live), log_as.take(live, axis=0)
            as_totals = [as_totals[r] for r in live]
            c = len(live)
        as_cdf = np.add.accumulate(_normalize_rows(log_as, as_totals), axis=1)
        as_cdf[:, -1] = 1.0

        cdf = np.add.accumulate(b.norm_w[t - 1], axis=1)
        cdf[:, -1] = 1.0
        draws = np.empty((c, m), dtype=np.int32)
        for i, g in enumerate(b.rngs):
            draws[i] = cdf[i].searchsorted(g.random(m), side="right")
        np.minimum(draws, n - 1, out=draws)
        anc = draws.take(block_slots, axis=1, out=b.ancestors[t - 1])
        conc = eta.take(b.block_base + anc.ravel(), axis=0)
        conc *= b.kappa

        x = b.thetas[t]
        slots = b.ref_slot[t]
        for i, g in enumerate(b.rngs):
            g.standard_gamma(conc[i * n:(i + 1) * n], out=x[i])
            idx = int(as_cdf[i].searchsorted(g.random(), side="right"))
            anc[i, slots[i]] = min(idx, n - 1)
        _normalize_gamma_draws(x)
        x.reshape(-1, 4)[b.ref_flat[t]] = b.ref_thetas[t]

        b = _weigh_step(b, t, log_y, log1m_y, results)
        if b is None:
            return results

    # The reference slot lies in its own regime's block, so every particle
    # carries its block's regime at every step: one row, shared read-only.
    block_regimes = np.repeat(np.arange(k, dtype=_regime_dtype(k)), m)
    regimes = np.broadcast_to(block_regimes, (horizon, n))
    for i, chain in enumerate(b.ids):
        results[chain] = ParticleSystem(
            b.thetas[:, i],
            regimes,
            b.log_w[:, i],
            b.norm_w[:, i],
            b.ancestors[:, i],
            b.log_marginal[i],
        )
    return results


class _ChainBatch:
    """The chains still live in a run_csmc_as_batch pass.

    Holds each chain's id (its position in the caller's lists), inputs,
    generator and running log marginal, the pass constants with a chain
    axis (after the time axis where there is one) and the particle
    storage: thetas (T, C, N, 4), log_w and norm_w (T, C, N), ancestors
    (T-1, C, N) int32.  Flat row indices address the chain-major
    reshapes of the transition cache and of the particles of one step.
    """

    def __init__(self, ids, params, references, rngs, m, horizon,
                 storage=None, log_marginal=None):
        c, k = len(ids), params[0].n_regimes
        n = k * m
        self.ids, self.params, self.references = list(ids), list(params), list(references)
        self.rngs, self.m, self.n = list(rngs), m, n
        # A pass starts each log marginal at 0.0, and 0.0 + x == x bit for
        # bit, so adding step 0's increment gives that increment.
        self.log_marginal = [0.0] * c if log_marginal is None else log_marginal
        block_regimes = np.repeat(np.arange(k), m)
        chain = np.arange(c)

        def per_row(values, repeats):
            return np.repeat(np.asarray(values, dtype=float), repeats)

        # One rate per row of the flat (C * K * N) transition cache, and one
        # precision per particle of the (C * N) particles of a step (the
        # identification rate and log reference state are spread to the
        # particles step by step): every kernel then works on 1-D rows.
        self.rates = EpidemicRates(
            per_row([p.alpha for p in params], k * n),
            per_row([p.beta for p in params], k * n),
            per_row([p.gamma for p in params], k * n),
            per_row(np.concatenate([p.modifiers for p in params]), n),
        )
        self.kappa = per_row([p.kappa for p in params], n)[:, None]
        self.lam = per_row([p.lambda_ for p in params], n)
        self.ident = np.stack([p.ident_series(horizon) for p in params], axis=1)
        # log_p_into[c * K + x, j]: log probability, in chain c, of moving
        # from particle j's regime to x.
        with np.errstate(divide="ignore"):
            self.log_p_into = np.concatenate(
                [np.log(p.trans_matrix.T[:, block_regimes]) for p in params]
            )
        ref_regimes = np.stack([r.path.regimes for r in references], axis=1)
        self.ref_thetas = np.stack([r.path.thetas for r in references], axis=1)
        self.log_ref = np.stack([np.log(r.path.thetas) for r in references], axis=1)
        # Row of (chain, reference regime) in log_p_into and in the
        # (C * K, N, 4) view of the transition cache, per step.
        self.ref_row = chain * k + ref_regimes
        ref_slot = (ref_regimes + 1) * m - 1
        self.ref_slot = ref_slot.tolist()
        self.ref_flat = chain * n + ref_slot
        # Flat cache row of (chain, block regime, ancestor 0) per particle.
        self.block_base = ((chain[:, None] * k + block_regimes) * n).ravel()
        if storage is None:
            storage = (
                np.empty((horizon, c, n, 4)),
                np.empty((horizon, c, n)),
                np.empty((horizon, c, n)),
                np.empty((max(horizon - 1, 0), c, n), dtype=np.int32),
            )
        self.thetas, self.log_w, self.norm_w, self.ancestors = storage

    def keep(self, rows: list[int]) -> _ChainBatch:
        """The batch of the chains in the given rows, storage included."""

        def pick(values):
            return [values[r] for r in rows]

        storage = (self.thetas, self.log_w, self.norm_w, self.ancestors)
        return _ChainBatch(
            pick(self.ids), pick(self.params), pick(self.references), pick(self.rngs),
            self.m, self.thetas.shape[0],
            storage=tuple(a.take(rows, axis=1) for a in storage),
            log_marginal=pick(self.log_marginal),
        )


def _retire(b: _ChainBatch, totals: list[float], results: list, t: int,
            details: list[str] | None = None) -> list[int]:
    """Make DegenerateWeightsError(t, details[row]) (no detail when details
    is None) the result of every chain whose row total is -inf; return the
    rows of the other chains."""
    live = []
    for row, total in enumerate(totals):
        if total == -math.inf:
            results[b.ids[row]] = DegenerateWeightsError(t, details[row] if details else "")
        else:
            live.append(row)
    return live


def _weigh_step(b: _ChainBatch, t: int, log_y, log1m_y, results: list) -> _ChainBatch | None:
    """Weigh and normalize the step-t particles of every chain and add the
    step's log mean weight to its log marginal.  Chains whose weights all
    vanish are retired; returns the batch of the others (None if none)."""
    p_t = np.repeat(b.ident[t], b.n)
    b.log_w[t] = _obs_log_density(
        b.thetas[t].reshape(-1, 4)[:, 2], p_t, b.lam, log_y[t], log1m_y[t]
    ).reshape(-1, b.n)
    totals = logsumexp_rows(b.log_w[t])
    if -math.inf in totals:
        live = _retire(b, totals, results, t)
        if not live:
            return None
        b, totals = b.keep(live), [totals[r] for r in live]
    _normalize_rows(b.log_w[t], totals, out=b.norm_w[t])
    log_n = math.log(b.n)
    b.log_marginal = [lm + (total - log_n) for lm, total in zip(b.log_marginal, totals)]
    return b


def _normalize_rows(log_w: np.ndarray, totals: list[float], out=None) -> np.ndarray:
    """Each row of exp(log_w) divided by its sum, given each row's
    log-sum-exp (finite)."""
    w = np.exp(log_w - np.array(totals)[:, None])
    return np.divide(w, np.add.reduce(w, axis=1, keepdims=True), out=out)


def _ancestor_log_weights(b: _ChainBatch, eta: np.ndarray, t: int) -> np.ndarray:
    """Unnormalized log ancestor-sampling weights of every chain's
    reference particle at step t, one row per chain.

    Weights are proportional to transition density to the reference state
    times regime transition probability times the previous normalized
    weight (the observation factor is constant across candidates and
    drops out of the normalization).  eta is the transition cache of
    step t, C * K * N rows in (chain, regime, particle) order.  A weight
    whose density overflows (inf - inf in the kernel at a huge kappa) is
    NaN, without a warning; the caller retires its chain.
    """
    conc_ref = eta.reshape(-1, b.n, 4).take(b.ref_row[t], axis=0).reshape(-1, 4)
    conc_ref *= b.kappa
    log_ref = np.repeat(b.log_ref[t], b.n, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_as = _dirichlet_log_kernel(log_ref, conc_ref).reshape(-1, b.n)
        log_as += b.log_p_into.take(b.ref_row[t], axis=0)
        log_as += np.log(b.norm_w[t - 1])
    return log_as


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

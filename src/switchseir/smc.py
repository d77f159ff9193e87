"""Particle machinery: bootstrap SMC, conditional SMC with ancestor
sampling (CSMC-AS) and reference-trajectory extraction.  Each pass also
returns its marginal-likelihood estimate.

Both filters propose from the model: a particle's regime from its
ancestor's row of the transition matrix (_propose_regimes), its state
from the Dirichlet transition around the RK4 mean under that regime
(seir.rk4_components on component-first particles, then _draw_states).
So every step weight is the observation density alone,
model._obs_log_density, whose sum over a path is the observation factor
of the MH target (model.PosteriorTerms).

The bootstrap filter (run_smc) resamples systematically at every step
(distributions.systematic_offspring): one uniform per step gives each
particle N times its weight as offspring on average, so the likelihood
estimate stays unbiased.  The scheme is not guaranteed to beat
multinomial draws (Douc, Cappe & Moulines 2005), but on the stored
three-regime series at N = 10^4 it cuts the variance of log Z about
threefold.  Its draws depend on particle order.

The conditional filter (run_csmc_as_batch; Andrieu, Doucet & Holenstein
2010; Lindsten, Jordan & Schon 2014) keeps the reference trajectory in
the last particle slot.  The other N - 1 ancestors are multinomial draws
from the previous weights; the reference's ancestor is drawn in
proportion to each candidate's weight times its probability of moving to
the reference pair.  It runs C chains in one pass, each with its own
parameters, reference and generator, and one chain is the case C = 1.
The particle work of all chains runs once per step on a chain axis.
What makes a chain's result its own stays per chain, in the order a
chain alone would take it: every draw from its generator, each CDF
search, and the degeneracy check.  Each row sum has the bits of that row
reduced alone (distributions.logsumexp_rows).  So each chain's result
equals its pass alone bit for bit, whatever the other chains hold.  The
pass is all or nothing: when any chain's weights degenerate it raises
that chain's DegenerateWeightsError, as the chain's pass alone would, and
returns no result; the caller (pg.run_pg) then reruns the chains one by
one.
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
from .model import LatentPath, ParameterSet, PriorSpec, _obs_log_density
from .seir import rk4_components


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
    integer type that holds 0..K-1 (int8 for every K <= 128);
    log_weights and norm_weights: (T, N) float64; ancestors: (T-1, N) of
    the smallest signed integer type that holds 0..N-1 (int8 up to N =
    128, int16 up to 32,768, int32 beyond), with ancestors[t] indexing
    the time-t parents of the time-t+1 particles; log_marginal: sum over
    t of log mean unnormalized weight.  In a conditional pass, particle
    N-1 holds the reference pair at every step.
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


def check_reference(path: LatentPath, horizon: int, n_regimes: int) -> None:
    """Raise ValueError unless path can be the reference of a conditional
    pass: horizon steps long, regimes in 0..n_regimes-1 and states on the
    open simplex (rows summing to 1 within 1e-9)."""
    if len(path) != horizon:
        raise ValueError(f"reference has {len(path)} steps, the series {horizon}")
    if np.any(path.regimes < 0) or np.any(path.regimes >= n_regimes):
        raise ValueError("reference regimes out of range")
    require_open_simplex(path.thetas, "reference states")


def _check_particle_count(n: int) -> None:
    if n < 2:
        raise ValueError("need at least two particles")
    if n > np.iinfo(np.int32).max:
        raise ValueError("at most 2**31 - 1 particles: the widest ancestor type is int32")


def _index_dtype(n: int) -> np.dtype:
    """The smallest signed integer type that holds indices 0..n-1: the
    type of stored regimes (n = K) and ancestors (n = N)."""
    return np.min_scalar_type(-n)


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


def _regime_cdf_cols(params: Sequence[ParameterSet]) -> np.ndarray:
    """Columns 0..K-2 of every chain's transition-row CDFs, one contiguous
    row each: entry [j, c * K + x] is column j of chain c's row x.  The
    regime proposal takes the last column as 1.0."""
    rows = np.concatenate([np.cumsum(p.trans_matrix, axis=1) for p in params])
    return rows.T[:-1].copy()


def _propose_regimes(u, rows, cdf_cols: np.ndarray, out: np.ndarray) -> None:
    """Draw regimes into out from the transition rows `rows` (indices into
    the columns of _regime_cdf_cols), one uniform u per particle.  The
    regime is the first j with u < cdf[j], last entry 1.0: the number of
    columns j < K-1 with cdf[j] <= u, as those columns are nondecreasing.
    """
    out[...] = 0
    for col in cdf_cols:
        out += u >= col.take(rows)


def _draw_states(conc: np.ndarray, rngs, out: np.ndarray) -> None:
    """Dirichlet draws into out (C, L, 4) from concentrations conc (C, L,
    4).  Chain c's Gamma variates come from rngs[c] in (particle,
    component) order, as sample_dirichlet draws them, and are normalized
    as sample_dirichlet normalizes them."""
    for c, g in enumerate(rngs):
        g.standard_gamma(conc[c], out=out[c])
    _normalize_gamma_draws(out)


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
    regimes = np.empty((horizon, n), dtype=_index_dtype(k))
    log_w = np.empty((horizon, n))
    norm_w = np.empty((horizon, n))
    ancestors = np.empty((max(horizon - 1, 0), n), dtype=_index_dtype(n))

    p, lam = params.ident_series(horizon), params.lambda_
    alpha, gamma, kappa = params.alpha, params.gamma, params.kappa
    infect_rates = params.modifiers * params.beta
    cdf_cols = _regime_cdf_cols([params])
    log_y = [math.log(v) for v in y]
    log1m_y = [math.log1p(-v) for v in y]
    thetas[0] = _draw_initial_thetas(priors, n, rng)
    regimes[0] = rng.integers(k, size=n)
    x = np.ascontiguousarray(thetas[0].T)
    log_w[0] = _obs_log_density(x[2], p[0], lam, log_y[0], log1m_y[0])
    norm_w[0], log_marginal = _normalize_step(log_w[0], 0)

    labels = np.arange(n, dtype=ancestors.dtype)
    for t in range(1, horizon):
        anc = np.repeat(labels, systematic_offspring(norm_w[t - 1], rng))
        ancestors[t - 1] = anc
        _propose_regimes(rng.random(n), regimes[t - 1].take(anc), cdf_cols, regimes[t])
        eta = rk4_components(x.take(anc, axis=1), infect_rates.take(regimes[t]), alpha, gamma)
        eta *= kappa
        _draw_states(eta.T[None], [rng], thetas[t][None])
        x = np.ascontiguousarray(thetas[t].T)
        log_w[t] = _obs_log_density(x[2], p[t], lam, log_y[t], log1m_y[t])
        norm_w[t], inc = _normalize_step(log_w[t], t)
        log_marginal += inc

    return ParticleSystem(thetas, regimes, log_w, norm_w, ancestors, log_marginal)


def run_csmc_as_batch(
    y: np.ndarray,
    priors: PriorSpec,
    params: Sequence[ParameterSet],
    references: Sequence[LatentPath],
    n_particles: int,
    rngs: Sequence[np.random.Generator],
) -> list[ParticleSystem]:
    """Conditional SMC with ancestor sampling, for C chains at once.

    Chain c runs on params[c] against references[c] and draws from
    rngs[c]; all chains share the series y, the priors, K and the N =
    n_particles particles.  The pass is all or nothing: it returns each
    chain's ParticleSystem, or raises the DegenerateWeightsError of the
    first chain whose weights degenerate, with the step and detail that
    chain's pass alone raises.  The ancestor-sampling check raises before
    any state of its step is drawn.

    Particle N-1 holds the reference pair at every step.  The others are
    proposed as run_smc proposes them, from multinomial ancestors.  The
    reference's ancestor i is drawn with weight w_i * P(x_i -> x_ref) *
    Dir(theta_ref | kappa * eta(theta_i, x_ref)), so each step runs one
    RK4 over 2N - 1 rows: the resampled ancestors under their new
    regimes, then every previous particle under the reference regime.
    Per step a chain draws N - 1 resampling uniforms, N - 1 regime
    uniforms, the ancestor-sampling uniform and the Gamma variates of
    N - 1 states.  Every chain's inputs are checked before any particle
    work: its reference by check_reference.
    """
    y = np.asarray(y, dtype=float)
    horizon, n, c = len(y), n_particles, len(params)
    _check_particle_count(n)
    if not c == len(references) == len(rngs) > 0:
        raise ValueError("need one parameter set, reference and generator per chain")
    k = params[0].n_regimes
    for chain_params, reference in zip(params, references):
        if chain_params.n_regimes != k:
            raise ValueError("the chains of one pass must share the number of regimes")
        check_reference(reference, horizon, k)

    log_y = [math.log(v) for v in y]
    log1m_y = [math.log1p(-v) for v in y]
    chain = np.arange(c)[:, None]

    def per_chain(values):
        return np.array(values, dtype=float)[:, None]

    alpha = per_chain([p.alpha for p in params])
    gamma = per_chain([p.gamma for p in params])
    kappa = per_chain([p.kappa for p in params])[..., None]
    lam = per_chain([p.lambda_ for p in params])
    ident = np.stack([p.ident_series(horizon) for p in params], axis=1)[..., None]
    # Regime x of chain c is entry c * K + x of the infection rates and row
    # c * K + x of the transition matrices; particle j of chain c is entry
    # c * N + j of a step's flattened particles.
    infect_rates = np.concatenate([p.modifiers * p.beta for p in params])
    cdf_cols = _regime_cdf_cols(params)
    row_base, chain_base = chain * k, chain * n
    # Flat indices of the particles one step propagates: the resampled
    # ancestors (written per step), then every previous particle.
    gather = np.empty((c, 2 * n - 1), dtype=np.intp)
    gather[:, n - 1:] = np.arange(c * n).reshape(c, n)
    # Work arrays of one step: uniforms, propagated rows, drawn states.
    u = np.empty((c, 2 * n - 2))
    conc = np.empty((c, 2 * n - 1, 4))
    drawn = np.empty((c, n - 1, 4))
    # log_into[(c * K + x) * K + j]: log probability, in chain c, of moving
    # from regime j to regime x.
    with np.errstate(divide="ignore"):
        log_into = np.concatenate([np.log(p.trans_matrix.T).ravel() for p in params])
    ref_regimes = np.stack([r.regimes for r in references], axis=1)
    ref_thetas = np.stack([r.thetas for r in references], axis=1)
    log_ref = np.log(ref_thetas)[:, :, None]
    ref_row = np.broadcast_to(row_base + ref_regimes[..., None], (horizon, c, n))
    into_base = (row_base + ref_regimes[..., None]) * k

    # Particle storage in ParticleSystem's field order, chain axis second.
    thetas = np.empty((horizon, c, n, 4))
    regimes = np.empty((horizon, c, n), dtype=_index_dtype(k))
    log_w = np.empty((horizon, c, n))
    norm_w = np.empty((horizon, c, n))
    ancestors = np.empty((max(horizon - 1, 0), c, n), dtype=_index_dtype(n))
    thetas[:, :, -1] = ref_thetas
    regimes[:, :, -1] = ref_regimes

    def weigh(t: int) -> list[float]:
        """Weigh and normalize every chain's step-t particles; return each
        chain's log mean weight, or raise for the first whose weights all
        vanish."""
        log_w[t] = _obs_log_density(thetas[t, :, :, 2], ident[t], lam, log_y[t], log1m_y[t])
        totals = logsumexp_rows(log_w[t])
        if -math.inf in totals:
            raise DegenerateWeightsError(t)
        _normalize_rows(log_w[t], totals, out=norm_w[t])
        return [total - math.log(n) for total in totals]

    for i, g in enumerate(rngs):
        thetas[0, i, :-1] = _draw_initial_thetas(priors, n - 1, g)
        regimes[0, i, :-1] = g.integers(k, size=n - 1)
    log_marginal = weigh(0)

    for t in range(1, horizon):
        x = np.ascontiguousarray(thetas[t - 1].transpose(2, 0, 1))
        cdf = np.add.accumulate(norm_w[t - 1], axis=1)
        cdf[:, -1] = 1.0
        # N - 1 resampling uniforms, then N - 1 regime uniforms per chain.
        # A uniform is below 1.0 = cdf[-1], so every index found is below N.
        anc = ancestors[t - 1]
        for i, g in enumerate(rngs):
            g.random(out=u[i])
            anc[i, :-1] = cdf[i].searchsorted(u[i, :n - 1], side="right")
        parents = np.add(anc[:, :-1], chain_base, out=gather[:, :n - 1])
        new = regimes[t, :, :-1]
        _propose_regimes(u[:, n - 1:], regimes[t - 1].take(parents) + row_base, cdf_cols, new)

        # One propagation: the resampled ancestors under their new regimes,
        # then every previous particle under the reference regime, written
        # in row layout (C, 2N - 1, 4) for the Gamma draws and the density.
        rows = np.concatenate([new + row_base, ref_row[t]], axis=1)
        rk4_components(
            x.reshape(4, -1).take(gather, axis=1), infect_rates.take(rows), alpha, gamma,
            out=conc.transpose(2, 0, 1),
        )
        conc *= kappa
        log_as = _ancestor_log_weights(
            log_ref[t], conc[:, n - 1:], log_into.take(regimes[t - 1] + into_base[t]),
            log_w[t - 1],
        )
        peak = np.maximum.reduce(log_as, axis=1, keepdims=True)
        if not np.isfinite(peak).all():
            i = int(np.argmin(np.isfinite(peak[:, 0])))
            detail = "not a number" if np.isnan(log_as[i]).any() else "all zero"
            raise DegenerateWeightsError(t, f"ancestor-sampling weights {detail}")
        # Inverse CDF of the unnormalized weights: the key is a uniform times
        # the row total, which can round up to the total, hence the min.
        as_cdf = np.add.accumulate(np.exp(log_as - peak), axis=1)
        for i, g in enumerate(rngs):
            key = g.random() * as_cdf[i, -1]
            anc[i, -1] = min(as_cdf[i].searchsorted(key, side="right"), n - 1)
        # A contiguous array normalizes faster than the storage's view.
        _draw_states(conc[:, :n - 1], rngs, drawn)
        thetas[t, :, :-1] = drawn
        log_marginal = [lm + inc for lm, inc in zip(log_marginal, weigh(t))]

    return [
        ParticleSystem(thetas[:, i], regimes[:, i], log_w[:, i], norm_w[:, i], ancestors[:, i],
                       log_marginal[i])
        for i in range(c)
    ]


def _normalize_rows(log_w: np.ndarray, totals: list[float], out=None) -> np.ndarray:
    """Each row of exp(log_w) divided by its sum, given each row's
    log-sum-exp (finite)."""
    w = np.exp(log_w - np.array(totals)[:, None])
    return np.divide(w, np.add.reduce(w, axis=1, keepdims=True), out=out)


def _ancestor_log_weights(log_ref, conc, log_into, log_w) -> np.ndarray:
    """Unnormalized log ancestor-sampling weights of the reference
    particle, one row per chain: for each previous particle i, the
    Dirichlet log density of the reference state log_ref (C, 1, 4) under
    conc[:, i] (C, N, 4), plus log_into[:, i], the log probability of
    moving from particle i's regime to the reference regime, plus its
    unnormalized log weight log_w[:, i].  Factors common to all
    candidates drop out.  A weight whose density overflows (inf - inf in
    the kernel at a huge kappa) is NaN, without a warning; the caller
    raises for its chain.
    """
    with np.errstate(invalid="ignore"):
        log_as = _dirichlet_log_kernel(log_ref, conc)
        log_as += log_into
        log_as += log_w
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

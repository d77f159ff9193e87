"""Particle Gibbs kernel: conditional-SMC latent updates alternated with
Metropolis-Hastings parameter updates.

Each iteration runs conditional SMC with ancestor sampling
(smc.run_csmc_as_batch, which proposes regimes and states from the
model) against the previous reference trajectory and draws a fresh
reference from its particle system.  Given the reference's regimes,
every row j of the transition matrix is then drawn exactly from its full
conditional Dir(c_j + n_j), where c_j is the row's prior concentration
and n_jk counts the j -> k moves of the path (Chib 1996, J.
Econometrics); the initial regime is uniform and adds no count.  Then
several full MH sweeps run conditional on the reference.  A sweep visits
the entries of model.param_table in order and moves each by mh_step, the
one proposal and accept rule: it draws a Normal random walk inside the
entry's support, entry.support(priors), with its forward and reverse
densities; no entry carries a proposal of its own.  The MH target is the
joint log posterior kept as model.PosteriorTerms: a proposal recomputes
only the likelihood factor and the prior term of the entry it moves.  Each
entry's proposal scale starts at its prior-scaled default_step and
adapts toward TARGET_ACCEPT during burn-in; PgState, and so a
checkpoint, carries the adapted scales.

run_pg drives a list of chains in lockstep: each round advances every
unfinished chain by one iteration, its CSMC-AS pass shared with the
others in one smc.run_csmc_as_batch call, and each chain at its own
iteration number (resumed chains may differ).  That pass is all or
nothing: it raises when any chain's weights degenerate, and run_pg then
reruns each chain's pass alone, so every chain still gets the result of
its own pass.  The reference and row draws, the MH sweeps, step-size
adaptation, the degeneracy watchdog, the records and the callback stay
per chain.

Every random draw of iteration r comes from counter-based streams keyed
by (seed, stage, r, ...) (the rows continue the reference draw's
stream), so chains are bit-reproducible, a chain's
records do not depend on which chains run beside it, and a run can
resume from an iteration boundary with no drift.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .distributions import (
    DirichletParams,
    TruncNormalParams,
    sample_dirichlet,
    sample_trunc_normal,
    trunc_normal_logpdf,
)
from .model import (
    LatentPath,
    ParamEntry,
    ParameterSet,
    PosteriorTerms,
    PriorSpec,
    draw_params,
    param_table,
)
from .rng import TAG_CSMC, TAG_INIT, TAG_MH, TAG_REFERENCE, substream
from .smc import DegenerateWeightsError, run_csmc_as_batch, run_smc, sample_reference

ADAPT_EVERY = 100
TARGET_ACCEPT = 0.3
# Degeneracy watchdog: abort when most early iterations lose their weights.
DEGENERACY_PROBE_ITERS = 100
DEGENERACY_ABORT_FRACTION = 0.5


@dataclass(frozen=True)
class SamplerConfig:
    """Settings of one particle Gibbs chain.

    n_iterations counts all iterations including burn-in; records are
    emitted for post-burn-in iterations at the given thinning stride.
    Every SMC and CSMC-AS pass of the chain runs n_particles(K) =
    K * m_per_regime particles.
    """

    n_iterations: int
    burn_in: int
    m_per_regime: int
    seed: int
    mh_sweeps_per_iter: int = 5
    thin: int = 1

    def __post_init__(self):
        if not self.n_iterations > self.burn_in >= 0:
            raise ValueError("need n_iterations > burn_in >= 0")
        if self.m_per_regime < 2:
            raise ValueError("m_per_regime must be >= 2")
        if self.mh_sweeps_per_iter < 1:
            raise ValueError("mh_sweeps_per_iter must be >= 1")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    def n_particles(self, n_regimes: int) -> int:
        """The particle count N = K * m_per_regime of every pass; the
        filters check it."""
        return n_regimes * self.m_per_regime


@dataclass(frozen=True)
class ChainRecord:
    """One retained iteration: parameters, latent path, likelihood estimate,
    and the per-sweep MH acceptance flags of every parameter."""

    iteration: int
    params: ParameterSet
    path: LatentPath
    log_marginal: float
    mh_accepted: dict[str, tuple[bool, ...]]


@dataclass
class PgState:
    """Mutable sampler state, exposed to callbacks for checkpointing.

    reference is the path the next CSMC-AS pass conditions on; it stays
    when the chain's own pass raises (run_pg reruns a batched pass that
    raised chain by chain), and n_degenerate counts one more."""

    iteration: int
    params: ParameterSet
    reference: LatentPath
    step_sizes: dict[str, float]
    window_counts: dict[str, list[int]]
    n_emitted: int
    n_degenerate: int
    record: ChainRecord | None = None


def mh_step(
    target, entry: ParamEntry, step: float, priors: PriorSpec, rng: np.random.Generator
):
    """One Metropolis-Hastings update of a model.param_table entry.

    target is any object with params, total and moved(which, params)
    (model.PosteriorTerms in run_pg).  The proposal is a Normal random
    walk of SD step from the entry's value, truncated to
    entry.support(priors); truncation makes the walk asymmetric, so both
    its forward and its reverse density enter the ratio.  Then one
    uniform decides: a proposal at a non-finite target is rejected, one
    from a non-finite target is accepted, and otherwise the usual ratio
    applies.  Returns (target at the kept parameters, accepted)."""
    cur = entry.get(target.params)
    lo, hi = entry.support(priors)
    fwd = TruncNormalParams(cur, step, lo, hi)
    value = sample_trunc_normal(fwd, rng)
    rev = TruncNormalParams(value, step, lo, hi)
    log_q_fwd, log_q_rev = trunc_normal_logpdf(value, fwd), trunc_normal_logpdf(cur, rev)
    u = rng.random()
    proposal = target.moved(entry.id, entry.set(target.params, value))
    prop_lp, cur_lp = proposal.total, target.total
    if not np.isfinite(prop_lp):
        return target, False
    if not np.isfinite(cur_lp):
        return proposal, True
    if math.log(u) < prop_lp - cur_lp + log_q_rev - log_q_fwd:
        return proposal, True
    return target, False


def _adjusted_step(step: float, rate: float, target: float) -> float:
    return step * math.exp(2.0 * (rate - target))


def acceptance_rates(records) -> dict[str, float]:
    """Per-parameter mean acceptance over all sweeps of the given records."""
    totals: dict[str, list[int]] = {}
    for rec in records:
        for pid, flags in rec.mh_accepted.items():
            acc, n = totals.setdefault(pid, [0, 0])
            totals[pid][0] = acc + sum(flags)
            totals[pid][1] = n + len(flags)
    return {pid: acc / n for pid, (acc, n) in totals.items() if n > 0}


def run_pg(
    y: np.ndarray,
    priors: PriorSpec,
    configs: Sequence[SamplerConfig],
    callbacks: Sequence | None = None,
    resume: Sequence[PgState | None] | None = None,
) -> list[list[ChainRecord]]:
    """Run particle Gibbs chains in lockstep; return each chain's retained
    records.

    Chain c follows configs[c]; all chains share the series, the priors
    and m_per_regime, so every pass runs the same particle count.  For
    each chain, iteration 0 draws the parameters from their priors and
    the reference trajectory from a plain SMC pass; each later iteration
    refreshes the reference through CSMC-AS, draws the transition rows
    given it and then applies the configured number of MH sweeps.  Step
    sizes start at each entry's default_step, adapt toward a 30%
    acceptance rate during burn-in and are frozen afterwards.

    Every round runs one run_csmc_as_batch pass over the chains that have
    iterations left, each at its own next iteration, then the rest of
    each chain's iteration in chain order.  The pass is all or nothing:
    when it raises, each chain's pass reruns alone (_csmc_round), and a
    chain whose pass alone raises keeps its reference.  A chain's draws
    come from its own streams, so its records do not depend on the other
    chains.

    callbacks[c], when given and not None, is invoked with chain c's
    PgState after each of its iterations (state.record is set on
    iterations that emitted a record); passing a previously captured
    state as resume[c] continues that chain bit-identically from its
    next iteration.
    """
    y = np.asarray(y, dtype=float)
    if len(y) < 2:
        raise ValueError("need at least two observations")
    n_chains = len(configs)
    callbacks = list(callbacks) if callbacks is not None else [None] * n_chains
    resume = list(resume) if resume is not None else [None] * n_chains
    if not n_chains or len(callbacks) != n_chains or len(resume) != n_chains:
        raise ValueError("need one config, and at most one callback and state, per chain")
    if any(cfg.m_per_regime != configs[0].m_per_regime for cfg in configs):
        raise ValueError("chains run in lockstep must share m_per_regime")
    n = configs[0].n_particles(priors.n_regimes)
    table = param_table(priors.n_regimes, len(priors.ident))

    states = [
        state if state is not None else _initial_state(y, priors, cfg, n, table)
        for cfg, state in zip(configs, resume)
    ]
    records: list[list[ChainRecord]] = [[] for _ in configs]
    while True:
        live = [c for c in range(n_chains) if states[c].iteration < configs[c].n_iterations]
        if not live:
            return records
        systems = _csmc_round(y, priors, configs, states, live, n)
        for c, system in zip(live, systems):
            rec = _finish_iteration(y, priors, configs[c], table, states[c], system)
            if rec is not None:
                records[c].append(rec)
            if callbacks[c] is not None:
                callbacks[c](states[c])
        # The systems share one particle store: free it before the next pass.
        del systems, system


def _csmc_round(y, priors: PriorSpec, configs, states, live: list[int], n: int) -> list:
    """The CSMC-AS result of each live chain's next iteration: its
    ParticleSystem, or the DegenerateWeightsError its pass alone raises.
    One run_csmc_as_batch pass serves every chain unless it raises; then
    each chain's pass runs alone, on fresh copies of its generator.  A
    pass of one chain raises that chain's own error, so it is not rerun."""

    def csmc_pass(chains):
        return run_csmc_as_batch(
            y, priors, [states[c].params for c in chains], [states[c].reference for c in chains],
            n, [substream(configs[c].seed, TAG_CSMC, states[c].iteration + 1) for c in chains])

    try:
        return csmc_pass(live)
    except DegenerateWeightsError as exc:
        if len(live) == 1:
            return [exc]
    results = []
    for c in live:
        try:
            results += csmc_pass([c])
        except DegenerateWeightsError as exc:
            results.append(exc)
    return results


def _draw_rows(regimes: np.ndarray, params: ParameterSet, priors: PriorSpec,
               rng: np.random.Generator) -> ParameterSet:
    """params with every transition-matrix row j drawn from Dir(c_j +
    n_j) given the regime path; a single-regime model's fixed matrix is
    kept.  sample_dirichlet's floor keeps an entry of a row with a small
    concentration from underflowing to 0, a -inf row prior."""
    if not priors.row_concentrations:
        return params
    counts = np.zeros((params.n_regimes,) * 2)
    np.add.at(counts, (regimes[:-1], regimes[1:]), 1.0)
    conc = np.asarray(priors.row_concentrations, dtype=float) + counts
    return replace(params, trans_matrix=sample_dirichlet(DirichletParams(conc), rng))


def _initial_state(y, priors: PriorSpec, config: SamplerConfig, n: int, table) -> PgState:
    """Iteration 0 of a chain: prior parameters and a reference from a
    plain SMC pass of n particles."""
    seed = config.seed
    steps = {pid: entry.default_step(priors) for pid, entry in table.items()}
    params = draw_params(priors, substream(seed, TAG_INIT, 0))
    try:
        system = run_smc(y, params, priors, n, substream(seed, TAG_INIT, 1))
    except DegenerateWeightsError as exc:
        raise DegenerateWeightsError(exc.step, "during chain initialization") from exc
    return PgState(
        iteration=0,
        params=params,
        reference=sample_reference(system, substream(seed, TAG_INIT, 2)).path,
        step_sizes=steps,
        window_counts={pid: [0, 0] for pid in table},
        n_emitted=0,
        n_degenerate=0,
    )


def _finish_iteration(
    y, priors: PriorSpec, config: SamplerConfig, table, state: PgState, system
) -> ChainRecord | None:
    """The rest of iteration state.iteration + 1 of one chain, given the
    result of its CSMC-AS pass: the new reference (or, when the pass
    degenerated, the old one), the rows drawn given it, the MH sweeps,
    step-size adaptation and the record, which is returned when the
    iteration emits one."""
    seed, r = config.seed, state.iteration + 1
    rng = substream(seed, TAG_REFERENCE, r)
    if isinstance(system, DegenerateWeightsError):
        # Keep the previous reference (a rejected latent update) but
        # abort when degeneracy dominates the early iterations.
        state.n_degenerate += 1
        warnings.warn(f"iteration {r}: {system}; latent update skipped")
        log_ml = -math.inf
        if (
            r <= DEGENERACY_PROBE_ITERS
            and state.n_degenerate > DEGENERACY_PROBE_ITERS * DEGENERACY_ABORT_FRACTION
        ):
            raise RuntimeError(
                f"{state.n_degenerate} of the first {r} iterations degenerated; "
                "check priors and precision parameters"
            ) from system
    else:
        state.reference = sample_reference(system, rng).path
        log_ml = system.log_marginal
    state.params = _draw_rows(state.reference.regimes, state.params, priors, rng)

    target = PosteriorTerms.build(state.reference, y, state.params, priors)
    accepted: dict[str, list[bool]] = {pid: [] for pid in table}
    for s in range(config.mh_sweeps_per_iter):
        rng = substream(seed, TAG_MH, r, s)
        for pid, entry in table.items():
            target, ok = mh_step(target, entry, state.step_sizes[pid], priors, rng)
            accepted[pid].append(ok)
    state.params = target.params

    for pid, flags in accepted.items():
        state.window_counts[pid][0] += sum(flags)
        state.window_counts[pid][1] += len(flags)

    if r <= config.burn_in and r % ADAPT_EVERY == 0:
        for pid, (acc, n) in state.window_counts.items():
            if n:
                state.step_sizes[pid] = _adjusted_step(
                    state.step_sizes[pid], acc / n, TARGET_ACCEPT
                )
        state.window_counts = {pid: [0, 0] for pid in table}

    state.iteration = r
    state.record = None
    if r > config.burn_in and (r - config.burn_in - 1) % config.thin == 0:
        state.record = ChainRecord(
            iteration=r,
            params=state.params,
            path=state.reference,
            log_marginal=log_ml,
            mh_accepted={pid: tuple(flags) for pid, flags in accepted.items()},
        )
        state.n_emitted += 1
    return state.record

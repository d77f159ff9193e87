"""Particle Gibbs kernel: conditional-SMC latent updates alternated with
Metropolis-Hastings parameter updates.

Each iteration runs the block-conditional SMC with ancestor sampling
against the previous reference trajectory, draws a fresh reference, then
applies several full MH sweeps conditional on that reference.  A sweep
visits the entries of model.param_table in order.  Proposals are
truncated Normals on each entry's support, with the asymmetric-proposal
correction (truncation breaks symmetry).  The MH target is the joint log
posterior kept as model.PosteriorTerms: a proposal recomputes only the
likelihood factor and prior terms of the entry it moves.

Every random draw of iteration r comes from counter-based streams keyed
by (seed, stage, r, ...), so chains are bit-reproducible and a run can
resume from an iteration boundary with no drift.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import TruncNormalParams, sample_trunc_normal, trunc_normal_logpdf
from .model import (
    ROW_ID,
    LatentPath,
    ParamEntry,
    ParameterSet,
    PosteriorTerms,
    PriorSpec,
    draw_params,
    param_table,
)
from .rng import TAG_CSMC, TAG_INIT, TAG_MH, TAG_REFERENCE, substream
from .smc import (
    DegenerateWeightsError,
    ReferenceTrajectory,
    run_csmc_as,
    run_smc,
    sample_reference,
)

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
    step_sizes maps MH ids (the keys of model.param_table) to proposal
    standard deviations; missing ids fall back to the table's
    prior-scaled defaults, and run_pg rejects ids the table lacks.
    """

    n_iterations: int
    burn_in: int
    m_per_regime: int
    seed: int
    mh_sweeps_per_iter: int = 5
    step_sizes: dict[str, float] | None = None
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
        if self.step_sizes is not None and any(
            v <= 0 for v in self.step_sizes.values()
        ):
            raise ValueError("step sizes must be strictly positive")


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
    """Mutable sampler state, exposed to callbacks for checkpointing."""

    iteration: int
    params: ParameterSet
    reference: ReferenceTrajectory
    step_sizes: dict[str, float]
    window_counts: dict[str, list[int]]
    total_counts: dict[str, list[int]]
    n_emitted: int
    n_degenerate: int
    record: ChainRecord | None = None


def mh_scalar(
    target, entry: ParamEntry, step: float, support, rng: np.random.Generator
):
    """One truncated-Normal random-walk update of a scalar entry of psi.

    target is any object with params, total and moved(which, params)
    (model.PosteriorTerms in run_pg); the proposal is bounded to support.
    Returns (target at the kept parameters, accepted)."""
    cur = entry.get(target.params)
    fwd = TruncNormalParams(cur, step, support[0], support[1])
    prop_value = sample_trunc_normal(fwd, rng)
    proposal = target.moved(entry.id, entry.set(target.params, prop_value))
    prop_lp, cur_lp = proposal.total, target.total
    u = rng.random()
    if not np.isfinite(prop_lp):
        return target, False
    if not np.isfinite(cur_lp):
        return proposal, True
    rev = TruncNormalParams(prop_value, step, support[0], support[1])
    log_ratio = (
        prop_lp
        - cur_lp
        + trunc_normal_logpdf(cur, rev)
        - trunc_normal_logpdf(prop_value, fwd)
    )
    if math.log(u) < log_ratio:
        return proposal, True
    return target, False


def mh_trans_row(
    target, entry: ParamEntry, steps: np.ndarray, rng: np.random.Generator
):
    """MH update of one uniformly chosen transition-matrix row (K >= 2).

    entry is the ROW_ID entry of model.param_table.  The first K-1
    entries of the row are proposed sequentially from truncated Normals
    with SDs steps[j], whose upper bounds keep the running sum below 1;
    the last entry closes the row deterministically.  target is as for
    mh_scalar.  Returns (target at the kept parameters, accepted).
    """
    params = target.params
    matrix = entry.get(params)
    k = params.n_regimes
    row = int(rng.uniform() * k)
    cur_row = matrix[row]
    prop_row = np.empty(k)
    log_q_fwd = 0.0
    log_q_rev = 0.0
    partial_prop = 0.0
    partial_cur = 0.0
    for j in range(k - 1):
        hi_fwd = 1.0 - partial_prop
        hi_rev = 1.0 - partial_cur
        fwd = TruncNormalParams(cur_row[j], steps[j], 0.0, hi_fwd)
        prop_row[j] = sample_trunc_normal(fwd, rng)
        log_q_fwd += trunc_normal_logpdf(prop_row[j], fwd)
        rev = TruncNormalParams(prop_row[j], steps[j], 0.0, hi_rev)
        log_q_rev += trunc_normal_logpdf(cur_row[j], rev)
        partial_prop += prop_row[j]
        partial_cur += cur_row[j]
    prop_row[k - 1] = 1.0 - partial_prop
    u = rng.random()
    if prop_row[k - 1] <= 0.0:
        return target, False
    matrix = matrix.copy()
    matrix[row] = prop_row
    proposal = target.moved(entry.id, entry.set(params, matrix))
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
    config: SamplerConfig,
    callback=None,
    resume: PgState | None = None,
) -> list[ChainRecord]:
    """Run one particle Gibbs chain and return its retained records.

    Iteration 0 draws the parameters from their priors and the reference
    trajectory from a plain SMC pass; each later iteration refreshes the
    reference through CSMC-AS and then applies the configured number of
    MH sweeps.  Step sizes adapt toward a 30% acceptance rate during
    burn-in and are frozen afterwards.

    `callback`, when given, is invoked with the PgState after every
    iteration (state.record is set on iterations that emitted a record);
    passing a previously captured state as `resume` continues that run
    bit-identically from the next iteration.
    """
    y = np.asarray(y, dtype=float)
    if len(y) < 2:
        raise ValueError("need at least two observations")
    seed = config.seed
    table = param_table(priors.n_regimes, len(priors.ident))
    unknown = sorted(set(config.step_sizes or ()) - set(table))
    if unknown:
        raise ValueError(f"step sizes for unknown parameter ids: {', '.join(unknown)}")

    if resume is None:
        steps = {pid: entry.default_step(priors) for pid, entry in table.items()}
        if config.step_sizes:
            steps.update(config.step_sizes)
        params = draw_params(priors, substream(seed, TAG_INIT, 0))
        try:
            system = run_smc(
                y,
                params,
                priors,
                priors.n_regimes * config.m_per_regime,
                substream(seed, TAG_INIT, 1),
            )
        except DegenerateWeightsError as exc:
            raise DegenerateWeightsError(
                exc.step, "during chain initialization"
            ) from exc
        reference = sample_reference(system, substream(seed, TAG_INIT, 2))
        state = PgState(
            iteration=0,
            params=params,
            reference=reference,
            step_sizes=steps,
            window_counts={pid: [0, 0] for pid in table},
            total_counts={pid: [0, 0] for pid in table},
            n_emitted=0,
            n_degenerate=0,
        )
    else:
        state = resume

    records: list[ChainRecord] = []
    for r in range(state.iteration + 1, config.n_iterations + 1):
        try:
            system = run_csmc_as(
                y,
                state.params,
                priors,
                state.reference,
                config.m_per_regime,
                substream(seed, TAG_CSMC, r),
            )
            state.reference = sample_reference(
                system, substream(seed, TAG_REFERENCE, r)
            )
            log_ml = system.log_marginal
        except DegenerateWeightsError as exc:
            # Keep the previous reference (a rejected latent update) but
            # abort when degeneracy dominates the early iterations.
            state.n_degenerate += 1
            warnings.warn(f"iteration {r}: {exc}; latent update skipped")
            log_ml = -math.inf
            if (
                r <= DEGENERACY_PROBE_ITERS
                and state.n_degenerate > DEGENERACY_PROBE_ITERS * DEGENERACY_ABORT_FRACTION
            ):
                raise RuntimeError(
                    f"{state.n_degenerate} of the first {r} iterations degenerated; "
                    "check priors and precision parameters"
                ) from exc

        target = PosteriorTerms.build(state.reference.path, y, state.params, priors)
        accepted: dict[str, list[bool]] = {pid: [] for pid in table}
        for s in range(config.mh_sweeps_per_iter):
            rng = substream(seed, TAG_MH, r, s)
            for pid, entry in table.items():
                step = state.step_sizes[pid]
                if pid == ROW_ID:
                    row_steps = np.full(priors.n_regimes - 1, step)
                    target, ok = mh_trans_row(target, entry, row_steps, rng)
                else:
                    support = entry.support(priors)
                    target, ok = mh_scalar(target, entry, step, support, rng)
                accepted[pid].append(ok)
        state.params = target.params

        for pid, flags in accepted.items():
            state.window_counts[pid][0] += sum(flags)
            state.window_counts[pid][1] += len(flags)
            if r > config.burn_in:
                state.total_counts[pid][0] += sum(flags)
                state.total_counts[pid][1] += len(flags)

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
            rec = ChainRecord(
                iteration=r,
                params=state.params,
                path=state.reference.path,
                log_marginal=log_ml,
                mh_accepted={pid: tuple(flags) for pid, flags in accepted.items()},
            )
            records.append(rec)
            state.n_emitted += 1
            state.record = rec
        if callback is not None:
            callback(state)

    return records

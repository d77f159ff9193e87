"""Particle Gibbs kernel: conditional-SMC latent updates alternated with
Metropolis-Hastings parameter updates.

Each iteration runs the block-conditional SMC with ancestor sampling
against the previous reference trajectory, draws a fresh reference, then
applies several full MH sweeps over the parameters conditional on that
reference.  Proposals are truncated Normals on each parameter's support,
with the asymmetric-proposal correction (truncation breaks symmetry).
The MH target is the joint log posterior kept as model.PosteriorTerms:
a proposal recomputes only the factor and prior term it touches.

Every random draw of iteration r comes from counter-based streams keyed
by (seed, stage, r, ...), so chains are bit-reproducible and a run can
resume from an iteration boundary with no drift.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .distributions import TruncNormalParams, sample_trunc_normal, trunc_normal_logpdf
from .model import (
    ROW_ID,
    LatentPath,
    ParameterSet,
    PosteriorTerms,
    PriorSpec,
    draw_params,
    get_param,
    modifier_band,
    param_support,
    replace_param,
    scalar_param_ids,
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
    step_sizes maps parameter ids (alpha, beta, gamma, lambda, kappa,
    p or p1..pJ, f2..fK, rows) to proposal standard deviations; missing
    ids fall back to prior-scaled defaults.
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


def default_step_sizes(priors: PriorSpec) -> dict[str, float]:
    """Prior-scaled initial proposal standard deviations."""
    steps = {
        "alpha": 0.5 * priors.alpha.sd,
        "beta": 0.5 * priors.beta.sd,
        "gamma": 0.5 * priors.gamma.sd,
        "lambda": 0.5 * math.sqrt(priors.lambda_.shape) / priors.lambda_.rate,
        "kappa": 0.5 * math.sqrt(priors.kappa.shape) / priors.kappa.rate,
    }
    ident_ids = (
        ["p"] if len(priors.ident) == 1 else [f"p{j+1}" for j in range(len(priors.ident))]
    )
    for pid, prior in zip(ident_ids, priors.ident):
        steps[pid] = 0.5 * prior.sd
    for k in range(1, priors.n_regimes):
        lo, hi = modifier_band(k, priors.n_regimes)
        steps[f"f{k+1}"] = 0.1 * (hi - lo)
    if priors.n_regimes >= 2:
        steps[ROW_ID] = 0.05
    return steps


class _CallableTarget:
    """A log_target(params) callable with the PosteriorTerms interface
    (params, total, moved), so the MH updates serve both."""

    def __init__(self, log_target, params: ParameterSet):
        self.log_target = log_target
        self.params = params
        self.total = log_target(params)

    def moved(self, which: str, params: ParameterSet) -> _CallableTarget:
        return _CallableTarget(self.log_target, params)


def _target(current, path, y, priors, log_target):
    """The MH target at current: cached posterior terms by default."""
    if log_target is None:
        return PosteriorTerms.build(path, y, current, priors)
    return _CallableTarget(log_target, current)


def _mh_scalar(target, which: str, step: float, support, rng: np.random.Generator):
    """One truncated-Normal random-walk update of a scalar parameter.

    Returns (target at the kept parameters, accepted)."""
    cur = get_param(target.params, which)
    fwd = TruncNormalParams(cur, step, support[0], support[1])
    prop_value = sample_trunc_normal(fwd, rng)
    proposal = target.moved(which, replace_param(target.params, which, prop_value))
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


def mh_update_scalar(
    current: ParameterSet,
    which: str,
    path: LatentPath,
    y: np.ndarray,
    priors: PriorSpec,
    step: float,
    rng: np.random.Generator,
    log_target=None,
) -> tuple[ParameterSet, bool]:
    """MH update of one scalar parameter conditional on a latent path.

    The proposal is a truncated Normal centered at the current value,
    bounded to the parameter's support (modifiers use their band).
    log_target(params) defaults to the joint log posterior; tests may
    substitute e.g. a prior-only target.
    """
    target = _target(current, path, y, priors, log_target)
    out, accepted = _mh_scalar(target, which, step, param_support(which, priors), rng)
    return out.params, accepted


def _mh_trans_row(target, steps: np.ndarray, rng: np.random.Generator):
    params = target.params
    k = params.n_regimes
    row = int(rng.uniform() * k)
    cur_row = params.trans_matrix[row]
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
    matrix = params.trans_matrix.copy()
    matrix[row] = prop_row
    proposal = target.moved(ROW_ID, replace(params, trans_matrix=matrix))
    prop_lp, cur_lp = proposal.total, target.total
    if not np.isfinite(prop_lp):
        return target, False
    if not np.isfinite(cur_lp):
        return proposal, True
    if math.log(u) < prop_lp - cur_lp + log_q_rev - log_q_fwd:
        return proposal, True
    return target, False


def mh_update_trans_row(
    current: ParameterSet,
    path: LatentPath,
    y: np.ndarray,
    priors: PriorSpec,
    steps: np.ndarray,
    rng: np.random.Generator,
    log_target=None,
) -> tuple[ParameterSet, bool]:
    """MH update of one uniformly chosen transition-matrix row.

    The first K-1 entries are proposed sequentially from truncated
    Normals whose upper bounds keep the running sum below 1; the last
    entry closes the row deterministically.
    """
    if current.n_regimes < 2:
        return current, False
    target = _target(current, path, y, priors, log_target)
    steps = np.broadcast_to(np.asarray(steps, dtype=float), (current.n_regimes - 1,))
    out, accepted = _mh_trans_row(target, steps, rng)
    return out.params, accepted


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


def tune_step_sizes(
    pilot, step_sizes: dict[str, float], target_rate: float = TARGET_ACCEPT
) -> dict[str, float]:
    """Multiplicatively adjust step sizes toward a target acceptance rate.

    Meant for burn-in pilots only; adapted steps must be frozen before
    the reported portion of a chain to preserve detailed balance.
    """
    if len(pilot) < 200:
        raise ValueError("pilot must contain at least 200 records")
    if not 0.1 < target_rate < 0.6:
        raise ValueError("target_rate must lie in (0.1, 0.6)")
    rates = acceptance_rates(pilot)
    return {
        pid: _adjusted_step(step, rates[pid], target_rate) if pid in rates else step
        for pid, step in step_sizes.items()
    }


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
    ids = scalar_param_ids(priors)
    all_ids = ids + ([ROW_ID] if priors.n_regimes >= 2 else [])

    if resume is None:
        steps = default_step_sizes(priors)
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
            window_counts={pid: [0, 0] for pid in all_ids},
            total_counts={pid: [0, 0] for pid in all_ids},
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
        accepted: dict[str, list[bool]] = {pid: [] for pid in all_ids}
        for s in range(config.mh_sweeps_per_iter):
            rng = substream(seed, TAG_MH, r, s)
            for which in ids:
                support = param_support(which, priors)
                target, ok = _mh_scalar(
                    target, which, state.step_sizes[which], support, rng
                )
                accepted[which].append(ok)
            if priors.n_regimes >= 2:
                row_steps = np.full(
                    priors.n_regimes - 1, state.step_sizes[ROW_ID]
                )
                target, ok = _mh_trans_row(target, row_steps, rng)
                accepted[ROW_ID].append(ok)
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
            state.window_counts = {pid: [0, 0] for pid in all_ids}

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

"""Post-processing of chain records: posterior summaries, Gelman-Rubin
convergence checks, and the score that ranks candidate regime counts.

Nothing here runs the sampler.  `select` fits its candidates through
cli and scores each one's records with score_records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ParameterSet, param_table
from .pg import ChainRecord

# A parameter whose R-hat lies below this passes the convergence check
# that `diagnose` reports on the console and in rhat.csv.
RHAT_GATE = 1.2
# Fewest records per chain for R-hat, and pooled records for a summary.
MIN_RHAT_RECORDS = 10
MIN_SUMMARY_RECORDS = 100


def param_values(params: ParameterSet) -> dict[str, float]:
    """Flatten psi into labeled scalars for reporting.

    Scalar entries carry their model.param_table ids (alpha, ..., p or
    p1..pJ, f2..fK); then, for K >= 2, the transition matrix entry by
    entry as pi_ij with 1-based indices.
    """
    table = param_table(params.n_regimes, len(params.ident_rates))
    out = {pid: entry.get(params) for pid, entry in table.items()}
    if params.n_regimes > 1:
        for i, row in enumerate(params.trans_matrix):
            for j, value in enumerate(row):
                out[f"pi_{i + 1}{j + 1}"] = float(value)
    return out


def _param_columns(records: list[ChainRecord]) -> dict[str, np.ndarray]:
    """Each param_values label as a column over records, then the derived
    r0 = beta / gamma."""
    labels = list(param_values(records[0].params))
    columns = {lab: np.empty(len(records)) for lab in labels}
    for i, rec in enumerate(records):
        vals = param_values(rec.params)
        for lab in labels:
            columns[lab][i] = vals[lab]
    columns["r0"] = columns["beta"] / columns["gamma"]
    return columns


@dataclass(frozen=True)
class ParamStats:
    mean: float
    median: float
    sd: float
    ci_lo: float
    ci_hi: float


@dataclass(frozen=True)
class PosteriorSummary:
    """Pooled posterior summary.

    params maps each label (plus derived r0 = beta/gamma) to its
    statistics; regime_probs[t, k] is the posterior probability of
    regime k at time t; the curve arrays give posterior means and
    equal-tailed 95% bands per time point.
    """

    params: dict[str, ParamStats]
    regime_probs: np.ndarray
    seir_mean: np.ndarray
    seir_lo: np.ndarray
    seir_hi: np.ndarray
    ey_mean: np.ndarray
    ey_lo: np.ndarray
    ey_hi: np.ndarray

    @property
    def n_regimes(self) -> int:
        return self.regime_probs.shape[1]


def _stats(values: np.ndarray) -> ParamStats:
    if np.all(values == values[0]):
        point = float(values[0])
        return ParamStats(point, point, 0.0, point, point)
    lo, med, hi = np.quantile(values, [0.025, 0.5, 0.975])
    return ParamStats(
        mean=float(values.mean()),
        median=float(med),
        sd=float(values.std(ddof=1)) if len(values) > 1 else 0.0,
        ci_lo=float(lo),
        ci_hi=float(hi),
    )


def summarize(chains: list[list[ChainRecord]]) -> PosteriorSummary:
    """Pool post-burn-in records across chains into a posterior summary."""
    if not chains or any(len(c) == 0 for c in chains):
        raise ValueError("summarize needs at least one non-empty chain")
    records = [rec for chain in chains for rec in chain]
    if len(records) < MIN_SUMMARY_RECORDS:
        raise ValueError(f"need at least {MIN_SUMMARY_RECORDS} retained records to summarize")

    stats = {lab: _stats(col) for lab, col in _param_columns(records).items()}

    horizon = len(records[0].path)
    k = records[0].params.n_regimes
    thetas = np.stack([rec.path.thetas for rec in records])
    regimes = np.stack([rec.path.regimes for rec in records])
    regime_probs = np.stack(
        [(regimes == j).mean(axis=0) for j in range(k)], axis=1
    )
    ey = np.stack(
        [
            rec.params.ident_series(horizon) * rec.path.thetas[:, 2]
            for rec in records
        ]
    )
    seir_lo, seir_hi = np.quantile(thetas, [0.025, 0.975], axis=0)
    ey_lo, ey_hi = np.quantile(ey, [0.025, 0.975], axis=0)
    return PosteriorSummary(
        params=stats,
        regime_probs=regime_probs,
        seir_mean=thetas.mean(axis=0),
        seir_lo=seir_lo,
        seir_hi=seir_hi,
        ey_mean=ey.mean(axis=0),
        ey_lo=ey_lo,
        ey_hi=ey_hi,
    )


def gelman_rubin(chains) -> float:
    """Potential scale reduction factor of one scalar across chains.

    chains is an (m, n) array-like of m >= 2 equal-length chains with
    n >= MIN_RHAT_RECORDS.  Raises when the within-chain variance is zero.
    """
    z = np.asarray(chains, dtype=float)
    if z.ndim != 2 or z.shape[0] < 2:
        raise ValueError("need >= 2 equal-length chains")
    m, n = z.shape
    if n < MIN_RHAT_RECORDS:
        raise ValueError(f"chains must have length >= {MIN_RHAT_RECORDS}")
    within = z.var(axis=1, ddof=1).mean()
    if within == 0:
        raise ValueError("within-chain variance is zero")
    between = n * z.mean(axis=1).var(ddof=1)
    return float(math.sqrt(((n - 1) / n * within + between / n) / within))


def rhat_status(value: float) -> str:
    """PASS for an R-hat below RHAT_GATE, FAIL otherwise."""
    return "PASS" if value < RHAT_GATE else "FAIL"


def gelman_rubin_table(chains: list[list[ChainRecord]]) -> dict[str, float]:
    """R-hat per reported parameter across >= 2 chains of records.  A
    parameter that stays constant within every chain, for which
    gelman_rubin raises, gets R-hat inf: rhat_status reports it as FAIL."""
    if len(chains) < 2:
        raise ValueError("Gelman-Rubin needs at least two chains")
    n = min(len(c) for c in chains)
    if n < MIN_RHAT_RECORDS:
        raise ValueError(f"chains must have at least {MIN_RHAT_RECORDS} records each")
    columns = [_param_columns(chain[:n]) for chain in chains]
    table = {}
    for lab in columns[0]:
        z = np.stack([col[lab] for col in columns])
        table[lab] = gelman_rubin(z) if z.var(axis=1, ddof=1).any() else math.inf
    return table


@dataclass(frozen=True)
class SelectionRow:
    n_regimes: int
    log_ml_mean: float
    log_ml_sd: float
    n_records: int
    error: str | None = None


def score_records(records: list[ChainRecord]) -> tuple[float, float]:
    """Mean and SD of the per-iteration marginal log likelihoods.

    The score is the mean of the logs (not the log of the mean), with
    the spread reported across retained iterations.
    """
    lm = np.array([rec.log_marginal for rec in records])
    sd = float(lm.std(ddof=1)) if len(lm) > 1 else 0.0
    return float(lm.mean()), sd

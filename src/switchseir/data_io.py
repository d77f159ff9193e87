"""Data ingestion, simulation scenarios, configuration, and serialization.

File formats.  Delimited files are comma-separated text with numbers
printed to 17 significant digits, so values round-trip exactly; every
one is written by _write_rows (a header line, then one line per row) and
read by _read_rows, which skips blank lines and names the file and line
of a row with the wrong column count.  Cells holding a comma, a double
quote or a line break are double-quoted (the csv module's default).

- case counts (input): two columns ``label,active_count``, header
  optional (a first non-blank row whose count is not a number); counts
  must be finite and within [0, population].  They are divided by the
  population and clamped to (1e-6, 1 - 1e-6).
- proportions (input/output): two columns ``label,y``; values must be
  finite and within [0, 1], and are clamped like counts.
- truth sidecar: ``t,S,E,I,R,regime`` with 1-based t and regimes.
- chain files: one JSON header line, then one JSON record per retained
  iteration; append-friendly.  A resume extends one only when its header
  line is the one a fresh start of the chain would write and it holds
  every record the checkpoint has emitted (truncate_chain), and starts
  one afresh without a checkpoint only when it holds no record
  (refuse_restart).
- checkpoint: single JSON object with the full sampler state: the
  iteration, parameters, reference path, each MH id's step size and
  adaptation window, and the emitted and degenerate counts.  What it
  does not use is ignored: the total_counts and reference lineage of
  older checkpoints, and their rows step size and window, from when the
  transition rows had an MH move (pg now draws them exactly).
  load_checkpoint checks it against the run and the chain it resumes.
- summary table: ``parameter,mean,median,sd,ci_lo,ci_hi``.
- regime curves: ``t,label,p_regime_1..K,y_obs,Ey_mean,Ey_lo,Ey_hi``.
- SEIR curves: ``t,S_mean,S_lo,S_hi,...,R_hi``.
- model selection: ``K,log_ml_mean,log_ml_sd``.
- R-hat table: ``parameter,rhat,status``; status is
  diagnostics.rhat_status (PASS below diagnostics.RHAT_GATE).
- particle dump: ``t,particle,regime,S,E,I,R,log_weight,norm_weight,
  ancestor`` (ancestor is -1 at t=1).

Run configuration: a JSON object of these blocks (parse_config); an
unknown block or key, a missing key, or a value of the wrong type or
range, is an error that names it as ``block.key``.  Every number must be
finite: json reads NaN and Infinity, and the config refuses them.

- model: ``n_regimes`` (integer K >= 1) and ``ident_change_times``
  (1-based steps where the identification rate changes, starting with
  1 and increasing, none past the last step of the series; default
  ``[1]``).
- priors: ``alpha``, ``beta``, ``gamma`` and one ``ident`` entry per
  change time are truncated Normals ``{mean, sd, lower, upper}`` (sd > 0,
  lower < upper; bounds default to 0 and infinity).  Each support lies
  in its parameter's domain: lower >= 0 for alpha, beta and gamma, and
  both ident bounds within [0, 1], so an ident entry needs its upper
  bound.  ``lambda`` and ``kappa`` are Gammas ``{shape, rate}`` (both
  positive); optional ``rows`` (Dirichlet rows of K positive
  concentrations: K rows for K >= 2 and none for K = 1; default 10 on
  the diagonal and 1 elsewhere) and ``theta1`` (4 positive
  concentrations, default ``[100, 1, 1, 1]``).
- sampler: the fields of pg.SamplerConfig; ``n_iterations``,
  ``burn_in`` (below ``n_iterations``), ``m_per_regime`` and ``seed``
  are required.  MH proposal scales are not configured: pg starts them
  from the priors and adapts them during burn-in.
- data: ``path`` (relative to the config file), ``format`` (``counts``,
  the default, with ``population`` and ``aggregation`` ``none`` or
  ``weekly``; or ``proportions``, which refuses those two counts keys).
  The series it names needs at least two observations, counted after
  aggregation.
- output (optional): ``directory`` (default ``out``) and
  ``dump_particles`` (default false).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from .diagnostics import rhat_status
from .distributions import DirichletParams, GammaParams, TruncNormalParams
from .model import (
    OBS_EPS,
    LatentPath,
    ParameterSet,
    PriorFieldError,
    PriorSpec,
    param_table,
    simulate_dataset,
)
from .pg import ChainRecord, PgState, SamplerConfig
from .rng import TAG_SIM, substream
from .smc import ParticleSystem, check_reference

CHAIN_SCHEMA = 1


class InputError(ValueError):
    """An input that cannot be used: an invalid or incomplete run
    configuration, or a data, chain or checkpoint file that cannot be
    opened, read or loaded.  The message names the config key or the
    file."""


@contextmanager
def _input_file(path, **open_args):
    """open(path) for reading; an OSError from opening or reading the
    file is an InputError naming it."""
    try:
        with open(path, **open_args) as fh:
            yield fh
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None


def _reason(exc: Exception) -> str:
    """What a KeyError, TypeError or ValueError says went wrong."""
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


def fmt(x) -> str:
    """Render a number with 17 significant digits (exact float round trip)."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


@dataclass(frozen=True)
class Dataset:
    """An observed series of infectious proportions."""

    times: tuple[str, ...]
    y: np.ndarray

    def __post_init__(self):
        yy = np.asarray(self.y, dtype=float)
        if len(self.times) != len(yy):
            raise ValueError("times and y lengths differ")
        if not np.all((yy > 0) & (yy < 1)):  # NaN fails both comparisons
            raise ValueError("proportions must lie strictly inside (0, 1)")
        yy.setflags(write=False)
        object.__setattr__(self, "y", yy)
        object.__setattr__(self, "times", tuple(str(t) for t in self.times))

    @property
    def horizon(self) -> int:
        return len(self.y)


def _read_rows(path, n_columns: int):
    """(line number, stripped cells) of every non-blank row of a
    comma-delimited file, quoted cells unquoted; raises ValueError naming
    the file and line of a row with another column count."""
    with _input_file(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                if len(row) <= 1 and not "".join(row).strip():
                    continue
                if len(row) != n_columns:
                    raise ValueError(
                        f"{path}: line {reader.line_num}: expected {n_columns} columns")
                yield reader.line_num, [cell.strip() for cell in row]
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None


def _write_rows(path, header: list[str], rows) -> None:
    """Write a header line, then one line per row of cells: strings as
    they are (quoted where needed), numbers through fmt."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([c if isinstance(c, str) else fmt(c) for c in row] for row in rows)


def _read_series(path, what: str, upper: float, upper_name: str):
    """Labels and values of a label,value file whose values lie in
    [0, upper]; a first non-blank row whose value is not a number is a
    header."""
    labels: list[str] = []
    values: list[float] = []
    for i, (lineno, (label, raw)) in enumerate(_read_rows(path, 2)):
        try:
            value = float(raw)
        except ValueError:
            if i == 0:
                continue  # header row
            raise ValueError(f"{path}: line {lineno}: non-numeric {what} {raw!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{path}: line {lineno}: non-finite {what} {raw!r}")
        if value < 0:
            raise ValueError(f"{path}: line {lineno}: negative {what}")
        if value > upper:
            raise ValueError(f"{path}: line {lineno}: {what} exceeds {upper_name}")
        labels.append(label)
        values.append(value)
    if not values:
        raise ValueError(f"{path}: no data rows")
    return labels, np.asarray(values)


def load_counts(path, population: float, aggregation: str = "none") -> Dataset:
    """Read a label,active_count file into clamped infectious proportions.

    aggregation="weekly" averages consecutive chunks of up to 7 daily
    rows into one weekly value; only the config, which fit copies into
    manifest.json, records the rule.
    """
    if aggregation not in ("none", "weekly"):
        raise ValueError("aggregation must be 'none' or 'weekly'")
    if not population > 0:
        raise ValueError("population must be positive")
    labels, series = _read_series(path, "count", population, "population")
    if aggregation == "weekly":
        weekly = [series[i : i + 7].mean() for i in range(0, len(series), 7)]
        labels = [labels[i] for i in range(0, len(series), 7)]
        series = np.asarray(weekly)
    y = np.clip(series / population, OBS_EPS, 1.0 - OBS_EPS)
    return Dataset(tuple(labels), y)


def load_proportions(path) -> Dataset:
    """Read a label,proportion file (clamped to the open interval)."""
    labels, values = _read_series(path, "proportion", 1.0, "1")
    return Dataset(tuple(labels), np.clip(values, OBS_EPS, 1.0 - OBS_EPS))


# --- simulation scenarios ---------------------------------------------------

# Each scenario's horizon, true parameters and lambda prior.
SCENARIOS = {
    "two-regime": (
        150,
        ParameterSet(alpha=1.0 / 3.0, beta=0.39, gamma=0.18, lambda_=2500.0, kappa=5500.0,
                     ident_rates=((0.25, 0),), trans_matrix=((0.9, 0.1), (0.1, 0.9)),
                     modifiers=(1.0, 0.1)),
        GammaParams(2.0, 0.001),
    ),
    "three-regime": (
        175,
        ParameterSet(alpha=0.3, beta=0.5, gamma=0.2, lambda_=2000.0, kappa=8000.0,
                     ident_rates=((0.25, 0),),
                     trans_matrix=((0.94, 0.03, 0.03), (0.03, 0.94, 0.03), (0.03, 0.03, 0.94)),
                     modifiers=(1.0, 0.6, 0.05)),
        GammaParams(20.0, 0.01),
    ),
}
# The initial pair (theta_1, x_1) of every scenario's simulation.
_SCENARIO_START = ((0.99, 0.001, 0.003, 0.006), 0)
# The fitting priors of every scenario; scenario_priors sets the regime
# count and the lambda prior.
_SCENARIO_PRIORS = PriorSpec(
    n_regimes=1,
    alpha=TruncNormalParams(0.3, 0.1, 0.0, math.inf),
    beta=TruncNormalParams(0.4, 0.1, 0.0, math.inf),
    gamma=TruncNormalParams(0.2, 0.1, 0.0, math.inf),
    lambda_=GammaParams(2.0, 0.001),
    kappa=GammaParams(200.0, 0.01),
    ident=(TruncNormalParams(0.25, 0.05, 0.1, 0.4),),
    row_concentrations=(),
)


def _scenario(name: str) -> tuple:
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; have {sorted(SCENARIOS)}")
    return SCENARIOS[name]


def scenario_priors(name: str) -> PriorSpec:
    """Fitting priors matching a named scenario's regime count."""
    _, params, lambda_prior = _scenario(name)
    return replace(priors_for_k(_SCENARIO_PRIORS, params.n_regimes), lambda_=lambda_prior)


def diagonal_row_priors(n_regimes: int) -> tuple:
    """Stay-favoring Dirichlet row priors (concentration 10 on the
    diagonal, 1 elsewhere); empty for a single-regime model."""
    if n_regimes == 1:
        return ()
    return tuple(
        tuple(10.0 if i == j else 1.0 for j in range(n_regimes))
        for i in range(n_regimes)
    )


def priors_for_k(base: PriorSpec, n_regimes: int) -> PriorSpec:
    """Re-target a prior specification at a different regime count.

    Scalar priors are kept; row priors follow the stay-favoring rule and
    modifier bands are implied by the regime count.
    """
    return replace(
        base, n_regimes=n_regimes, row_concentrations=diagonal_row_priors(n_regimes)
    )


def generate_simulation(scenario: str, seed: int = 0) -> tuple[Dataset, LatentPath, ParameterSet]:
    """Simulate a dataset from a named scenario; returns the series, the
    latent path and the scenario's true parameters."""
    horizon, params, _ = _scenario(scenario)
    rng = substream(seed, TAG_SIM)
    y, path = simulate_dataset(params, scenario_priors(scenario), horizon, rng,
                               initial=_SCENARIO_START)
    return Dataset(tuple(str(t + 1) for t in range(horizon)), y), path, params


# --- JSON serialization of model objects ------------------------------------


def params_to_dict(params: ParameterSet) -> dict:
    return {
        "alpha": float(params.alpha),
        "beta": float(params.beta),
        "gamma": float(params.gamma),
        "lambda": float(params.lambda_),
        "kappa": float(params.kappa),
        "ident_rates": [[float(p), int(s)] for p, s in params.ident_rates],
        "trans_matrix": [[float(v) for v in row] for row in params.trans_matrix],
        "modifiers": [float(v) for v in params.modifiers],
    }


def params_from_dict(d: dict) -> ParameterSet:
    return ParameterSet(
        alpha=d["alpha"],
        beta=d["beta"],
        gamma=d["gamma"],
        lambda_=d["lambda"],
        kappa=d["kappa"],
        ident_rates=tuple((p, s) for p, s in d["ident_rates"]),
        trans_matrix=np.asarray(d["trans_matrix"]),
        modifiers=np.asarray(d["modifiers"]),
    )


def path_to_dict(path: LatentPath) -> dict:
    return {
        "thetas": path.thetas.tolist(),
        "regimes": path.regimes.tolist(),
    }


def path_from_dict(d: dict) -> LatentPath:
    return LatentPath(np.asarray(d["thetas"]), np.asarray(d["regimes"]))


def priors_to_dict(priors: PriorSpec) -> dict:
    def tn(p: TruncNormalParams) -> dict:
        out = {"mean": p.mean, "sd": p.sd}
        if math.isfinite(p.lower):
            out["lower"] = p.lower
        if math.isfinite(p.upper):
            out["upper"] = p.upper
        return out

    return {
        "alpha": tn(priors.alpha),
        "beta": tn(priors.beta),
        "gamma": tn(priors.gamma),
        "lambda": {"shape": priors.lambda_.shape, "rate": priors.lambda_.rate},
        "kappa": {"shape": priors.kappa.shape, "rate": priors.kappa.rate},
        "ident": [tn(p) for p in priors.ident],
        "rows": [list(row) for row in priors.row_concentrations],
        "theta1": [float(v) for v in priors.theta1.concentration],
    }


def priors_from_dict(d: dict, n_regimes: int, ident_start_times=(0,)) -> PriorSpec:
    """The PriorSpec of a config priors block (schema in the module
    docstring) for a run of n_regimes regimes and 0-based ident start
    times.  Raises InputError naming the config key of a missing value
    or of one that a constructor rejects."""
    def tn(e: dict) -> TruncNormalParams:
        return TruncNormalParams(e["mean"], e["sd"], e.get("lower", 0.0), e.get("upper", math.inf))

    def gamma(e: dict) -> GammaParams:
        return GammaParams(e["shape"], e["rate"])

    def rows(value: list) -> tuple:
        return tuple(tuple(float(c) for c in row) for row in value)

    fields = {"n_regimes": n_regimes, "ident_start_times": tuple(ident_start_times),
              "row_concentrations": diagonal_row_priors(n_regimes)}
    for key, name, build in (
        ("alpha", "alpha", tn), ("beta", "beta", tn), ("gamma", "gamma", tn),
        ("lambda", "lambda_", gamma), ("kappa", "kappa", gamma),
        ("ident", "ident", lambda v: tuple(map(tn, v))),
        ("rows", "row_concentrations", rows), ("theta1", "theta1", DirichletParams),
    ):
        if key not in d:
            if key in ("rows", "theta1"):
                continue  # PriorSpec's default, or the diagonal rows above
            raise InputError(f"missing config key priors.{key}")
        try:
            fields[name] = build(d[key])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"priors.{key}: {_reason(exc)}") from None
    try:
        return PriorSpec(**fields)
    except PriorFieldError as exc:
        key = {"ident_start_times": "model.ident_change_times",
               "row_concentrations": "priors.rows"}.get(exc.field, f"priors.{exc.field}")
        raise InputError(f"{key}: {exc}") from None


# --- chain files -------------------------------------------------------------


def chain_header(n_regimes: int, horizon: int, config_hash: str, seed: int) -> dict:
    return {
        "kind": "switchseir-chain",
        "schema": CHAIN_SCHEMA,
        "n_regimes": n_regimes,
        "horizon": horizon,
        "config_hash": config_hash,
        "seed": seed,
    }


def record_to_dict(rec: ChainRecord) -> dict:
    return {
        "iteration": rec.iteration,
        "log_marginal": float(rec.log_marginal),
        "params": params_to_dict(rec.params),
        "path": path_to_dict(rec.path),
        "accepted": {pid: list(map(bool, f)) for pid, f in rec.mh_accepted.items()},
    }


def record_from_dict(d: dict) -> ChainRecord:
    return ChainRecord(
        iteration=d["iteration"],
        params=params_from_dict(d["params"]),
        path=path_from_dict(d["path"]),
        log_marginal=d["log_marginal"],
        mh_accepted={pid: tuple(f) for pid, f in d["accepted"].items()},
    )


def _json_line(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), allow_nan=True) + "\n"


def write_chain(path, header: dict) -> None:
    """Start a chain file: its header line; append_chain_record adds the
    records."""
    with open(path, "w") as fh:
        fh.write(_json_line(header))


def append_chain_record(fh, rec: ChainRecord) -> None:
    fh.write(_json_line(record_to_dict(rec)))
    fh.flush()


def _check_schema(path, d, kind: str) -> None:
    """Raise InputError unless d is an object of this kind and schema."""
    if not isinstance(d, dict) or d.get("kind") != f"switchseir-{kind}":
        raise InputError(f"{path}: not a {kind} file")
    if d.get("schema") != CHAIN_SCHEMA:
        raise InputError(
            f"{path}: schema version {d.get('schema')} unsupported "
            f"(expected {CHAIN_SCHEMA})"
        )


def read_chain(path) -> tuple[dict, list[ChainRecord]]:
    """Read a chain file; raises InputError naming the file, and for a
    truncated or corrupt record its number and the last complete one.
    Each record's path must have the header's horizon and regime count
    and states on the open simplex."""
    with _input_file(path) as fh:
        lines = fh.readlines()
    if not lines:
        raise InputError(f"{path}: empty chain file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError:
        raise InputError(f"{path}: unreadable header") from None
    _check_schema(path, header, "chain")
    records = []
    for i, line in enumerate(lines[1:], start=1):
        if not line.strip():
            continue
        try:
            rec = record_from_dict(json.loads(line))
            if rec.params.n_regimes != header["n_regimes"]:
                raise ValueError(f"parameters for {rec.params.n_regimes} regimes")
            check_reference(rec.path, header["horizon"], header["n_regimes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(
                f"{path}: record {i} unreadable ({_reason(exc)}); last "
                f"complete record is {i - 1}"
            ) from None
        records.append(rec)
    return header, records


def _chain_lines(path) -> tuple[list[str], int]:
    """The lines of a chain file and the number of complete records it
    holds: lines after the header that end in a newline, so a record cut
    mid-line is not counted."""
    with _input_file(path) as fh:
        lines = fh.readlines()
    return lines, sum(line.endswith("\n") for line in lines[1:])


def refuse_restart(path, checkpoint_path) -> None:
    """Raise InputError naming a chain file and its checkpoint when the
    file holds a complete record: a resume without the checkpoint would
    start the chain afresh and overwrite them.  A file holding its
    header alone (a chain stopped before its first checkpoint) passes."""
    held = _chain_lines(path)[1]
    if held:
        raise InputError(f"{path}: chain file holds {held} records and its checkpoint "
                         f"{checkpoint_path} is missing")


def truncate_chain(path, header: dict, n_records: int) -> None:
    """Cut a chain file back to its header and first n_records records,
    to resume a checkpoint that has emitted n_records.  Raises InputError
    naming the file, and leaves it unchanged, unless its header line is
    the one write_chain(path, header) writes and it holds at least
    n_records complete records."""
    lines, held = _chain_lines(path)
    if lines[:1] != [_json_line(header)]:
        raise InputError(f"{path}: chain header differs from the chain being resumed "
                         f"(config hash {header['config_hash']}, seed {header['seed']})")
    if held < n_records:
        raise InputError(f"{path}: chain file holds {held} records, its checkpoint "
                         f"has emitted {n_records}")
    with open(path, "w") as fh:
        fh.writelines(lines[: n_records + 1])


# --- checkpoints -------------------------------------------------------------


def state_to_dict(state: PgState, config_hash: str, seed: int) -> dict:
    return {
        "kind": "switchseir-checkpoint",
        "schema": CHAIN_SCHEMA,
        "config_hash": config_hash,
        "seed": seed,
        "iteration": state.iteration,
        "params": params_to_dict(state.params),
        "reference": {"path": path_to_dict(state.reference)},
        "step_sizes": {k: float(v) for k, v in state.step_sizes.items()},
        "window_counts": state.window_counts,
        "n_emitted": state.n_emitted,
        "n_degenerate": state.n_degenerate,
    }


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _state_from_dict(d: dict, priors: PriorSpec, horizon: int) -> PgState:
    """load_checkpoint's state; raises KeyError, TypeError or ValueError."""
    params = params_from_dict(d["params"])
    starts = tuple(s for _, s in params.ident_rates)
    if params.n_regimes != priors.n_regimes or starts != priors.ident_start_times:
        raise ValueError(f"parameters for K={params.n_regimes}, p segments at {starts}; the "
                         f"run has K={priors.n_regimes}, p segments at {priors.ident_start_times}")
    ref = path_from_dict(d["reference"]["path"])
    check_reference(ref, horizon, priors.n_regimes)
    ids = set(param_table(priors.n_regimes, len(priors.ident)))
    # Older checkpoints also hold the rows entry of a removed MH move.
    steps, windows = ({k: v for k, v in m.items() if k != "rows"} if isinstance(m, dict) else m
                      for m in (d["step_sizes"], d["window_counts"]))
    if not (isinstance(steps, dict) and isinstance(windows, dict)
            and set(steps) == set(windows) == ids):
        raise ValueError(f"step_sizes and window_counts must map the MH ids {sorted(ids)}")
    if not all(type(v) in (int, float) and 0 < v < math.inf for v in steps.values()):
        raise ValueError("step sizes must be finite and strictly positive")
    counts = [d["iteration"], d["n_emitted"], d["n_degenerate"]]
    if not (all(map(_is_count, counts + [c for w in windows.values() for c in w]))
            and all(len(w) == 2 for w in windows.values())):
        raise ValueError("iteration, n_emitted, n_degenerate and each window's "
                         "two counts must be integers >= 0")
    return PgState(
        iteration=d["iteration"],
        params=params,
        reference=ref,
        step_sizes=dict(steps),
        window_counts={k: list(w) for k, w in windows.items()},
        n_emitted=d["n_emitted"],
        n_degenerate=d["n_degenerate"],
    )


def write_checkpoint(path, state: PgState, config_hash: str, seed: int) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(_json_line(state_to_dict(state, config_hash, seed)))
    os.replace(tmp, path)


def read_checkpoint(path) -> dict:
    """A checkpoint file as written; raises InputError naming the file
    unless it is JSON of the checkpoint kind and the current schema."""
    with _input_file(path) as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: not valid JSON ({exc})") from None
    _check_schema(path, d, "checkpoint")
    return d


def load_checkpoint(path, priors: PriorSpec, horizon: int, config_hash: str,
                    seed: int) -> PgState:
    """The sampler state of a checkpoint file, to resume the chain of the
    given seed in a run of the given priors on a series of horizon steps.
    Raises InputError naming the file for another configuration's or
    another chain's checkpoint, a missing key, or a wrong type or value
    (the reference path by smc.check_reference)."""
    d = read_checkpoint(path)
    if d.get("config_hash") != config_hash:
        raise InputError(f"{path}: checkpoint belongs to a different configuration")
    if d.get("seed") != seed:
        raise InputError(f"{path}: checkpoint belongs to the chain of seed "
                         f"{d.get('seed')!r}, not {seed}")
    try:
        return _state_from_dict(d, priors, horizon)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: invalid checkpoint: {_reason(exc)}") from None


# --- run configuration -------------------------------------------------------


def _number(value) -> bool:
    """A JSON number within the float range: an int or a float, not a
    bool, NaN, an infinity or an integer of larger magnitude than the
    largest float."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _fields(value, required: set, optional=frozenset()) -> bool:
    """An object of numbers with the required keys and optional ones."""
    return (isinstance(value, dict) and required <= value.keys() <= required | optional
            and all(map(_number, value.values())))


def _list_of(check):
    return lambda v: isinstance(v, list) and all(map(check, v))


def _integer(least: int):
    return lambda v: _is_count(v) and v >= least, f"an integer >= {least}"


def _one_of(*choices):
    return lambda v: v in choices, " or ".join(map(repr, choices))


def _trunc_normal(value) -> bool:
    return _fields(value, {"mean", "sd"}, {"lower", "upper"})


_TRUNC_NORMAL = _trunc_normal, "an object of numbers mean, sd and optional lower, upper"
_GAMMA = lambda v: _fields(v, {"shape", "rate"}), "an object of numbers shape, rate"
_STRING = lambda v: isinstance(v, str), "a string"

# The keys each config block may hold, each with the check of its value
# and what the check expects, in the order parse_config checks them.
_CONFIG_KEYS = {
    "model": {
        "n_regimes": _integer(1),
        "ident_change_times": (lambda v: _list_of(_is_count)(v) and v[:1] == [1],
                               "a list of integers starting with 1"),
    },
    "priors": {
        "alpha": _TRUNC_NORMAL, "beta": _TRUNC_NORMAL, "gamma": _TRUNC_NORMAL,
        "lambda": _GAMMA, "kappa": _GAMMA,
        "ident": (_list_of(_trunc_normal),
                  "a list of objects of numbers mean, sd and optional lower, upper"),
        "rows": (_list_of(_list_of(_number)), "a list of lists of numbers"),
        "theta1": (_list_of(_number), "a list of numbers"),
    },
    "sampler": {
        "n_iterations": _integer(1), "burn_in": _integer(0), "m_per_regime": _integer(2),
        "seed": _integer(0), "mh_sweeps_per_iter": _integer(1), "thin": _integer(1),
    },
    "data": {
        "path": _STRING,
        "population": (lambda v: _number(v) and v > 0, "a positive number"),
        "aggregation": _one_of("none", "weekly"),
        "format": _one_of("counts", "proportions"),
    },
    "output": {"directory": _STRING,
               "dump_particles": (lambda v: type(v) is bool, "true or false")},
}

# The keys a config block must hold; the others have defaults.
_REQUIRED_KEYS = {"model": ("n_regimes",),
                  "sampler": tuple(f.name for f in fields(SamplerConfig) if f.default is MISSING),
                  "data": ("path",)}

# The output directory of a run whose config names none.
DEFAULT_OUT = "out"


@dataclass(frozen=True)
class RunConfig:
    """Parsed and validated run configuration."""

    n_regimes: int
    priors: PriorSpec
    sampler: SamplerConfig
    data: dict
    output: dict
    raw: dict


def config_hash(raw: dict) -> str:
    """Hash of everything that must match for chains to be comparable.

    The iteration count is excluded so a finished short run can be
    resumed to a longer one.
    """
    hashed = {
        "model": raw.get("model"),
        "priors": raw.get("priors"),
        "sampler": {
            k: v
            for k, v in raw.get("sampler", {}).items()
            if k != "n_iterations"
        },
        "data": raw.get("data"),
    }
    blob = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def parse_config(raw: dict) -> RunConfig:
    """Validate a config dict (schema in the module docstring): each key's
    value by its check in _CONFIG_KEYS, then what involves several keys."""
    for block in raw:
        if block not in _CONFIG_KEYS:
            raise InputError(f"unknown config block {block!r}")
    for block in ("model", "priors", "sampler", "data"):
        if block not in raw:
            raise InputError(f"missing config block {block!r}")
    for block, checks in _CONFIG_KEYS.items():
        entries = raw.get(block, {})
        if not isinstance(entries, dict):
            raise InputError(f"config block {block!r} must be a JSON object")
        for key, value in entries.items():
            if key not in checks:
                raise InputError(f"unknown config key {block}.{key}")
            check, expected = checks[key]
            if not check(value):
                raise InputError(f"{block}.{key} must be {expected}, got {value!r}")

    for block, keys in _REQUIRED_KEYS.items():
        for key in keys:
            if key not in raw[block]:
                raise InputError(f"missing config key {block}.{key}")
    model = raw["model"]
    n_regimes = model["n_regimes"]
    starts = tuple(t - 1 for t in model.get("ident_change_times", [1]))

    priors = priors_from_dict(raw["priors"], n_regimes, starts)

    try:
        sampler = SamplerConfig(**raw["sampler"])
    except ValueError as exc:  # the key checks leave SamplerConfig's burn_in rule only
        raise InputError(f"sampler.burn_in: {exc}") from None

    data = {"format": "counts", **raw["data"]}
    if data["format"] == "counts" and "population" not in data:
        raise InputError("missing config key data.population")
    for key in ("aggregation", "population"):
        if data["format"] == "proportions" and key in data:
            raise InputError(f"data.{key}: a proportions series takes no {key}")
    data.setdefault("aggregation", "none")

    output = dict(raw.get("output", {}))
    output.setdefault("directory", DEFAULT_OUT)
    output.setdefault("dump_particles", False)
    return RunConfig(n_regimes, priors, sampler, data, output, raw)


def load_config(path) -> RunConfig:
    with _input_file(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: not valid JSON ({exc})") from None
    return parse_config(raw)


def load_dataset(data_block: dict, base_dir=".") -> Dataset:
    """Load the observation series named by the data block of a
    parse_config result, its path relative to base_dir; a file or value
    the loaders reject raises InputError."""
    path = os.path.join(base_dir, data_block["path"])
    try:
        if data_block["format"] == "proportions":
            return load_proportions(path)
        return load_counts(path, float(data_block["population"]), data_block["aggregation"])
    except ValueError as exc:
        raise InputError(str(exc)) from None


# --- output writers ----------------------------------------------------------


def write_dataset(path, dataset: Dataset) -> None:
    _write_rows(path, ["label", "y"], zip(dataset.times, dataset.y))


def write_truth(path, latent: LatentPath) -> None:
    _write_rows(
        path,
        ["t", "S", "E", "I", "R", "regime"],
        ([t + 1, *latent.thetas[t], int(latent.regimes[t]) + 1] for t in range(len(latent))),
    )


def read_truth(path) -> LatentPath:
    rows = [cells for _, cells in _read_rows(path, 6)][1:]
    thetas = [[float(v) for v in cells[1:5]] for cells in rows]
    regimes = [int(cells[5]) - 1 for cells in rows]
    return LatentPath(np.asarray(thetas), np.asarray(regimes))


def write_summary_table(path, summary) -> None:
    _write_rows(
        path,
        ["parameter", "mean", "median", "sd", "ci_lo", "ci_hi"],
        ([name, st.mean, st.median, st.sd, st.ci_lo, st.ci_hi]
         for name, st in summary.params.items()),
    )


def write_regime_curves(path, summary, dataset: Dataset) -> None:
    header = ["t", "label"]
    header += [f"p_regime_{j + 1}" for j in range(summary.n_regimes)]
    header += ["y_obs", "Ey_mean", "Ey_lo", "Ey_hi"]
    _write_rows(
        path,
        header,
        ([t + 1, dataset.times[t], *summary.regime_probs[t], dataset.y[t],
          summary.ey_mean[t], summary.ey_lo[t], summary.ey_hi[t]]
         for t in range(dataset.horizon)),
    )


def write_seir_curves(path, summary) -> None:
    header = ["t"] + [f"{name}_{stat}" for name in "SEIR" for stat in ("mean", "lo", "hi")]
    # (T, 4 compartments, 3 statistics), flattened compartment by compartment.
    cells = np.stack([summary.seir_mean, summary.seir_lo, summary.seir_hi], axis=-1)
    _write_rows(path, header, ([t + 1, *row.ravel()] for t, row in enumerate(cells)))


def write_selection_table(path, rows) -> None:
    _write_rows(
        path,
        ["K", "log_ml_mean", "log_ml_sd"],
        ([row.n_regimes, row.log_ml_mean, row.log_ml_sd] for row in rows),
    )


def write_rhat_table(path, rhats: dict) -> None:
    _write_rows(
        path,
        ["parameter", "rhat", "status"],
        ([name, value, rhat_status(value)] for name, value in rhats.items()),
    )


def dump_particle_system(path, system: ParticleSystem) -> None:
    """Columnar debugging dump of a particle system (schema in module doc)."""
    header = ["t", "particle", "regime", "S", "E", "I", "R"]
    header += ["log_weight", "norm_weight", "ancestor"]
    _write_rows(
        path,
        header,
        ([t + 1, i + 1, int(system.regimes[t, i]) + 1, *system.thetas[t, i],
          system.log_weights[t, i], system.norm_weights[t, i],
          int(system.ancestors[t - 1, i]) if t > 0 else -1]
         for t in range(system.n_steps) for i in range(system.n_particles)),
    )

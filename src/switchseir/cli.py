"""Command-line entry point.

Subcommands: simulate, fit, select, diagnose, summarize.  Progress goes
to standard error; all data goes to files, keeping standard output clean
for piping.  The commands return nothing and raise on failure; main
alone sets the exit code: 0 success, 2 a usage error that argparse
reports (a missing or unknown option, --scenario not a scenario name,
--chains, --jobs or a --K entry not an integer >= 1, a --K list with a
repeat, --seed not an integer >= 0) or an InputError (a config, data,
chain or checkpoint file that is missing, cannot be read or is invalid;
the message names the file or config key), and 1 any other failure, an
output file that cannot be written included.

Every command writes its files to --out.  Without it, fit, select and
summarize write to the config's output.directory (default out), and
simulate and diagnose to out.

fit runs chain i (i = 0 .. --chains - 1) with seed sampler.seed + i and
writes, for each chain:

- chain_<i>.jsonl: a header line, then one record per retained
  iteration, appended as the chain runs;
- chain_<i>.ckpt.json: the sampler state, rewritten every iteration;
- particles_<i>.csv, when output.dump_particles is on: a bootstrap
  filter pass at the last record's parameters.

Then manifest.json lists the config, its hash and each chain's seed and
file.  fit --resume continues every chain whose checkpoint exists from
that checkpoint, after cutting its chain file back to the records the
checkpoint has emitted, and starts every other chain afresh.  It exits
2 naming the chain file, and leaves the file unchanged, when the file's
header is not the one a fresh start of that chain would write (a chain
file of another run or chain), when the file holds fewer records than
the checkpoint has emitted, or when the file holds a record and the
checkpoint is missing (then the message names both files).

select fits every candidate K under the stay-favoring row prior of
data_io.priors_for_k (concentration 10 on the diagonal, 1 elsewhere),
whatever priors.rows holds; the other priors and the sampler settings
are the config's, with the seed offset by K.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import asdict, replace
from functools import partial

import numpy as np

from . import __version__
from .data_io import (
    DEFAULT_OUT,
    SCENARIOS,
    InputError,
    append_chain_record,
    chain_header,
    config_hash,
    dump_particle_system,
    generate_simulation,
    load_checkpoint,
    load_config,
    load_dataset,
    params_to_dict,
    parse_config,
    priors_for_k,
    priors_to_dict,
    read_chain,
    refuse_restart,
    scenario_priors,
    truncate_chain,
    write_chain,
    write_checkpoint,
    write_dataset,
    write_regime_curves,
    write_rhat_table,
    write_seir_curves,
    write_selection_table,
    write_summary_table,
    write_truth,
)
from .diagnostics import (
    MIN_RHAT_RECORDS,
    MIN_SUMMARY_RECORDS,
    SelectionRow,
    gelman_rubin_table,
    rhat_status,
    score_records,
    summarize,
)
from .pg import SamplerConfig, acceptance_rates, run_pg
from .rng import TAG_INIT, substream
from .smc import run_smc

PROGRESS_EVERY = 200


def _err(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_run(args):
    """(config, output directory, series) of a fit, select or summarize
    run: the config of --config with fit's --seed applied, --out or the
    config's output.directory, and the data file, its path relative to
    the config file.  Raises InputError for a series of fewer than two
    observations or a change time past its last step."""
    config = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        config.raw["sampler"]["seed"] = args.seed
        config = parse_config(config.raw)
    base_dir = os.path.dirname(os.path.abspath(args.config))
    dataset = load_dataset(config.data, base_dir)
    data_path = os.path.join(base_dir, config.data["path"])
    if dataset.horizon < 2:
        raise InputError(f"{data_path}: one observation, need at least two")
    last = config.priors.ident_start_times[-1] + 1
    if last > dataset.horizon:
        raise InputError(f"model.ident_change_times: change time {last} lies past the "
                         f"{dataset.horizon} steps of {data_path}")
    return config, args.out or config.output["directory"], dataset


def cmd_simulate(args) -> None:
    out = args.out or DEFAULT_OUT
    os.makedirs(out, exist_ok=True)
    dataset, latent, params = generate_simulation(args.scenario, seed=args.seed)
    write_dataset(os.path.join(out, "dataset.csv"), dataset)
    write_truth(os.path.join(out, "truth.csv"), latent)
    with open(os.path.join(out, "truth_params.json"), "w") as fh:
        json.dump(params_to_dict(params), fh, indent=1, sort_keys=True)
        fh.write("\n")
    priors = scenario_priors(args.scenario)
    config = {
        "model": {"n_regimes": priors.n_regimes, "ident_change_times": [1]},
        "priors": priors_to_dict(priors),
        "sampler": asdict(SamplerConfig(4000, 1000, 50, args.seed)),
        "data": {"path": "dataset.csv", "format": "proportions"},
        "output": {"directory": out},
    }
    with open(os.path.join(out, "config.json"), "w") as fh:
        json.dump(config, fh, indent=1, sort_keys=True)
        fh.write("\n")
    _err(
        f"simulate: wrote {dataset.horizon} observations, truth, and a "
        f"starter config to {out}/"
    )


def _chain_callback(fh, ckpt_path, cfg_hash, cfg):
    """run_pg callback of one chain: stream its records and checkpoints."""

    def callback(st):
        if st.record is not None:
            append_chain_record(fh, st.record)
        write_checkpoint(ckpt_path, st, cfg_hash, cfg.seed)
        if st.iteration % PROGRESS_EVERY == 0:
            _err(f"chain seed={cfg.seed}: iteration {st.iteration}/{cfg.n_iterations}")

    return callback


def _map_tasks(fn, tasks: list, jobs: int) -> list:
    """fn applied to each task, results in task order: in min(jobs,
    len(tasks)) worker processes, or in this process when that is 1.
    Workers are spawned, not forked, since numpy may hold threads."""
    workers = min(jobs, len(tasks))
    if workers == 1:
        return [fn(task) for task in tasks]
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        return list(pool.map(fn, tasks))


def _chain(config, out: str, i: int) -> tuple:
    """Chain i of a fit: its sampler settings (the config's seed + i) and
    the paths of its record file, checkpoint and particle dump."""
    files = (f"chain_{i}.jsonl", f"chain_{i}.ckpt.json", f"particles_{i}.csv")
    return (replace(config.sampler, seed=config.sampler.seed + i),
            *(os.path.join(out, name) for name in files))


def _fit_chains(task) -> list[str]:
    """Run one group of chains end to end in one lockstep run_pg call,
    streaming each chain's records and checkpoints to its own files; the
    console report of each chain."""
    y, config, cfg_hash, resume, out, indices = task
    priors = config.priors
    chains = [_chain(config, out, i) for i in indices]
    header = partial(chain_header, priors.n_regimes, len(y), cfg_hash)
    states = []
    for cfg, chain_path, ckpt_path, _ in chains:
        state = None
        if resume and os.path.exists(ckpt_path):
            # Cut the chain file back to the records the state has emitted;
            # another chain's file, or one holding fewer records, is refused.
            state = load_checkpoint(ckpt_path, priors, len(y), cfg_hash, cfg.seed)
            truncate_chain(chain_path, header(cfg.seed), state.n_emitted)
        elif resume and os.path.exists(chain_path):
            refuse_restart(chain_path, ckpt_path)
        states.append(state)
    with ExitStack() as stack:
        callbacks = []
        for (cfg, chain_path, ckpt_path, _), state in zip(chains, states):
            if state is None:
                write_chain(chain_path, header(cfg.seed))
            elif state.iteration >= cfg.n_iterations:
                _err(f"chain {chain_path}: already complete")
            fh = stack.enter_context(open(chain_path, "a"))
            callbacks.append(_chain_callback(fh, ckpt_path, cfg_hash, cfg))
        runs = run_pg(y, priors, [chain[0] for chain in chains], callbacks, states)

    prior_kappa_sd = math.sqrt(priors.kappa.shape) / priors.kappa.rate
    reports = []
    for (cfg, chain_path, _, dump_path), state, records in zip(chains, states, runs):
        if state is not None:
            _, records = read_chain(chain_path)
        if config.output["dump_particles"] and records:
            system = run_smc(y, records[-1].params, priors, cfg.n_particles(priors.n_regimes),
                             substream(cfg.seed, TAG_INIT, 3))
            dump_particle_system(dump_path, system)
        kappas = np.array([rec.params.kappa for rec in records])
        kappa_sd = float(kappas.std(ddof=1)) if len(kappas) > 1 else 0.0
        log_ml = records[-1].log_marginal if records else math.nan
        lines = [f"chain seed={cfg.seed}: {len(records)} records, final log-marginal {log_ml:.3f}"]
        lines += [f"  accept[{pid}] = {rate:.3f}"
                  for pid, rate in sorted(acceptance_rates(records).items())]
        if kappa_sd > 0.5 * prior_kappa_sd:
            lines.append(f"  warning: kappa chain SD {kappa_sd:.1f} exceeds half its prior "
                         f"SD {prior_kappa_sd:.1f}; kappa may be poorly identified - "
                         "consider tightening its prior")
        reports.append("\n".join(lines))
    return reports


def cmd_fit(args) -> None:
    config, out, dataset = _load_run(args)
    os.makedirs(out, exist_ok=True)
    cfg_hash = config_hash(config.raw)
    # Contiguous groups whose sizes differ by at most one, larger first.
    groups = np.array_split(np.arange(args.chains), min(args.jobs, args.chains))
    tasks = [(dataset.y, config, cfg_hash, args.resume, out, group.tolist())
             for group in groups]
    for reports in _map_tasks(_fit_chains, tasks, args.jobs):
        for report in reports:
            _err(report)

    chains = [_chain(config, out, i) for i in range(args.chains)]
    manifest = {
        "command": "fit",
        "config_hash": cfg_hash,
        "config": config.raw,
        "chains": args.chains,
        "chain_seeds": [cfg.seed for cfg, *_ in chains],
        "files": [chain_path for _, chain_path, *_ in chains],
        "version": __version__,
    }
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _fit_candidate(task) -> SelectionRow:
    """Fit one candidate regime count and score its records; a failing
    fit is reported in its row rather than raised."""
    k, y, priors, cfg = task
    try:
        (records,) = run_pg(y, priors, [cfg])
        mean, sd = score_records(records)
        return SelectionRow(k, mean, sd, len(records))
    except Exception as exc:  # per-K failures are reported, not fatal
        return SelectionRow(k, -math.inf, math.nan, 0, str(exc))


def _select_rows(y, priors_by_k: dict, sampler, jobs: int) -> list[SelectionRow]:
    """Fit each candidate regime count K (the keys of priors_by_k) with
    the sampler settings, its seed offset by K so the fits are
    independent, in up to jobs processes; the rows best first."""
    tasks = [
        (k, y, priors, replace(sampler, seed=sampler.seed + k))
        for k, priors in priors_by_k.items()
    ]
    rows = _map_tasks(_fit_candidate, tasks, jobs)
    return sorted(rows, key=lambda row: row.log_ml_mean, reverse=True)


def cmd_select(args) -> None:
    config, out, dataset = _load_run(args)
    os.makedirs(out, exist_ok=True)
    priors_by_k = {k: priors_for_k(config.priors, k) for k in args.K}
    rows = _select_rows(dataset.y, priors_by_k, config.sampler, args.jobs)
    table_path = os.path.join(out, "model_selection.csv")
    write_selection_table(table_path, rows)
    for row in rows:
        note = f"  [failed: {row.error}]" if row.error else ""
        _err(
            f"K={row.n_regimes}: log-ml {row.log_ml_mean:.3f} "
            f"(sd {row.log_ml_sd:.3f}, {row.n_records} records){note}"
        )
    _err(f"select: wrote {table_path}")


def _load_chains(paths, min_each: int, horizon: int | None = None,
                 n_regimes: int | None = None):
    """The records of each chain file.  A file is an input error that
    names it when it holds fewer than min_each (>= 1) records, when its
    header's horizon or n_regimes differs from a given one, when either
    differs from the first file's, or when it is a file listed before
    under this or another name (the same device and inode)."""
    chains, first, seen = [], None, {}
    for p in paths:
        header, records = read_chain(p)
        st = os.stat(p)
        if (st.st_dev, st.st_ino) in seen:
            raise InputError(f"{p}: the same chain file as {seen[st.st_dev, st.st_ino]}, "
                             "listed twice")
        seen[st.st_dev, st.st_ino] = p
        if len(records) < min_each:
            raise InputError(
                f"{p}: chain file holds {len(records)} records, "
                f"need at least {min_each}"
            )
        if horizon is not None and header["horizon"] != horizon:
            raise InputError(f"{p}: chain of a {header['horizon']}-step series, "
                             f"the data holds {horizon} steps")
        if n_regimes is not None and header["n_regimes"] != n_regimes:
            raise InputError(f"{p}: chain of {header['n_regimes']} regimes, "
                             f"the config has {n_regimes}")
        first = first or (p, header)
        for key in ("n_regimes", "horizon"):
            if header[key] != first[1][key]:
                raise InputError(f"{p}: chain header has {key} {header[key]}, "
                                 f"{first[0]} has {first[1][key]}")
        chains.append(records)
    return chains


def cmd_diagnose(args) -> None:
    if len(args.chains) < 2:
        raise InputError(f"diagnose needs at least 2 chain files, got {args.chains[0]} alone")
    chains = _load_chains(args.chains, MIN_RHAT_RECORDS)
    rhats = gelman_rubin_table(chains)
    out = args.out or DEFAULT_OUT
    os.makedirs(out, exist_ok=True)
    table_path = os.path.join(out, "rhat.csv")
    write_rhat_table(table_path, rhats)
    worst = max(rhats.values())
    for name, value in rhats.items():
        _err(f"rhat[{name}] = {value:.4f} {rhat_status(value)}")
    _err(f"diagnose: wrote {table_path} (worst rhat {worst:.4f})")


def cmd_summarize(args) -> None:
    config, out, dataset = _load_run(args)
    chains = _load_chains(args.chains, 1, dataset.horizon, config.n_regimes)
    pooled = sum(len(c) for c in chains)
    if pooled < MIN_SUMMARY_RECORDS:
        raise InputError(
            f"{', '.join(args.chains)}: {pooled} records pooled, "
            f"need at least {MIN_SUMMARY_RECORDS} to summarize"
        )
    summary = summarize(chains)
    os.makedirs(out, exist_ok=True)
    write_summary_table(os.path.join(out, "summary.csv"), summary)
    write_regime_curves(os.path.join(out, "regime_curves.csv"), summary, dataset)
    write_seir_curves(os.path.join(out, "seir_curves.csv"), summary)
    _err(
        f"summarize: wrote summary.csv, regime_curves.csv, seir_curves.csv "
        f"to {out}/"
    )


def _integer_arg(least: int, expected: str):
    """argparse type of an integer >= least; expected names the rule in
    the message of a value it refuses."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if value < least:
            raise argparse.ArgumentTypeError(f"must be {expected}, got {text!r}")
        return value

    return parse


_positive_int = _integer_arg(1, "a positive integer")
_seed = _integer_arg(0, "an integer >= 0")


def _regime_counts(text: str) -> list[int]:
    """argparse type of --K: comma-separated distinct integers >= 1."""
    counts = [_positive_int(entry) for entry in text.split(",")]
    if len(set(counts)) < len(counts):
        raise argparse.ArgumentTypeError(f"regime counts must be distinct, got {text!r}")
    return counts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchseir",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a simulation scenario")
    p_sim.add_argument("--scenario", required=True, choices=sorted(SCENARIOS))
    p_sim.add_argument("--seed", type=_seed, default=0)
    p_sim.add_argument("--out")
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit chains by particle Gibbs")
    p_fit.add_argument("--config", required=True)
    p_fit.add_argument("--chains", type=_positive_int, default=2)
    p_fit.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="processes to run the chains in: the chains are cut into "
        "min(jobs, chains) contiguous groups of near-equal size, and each "
        "process advances its group in lockstep, one batched CSMC-AS pass "
        "per iteration; outputs do not depend on it",
    )
    p_fit.add_argument("--seed", type=_seed, default=None, help="override config seed")
    p_fit.add_argument("--resume", action="store_true")
    p_fit.add_argument("--out")
    p_fit.set_defaults(func=cmd_fit)

    p_sel = sub.add_parser("select", help="compare regime counts")
    p_sel.add_argument("--config", required=True)
    p_sel.add_argument("--K", required=True, type=_regime_counts,
                       help="the regime counts to compare: comma-separated distinct "
                       "integers >= 1, each fitted under the stay-favoring row prior (10 on "
                       "the diagonal, 1 elsewhere) whatever priors.rows holds")
    p_sel.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="processes to run the candidate fits in, at most one per "
        "candidate; outputs do not depend on it",
    )
    p_sel.add_argument("--out")
    p_sel.set_defaults(func=cmd_select)

    p_diag = sub.add_parser("diagnose", help="Gelman-Rubin across chains")
    p_diag.add_argument("chains", nargs="+")
    p_diag.add_argument("--out")
    p_diag.set_defaults(func=cmd_diagnose)

    p_sum = sub.add_parser("summarize", help="posterior summary tables")
    p_sum.add_argument("chains", nargs="+")
    p_sum.add_argument("--config", required=True)
    p_sum.add_argument("--out")
    p_sum.set_defaults(func=cmd_summarize)
    return parser


def main(argv=None) -> int:
    """Run one command; its exit code (see the module docstring).  A
    usage error raises SystemExit(2) from argparse."""
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except InputError as exc:
        _err(f"error: {exc}")
        return 2
    except KeyboardInterrupt:
        _err("interrupted; checkpoints allow --resume")
        return 1
    except Exception as exc:  # runtime failures map to exit code 1
        _err(f"error: {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Subcommands: simulate, fit, select, diagnose, summarize.  Progress goes
to standard error; all data goes to files, keeping standard output clean
for piping.  Exit codes: 0 success, 1 runtime failure, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from . import __version__
from .data_io import (
    ChainFileError,
    ConfigError,
    append_chain_record,
    chain_header,
    dump_particle_system,
    generate_simulation,
    load_config,
    load_dataset,
    params_to_dict,
    parse_config,
    priors_for_k,
    priors_to_dict,
    read_chain,
    read_checkpoint,
    scenario_priors,
    state_from_dict,
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
from .diagnostics import gelman_rubin_table, select_regimes, summarize
from .pg import acceptance_rates, run_pg
from .rng import TAG_INIT, substream
from .smc import run_smc

OUT_ENV_VAR = "SWITCHSEIR_OUT"
PROGRESS_EVERY = 200


def _err(msg: str) -> None:
    print(msg, file=sys.stderr)


def _resolve_out(args, config=None) -> str:
    if getattr(args, "out", None):
        return args.out
    env = os.environ.get(OUT_ENV_VAR)
    if env:
        return env
    if config is not None:
        return config.output["directory"]
    return "out"


def cmd_simulate(args) -> int:
    out = _resolve_out(args)
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
        "sampler": {
            "n_iterations": 4000,
            "burn_in": 1000,
            "m_per_regime": 50,
            "seed": args.seed,
            "mh_sweeps_per_iter": 5,
            "thin": 1,
        },
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
    return 0


def _fit_one_chain(task) -> dict:
    """Run one chain end to end, streaming records and checkpoints."""
    (y, priors, cfg, chain_path, ckpt_path, cfg_hash, resume, dump_path) = task
    state = None
    if resume and os.path.exists(ckpt_path):
        ck = read_checkpoint(ckpt_path)
        if ck["config_hash"] != cfg_hash:
            raise ConfigError(
                f"{ckpt_path}: checkpoint belongs to a different configuration"
            )
        state = state_from_dict(ck)
        truncate_chain(chain_path, state.n_emitted)
    if state is not None and state.iteration >= cfg.n_iterations:
        _err(f"chain {chain_path}: already complete")
        _, records = read_chain(chain_path)
    else:
        if state is None:
            header = chain_header(priors.n_regimes, len(y), cfg_hash, cfg.seed)
            write_chain(chain_path, [], header)
        with open(chain_path, "a") as fh:

            def callback(st):
                if st.record is not None:
                    append_chain_record(fh, st.record)
                write_checkpoint(ckpt_path, st, cfg_hash, cfg.seed)
                if st.iteration % PROGRESS_EVERY == 0:
                    _err(
                        f"chain seed={cfg.seed}: iteration {st.iteration}/"
                        f"{cfg.n_iterations}"
                    )

            records = run_pg(y, priors, cfg, callback=callback, resume=state)
        if state is not None:
            _, records = read_chain(chain_path)

    if dump_path is not None and records:
        system = run_smc(
            y,
            records[-1].params,
            priors,
            priors.n_regimes * cfg.m_per_regime,
            substream(cfg.seed, TAG_INIT, 3),
        )
        dump_particle_system(dump_path, system)

    kappas = np.array(
        [rec.params.kappa for rec in records]
    ) if records else np.array([])
    return {
        "seed": cfg.seed,
        "file": chain_path,
        "n_records": len(records),
        "acceptance": acceptance_rates(records),
        "kappa_sd": float(kappas.std(ddof=1)) if len(kappas) > 1 else 0.0,
        "log_ml_last": records[-1].log_marginal if records else math.nan,
    }


def cmd_fit(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config.raw["sampler"]["seed"] = args.seed
        config = parse_config(config.raw)
    out = _resolve_out(args, config)
    os.makedirs(out, exist_ok=True)
    base_dir = os.path.dirname(os.path.abspath(args.config))
    dataset = load_dataset(config.data, base_dir)
    cfg_hash = config.config_hash

    tasks = []
    for i in range(args.chains):
        cfg_i = replace(config.sampler, seed=config.sampler.seed + i)
        dump = (
            os.path.join(out, f"particles_{i}.csv")
            if config.output.get("dump_particles")
            else None
        )
        tasks.append(
            (
                dataset.y,
                config.priors,
                cfg_i,
                os.path.join(out, f"chain_{i}.jsonl"),
                os.path.join(out, f"chain_{i}.ckpt.json"),
                cfg_hash,
                args.resume,
                dump,
            )
        )

    if args.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_fit_one_chain, tasks))
    else:
        results = [_fit_one_chain(t) for t in tasks]

    prior_kappa_sd = math.sqrt(config.priors.kappa.shape) / config.priors.kappa.rate
    for res in results:
        _err(
            f"chain seed={res['seed']}: {res['n_records']} records, "
            f"final log-marginal {res['log_ml_last']:.3f}"
        )
        for pid, rate in sorted(res["acceptance"].items()):
            _err(f"  accept[{pid}] = {rate:.3f}")
        if res["kappa_sd"] > 0.5 * prior_kappa_sd:
            _err(
                f"  warning: kappa chain SD {res['kappa_sd']:.1f} exceeds half "
                f"its prior SD {prior_kappa_sd:.1f}; kappa may be poorly "
                "identified - consider tightening its prior"
            )

    manifest = {
        "command": "fit",
        "config_hash": cfg_hash,
        "config": config.raw,
        "chains": args.chains,
        "chain_seeds": [config.sampler.seed + i for i in range(args.chains)],
        "files": [res["file"] for res in results],
        "version": __version__,
    }
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def cmd_select(args) -> int:
    config = load_config(args.config)
    out = _resolve_out(args, config)
    os.makedirs(out, exist_ok=True)
    base_dir = os.path.dirname(os.path.abspath(args.config))
    dataset = load_dataset(config.data, base_dir)
    try:
        candidates = [int(v) for v in args.K.split(",") if v.strip()]
    except ValueError:
        _err(f"select: bad --K list {args.K!r}")
        return 2
    if not candidates or any(k < 1 for k in candidates):
        _err(f"select: bad --K list {args.K!r}")
        return 2
    priors_by_k = {k: priors_for_k(config.priors, k) for k in candidates}
    report = select_regimes(
        dataset.y, priors_by_k, candidates, config.sampler, jobs=args.jobs
    )
    table_path = os.path.join(out, "model_selection.csv")
    write_selection_table(table_path, report)
    for row in report.rows:
        note = f"  [failed: {row.error}]" if row.error else ""
        _err(
            f"K={row.n_regimes}: log-ml {row.log_ml_mean:.3f} "
            f"(sd {row.log_ml_sd:.3f}, {row.n_records} records){note}"
        )
    _err(f"select: wrote {table_path}")
    return 0


def _load_chains(paths):
    chains = []
    for p in paths:
        _, records = read_chain(p)
        if not records:
            raise ChainFileError(f"{p}: chain file holds no records", -1)
        chains.append(records)
    return chains


def cmd_diagnose(args) -> int:
    if len(args.chains) < 2:
        _err("diagnose: needs at least 2 chain files")
        return 2
    chains = _load_chains(args.chains)
    rhats = gelman_rubin_table(chains)
    out = _resolve_out(args)
    os.makedirs(out, exist_ok=True)
    table_path = os.path.join(out, "rhat.csv")
    write_rhat_table(table_path, rhats)
    worst = max(rhats.values())
    for name, value in rhats.items():
        status = "PASS" if value < 1.2 else "FAIL"
        _err(f"rhat[{name}] = {value:.4f} {status}")
    _err(f"diagnose: wrote {table_path} (worst rhat {worst:.4f})")
    return 0


def cmd_summarize(args) -> int:
    config = load_config(args.config)
    out = _resolve_out(args, config)
    os.makedirs(out, exist_ok=True)
    base_dir = os.path.dirname(os.path.abspath(args.config))
    dataset = load_dataset(config.data, base_dir)
    chains = _load_chains(args.chains)
    summary = summarize(chains)
    write_summary_table(os.path.join(out, "summary.csv"), summary)
    write_regime_curves(os.path.join(out, "regime_curves.csv"), summary, dataset)
    write_seir_curves(os.path.join(out, "seir_curves.csv"), summary)
    _err(
        f"summarize: wrote summary.csv, regime_curves.csv, seir_curves.csv "
        f"to {out}/"
    )
    return 0


def _positive_int(text: str) -> int:
    """argparse type of the --chains and --jobs counts: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchseir",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a simulation scenario")
    p_sim.add_argument("--scenario", required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out")
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit chains by particle Gibbs")
    p_fit.add_argument("--config", required=True)
    p_fit.add_argument("--chains", type=_positive_int, default=2)
    p_fit.add_argument("--jobs", type=_positive_int, default=1)
    p_fit.add_argument("--seed", type=int, default=None, help="override config seed")
    p_fit.add_argument("--resume", action="store_true")
    p_fit.add_argument("--out")
    p_fit.set_defaults(func=cmd_fit)

    p_sel = sub.add_parser("select", help="compare regime counts")
    p_sel.add_argument("--config", required=True)
    p_sel.add_argument("--K", required=True, help="comma-separated regime counts")
    p_sel.add_argument("--jobs", type=_positive_int, default=1)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ChainFileError) as exc:
        _err(f"error: {exc}")
        return 2
    except FileNotFoundError as exc:
        _err(f"error: {exc}")
        return 2
    except KeyboardInterrupt:
        _err("interrupted; checkpoints allow --resume")
        return 1
    except Exception as exc:  # runtime failures map to exit code 1
        _err(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())

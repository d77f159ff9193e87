"""The benchmark's workloads.

Each workload builds its inputs from the workload seed in `setup`, then
repeats a unit of work.  A unit is the smallest piece that exercises the
whole path the workload stands for and can be checked on its own:

- fit-k2: `switchseir fit` with two chains on a simulated two-regime
  series, then `summarize` and `diagnose` on the chains it wrote.
- filter-k3-n10k: one bootstrap `run_smc` pass with N = 10,000 at the
  true parameters of the stored three-regime series.

`run_unit(u, tracer)` runs unit u, times the calls that define the
workload's throughput, checks the outputs and returns a `Unit`.  Unit u
always draws from the same random streams, so a traced repeat of it must
reproduce the untraced outputs bit for bit.  A `Unit` keeps only scalars
and digests, so the run's peak memory does not grow with its unit count.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import shutil
import sys
import time

import numpy as np

from switchseir import DegenerateWeightsError, cli, run_smc, sample_reference
from switchseir.data_io import (
    load_config,
    load_dataset,
    params_from_dict,
    priors_from_dict,
    read_chain,
    read_checkpoint,
)
from switchseir.diagnostics import param_values
from switchseir.model import joint_log_posterior
from switchseir.pg import acceptance_rates
from switchseir.rng import substream

import measures

HERE = os.path.dirname(os.path.abspath(__file__))
STORED_SERIES = os.path.join(HERE, "reference", "three_regime.json")

# Parameters whose bulk ESS the PG workloads report: beta, gamma, kappa,
# one modifier and one transition entry.
ESS_PARAMS = ("beta", "gamma", "kappa", "f2", "pi_11")
# A filter pass may differ from the stored mean log Z by this many
# standard errors before it counts as wrong.
LOGZ_TOLERANCE_SE = 4.0
# Paths drawn from each filter pass to measure how far their lineages stay
# apart (the filter's ref_update_rate).
PATH_DRAWS = 64


@dataclasses.dataclass
class Unit:
    """What one unit of work did and produced."""

    wall_s: float
    total_s: float
    iterations: int
    failed: int
    particle_steps: int
    digest: str
    problems: list[str]
    update_rates: list[float]
    info: dict


def _span(tracer, name, rows=0):
    return tracer.span(name, rows) if tracer is not None else contextlib.nullcontext()


def _log_marginal_problems(values, n_degenerate: int, where: str) -> list[str]:
    """Every log marginal is finite, or -inf on an iteration the sampler
    counted as degenerate; NaN and +inf are never allowed."""
    values = np.asarray(values, dtype=float)
    problems = []
    if np.any(np.isnan(values)) or np.any(values == np.inf):
        problems.append(f"{where}: log_marginal is NaN or +inf")
    n_neg_inf = int(np.sum(values == -np.inf))
    if n_neg_inf > n_degenerate:
        problems.append(
            f"{where}: {n_neg_inf} log_marginal values are -inf but only "
            f"{n_degenerate} iterations were degenerate"
        )
    return problems


def _ess_min(chains_records) -> float:
    """Smallest bulk ESS over ESS_PARAMS across equal-length chains."""
    n = min(len(c) for c in chains_records)
    if n < 4:
        return 0.0
    values = []
    for label in ESS_PARAMS:
        draws = np.array(
            [[param_values(r.params)[label] for r in c[:n]] for c in chains_records]
        )
        values.append(measures.bulk_ess(draws))
    finite = [v for v in values if math.isfinite(v)]
    return min(finite) if finite else 0.0


def _update_rates(chains) -> list[float]:
    """Reference update rate of each chain of records."""
    return [measures.update_rate([r.path.thetas for r in c]) for c in chains if len(c) > 1]


class FitK2:
    """Default user path: simulate, fit two chains, summarize, diagnose.

    The series is always simulated with seed DATA_SEED and the workload
    seed picks the chains' seeds: the update rate differs by up to 0.1
    between simulated series, but by about 0.02 between chains on one.
    """

    name = "fit-k2"
    runs_pg = True
    scenario = "two-regime"
    DATA_SEED = 0
    chains = 2
    # 50 retained records per chain: summarize needs 100 pooled records.
    n_iterations = 55
    burn_in = 5
    m_per_regime = 50
    mh_sweeps = 5

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        sim = os.path.join(workdir, "sim")
        if cli.main(["simulate", "--scenario", self.scenario, "--seed",
                     str(self.DATA_SEED), "--out", sim]) != 0:
            raise RuntimeError("simulate failed")
        self.config = os.path.join(sim, "config.json")
        with open(self.config) as fh:
            raw = json.load(fh)
        raw["sampler"].update(
            n_iterations=self.n_iterations,
            burn_in=self.burn_in,
            m_per_regime=self.m_per_regime,
            mh_sweeps_per_iter=self.mh_sweeps,
            thin=1,
        )
        with open(self.config, "w") as fh:
            json.dump(raw, fh)
        config = load_config(self.config)
        self.priors = config.priors
        self.y = load_dataset(config.data, sim).y
        self.horizon = len(self.y)
        self.n_particles = config.n_regimes * self.m_per_regime

    def check_run(self, units: list[Unit]) -> list[str]:
        return []

    def ref_update_rate(self, units: list[Unit]) -> float:
        """Median over the run's chains, so that one chain that starts
        stuck does not swing the figure; a change that makes most chains
        stick shows."""
        return measures.median(r for u in units for r in u.update_rates)

    def run_unit(self, u: int, tracer=None) -> Unit:
        out = os.path.join(self.workdir, f"unit{u}")
        chain_files = [os.path.join(out, f"chain_{i}.jsonl") for i in range(self.chains)]
        fit_argv = ["fit", "--config", self.config, "--chains", str(self.chains),
                    "--jobs", "1", "--seed", str(self.seed * 1000 + self.chains * u),
                    "--out", out]
        t0 = time.perf_counter()
        with _span(tracer, "cli.fit"):
            rc_fit = cli.main(fit_argv)
        t1 = time.perf_counter()
        with _span(tracer, "cli.summarize"):
            rc_sum = cli.main(["summarize", *chain_files, "--config", self.config,
                               "--out", out])
        with _span(tracer, "cli.diagnose"):
            rc_diag = cli.main(["diagnose", *chain_files, "--out", out])
        t2 = time.perf_counter()

        iterations = self.chains * self.n_iterations
        problems = [
            f"{cmd} exited with code {rc}"
            for cmd, rc in (("fit", rc_fit), ("summarize", rc_sum), ("diagnose", rc_diag))
            if rc != 0
        ]
        if rc_fit != 0:
            shutil.rmtree(out, ignore_errors=True)
            return Unit(t1 - t0, t2 - t0, iterations, iterations, 0, "", problems, [], {})

        found, chains, n_degenerate = check_fit_outputs(
            out, chain_files, self.n_iterations - self.burn_in, self.y, self.priors)
        problems += found
        if len(chains) != self.chains:
            shutil.rmtree(out, ignore_errors=True)
            return Unit(t1 - t0, t2 - t0, iterations, n_degenerate, 0, "", problems,
                        [], {})
        digest = hashlib.sha256()
        for path in chain_files:
            with open(path, "rb") as fh:
                digest.update(fh.read())
        with open(chain_files[0], "rb") as fh:
            header_bytes = len(fh.readline())
        info = {
            "accept": acceptance_rates([r for c in chains for r in c]),
            "n_records": sum(len(c) for c in chains),
            "ess_min": _ess_min(chains),
            "checkpoint_bytes": os.path.getsize(os.path.join(out, "chain_0.ckpt.json")),
            "chain_bytes_per_record": (os.path.getsize(chain_files[0]) - header_bytes)
            / max(len(chains[0]), 1),
        }
        shutil.rmtree(out, ignore_errors=True)
        return Unit(
            wall_s=t1 - t0,
            total_s=t2 - t0,
            iterations=iterations,
            failed=n_degenerate,
            particle_steps=iterations * self.n_particles * self.horizon,
            digest=digest.hexdigest(),
            problems=problems,
            update_rates=_update_rates(chains),
            info=info,
        )


def check_fit_outputs(out: str, chain_files: list[str], expected_records: int,
                      y, priors):
    """Output checks of one fit + summarize run.

    Chain files must parse with read_chain and hold the expected number of
    records, every log marginal must be finite (or -inf on an iteration the
    checkpoint counts as degenerate), joint_log_posterior must be finite
    for every record given the series y and the priors, and summary.csv
    must list every parameter the records carry, plus r0.  Returns
    (problems, the records of each chain that parsed, degenerate
    iterations over all chains).
    """
    problems, chains, n_degenerate = [], [], 0
    for i, path in enumerate(chain_files):
        try:
            _, records = read_chain(path)
        except (OSError, ValueError) as exc:
            problems.append(f"{path}: {exc}")
            continue
        chains.append(records)
        if len(records) != expected_records:
            problems.append(
                f"{path}: {len(records)} records, expected {expected_records}")
        degenerate = read_checkpoint(os.path.join(out, f"chain_{i}.ckpt.json"))["n_degenerate"]
        n_degenerate += degenerate
        problems += _log_marginal_problems(
            [r.log_marginal for r in records], degenerate, path)
        bad = [r.iteration for r in records
               if not math.isfinite(joint_log_posterior(r.path, y, r.params, priors))]
        if bad:
            problems.append(f"{path}: joint_log_posterior not finite at iterations {bad}")
    if chains and chains[0]:
        labels = set(param_values(chains[0][0].params)) | {"r0"}
        try:
            with open(os.path.join(out, "summary.csv")) as fh:
                listed = {line.split(",", 1)[0] for line in list(fh)[1:]}
        except OSError as exc:
            problems.append(f"summary.csv unreadable: {exc}")
        else:
            if listed != labels:
                problems.append(
                    f"summary.csv lists {sorted(listed)}, expected {sorted(labels)}")
    return problems, chains, n_degenerate


def load_stored_series():
    """The stored three-regime series with its true parameters and priors,
    plus the reference log Z figures (reference/three_regime.json)."""
    with open(STORED_SERIES) as fh:
        ref = json.load(fh)
    params = params_from_dict(ref["params"])
    priors = priors_from_dict(ref["priors"], params.n_regimes)
    return ref, np.asarray(ref["y"], dtype=float), params, priors


class FilterK3:
    """Repeated bootstrap filter passes at N = 10,000 on the stored series.

    reference/three_regime.json holds the series, the true parameters and the
    mean and SD of log Z over many passes; the workload seed picks the
    filter's random streams, so every seed filters the same series and the
    mean log Z can be checked against the stored value.
    """

    name = "filter-k3-n10k"
    runs_pg = False
    n_particles = 10_000

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.reference, self.y, self.params, self.priors = load_stored_series()
        if self.reference["n_particles"] != self.n_particles:
            raise ValueError("reference log Z was computed with another N")

    def run_unit(self, u: int, tracer=None) -> Unit:
        rng = substream(self.seed, u)
        steps = self.n_particles * len(self.y)
        t0 = time.perf_counter()
        try:
            with _span(tracer, "smc.run_smc", steps):
                system = run_smc(self.y, self.params, self.priors, self.n_particles, rng)
        except DegenerateWeightsError as exc:
            print(f"{self.name} pass {u}: {exc}", file=sys.stderr)
            wall = time.perf_counter() - t0
            return Unit(wall, wall, 1, 1, 0, "", [], [], {})
        wall = time.perf_counter() - t0

        stats = measures.particle_stats(system)
        problems = []
        if not math.isfinite(system.log_marginal):
            problems.append(f"pass {u}: log Z is {system.log_marginal}")
        # Paths drawn independently from one pass differ at every step until
        # their lineages merge, going back in time.  The share of steps at
        # which consecutive draws differ is the filter's counterpart of the
        # PG reference update rate: it falls when path degeneracy grows.
        paths = [sample_reference(system, substream(self.seed, u, 1 + k)).path.thetas
                 for k in range(PATH_DRAWS)]
        digest = hashlib.sha256(system.log_weights.tobytes())
        digest.update(system.ancestors.tobytes())
        return Unit(
            wall_s=wall,
            total_s=wall,
            iterations=1,
            failed=0,
            particle_steps=steps,
            digest=digest.hexdigest(),
            problems=problems,
            update_rates=[measures.update_rate(paths)],
            info={"particles": stats},
        )

    def ref_update_rate(self, units: list[Unit]) -> float:
        """Mean over passes: most passes read exactly 1, so a median would
        hide the merges that path degeneracy causes."""
        rates = [r for u in units for r in u.update_rates]
        return float(np.mean(rates)) if rates else 0.0

    def check_run(self, units: list[Unit]) -> list[str]:
        """The mean log Z of this run lies within LOGZ_TOLERANCE_SE standard
        errors of the stored reference mean."""
        ref = self.reference
        log_zs = [u.info["particles"]["log_marginal"] for u in units if u.particle_steps]
        if not log_zs:
            return ["no filter pass completed"]
        se = ref["logz_sd"] * math.sqrt(1 / len(log_zs) + 1 / ref["n_passes"])
        mean = float(np.mean(log_zs))
        if abs(mean - ref["logz_mean"]) > LOGZ_TOLERANCE_SE * se:
            return [
                f"mean log Z {mean:.4f} over {len(log_zs)} passes is more than "
                f"{LOGZ_TOLERANCE_SE} SE ({se:.4f}) from the reference "
                f"{ref['logz_mean']:.4f}"
            ]
        return []


WORKLOADS = {w.name: w for w in (FitK2, FilterK3)}

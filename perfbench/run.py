"""Benchmark command for switchseir.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a switchseir checkout; the program is imported from
src/.  With --trace 0 the workload runs untraced for about S seconds and
the last line of standard output is a JSON object with the end-to-end
metrics.  With --trace 1 it runs untraced for about S/2 seconds, repeats
the same units traced, checks that both produced bit-identical outputs,
and reports the per-layer metrics instead.  The exit code is 0 only when
every output check passed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Fresh processes started to time set-up; setup_s is their median.
SETUP_PROBES = 9

END_TO_END = {
    "setup_s": "s",
    "particle_steps_per_s": "1/s",
    "ref_update_rate": "fraction",
    "peak_rss_mb": "MB",
}
ACCEPT_IDS = ("alpha", "beta", "gamma", "lambda", "kappa", "p", "f2", "f3", "rows")
LAYERS = ("seir", "distributions", "smc", "model", "pg", "data_io", "diagnostics", "cli")
PER_LAYER = {
    "seir.rk4_ns_per_row": "ns",
    "seir.rk4_rows_per_iter": "count",
    "distributions.dirichlet_draw_ns_per_row": "ns",
    "distributions.dirichlet_logpdf_ns_per_row": "ns",
    "distributions.logsumexp_us_per_call": "us",
    "smc.csmc_pass_ms.p50": "ms",
    "smc.csmc_pass_ms.p95": "ms",
    "smc.csmc_share": "fraction",
    "smc.sample_reference_us": "us",
    "smc.bootstrap_ns_per_particle_step": "ns",
    "smc.particle_store_mb": "MB",
    "smc.ess_frac_p50": "fraction",
    "smc.distinct_t0_ancestors": "count",
    "smc.logz_sd": "nats",
    "model.jlp_calls_per_iter": "count",
    "model.jlp_us_per_call": "us",
    "pg.mh_ms_per_iter": "ms",
    "pg.mh_share": "fraction",
    "pg.iter_per_s": "1/s",
    "pg.ess_min": "count",
    "pg.ess_per_s_min": "1/s",
    **{f"pg.accept_rate.{pid}": "fraction" for pid in ACCEPT_IDS},
    "data_io.checkpoint_write_ms.p50": "ms",
    "data_io.checkpoint_write_ms.p95": "ms",
    "data_io.checkpoint_bytes": "bytes",
    "data_io.chain_append_ms": "ms",
    "data_io.chain_bytes_per_record": "bytes",
    "data_io.read_chain_ms_per_mb": "ms/MB",
    "diagnostics.summarize_ms": "ms",
    "diagnostics.gelman_rubin_ms": "ms",
    "cli.fit_overhead_share": "fraction",
    "failed_frac": "fraction",
    "trace.overhead_share": "fraction",
    **{f"{layer}.self_share": "fraction" for layer in LAYERS},
}


def _import_program() -> None:
    """Put src/ and this directory on the path, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "switchseir", "__init__.py")):
        print(f"perfbench: no src/switchseir under {ROOT}; run from a "
              "switchseir checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [SRC, HERE]


def _clock() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def run_units(workload, seconds=None, count=None, tracer=None, between=None) -> list:
    """Run units 0, 1, ... until `count` are done, or, without a count,
    until the elapsed time is within half a mean unit of `seconds`.

    `between(share)`, if given, runs after each unit with the share of
    `seconds` used so far (1 after the last unit); its own time is not
    counted as elapsed."""
    units = []
    start = _clock()
    paused = 0.0
    while True:
        u = len(units)
        if tracer is not None:
            tracer.unit = u
        units.append(workload.run_unit(u, tracer))
        if count is not None:
            if len(units) >= count:
                return units
            continue
        elapsed = _clock() - start - paused
        done = elapsed + elapsed / len(units) / 2 > seconds
        if between is not None:
            t0 = _clock()
            between(1.0 if done else elapsed / seconds)
            paused += _clock() - t0
        if done:
            return units


class SetupProbes:
    """Times set-up in fresh processes: interpreter start, imports, inputs.

    Called between units, it runs probes until it has done its share of
    SETUP_PROBES, so the probes spread over the run and their median is
    not at the mercy of one moment of a noisy machine."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.times: list[float] = []

    def __call__(self, share: float) -> None:
        while len(self.times) < math.ceil(SETUP_PROBES * min(share, 1.0)):
            workdir = os.path.join(ROOT, ".perfbench",
                                   f"probe-{os.getpid()}-{len(self.times)}")
            t0 = _clock()
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", self.workload,
                 "--seed", str(self.seed), "--probe-setup", workdir],
                cwd=ROOT, capture_output=True, text=True, timeout=120,
            )
            shutil.rmtree(workdir, ignore_errors=True)
            if out.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {out.stderr.strip()}")
            self.times.append(float(out.stdout.strip().splitlines()[-1]) - t0)


def end_to_end(workload, units, setup_times) -> dict:
    import measures

    done = [u for u in units if u.particle_steps]
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": measures.median(setup_times),
        "particle_steps_per_s": measures.median(u.particle_steps / u.wall_s for u in done),
        "ref_update_rate": workload.ref_update_rate(units),
        "peak_rss_mb": rss_kib * 1024 / measures.MB,
    }


def per_layer(untraced, traced, stats, particles) -> dict:
    """Per-layer metrics from the traced units' spans; throughput-like
    figures (iterations/s, ESS/s) come from the untraced units."""
    import measures
    from tracing import LayerStats

    empty = LayerStats(0, 0, 0, 0, ())

    def s(name):
        return stats.get(name, empty)

    rk4, draw = s("seir.rk4_step"), s("distributions.sample_dirichlet")
    lpdf, lse = s("distributions.dirichlet_logpdf"), s("distributions.logsumexp")
    csmc, ref, boot = s("smc.run_csmc_as"), s("smc.sample_reference"), s("smc.run_smc")
    jlp, pg = s("model.joint_log_posterior"), s("pg.run_pg")
    ckpt, append = s("data_io.write_checkpoint"), s("data_io.append_chain_record")
    read = s("data_io.read_chain")
    summ, rhat, fit = (s("diagnostics.summarize"), s("diagnostics.gelman_rubin_table"),
                       s("cli.fit"))

    iters = sum(u.iterations for u in traced)
    pg_iters = iters if pg.calls else 0
    # Units hold per-unit acceptance rates; every record has the same
    # number of sweeps, so weighting by records gives the pooled rate.
    accepted = [u.info for u in untraced if "accept" in u.info]
    n_records = sum(info["n_records"] for info in accepted)
    accept = {
        pid: _ratio(sum(info["accept"].get(pid, 0.0) * info["n_records"]
                        for info in accepted), n_records)
        for pid in ACCEPT_IDS
    }
    ess_units = [u for u in untraced if "ess_min" in u.info]
    log_zs = [p["log_marginal"] for p in particles]
    traced_s = sum(u.total_s for u in traced)
    untraced_s = sum(u.total_s for u in untraced)
    self_ns = {layer: 0 for layer in LAYERS}
    for name, st in stats.items():
        layer = name.split(".", 1)[0]
        if layer in self_ns:
            self_ns[layer] += st.self_ns

    metrics = {
        "seir.rk4_ns_per_row": _ratio(rk4.total_ns, rk4.rows),
        "seir.rk4_rows_per_iter": _ratio(rk4.rows, iters),
        "distributions.dirichlet_draw_ns_per_row": _ratio(draw.total_ns, draw.rows),
        "distributions.dirichlet_logpdf_ns_per_row": _ratio(lpdf.total_ns, lpdf.rows),
        "distributions.logsumexp_us_per_call": _ratio(lse.total_ns, lse.calls) / 1e3,
        "smc.csmc_pass_ms.p50": measures.median(csmc.durations_ns) / 1e6,
        "smc.csmc_pass_ms.p95": measures.p95(csmc.durations_ns) / 1e6,
        "smc.csmc_share": _ratio(csmc.total_ns, pg.total_ns),
        "smc.sample_reference_us": _ratio(ref.total_ns, ref.calls) / 1e3,
        "smc.bootstrap_ns_per_particle_step": _ratio(boot.total_ns, boot.rows),
        "smc.particle_store_mb": particles[-1]["store_bytes"] / measures.MB if particles else 0.0,
        "smc.ess_frac_p50": measures.median(
            v for p in particles for v in p["ess_frac"]),
        "smc.distinct_t0_ancestors": measures.median(p["distinct_t0"] for p in particles),
        "smc.logz_sd": statistics.stdev(log_zs) if len(log_zs) > 1 else 0.0,
        "model.jlp_calls_per_iter": _ratio(jlp.calls, pg_iters),
        "model.jlp_us_per_call": _ratio(jlp.total_ns, jlp.calls) / 1e3,
        "pg.mh_ms_per_iter": _ratio(pg.self_ns, pg_iters) / 1e6,
        "pg.mh_share": _ratio(pg.self_ns + jlp.total_ns, pg.total_ns),
        "pg.iter_per_s": measures.median(
            u.iterations / u.wall_s for u in untraced if u.particle_steps) if pg.calls else 0.0,
        "pg.ess_min": measures.median(u.info["ess_min"] for u in ess_units),
        "pg.ess_per_s_min": measures.median(
            u.info["ess_min"] / u.wall_s for u in ess_units),
        **{f"pg.accept_rate.{pid}": accept[pid] for pid in ACCEPT_IDS},
        "data_io.checkpoint_write_ms.p50": measures.median(ckpt.durations_ns) / 1e6,
        "data_io.checkpoint_write_ms.p95": measures.p95(ckpt.durations_ns) / 1e6,
        "data_io.checkpoint_bytes": measures.median(
            u.info["checkpoint_bytes"] for u in untraced if "checkpoint_bytes" in u.info),
        "data_io.chain_append_ms": _ratio(append.total_ns, append.calls) / 1e6,
        "data_io.chain_bytes_per_record": measures.median(
            u.info["chain_bytes_per_record"] for u in untraced
            if "chain_bytes_per_record" in u.info),
        "data_io.read_chain_ms_per_mb": _ratio(read.total_ns / 1e6, read.rows / measures.MB),
        "diagnostics.summarize_ms": _ratio(summ.total_ns, summ.calls) / 1e6,
        "diagnostics.gelman_rubin_ms": _ratio(rhat.total_ns, rhat.calls) / 1e6,
        "cli.fit_overhead_share": _ratio(fit.total_ns - pg.total_ns, fit.total_ns),
        "failed_frac": _ratio(sum(u.failed for u in untraced),
                              sum(u.iterations for u in untraced)),
        "trace.overhead_share": _ratio(traced_s - untraced_s, untraced_s),
        **{f"{layer}.self_share": _ratio(ns / 1e9, traced_s) for layer, ns in self_ns.items()},
    }
    return metrics


def run(args, workdir: str) -> tuple[dict, dict, list[str]]:
    """Run one workload; return (metrics, counts, problems)."""
    import measures
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    workload.setup(args.seed, workdir)

    if not args.trace:
        probes = SetupProbes(args.workload, args.seed)
        units = run_units(workload, seconds=args.seconds, between=probes)
        setup_times = probes.times
        traced, metrics = [], None
    else:
        units = run_units(workload, seconds=args.seconds / 2)
        tracer = tracing.Tracer()
        observed = []
        saved = tracing.install(
            tracer, lambda system: observed.append(measures.particle_stats(system)))
        try:
            traced = run_units(workload, count=len(units), tracer=tracer)
        finally:
            tracing.uninstall(saved)
        particles = observed or [u.info["particles"] for u in traced if "particles" in u.info]
        metrics = per_layer(units, traced, tracing.aggregate(tracer), particles)
        tracer.write(os.path.join(ROOT, ".perfbench", f"{args.workload}.spans.csv"))

    problems = [p for u in units + traced for p in u.problems]
    if traced and [u.digest for u in units] != [u.digest for u in traced]:
        problems.append("traced and untraced runs produced different outputs")
    problems += workload.check_run(units)
    done = [u for u in units if u.particle_steps]
    if not done:
        problems.append("no unit completed")
    if metrics is None:
        metrics = end_to_end(workload, units, setup_times)
    counts = {
        "attempted": sum(u.iterations for u in units + traced),
        "failed": sum(u.failed for u in units + traced),
        "units": len(units),
    }
    if not args.trace:
        # The two figures the metric table names but the result omits:
        # pg_iter_per_s is particle_steps_per_s / (N * T) on the PG
        # workloads, and failures are the result's attempted and failed.
        if workload.runs_pg:
            counts["pg_iter_per_s"] = measures.median(u.iterations / u.wall_s for u in done)
        counts["failed_frac"] = _ratio(counts["failed"], counts["attempted"])
    return metrics, counts, problems


def _print_report(args, metrics, units, counts, problems) -> None:
    mode = "traced" if args.trace else "untraced"
    print(f"perfbench {args.workload} seed={args.seed} {mode}: {counts['units']} units, "
          f"{counts['attempted']} attempted, {counts['failed']} failed")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:14.6g} {units[name]}")
    for name, unit in (("pg_iter_per_s", "1/s"), ("failed_frac", "fraction")):
        if name in counts:
            print(f"  {name:44s} {counts[name]:14.6g} {unit}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"have {sorted(workloads.WORKLOADS)}")
    if args.probe_setup:
        workloads.WORKLOADS[args.workload]().setup(args.seed, args.probe_setup)
        print(repr(_clock()))
        return 0

    import measures

    workdir = os.path.join(ROOT, ".perfbench", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        metrics, counts, problems = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    _print_report(args, metrics, units, counts, problems)
    print(json.dumps({"meta": measures.metadata(ROOT, args.workload, args.seed)}))
    print(json.dumps({
        "correct": not problems,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {
            name: {"value": float(value) if math.isfinite(value) else 0.0, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import measures  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from switchseir.cli import main as cli_main  # noqa: E402
from switchseir.data_io import load_config, load_dataset  # noqa: E402


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.fixture()
def tiny(monkeypatch):
    """Shrink every workload to desk size; the filter keeps its N, which
    its stored reference needs, and runs a single pass."""
    monkeypatch.setattr(workloads.FitK2, "m_per_regime", 3)
    monkeypatch.setattr(workloads.FitK2, "mh_sweeps", 1)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


# Per-layer metrics that must be measured (non-zero) on each workload.
LAYER_METRICS_USED = {
    "fit-k2": ["seir.rk4_ns_per_row", "seir.rk4_rows_per_iter", "smc.csmc_pass_ms.p50",
               "smc.ess_frac_p50", "distributions.dirichlet_logpdf_ns_per_row",
               "model.jlp_calls_per_iter", "model.jlp_us_per_call", "pg.mh_ms_per_iter",
               "pg.mh_share", "pg.iter_per_s", "data_io.checkpoint_write_ms.p50",
               "data_io.chain_bytes_per_record", "data_io.read_chain_ms_per_mb",
               "diagnostics.summarize_ms", "diagnostics.gelman_rubin_ms",
               "cli.fit_overhead_share", "pg.accept_rate.rows", "pg.accept_rate.f2"],
    "filter-k3-n10k": ["smc.bootstrap_ns_per_particle_step", "smc.particle_store_mb",
                       "distributions.dirichlet_draw_ns_per_row",
                       "distributions.logsumexp_us_per_call", "smc.distinct_t0_ancestors"],
}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_each_workload(tiny, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)])
    result = _result(capsys)
    assert code == 0
    assert result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    used = LAYER_METRICS_USED[workload] if trace else list(result["metrics"])
    for name in used:
        assert result["metrics"][name]["value"] > 0, name


def test_benchmark_json_matches_the_command():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == ["fit-k2", "filter-k3-n10k"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_self_time_subtracts_union_of_children():
    # root [0,100] has children a [10,40], b [30,60] (overlapping a) and
    # c [90,120] (sticking out of root); a has a child [15,20].
    starts = [0, 10, 30, 90, 15]
    ends = [100, 40, 60, 120, 20]
    parents = [-1, 0, 0, 0, 1]
    assert tracing.self_times(starts, ends, parents) == [40, 25, 30, 30, 5]


def test_aggregate_nested_spans():
    tracer = tracing.Tracer()
    tracer.names = ["pg.run_pg", "smc.run_csmc_as", "seir.rk4_step", "seir.rk4_step"]
    tracer.starts = [0, 10, 12, 50]
    tracer.ends = [100, 40, 20, 60]
    tracer.parents = [-1, 0, 1, 0]
    tracer.rows = [0, 0, 100, 7]
    tracer.units = [0, 0, 0, 0]
    stats = tracing.aggregate(tracer)
    assert stats["pg.run_pg"].self_ns == 100 - 30 - 10
    assert stats["smc.run_csmc_as"].self_ns == 22
    assert stats["seir.rk4_step"].calls == 2
    assert stats["seir.rk4_step"].total_ns == 18
    assert stats["seir.rk4_step"].rows == 107


def test_traced_wrapper_nests_and_restores():
    import switchseir.model as model

    original = model.rk4_step
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        assert model.rk4_step is not original
        with tracer.span("pg.run_pg"):
            model.rk4_step(np.full((5, 4), 0.25), model.EpidemicRates(0.3, 0.4, 0.2))
    finally:
        tracing.uninstall(saved)
    assert model.rk4_step is original
    assert tracer.names == ["pg.run_pg", "seir.rk4_step"]
    assert tracer.parents == [-1, 0]
    assert tracer.rows == [0, 5]


def _fit_outputs(tmp_path):
    sim = tmp_path / "sim"
    assert cli_main(["simulate", "--scenario", "two-regime", "--seed", "2",
                     "--out", str(sim)]) == 0
    raw = json.loads((sim / "config.json").read_text())
    raw["sampler"].update(n_iterations=55, burn_in=5, m_per_regime=2,
                          mh_sweeps_per_iter=1)
    (sim / "config.json").write_text(json.dumps(raw))
    config = load_config(str(sim / "config.json"))
    y = load_dataset(config.data, str(sim)).y
    out = tmp_path / "fit"
    assert cli_main(["fit", "--config", str(sim / "config.json"), "--chains", "2",
                     "--out", str(out)]) == 0
    chains = [str(out / f"chain_{i}.jsonl") for i in range(2)]
    assert cli_main(["summarize", *chains, "--config", str(sim / "config.json"),
                     "--out", str(out)]) == 0
    return str(out), chains, y, config.priors


def test_fit_check_accepts_good_and_rejects_truncated_chain(tmp_path, monkeypatch):
    out, chains, y, priors = _fit_outputs(tmp_path)
    assert workloads.check_fit_outputs(out, chains, 50, y, priors)[0] == []

    with monkeypatch.context() as m:
        m.setattr(workloads, "joint_log_posterior", lambda *args: -np.inf)
        problems = workloads.check_fit_outputs(out, chains, 50, y, priors)[0]
    assert any("joint_log_posterior not finite" in p for p in problems)

    with open(chains[0], "rb") as fh:
        data = fh.read()
    with open(chains[0], "wb") as fh:
        fh.write(data[: len(data) - 100])  # cut the last record mid-line
    problems = workloads.check_fit_outputs(out, chains, 50, y, priors)[0]
    assert problems and "chain_0.jsonl" in problems[0]


def test_fit_check_rejects_missing_records(tmp_path):
    out, chains, y, priors = _fit_outputs(tmp_path)
    with open(chains[1]) as fh:
        lines = fh.readlines()
    with open(chains[1], "w") as fh:
        fh.writelines(lines[:-3])
    problems = workloads.check_fit_outputs(out, chains, 50, y, priors)[0]
    assert any("47 records, expected 50" in p for p in problems)


def test_filter_log_z_check():
    w = workloads.FilterK3()
    w.setup(0, "")
    ref = w.reference

    def units(log_z):
        return [workloads.Unit(1.0, 1.0, 1, 0, 1, "", [], [],
                               {"particles": {"log_marginal": log_z}})] * 3

    assert w.check_run(units(ref["logz_mean"])) == []
    assert w.check_run(units(ref["logz_mean"] + 10 * ref["logz_sd"]))
    assert w.check_run([])


def test_bulk_ess_of_iid_and_autocorrelated_draws():
    rng = np.random.default_rng(0)
    iid = rng.standard_normal((4, 500))
    assert 1400 < measures.bulk_ess(iid) < 2600
    phi = 0.9
    ar = np.empty((4, 2000))
    ar[:, 0] = rng.standard_normal(4)
    for t in range(1, ar.shape[1]):
        ar[:, t] = phi * ar[:, t - 1] + rng.standard_normal(4)
    expected = ar.size * (1 - phi) / (1 + phi)
    assert 0.6 * expected < measures.bulk_ess(ar) < 1.5 * expected
    assert np.isnan(measures.bulk_ess(np.ones((2, 10))))


def test_update_rate_counts_changed_steps():
    a = np.zeros((4, 4))
    b = a.copy()
    b[1] = 1.0
    assert measures.update_rate([a, b, b]) == 1 / 8
    assert measures.update_rate([a]) == 0.0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit-k2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout

import argparse
import json
import math
import operator
import os
import re
import shutil
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from switchseir import cli
from switchseir.cli import main
from switchseir.data_io import (
    SCENARIOS,
    chain_header,
    load_config,
    params_from_dict,
    params_to_dict,
    priors_for_k,
    priors_to_dict,
    read_chain,
    scenario_priors,
)
from switchseir.diagnostics import RHAT_GATE
from switchseir.model import _row_log_priors
from switchseir.pg import SamplerConfig
from tests.test_data_io import make_records, write_records

# A 5-iteration fit of a 12-step series.  Its checkpoint also holds keys
# that older versions wrote: the post-burn-in acceptance totals
# (total_counts, the sums of the chain records' flags), the reference
# lineage, and the step size and window of the transition rows' MH move.
OLD_CHECKPOINT_RUN = Path(__file__).parent / "data" / "old_checkpoint_run"


@pytest.fixture()
def sim_dir(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", "two-regime", "--seed", "1",
                 "--out", str(out)]) == 0
    return out


def shrink_config(sim_dir, **sampler_overrides):
    """Rewrite the starter config with a desk-size sampler block."""
    cfg_path = sim_dir / "config.json"
    raw = json.loads(cfg_path.read_text())
    raw["sampler"].update(
        dict(n_iterations=8, burn_in=2, m_per_regime=3, mh_sweeps_per_iter=1)
    )
    raw["sampler"].update(sampler_overrides)
    cfg_path.write_text(json.dumps(raw))
    return cfg_path


class TestSimulate:
    def test_writes_dataset_truth_and_config(self, sim_dir):
        data = (sim_dir / "dataset.csv").read_text().strip().split("\n")
        assert len(data) == 151  # header + T=150 rows
        assert (sim_dir / "truth.csv").exists()
        assert (sim_dir / "truth_params.json").exists()
        assert (sim_dir / "config.json").exists()

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["simulate", "--scenario", "two-regime", "--seed", "9",
                         "--out", str(out)]) == 0
        assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()
        assert (a / "truth.csv").read_bytes() == (b / "truth.csv").read_bytes()

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_starter_files_parse_back_to_the_scenario(self, tmp_path, scenario):
        assert main(["simulate", "--scenario", scenario, "--out", str(tmp_path)]) == 0
        priors, expected = load_config(tmp_path / "config.json").priors, scenario_priors(scenario)
        assert priors_to_dict(priors) == priors_to_dict(expected)
        assert priors.n_regimes == expected.n_regimes
        assert priors.ident_start_times == expected.ident_start_times
        truth = json.loads((tmp_path / "truth_params.json").read_text())
        assert params_to_dict(params_from_dict(truth)) == params_to_dict(SCENARIOS[scenario][1])

    def test_unknown_scenario_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "sim"
        with pytest.raises(SystemExit) as exc_info:
            main(["simulate", "--scenario", "nope", "--out", str(out)])
        assert exc_info.value.code == 2
        assert "argument --scenario: invalid choice: 'nope'" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "sim"
        with pytest.raises(SystemExit) as exc_info:
            main(["simulate", "--scenario", "two-regime", "--seed", "-1", "--out", str(out)])
        assert exc_info.value.code == 2
        assert "argument --seed: must be an integer >= 0, got '-1'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_scenario_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            main(["simulate", "--out", str(tmp_path)])
        assert exc_info.value.code == 2


class TestFit:
    def test_two_chains_write_files_and_manifest(self, sim_dir, tmp_path):
        cfg = shrink_config(sim_dir)
        out = tmp_path / "fit"
        assert main(["fit", "--config", str(cfg), "--chains", "2",
                     "--out", str(out)]) == 0
        for i in range(2):
            header, records = read_chain(out / f"chain_{i}.jsonl")
            assert len(records) == 6
            assert header["seed"] == 1 + i
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["chains"] == 2
        assert manifest["chain_seeds"] == [1, 2]

    def test_small_row_concentration_records_finite_row_priors(self, sim_dir, tmp_path):
        cfg = shrink_config(sim_dir)
        raw = json.loads(cfg.read_text())
        raw["priors"]["rows"] = [[0.01, 0.01], [0.01, 0.01]]
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "fit"
        assert main(["fit", "--config", str(cfg), "--chains", "2", "--out", str(out)]) == 0
        priors = load_config(cfg).priors
        for i in range(2):
            _, records = read_chain(out / f"chain_{i}.jsonl")
            for rec in records:
                assert all(map(math.isfinite, _row_log_priors(rec.params, priors)))

    def test_jobs_do_not_change_output(self, sim_dir, tmp_path, capsys):
        # --jobs J runs the chains in min(J, 3) groups, each advanced in
        # lockstep by one process: every grouping writes the same files
        # and the same console report.
        cfg = shrink_config(sim_dir)
        raw = json.loads(cfg.read_text())
        raw["output"]["dump_particles"] = True
        cfg.write_text(json.dumps(raw))
        outs, errs = {}, {}
        for jobs in (1, 2, 3):
            outs[jobs] = tmp_path / f"jobs{jobs}"
            capsys.readouterr()
            assert main(["fit", "--config", str(cfg), "--chains", "3", "--jobs",
                         str(jobs), "--out", str(outs[jobs])]) == 0
            errs[jobs] = capsys.readouterr().err
        assert errs[1].count("chain seed=") == 3
        assert errs[2] == errs[1] and errs[3] == errs[1]
        for i in range(3):
            for name in (f"chain_{i}.jsonl", f"chain_{i}.ckpt.json", f"particles_{i}.csv"):
                want = (outs[1] / name).read_bytes()
                assert (outs[2] / name).read_bytes() == want
                assert (outs[3] / name).read_bytes() == want

    def test_resume_matches_straight_through(self, sim_dir, tmp_path):
        full_cfg = shrink_config(sim_dir, n_iterations=10)
        straight = tmp_path / "straight"
        assert main(["fit", "--config", str(full_cfg), "--chains", "1",
                     "--out", str(straight)]) == 0

        # Shorter run first, then resume to the full length.
        short_cfg = shrink_config(sim_dir, n_iterations=5)
        resumed = tmp_path / "resumed"
        assert main(["fit", "--config", str(short_cfg), "--chains", "1",
                     "--out", str(resumed)]) == 0
        full_cfg = shrink_config(sim_dir, n_iterations=10)
        assert main(["fit", "--config", str(full_cfg), "--chains", "1",
                     "--resume", "--out", str(resumed)]) == 0
        assert (straight / "chain_0.jsonl").read_bytes() == (
            resumed / "chain_0.jsonl"
        ).read_bytes()

    def test_resume_from_checkpoint_holding_total_counts(self, tmp_path):
        resumed = tmp_path / "resumed"
        shutil.copytree(OLD_CHECKPOINT_RUN, resumed)
        legacy = json.loads((resumed / "chain_0.ckpt.json").read_text())
        assert "total_counts" in legacy and "lineage" in legacy["reference"]
        assert "rows" in legacy["step_sizes"] and "rows" in legacy["window_counts"]
        cfg = resumed / "config.json"
        raw = json.loads(cfg.read_text())
        raw["sampler"]["n_iterations"] = 10
        cfg.write_text(json.dumps(raw))
        straight = tmp_path / "straight"
        assert main(["fit", "--config", str(cfg), "--chains", "1",
                     "--out", str(straight)]) == 0
        assert main(["fit", "--config", str(cfg), "--chains", "1", "--resume",
                     "--out", str(resumed)]) == 0
        for name in ("chain_0.jsonl", "chain_0.ckpt.json"):
            assert (resumed / name).read_bytes() == (straight / name).read_bytes()

    def test_resume_completes_partial_chain_beside_complete_one(
        self, sim_dir, tmp_path, capsys
    ):
        # Chain 0 is complete and chain 1 stopped at iteration 5; resuming
        # both runs only chain 1 and matches a run straight through.
        full_cfg = shrink_config(sim_dir, n_iterations=10)
        straight, resumed = tmp_path / "straight", tmp_path / "resumed"
        assert main(["fit", "--config", str(full_cfg), "--chains", "2",
                     "--out", str(straight)]) == 0
        assert main(["fit", "--config", str(full_cfg), "--chains", "2",
                     "--out", str(resumed)]) == 0
        short_cfg = shrink_config(sim_dir, n_iterations=5)
        short = tmp_path / "short"
        assert main(["fit", "--config", str(short_cfg), "--chains", "2",
                     "--out", str(short)]) == 0
        for name in ("chain_1.jsonl", "chain_1.ckpt.json"):
            (resumed / name).write_bytes((short / name).read_bytes())
        full_cfg = shrink_config(sim_dir, n_iterations=10)
        capsys.readouterr()
        assert main(["fit", "--config", str(full_cfg), "--chains", "2",
                     "--resume", "--out", str(resumed)]) == 0
        err = capsys.readouterr().err
        assert f"chain {resumed / 'chain_0.jsonl'}: already complete" in err
        for i in range(2):
            for name in (f"chain_{i}.jsonl", f"chain_{i}.ckpt.json"):
                assert (resumed / name).read_bytes() == (straight / name).read_bytes()

    def test_invalid_config_key_names_it(self, sim_dir, tmp_path, capsys):
        cfg_path = sim_dir / "config.json"
        raw = json.loads(cfg_path.read_text())
        raw["sampler"]["stepsizes"] = {}
        cfg_path.write_text(json.dumps(raw))
        code = main(["fit", "--config", str(cfg_path), "--chains", "1",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "stepsizes" in capsys.readouterr().err

    def test_overflowing_proposals_are_rejected(self, sim_dir, tmp_path):
        # A proposal step this large, restored from a checkpoint, puts
        # alpha where RK4 overflows; the move is rejected quietly and the
        # resumed fit completes.
        out = tmp_path / "fit"
        cfg = shrink_config(sim_dir, n_iterations=4)
        assert main(["fit", "--config", str(cfg), "--chains", "1", "--out", str(out)]) == 0
        ckpt = out / "chain_0.ckpt.json"
        raw = json.loads(ckpt.read_text())
        raw["step_sizes"]["alpha"] = 1e308
        ckpt.write_text(json.dumps(raw))
        cfg = shrink_config(sim_dir, n_iterations=12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", "--config", str(cfg), "--chains", "1", "--resume",
                         "--out", str(out)]) == 0
        _, records = read_chain(out / "chain_0.jsonl")
        resumed = [rec for rec in records if rec.iteration > 4]
        assert len(resumed) == 8
        assert not any(any(rec.mh_accepted["alpha"]) for rec in resumed)

    @pytest.mark.parametrize("data_format, rows, bad_line", [
        ("counts", ["label,active_count", "d1,5", "d2,-3", "d3,4"], 3),
        ("proportions", ["label,y", "d1,0.1", "d2,nan", "d3,0.2"], 3),
        ("proportions", ["d1,0.1", "d2,5.0", "d3,0.2"], 2),
        ("proportions", ["d1,0.1", "d2,0.2", "d3,-2"], 3),
    ])
    def test_bad_data_file_is_usage_error_naming_file_and_line(
        self, sim_dir, tmp_path, capsys, data_format, rows, bad_line
    ):
        cfg = shrink_config(sim_dir)
        raw = json.loads(cfg.read_text())
        raw["data"] = {"path": "bad.csv", "format": data_format, "population": 1000}
        if data_format == "proportions":
            del raw["data"]["population"]
        cfg.write_text(json.dumps(raw))
        (sim_dir / "bad.csv").write_text("\n".join(rows) + "\n")
        out = tmp_path / "fit"
        code = main(["fit", "--config", str(cfg), "--chains", "1", "--out", str(out)])
        assert code == 2
        assert f"{sim_dir / 'bad.csv'}: line {bad_line}:" in capsys.readouterr().err
        assert not (out / "chain_0.jsonl").exists()

    def test_missing_config_file(self, tmp_path):
        code = main(["fit", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("flag", ["--chains", "--jobs"])
    def test_zero_count_is_usage_error(self, sim_dir, tmp_path, capsys, flag):
        cfg = shrink_config(sim_dir)
        out = tmp_path / "fit"
        with pytest.raises(SystemExit) as exc_info:
            main(["fit", "--config", str(cfg), flag, "0", "--out", str(out)])
        assert exc_info.value.code == 2
        assert f"argument {flag}: must be a positive integer" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_negative_seed_is_usage_error(self, sim_dir, tmp_path, capsys):
        cfg = shrink_config(sim_dir)
        out = tmp_path / "fit"
        with pytest.raises(SystemExit) as exc_info:
            main(["fit", "--config", str(cfg), "--seed", "-1", "--out", str(out)])
        assert exc_info.value.code == 2
        assert "argument --seed: must be an integer >= 0, got '-1'" in capsys.readouterr().err
        assert not out.exists()

    def test_particle_dump_flag(self, sim_dir, tmp_path):
        cfg_path = shrink_config(sim_dir)
        raw = json.loads(cfg_path.read_text())
        raw["output"]["dump_particles"] = True
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "fit"
        assert main(["fit", "--config", str(cfg_path), "--chains", "1",
                     "--out", str(out)]) == 0
        dump = (out / "particles_0.csv").read_text().strip().split("\n")
        assert dump[0].startswith("t,particle,regime")
        assert len(dump) == 1 + 150 * 6  # T x N rows


class TestSelect:
    def test_table_rows(self, sim_dir, tmp_path, capsys):
        cfg = shrink_config(sim_dir)
        out = tmp_path / "sel"
        assert main(["select", "--config", str(cfg), "--K", "1,2",
                     "--out", str(out)]) == 0
        table = (out / "model_selection.csv").read_text().strip().split("\n")
        assert table[0] == "K,log_ml_mean,log_ml_sd"
        assert len(table) == 3

    def test_single_candidate(self, sim_dir, tmp_path):
        cfg = shrink_config(sim_dir)
        out = tmp_path / "sel1"
        assert main(["select", "--config", str(cfg), "--K", "2",
                     "--out", str(out)]) == 0
        table = (out / "model_selection.csv").read_text().strip().split("\n")
        assert len(table) == 2

    def test_jobs_do_not_change_output(self, sim_dir, tmp_path, capsys):
        # Three candidate fits in one process and in two write the same table
        # and console text.
        cfg = shrink_config(sim_dir)
        tables, errs = {}, {}
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            assert main(["select", "--config", str(cfg), "--K", "1,2,3", "--jobs",
                         str(jobs), "--out", str(out)]) == 0
            tables[jobs] = (out / "model_selection.csv").read_bytes()
            errs[jobs] = capsys.readouterr().err.replace(str(out), "OUT")
        assert tables[1] == tables[2]
        assert errs[1] == errs[2]
        assert len(tables[1].splitlines()) == 4

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_non_positive_jobs_is_usage_error(self, sim_dir, tmp_path, capsys, jobs):
        cfg = shrink_config(sim_dir)
        out = tmp_path / "sel"
        with pytest.raises(SystemExit) as exc_info:
            main(["select", "--config", str(cfg), "--K", "1,2", "--jobs", jobs,
                  "--out", str(out)])
        assert exc_info.value.code == 2
        assert "argument --jobs: must be a positive integer" in capsys.readouterr().err
        assert not (out / "model_selection.csv").exists()

    @pytest.mark.parametrize("k_list,message", [
        ("0", "must be a positive integer, got '0'"),
        ("a,b", "must be a positive integer, got 'a'"),
        ("2,1,2", "regime counts must be distinct, got '2,1,2'"),
    ], ids=["zero", "non-numeric", "repeated"])
    def test_bad_k_list(self, sim_dir, tmp_path, capsys, k_list, message):
        cfg = shrink_config(sim_dir)
        out = tmp_path / "sel"
        with pytest.raises(SystemExit) as exc_info:
            main(["select", "--config", str(cfg), "--K", k_list, "--out", str(out)])
        assert exc_info.value.code == 2
        assert f"argument --K: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestSelectRows:
    """select's candidate fits: cli._select_rows."""

    def _data(self):
        from tests.test_smc import make_data

        y, params, priors, _ = make_data(horizon=30)
        return y, priors

    def test_reports_one_row_per_candidate(self):
        y, priors = self._data()
        cfg = SamplerConfig(
            n_iterations=12, burn_in=2, m_per_regime=4, seed=3, mh_sweeps_per_iter=1
        )
        priors_by_k = {k: priors_for_k(priors, k) for k in (1, 2)}
        rows = cli._select_rows(y, priors_by_k, cfg, 1)
        assert len(rows) == 2
        assert {row.n_regimes for row in rows} == {1, 2}
        assert all(row.error is None for row in rows)
        # Sorted best first.
        assert rows[0].log_ml_mean >= rows[1].log_ml_mean

    def test_single_candidate(self):
        y, priors = self._data()
        cfg = SamplerConfig(
            n_iterations=8, burn_in=2, m_per_regime=4, seed=4, mh_sweeps_per_iter=1
        )
        rows = cli._select_rows(y, {2: priors_for_k(priors, 2)}, cfg, 1)
        assert len(rows) == 1

    def test_per_candidate_failure_is_isolated(self):
        y, priors = self._data()
        cfg = SamplerConfig(
            n_iterations=8, burn_in=2, m_per_regime=4, seed=5, mh_sweeps_per_iter=1
        )
        priors_by_k = {2: priors_for_k(priors, 2), 3: None}
        rows = cli._select_rows(y, priors_by_k, cfg, 1)
        by_k = {row.n_regimes: row for row in rows}
        assert by_k[2].error is None
        assert by_k[3].error is not None
        assert by_k[3].log_ml_mean == -math.inf


def _drop_last_step(path: dict) -> None:
    for key in ("thetas", "regimes"):
        path[key].pop()


# Non-finite or malformed parameters, as json reads them from a checkpoint
# or a chain record: an edit of the params dict and ParameterSet's message.
BAD_PARAMS = {
    **{f"{pid}-infinite": (lambda d, pid=pid: d.update({pid: math.inf}),
                           f"{pid} must be finite and strictly positive")
       for pid in ("alpha", "lambda", "kappa")},
    "trans-matrix-nan": (lambda d: d.update(trans_matrix=[[math.nan, math.nan], [0.5, 0.5]]),
                         "transition probabilities must lie in [0, 1]"),
    "start-index-fraction": (lambda d: operator.setitem(d["ident_rates"][0], 1, 0.7),
                             "identification-rate start indices must be integers"),
}

# Checkpoint defects: an edit of the checkpoint dict (None: the file is
# not JSON) and the message that names it.
BAD_CHECKPOINTS = {
    "not-json": (None, "not valid JSON"),
    "wrong-kind": (lambda ck: ck.update(kind="switchseir-chain"), "not a checkpoint file"),
    "no-step-sizes": (lambda ck: ck.pop("step_sizes"),
                      "invalid checkpoint: missing key 'step_sizes'"),
    "schema-99": (lambda ck: ck.update(schema=99), "schema version 99 unsupported"),
    "state-off-simplex": (
        lambda ck: operator.setitem(ck["reference"]["path"]["thetas"], 3, [0.5] * 4),
        "invalid checkpoint: reference states must sum to 1"),
    "path-too-short": (
        lambda ck: _drop_last_step(ck["reference"]["path"]),
        "invalid checkpoint: reference has 149 steps, the series 150"),
    "regime-out-of-range": (
        lambda ck: operator.setitem(ck["reference"]["path"]["regimes"], 0, 2),
        "invalid checkpoint: reference regimes out of range"),
    "iteration-a-string": (lambda ck: ck.update(iteration="8"), "must be integers >= 0"),
    "step-sizes-a-list": (lambda ck: ck.update(step_sizes=[0.1]),
                          "step_sizes and window_counts must map the MH ids"),
    **{f"params-{case}": (lambda ck, edit=edit: edit(ck["params"]),
                          f"invalid checkpoint: {message}")
       for case, (edit, message) in BAD_PARAMS.items()},
}

# Chain-record defects: an edit of record 2's dict and what the message says.
BAD_RECORDS = {
    "negative-alpha": (lambda rec: rec["params"].update(alpha=-1.0),
                       "alpha must be finite and strictly positive"),
    "one-step-short": (lambda rec: _drop_last_step(rec["path"]),
                       "reference has 149 steps, the series 150"),
    **{f"params-{case}": (lambda rec, edit=edit: edit(rec["params"]), message)
       for case, (edit, message) in BAD_PARAMS.items()},
}

# Config defects: an edit of the raw config and the key the message names.
BAD_CONFIGS = {
    "n-regimes-a-word": (lambda raw: raw["model"].update(n_regimes="two"),
                         "model.n_regimes must be an integer >= 1, got 'two'"),
    "change-times-an-int": (lambda raw: raw["model"].update(ident_change_times=1),
                            "model.ident_change_times must be a list of integers"),
    "prior-a-number": (lambda raw: raw["priors"].update(alpha=5),
                       "priors.alpha must be an object of numbers mean, sd and optional "
                       "lower, upper, got 5"),
    "population-a-string": (lambda raw: raw["data"].update(format="counts", population="abc"),
                            "data.population must be a positive number, got 'abc'"),
    "aggregation-monthly": (
        lambda raw: raw["data"].update(format="counts", population=1e6, aggregation="monthly"),
        "data.aggregation must be 'none' or 'weekly', got 'monthly'"),
    # Proposal scales come from the priors; no sampler key sets them.
    "step-size-a-string": (lambda raw: raw["sampler"].update(step_sizes={"alpha": "x"}),
                           "unknown config key sampler.step_sizes"),
    "thin-a-string": (lambda raw: raw["sampler"].update(thin="2"),
                      "sampler.thin must be an integer >= 1, got '2'"),
    # json reads NaN and Infinity; a config number must be finite.
    "population-infinite": (
        lambda raw: raw["data"].update(format="counts", population=math.inf),
        "data.population must be a positive number, got inf"),
    "prior-mean-nan": (lambda raw: raw["priors"]["alpha"].update(mean=math.nan),
                       "priors.alpha must be an object of numbers mean, sd and optional "
                       "lower, upper, got {'lower': 0.0, 'mean': nan, 'sd': 0.1}"),
    "prior-sd-infinite": (lambda raw: raw["priors"]["alpha"].update(sd=math.inf),
                          "priors.alpha must be an object of numbers mean, sd and optional "
                          "lower, upper, got {'lower': 0.0, 'mean': 0.3, 'sd': inf}"),
    "gamma-shape-infinite": (lambda raw: raw["priors"]["kappa"].update(shape=math.inf),
                             "priors.kappa must be an object of numbers shape, rate, "
                             "got {'rate': 0.01, 'shape': inf}"),
    # Identification-rate change times must increase.
    "change-times-decreasing": (lambda raw: _set_change_times(raw, [1, 5, 3]),
                                "model.ident_change_times: identification-rate start "
                                "indices must increase"),
    "change-times-repeated": (lambda raw: _set_change_times(raw, [1, 5, 5]),
                              "model.ident_change_times: identification-rate start "
                              "indices must increase"),
    "change-time-zero": (lambda raw: _set_change_times(raw, [1, 0]),
                         "model.ident_change_times: identification-rate start "
                         "indices must increase"),
    # A prior's support must lie in its parameter's domain.
    "ident-upper-above-one": (lambda raw: raw["priors"]["ident"][0].update(upper=3),
                              "priors.ident: identification-rate prior bounds must lie "
                              "within [0, 1]"),
    "alpha-lower-negative": (lambda raw: raw["priors"]["alpha"].update(lower=-1),
                             "priors.alpha: alpha prior lower bound must be >= 0"),
    # A prior value that its constructor rejects.
    "prior-sd-negative": (lambda raw: raw["priors"]["alpha"].update(sd=-1),
                          "priors.alpha: sd must be strictly positive"),
    "prior-lower-not-below-upper": (
        lambda raw: raw["priors"]["beta"].update(lower=0.5, upper=0.5),
        "priors.beta: lower must be strictly less than upper"),
    "theta1-three-entries": (lambda raw: raw["priors"].update(theta1=[100, 1, 1]),
                             "priors.theta1: theta1 prior must be 4-dimensional"),
    "theta1-negative-entry": (lambda raw: raw["priors"].update(theta1=[100, -1, 1, 1]),
                              "priors.theta1: Dirichlet concentrations must be strictly "
                              "positive"),
    "rows-one-row-at-k2": (lambda raw: raw["priors"].update(rows=[[10, 1]]),
                           "priors.rows: need one row concentration vector per regime"),
    "rows-empty-at-k2": (lambda raw: raw["priors"].update(rows=[]),
                         "priors.rows: need one row concentration vector per regime"),
    "rows-given-at-k1": (lambda raw: (raw["model"].update(n_regimes=1),
                                      raw["priors"].update(rows=[[5, 5]])),
                         "priors.rows: need one row concentration vector per regime, "
                         "none for K = 1"),
    # The counts keys have no meaning for a series of proportions.
    "aggregation-of-proportions": (lambda raw: raw["data"].update(aggregation="weekly"),
                                   "data.aggregation: a proportions series takes no "
                                   "aggregation"),
    "population-of-proportions": (lambda raw: raw["data"].update(population=1000),
                                  "data.population: a proportions series takes no "
                                  "population"),
    # An integer beyond the float range is not a number the config takes.
    "population-past-float-range": (
        lambda raw: raw["data"].update(format="counts", population=10**400),
        "data.population must be a positive number, got 1" + "0" * 400),
    # Sampler keys are named like the other blocks' keys.
    "sampler-seed-missing": (lambda raw: raw["sampler"].pop("seed"),
                             "missing config key sampler.seed"),
    "burn-in-not-below-iterations": (lambda raw: raw["sampler"].update(burn_in=8),
                                     "sampler.burn_in: need n_iterations > burn_in >= 0"),
    # Change times must lie within the series.
    "change-time-past-series": (lambda raw: _set_change_times(raw, [1, 500]),
                                "model.ident_change_times: change time 500 lies past "
                                "the 150 steps of "),
}


def _set_change_times(raw: dict, times: list) -> None:
    """Give the config these change times and one ident prior for each."""
    raw["model"]["ident_change_times"] = times
    raw["priors"]["ident"] *= len(times)


class TestBadInputs:
    """An input file or config value that cannot be used exits 2 with a
    message naming the file or the key."""

    @pytest.mark.parametrize("case", list(BAD_CHECKPOINTS))
    def test_resume_from_bad_checkpoint(self, sim_dir, tmp_path, capsys, case):
        edit, message = BAD_CHECKPOINTS[case]
        cfg, out = shrink_config(sim_dir), tmp_path / "fit"
        assert main(["fit", "--config", str(cfg), "--chains", "1", "--out", str(out)]) == 0
        ckpt = out / "chain_0.ckpt.json"
        if edit is None:
            ckpt.write_text("{not json")
        else:
            raw = json.loads(ckpt.read_text())
            edit(raw)
            ckpt.write_text(json.dumps(raw))
        capsys.readouterr()
        assert main(["fit", "--config", str(cfg), "--chains", "1", "--resume",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: ")
        assert message in err

    def test_resume_from_another_chains_checkpoint(self, sim_dir, tmp_path, capsys):
        # Chain 1's files copied over chain 0's: chain 0 (seed 1) refuses
        # chain 1's (seed 2) checkpoint rather than continue its streams.
        out = tmp_path / "fit"
        assert main(["fit", "--config", str(shrink_config(sim_dir)), "--chains", "2",
                     "--out", str(out)]) == 0
        for suffix in ("jsonl", "ckpt.json"):
            shutil.copy(out / f"chain_1.{suffix}", out / f"chain_0.{suffix}")
        cfg = shrink_config(sim_dir, n_iterations=10)
        capsys.readouterr()
        assert main(["fit", "--config", str(cfg), "--chains", "2", "--resume",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: {out / 'chain_0.ckpt.json'}: checkpoint "
                                           "belongs to the chain of seed 2, not 1\n")

    def test_resume_of_a_chain_file_cut_short(self, sim_dir, tmp_path, capsys):
        # The checkpoint has emitted 6 records and the chain file holds 3:
        # resuming would leave a gap of 3 iterations in the chain.
        out = tmp_path / "fit"
        assert main(["fit", "--config", str(shrink_config(sim_dir)), "--chains", "1",
                     "--out", str(out)]) == 0
        chain = out / "chain_0.jsonl"
        chain.write_text("".join(chain.read_text().splitlines(keepends=True)[:4]))
        before = chain.read_bytes()
        cfg = shrink_config(sim_dir, n_iterations=12)
        capsys.readouterr()
        assert main(["fit", "--config", str(cfg), "--chains", "1", "--resume",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: {chain}: chain file holds 3 records, "
                                           "its checkpoint has emitted 6\n")
        assert chain.read_bytes() == before

    def test_resume_of_another_runs_chain_file(self, sim_dir, tmp_path, capsys):
        # The chain file of a --seed 7 run copied over chain 0 of a seed-1
        # run whose checkpoint stays: the resume refuses to extend it.
        cfg = shrink_config(sim_dir)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["fit", "--config", str(cfg), "--chains", "1", "--out", str(a)]) == 0
        assert main(["fit", "--config", str(cfg), "--chains", "1", "--seed", "7",
                     "--out", str(b)]) == 0
        chain = a / "chain_0.jsonl"
        shutil.copy(b / "chain_0.jsonl", chain)
        before = chain.read_bytes()
        cfg = shrink_config(sim_dir, n_iterations=12)
        capsys.readouterr()
        assert main(["fit", "--config", str(cfg), "--chains", "1", "--resume",
                     "--out", str(a)]) == 2
        cfg_hash = json.loads((a / "manifest.json").read_text())["config_hash"]
        assert capsys.readouterr().err == (
            f"error: {chain}: chain header differs from the chain being resumed "
            f"(config hash {cfg_hash}, seed 1)\n")
        assert chain.read_bytes() == before

    def test_resume_of_a_chain_whose_checkpoint_is_missing(self, sim_dir, tmp_path, capsys):
        # A fresh start would overwrite the 6 records the chain file holds.
        out = tmp_path / "fit"
        assert main(["fit", "--config", str(shrink_config(sim_dir)), "--chains", "1",
                     "--out", str(out)]) == 0
        chain, ckpt = out / "chain_0.jsonl", out / "chain_0.ckpt.json"
        ckpt.unlink()
        before = chain.read_bytes()
        cfg = shrink_config(sim_dir, n_iterations=12)
        capsys.readouterr()
        assert main(["fit", "--config", str(cfg), "--chains", "1", "--resume",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: {chain}: chain file holds 6 records "
                                           f"and its checkpoint {ckpt} is missing\n")
        assert chain.read_bytes() == before
        assert not ckpt.exists()

    def test_resume_of_a_chain_stopped_before_its_first_checkpoint(self, sim_dir, tmp_path):
        # A chain file holding its header alone starts afresh, as a fit
        # without --resume would.
        cfg = shrink_config(sim_dir, n_iterations=12)
        fresh, resumed = tmp_path / "fresh", tmp_path / "resumed"
        assert main(["fit", "--config", str(cfg), "--chains", "1", "--out", str(fresh)]) == 0
        resumed.mkdir()
        header = (fresh / "chain_0.jsonl").read_text().splitlines(keepends=True)[0]
        (resumed / "chain_0.jsonl").write_text(header)
        assert main(["fit", "--config", str(cfg), "--chains", "1", "--resume",
                     "--out", str(resumed)]) == 0
        for name in ("chain_0.jsonl", "chain_0.ckpt.json"):
            assert (resumed / name).read_bytes() == (fresh / name).read_bytes()

    @pytest.mark.parametrize("case", list(BAD_RECORDS))
    def test_bad_chain_record(self, sim_dir, tmp_path, capsys, case):
        edit, message = BAD_RECORDS[case]
        cfg, out = shrink_config(sim_dir), tmp_path / "fit"
        assert main(["fit", "--config", str(cfg), "--chains", "2", "--out", str(out)]) == 0
        chain = out / "chain_0.jsonl"
        lines = chain.read_text().splitlines()
        record = json.loads(lines[2])
        edit(record)
        lines[2] = json.dumps(record)
        chain.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["diagnose", str(chain), str(out / "chain_1.jsonl"),
                     "--out", str(tmp_path / "diag")]) == 2
        assert capsys.readouterr().err == (
            f"error: {chain}: record 2 unreadable ({message}); last complete record is 1\n")

    def test_directory_as_the_config(self, tmp_path, capsys):
        assert main(["fit", "--config", str(tmp_path), "--out", str(tmp_path / "fit")]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path}: Is a directory\n"
        assert not (tmp_path / "fit").exists()

    def test_directory_as_the_data_file(self, sim_dir, tmp_path, capsys):
        cfg = shrink_config(sim_dir)
        raw = json.loads(cfg.read_text())
        raw["data"]["path"] = "series"
        cfg.write_text(json.dumps(raw))
        (sim_dir / "series").mkdir()
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "fit")]) == 2
        assert capsys.readouterr().err == f"error: {sim_dir / 'series'}: Is a directory\n"
        assert not (tmp_path / "fit").exists()

    def test_directory_as_a_chain_file(self, tmp_path, capsys):
        chain, folder = tmp_path / "chain_0.jsonl", tmp_path / "chain_1.jsonl"
        write_records(chain, make_records(n=10), chain_header(2, 8, "abc", 1))
        folder.mkdir()
        assert main(["diagnose", str(chain), str(folder), "--out", str(tmp_path / "diag")]) == 2
        assert capsys.readouterr().err == f"error: {folder}: Is a directory\n"
        assert not (tmp_path / "diag").exists()

    def test_directory_as_the_checkpoint(self, sim_dir, tmp_path, capsys):
        cfg, out = shrink_config(sim_dir), tmp_path / "fit"
        assert main(["fit", "--config", str(cfg), "--chains", "1", "--out", str(out)]) == 0
        ckpt = out / "chain_0.ckpt.json"
        ckpt.unlink()
        ckpt.mkdir()
        capsys.readouterr()
        assert main(["fit", "--config", str(cfg), "--chains", "1", "--resume",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {ckpt}: Is a directory\n"

    @pytest.mark.parametrize("case", list(BAD_CONFIGS))
    def test_bad_config_value_names_the_key(self, sim_dir, tmp_path, capsys, case):
        edit, message = BAD_CONFIGS[case]
        cfg = shrink_config(sim_dir)
        raw = json.loads(cfg.read_text())
        edit(raw)
        cfg.write_text(json.dumps(raw))
        assert main(["fit", "--config", str(cfg), "--chains", "1",
                     "--out", str(tmp_path / "fit")]) == 2
        assert message in capsys.readouterr().err


class TestLoadRun:
    """fit, select and summarize load their config, output directory and
    series through one loader, which checks the config against the
    series."""

    def test_out_falls_back_to_the_config_directory(self, sim_dir):
        cfg = shrink_config(sim_dir)
        args = argparse.Namespace(config=str(cfg), out=None, seed=7)
        config, out, dataset = cli._load_run(args)
        assert out == str(sim_dir) == config.output["directory"]
        assert config.sampler.seed == 7
        assert dataset.horizon == 150
        args.out = "elsewhere"
        assert cli._load_run(args)[1] == "elsewhere"

    def test_change_time_at_the_last_step_is_within_the_series(self, sim_dir):
        cfg = shrink_config(sim_dir)
        raw = json.loads(cfg.read_text())
        _set_change_times(raw, [1, 150])
        cfg.write_text(json.dumps(raw))
        config, _, _ = cli._load_run(argparse.Namespace(config=str(cfg), out=None))
        assert config.priors.ident_start_times == (0, 149)

    @pytest.mark.parametrize("command", ["fit", "select", "summarize"])
    @pytest.mark.parametrize("case", ["one-row", "one-week", "change-time-past-series"])
    def test_series_checks_exit_2_in_every_command(self, sim_dir, tmp_path, capsys,
                                                   command, case):
        cfg = shrink_config(sim_dir)
        raw = json.loads(cfg.read_text())
        data = sim_dir / "dataset.csv"
        if case == "change-time-past-series":
            _set_change_times(raw, [1, 151])
            message = f"model.ident_change_times: change time 151 lies past the 150 steps of {data}"
        else:
            data = sim_dir / "short.csv"
            if case == "one-row":
                data.write_text("label,y\nd1,0.1\n")
            else:  # seven daily counts aggregate to one weekly value
                data.write_text("".join(f"d{i},{i}\n" for i in range(1, 8)))
                raw["data"] = {"path": "short.csv", "format": "counts",
                               "population": 1000, "aggregation": "weekly"}
            raw["data"]["path"] = "short.csv"
            message = f"{data}: one observation, need at least two"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        extra = {"fit": ["--chains", "1"], "select": ["--K", "1,2"],
                 "summarize": [str(tmp_path / "chain_0.jsonl")]}[command]
        assert main([command, *extra, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestDiagnoseAndSummarize:
    @pytest.fixture()
    def fitted(self, sim_dir, tmp_path):
        cfg = shrink_config(sim_dir, n_iterations=62, burn_in=2)
        out = tmp_path / "fit"
        assert main(["fit", "--config", str(cfg), "--chains", "2",
                     "--out", str(out)]) == 0
        return cfg, out

    def test_diagnose_two_chains(self, fitted, tmp_path, capsys):
        _, out = fitted
        diag = tmp_path / "diag"
        code = main(["diagnose", str(out / "chain_0.jsonl"),
                     str(out / "chain_1.jsonl"), "--out", str(diag)])
        assert code == 0
        table = (diag / "rhat.csv").read_text().strip().split("\n")
        assert table[0] == "parameter,rhat,status"
        names = {line.split(",")[0] for line in table[1:]}
        assert {"alpha", "beta", "gamma", "lambda", "kappa", "p", "f2",
                "r0"} <= names

    def test_console_and_table_status_agree_at_the_gate(self, tmp_path, capsys,
                                                        monkeypatch):
        rhats = {"far_below": 1.0, "below": math.nextafter(RHAT_GATE, 0.0),
                 "at": RHAT_GATE, "above": math.nextafter(RHAT_GATE, 2.0),
                 "far_above": 3.0}
        monkeypatch.setattr(cli, "_load_chains", lambda paths, min_each: [[], []])
        monkeypatch.setattr(cli, "gelman_rubin_table", lambda chains: rhats)
        assert main(["diagnose", "a.jsonl", "b.jsonl", "--out", str(tmp_path)]) == 0
        console = dict(re.findall(r"rhat\[(\w+)\] = \S+ (PASS|FAIL)",
                                  capsys.readouterr().err))
        rows = (tmp_path / "rhat.csv").read_text().split()[1:]
        table = {name: status for name, _, status in (r.split(",") for r in rows)}
        assert console == table == {
            "far_below": "PASS", "below": "PASS", "at": "FAIL",
            "above": "FAIL", "far_above": "FAIL",
        }

    def test_diagnose_reports_a_parameter_that_never_moves(self, tmp_path, capsys):
        # Two hand-built 10-record chains in which alpha stays at 0.25:
        # diagnose reports its R-hat as inf and FAIL beside the others.
        chains = []
        for seed in (1, 2):
            records = [replace(r, params=replace(r.params, alpha=0.25))
                       for r in make_records(n=10, seed=seed)]
            chains.append(tmp_path / f"chain_{seed}.jsonl")
            write_records(chains[-1], records, chain_header(2, 8, "abc", seed))
        out = tmp_path / "diag"
        assert main(["diagnose", *map(str, chains), "--out", str(out)]) == 0
        assert "rhat[alpha] = inf FAIL\n" in capsys.readouterr().err
        rows = [line.split(",") for line in (out / "rhat.csv").read_text().split()[1:]]
        assert ["alpha", "inf", "FAIL"] in rows
        assert len(rows) == 12
        assert all(math.isfinite(float(rhat)) for name, rhat, _ in rows if name != "alpha")

    @pytest.mark.parametrize("alias", ["same", "dotted", "symlink", "hard-link"])
    def test_diagnose_refuses_a_chain_file_named_twice(self, tmp_path, capsys, alias):
        # One chain counted twice agrees with itself: every R-hat would
        # read below 1 and pass.
        chain = str(tmp_path / "chain_0.jsonl")
        write_records(chain, make_records(n=10), chain_header(2, 8, "abc", 1))
        twin = {"same": chain, "dotted": f"{tmp_path}/./chain_0.jsonl",
                "symlink": str(tmp_path / "sym.jsonl"),
                "hard-link": str(tmp_path / "hard.jsonl")}[alias]
        if alias == "symlink":
            os.symlink(chain, twin)
        elif alias == "hard-link":
            os.link(chain, twin)
        assert main(["diagnose", chain, twin, "--out", str(tmp_path / "diag")]) == 2
        assert capsys.readouterr().err == (
            f"error: {twin}: the same chain file as {chain}, listed twice\n")
        assert not (tmp_path / "diag").exists()

    def test_diagnose_refuses_single_chain(self, fitted, tmp_path):
        _, out = fitted
        code = main(["diagnose", str(out / "chain_0.jsonl"),
                     "--out", str(tmp_path)])
        assert code == 2

    @pytest.fixture()
    def short_chains(self, sim_dir, tmp_path):
        """Two chain files of 6 records each, and the config."""
        cfg = shrink_config(sim_dir)
        out = tmp_path / "short"
        assert main(["fit", "--config", str(cfg), "--chains", "2",
                     "--out", str(out)]) == 0
        return cfg, [str(out / f"chain_{i}.jsonl") for i in range(2)]

    def test_diagnose_names_a_short_chain_file(self, short_chains, tmp_path, capsys):
        _, chains = short_chains
        assert main(["diagnose", *chains, "--out", str(tmp_path / "diag")]) == 2
        err = capsys.readouterr().err
        assert f"error: {chains[0]}: chain file holds 6 records, need at least 10" in err
        assert not (tmp_path / "diag").exists()

    def test_summarize_names_too_few_pooled_records(self, short_chains, tmp_path,
                                                    capsys):
        cfg, chains = short_chains
        assert main(["summarize", *chains, "--config", str(cfg),
                     "--out", str(tmp_path / "sum")]) == 2
        err = capsys.readouterr().err
        assert (f"error: {chains[0]}, {chains[1]}: 12 records pooled, "
                "need at least 100 to summarize") in err
        assert not (tmp_path / "sum").exists()

    def test_summarize_refuses_a_chain_file_named_twice(self, short_chains, tmp_path,
                                                        capsys):
        cfg, chains = short_chains
        assert main(["summarize", chains[0], chains[1], chains[0], "--config", str(cfg),
                     "--out", str(tmp_path / "sum")]) == 2
        assert capsys.readouterr().err == (
            f"error: {chains[0]}: the same chain file as {chains[0]}, listed twice\n")
        assert not (tmp_path / "sum").exists()

    @pytest.mark.parametrize("horizon", [100, 170])
    def test_summarize_names_a_chain_of_another_horizon(self, short_chains, tmp_path,
                                                         capsys, horizon):
        cfg, chains = short_chains
        raw = json.loads(cfg.read_text())
        series = (cfg.parent / "dataset.csv").read_text().splitlines()[1:]
        series = (series * 2)[:horizon]
        (cfg.parent / "other.csv").write_text("\n".join(series) + "\n")
        raw["data"]["path"] = "other.csv"
        cfg.write_text(json.dumps(raw))
        assert main(["summarize", *chains, "--config", str(cfg),
                     "--out", str(tmp_path / "sum")]) == 2
        assert capsys.readouterr().err == (
            f"error: {chains[0]}: chain of a 150-step series, the data holds "
            f"{horizon} steps\n")
        assert not (tmp_path / "sum").exists()

    @pytest.fixture()
    def other_chain(self, fitted, sim_dir, tmp_path):
        """Fits a chain like fitted's (60 records, so R-hat is defined)
        but of n_regimes regimes on the first horizon steps of the
        series; returns its file."""

        def fit(n_regimes: int, horizon: int) -> str:
            raw = json.loads((sim_dir / "config.json").read_text())
            raw["model"]["n_regimes"] = n_regimes
            raw["priors"].pop("rows")
            series = (sim_dir / "dataset.csv").read_text().splitlines()[: horizon + 1]
            (sim_dir / "other.csv").write_text("\n".join(series) + "\n")
            raw["data"]["path"] = "other.csv"
            cfg, out = sim_dir / "other.json", tmp_path / "other"
            cfg.write_text(json.dumps(raw))
            assert main(["fit", "--config", str(cfg), "--chains", "1",
                         "--out", str(out)]) == 0
            return str(out / "chain_0.jsonl")

        return fit

    @pytest.mark.parametrize("other_first", [False, True])
    @pytest.mark.parametrize("n_regimes, horizon, key", [(3, 150, "n_regimes"),
                                                         (2, 100, "horizon")])
    def test_diagnose_names_a_chain_of_another_shape(self, fitted, other_chain, tmp_path,
                                                     capsys, n_regimes, horizon, key,
                                                     other_first):
        _, out = fitted
        other = other_chain(n_regimes, horizon)
        shape = {str(out / "chain_0.jsonl"): {"n_regimes": 2, "horizon": 150},
                 other: {"n_regimes": n_regimes, "horizon": horizon}}
        chains = list(shape)[::-1] if other_first else list(shape)
        capsys.readouterr()
        assert main(["diagnose", *chains, "--out", str(tmp_path / "diag")]) == 2
        assert capsys.readouterr().err == (
            f"error: {chains[1]}: chain header has {key} {shape[chains[1]][key]}, "
            f"{chains[0]} has {shape[chains[0]][key]}\n")
        assert not (tmp_path / "diag").exists()

    def test_summarize_names_a_chain_of_another_regime_count(self, fitted, tmp_path,
                                                             capsys):
        cfg, out = fitted
        raw = json.loads(cfg.read_text())
        raw["model"]["n_regimes"] = 3
        raw["priors"].pop("rows")
        cfg.write_text(json.dumps(raw))
        chains = [str(out / f"chain_{i}.jsonl") for i in range(2)]
        capsys.readouterr()
        assert main(["summarize", *chains, "--config", str(cfg),
                     "--out", str(tmp_path / "sum")]) == 2
        assert capsys.readouterr().err == (
            f"error: {chains[0]}: chain of 2 regimes, the config has 3\n")
        assert not (tmp_path / "sum").exists()

    def test_summarize_outputs(self, fitted, tmp_path):
        cfg, out = fitted
        sumdir = tmp_path / "sum"
        code = main(["summarize", str(out / "chain_0.jsonl"),
                     str(out / "chain_1.jsonl"), "--config", str(cfg),
                     "--out", str(sumdir)])
        assert code == 0
        summary = (sumdir / "summary.csv").read_text().strip().split("\n")
        assert summary[0] == "parameter,mean,median,sd,ci_lo,ci_hi"
        names = [line.split(",")[0] for line in summary[1:]]
        assert "r0" in names and "alpha" in names
        curves = (sumdir / "regime_curves.csv").read_text().strip().split("\n")
        assert curves[0] == (
            "t,label,p_regime_1,p_regime_2,y_obs,Ey_mean,Ey_lo,Ey_hi"
        )
        assert len(curves) == 151
        seir = (sumdir / "seir_curves.csv").read_text().strip().split("\n")
        assert seir[0].startswith("t,S_mean,S_lo,S_hi")
        assert len(seir) == 151


class TestUsage:
    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc_info:
            main([])
        assert exc_info.value.code == 2

import json
import os

import numpy as np
import pytest

from switchseir.cli import main
from switchseir.data_io import read_chain


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

    def test_unknown_scenario_is_runtime_error(self, tmp_path):
        code = main(["simulate", "--scenario", "nope", "--out", str(tmp_path)])
        assert code == 1

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

    def test_jobs_do_not_change_output(self, sim_dir, tmp_path):
        cfg = shrink_config(sim_dir)
        seq, par = tmp_path / "seq", tmp_path / "par"
        assert main(["fit", "--config", str(cfg), "--chains", "2", "--jobs", "1",
                     "--out", str(seq)]) == 0
        assert main(["fit", "--config", str(cfg), "--chains", "2", "--jobs", "2",
                     "--out", str(par)]) == 0
        for i in range(2):
            a = (seq / f"chain_{i}.jsonl").read_bytes()
            b = (par / f"chain_{i}.jsonl").read_bytes()
            assert a == b

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

    def test_invalid_config_key_names_it(self, sim_dir, tmp_path, capsys):
        cfg_path = sim_dir / "config.json"
        raw = json.loads(cfg_path.read_text())
        raw["sampler"]["stepsizes"] = {}
        cfg_path.write_text(json.dumps(raw))
        code = main(["fit", "--config", str(cfg_path), "--chains", "1",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "stepsizes" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["alpah", "f3"])
    def test_unknown_step_size_id_names_it(self, sim_dir, tmp_path, capsys, bad):
        # f3 is a modifier id only from K = 3 on; the config is K = 2.
        cfg = shrink_config(sim_dir, step_sizes={bad: 0.1})
        code = main(["fit", "--config", str(cfg), "--chains", "1",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert f"sampler.step_sizes.{bad}" in capsys.readouterr().err

    def test_valid_step_size_ids_are_used(self, sim_dir, tmp_path):
        steps = {"alpha": 0.05, "p": 0.01, "f2": 0.1, "rows": 0.02}
        cfg = shrink_config(sim_dir, step_sizes=steps)
        out = tmp_path / "fit"
        assert main(["fit", "--config", str(cfg), "--chains", "1",
                     "--out", str(out)]) == 0
        ckpt = json.loads((out / "chain_0.ckpt.json").read_text())
        assert {pid: ckpt["step_sizes"][pid] for pid in steps} == steps

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

    def test_bad_k_list(self, sim_dir, tmp_path):
        cfg = shrink_config(sim_dir)
        assert main(["select", "--config", str(cfg), "--K", "a,b",
                     "--out", str(tmp_path)]) == 2


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

    def test_diagnose_refuses_single_chain(self, fitted, tmp_path):
        _, out = fitted
        code = main(["diagnose", str(out / "chain_0.jsonl"),
                     "--out", str(tmp_path)])
        assert code == 2

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

    def test_env_var_output_dir(self, sim_dir, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("SWITCHSEIR_OUT", str(target))
        cfg = shrink_config(sim_dir)
        assert main(["fit", "--config", str(cfg), "--chains", "1"]) == 0
        assert (target / "chain_0.jsonl").exists()

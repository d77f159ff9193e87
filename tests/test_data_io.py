import csv
import json
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchseir.data_io import (
    _CONFIG_KEYS,
    Dataset,
    InputError,
    append_chain_record,
    chain_header,
    config_hash,
    dump_particle_system,
    fmt,
    generate_simulation,
    load_checkpoint,
    load_counts,
    load_dataset,
    load_proportions,
    params_from_dict,
    params_to_dict,
    parse_config,
    path_from_dict,
    path_to_dict,
    priors_from_dict,
    priors_to_dict,
    read_chain,
    read_truth,
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
from switchseir.diagnostics import ParamStats, PosteriorSummary, SelectionRow
from switchseir.model import LatentPath, param_table
from switchseir.pg import ChainRecord, PgState, SamplerConfig
from switchseir.smc import ParticleSystem
from tests.test_model import two_regime_params, two_regime_priors


# Every delimited output written from write_fixed_outputs' inputs, byte
# for byte: users' scripts parse these files, so their bytes are pinned.
PINNED_OUTPUTS = Path(__file__).parent / "data" / "writer_bytes"


def rng(seed=0):
    return np.random.default_rng(seed)


def write_fixed_outputs(out: Path) -> list[str]:
    """Write every delimited output into out from small fixed inputs and
    return the file names.  The inputs use no random stream and no
    transcendental function, so their bits are the same on every platform."""
    counts = np.arange(1.0, 13.0).reshape(3, 4)
    thetas = counts / counts.sum(axis=1, keepdims=True)
    ds = Dataset(("d1", "d2", "d3"), np.array([1e-6, 1 / 3, 0.1 + 0.2]))
    summary = PosteriorSummary(
        params={
            "alpha": ParamStats(1 / 3, 0.3, 0.05, 0.25, 0.41),
            "r0": ParamStats(2.0, 2.0, 0.0, 2.0, 2.0),
        },
        regime_probs=np.array([[1.0, 0.0], [0.5, 0.5], [0.25, 0.75]]),
        seir_mean=thetas,
        seir_lo=thetas * 0.9,
        seir_hi=thetas * 1.1,
        ey_mean=thetas[:, 2] / 4,
        ey_lo=thetas[:, 2] / 5,
        ey_hi=thetas[:, 2] / 3,
    )
    rows = [
        SelectionRow(2, 715.5, 18.25, 6),
        SelectionRow(1, -math.inf, math.nan, 0, "degenerate"),
    ]
    system = ParticleSystem(
        thetas=np.stack([thetas, thetas[::-1]]),
        regimes=np.array([[0, 1, 1], [1, 1, 0]], dtype=np.int8),
        log_weights=np.array([[-1.5, -0.25, -3.0], [-0.5, -2.0, -1.0]]),
        norm_weights=np.array([[0.5, 0.25, 0.25], [1 / 3, 1 / 3, 1 / 3]]),
        ancestors=np.array([[0, 0, 2]], dtype=np.int32),
        log_marginal=-2.5,
    )
    write_dataset(out / "dataset.csv", ds)
    write_truth(out / "truth.csv", LatentPath(thetas, np.array([0, 1, 1])))
    write_summary_table(out / "summary.csv", summary)
    write_regime_curves(out / "regime_curves.csv", summary, ds)
    write_seir_curves(out / "seir_curves.csv", summary)
    write_selection_table(out / "model_selection.csv", rows)
    write_rhat_table(out / "rhat.csv", {"alpha": 1.01, "r0": 1.5})
    dump_particle_system(out / "particles.csv", system)
    return sorted(path.name for path in out.iterdir())


def sample_config_dict(data_path="dataset.csv"):
    return {
        "model": {"n_regimes": 2, "ident_change_times": [1]},
        "priors": priors_to_dict(two_regime_priors()),
        "sampler": {
            "n_iterations": 12,
            "burn_in": 2,
            "m_per_regime": 4,
            "seed": 5,
            "mh_sweeps_per_iter": 1,
            "thin": 1,
        },
        "data": {"path": data_path, "format": "proportions"},
        "output": {"directory": "out"},
    }


class TestLoadCounts:
    def test_division_and_clamping(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("day1,0\nday2,507000\n")
        ds = load_counts(path, population=5_070_000)
        np.testing.assert_allclose(ds.y, [1e-6, 0.1])
        assert ds.times == ("day1", "day2")

    def test_weekly_aggregation(self, tmp_path):
        path = tmp_path / "counts.csv"
        rows = [f"d{i},{100 * (i + 1)}" for i in range(14)]
        path.write_text("\n".join(rows) + "\n")
        ds = load_counts(path, population=1_000_000, aggregation="weekly")
        assert ds.horizon == 2
        np.testing.assert_allclose(
            ds.y, [np.mean(np.arange(1, 8)) * 100 / 1e6, np.mean(np.arange(8, 15)) * 100 / 1e6]
        )

    def test_partial_week_uses_available_days(self, tmp_path):
        path = tmp_path / "counts.csv"
        rows = [f"d{i},700" for i in range(10)]
        path.write_text("\n".join(rows) + "\n")
        ds = load_counts(path, population=7_000_000, aggregation="weekly")
        assert ds.horizon == 2
        np.testing.assert_allclose(ds.y, [1e-4, 1e-4])

    def test_non_numeric_names_line(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("label,active_count\nd1,5\nd2,oops\n")
        with pytest.raises(ValueError, match="line 3"):
            load_counts(path, population=100)

    def test_header_is_skipped(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("label,active_count\nd1,5\nd2,6\n")
        ds = load_counts(path, population=100)
        assert ds.horizon == 2

    def test_header_after_blank_lines_is_skipped(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("\n  \nlabel,active_count\nd1,5\n\nd2,oops\n")
        with pytest.raises(ValueError, match="line 6: non-numeric count"):
            load_counts(path, population=100)
        path.write_text("\nlabel,active_count\nd1,5\nd2,6\n")
        ds = load_counts(path, population=100)
        assert ds.times == ("d1", "d2")
        np.testing.assert_array_equal(ds.y, [0.05, 0.06])

    def test_count_above_population_rejected(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("d1,150\n")
        with pytest.raises(ValueError, match="exceeds population"):
            load_counts(path, population=100)

    def test_negative_count_rejected(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("d1,-3\n")
        with pytest.raises(ValueError, match="negative"):
            load_counts(path, population=100)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_count_rejected(self, tmp_path, value):
        path = tmp_path / "counts.csv"
        path.write_text(f"d1,5\nd2,{value}\n")
        with pytest.raises(ValueError, match="line 2: non-finite count"):
            load_counts(path, population=100)


class TestLoadProportions:
    @pytest.mark.parametrize("value, problem", [
        ("nan", "non-finite"), ("-2", "negative"), ("5.0", "exceeds 1"),
    ])
    def test_bad_value_rejected(self, tmp_path, value, problem):
        path = tmp_path / "y.csv"
        path.write_text(f"label,y\nd1,0.5\nd2,{value}\n")
        with pytest.raises(ValueError, match=f"line 3: .*{problem}"):
            load_proportions(path)

    def test_header_after_blank_line_is_skipped(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("\nlabel,y\nd1,0.5\nd2,0.25\n")
        ds = load_proportions(path)
        assert ds.times == ("d1", "d2")
        np.testing.assert_array_equal(ds.y, [0.5, 0.25])

    def test_unreadable_row_names_line(self, tmp_path):
        # The csv reader's own errors (here a cell over its field-size
        # limit) surface as ValueError naming the file and line.
        path = tmp_path / "y.csv"
        path.write_text("label,y\nd1,0.5\n" + "x" * 200_000 + ",0.5\n")
        with pytest.raises(ValueError, match="y.csv: line 3: field larger"):
            load_proportions(path)

    def test_exact_bounds_are_clamped(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("d1,0\n\nd2,1\n")
        np.testing.assert_array_equal(load_proportions(path).y, [1e-6, 1 - 1e-6])


class TestScenarios:
    def test_two_regime_truth(self):
        params = generate_simulation("two-regime", seed=0)[2]
        assert params.alpha == pytest.approx(1 / 3)
        assert params.beta / params.gamma == pytest.approx(0.39 / 0.18)
        np.testing.assert_allclose(params.modifiers, [1.0, 0.1])
        np.testing.assert_allclose(
            params.trans_matrix, [[0.9, 0.1], [0.1, 0.9]]
        )

    def test_three_regime_truth(self):
        ds, path, params = generate_simulation("three-regime", seed=3)
        np.testing.assert_allclose(params.modifiers, [1.0, 0.6, 0.05])
        assert params.kappa == 8000.0
        assert ds.horizon == 175

    def test_deterministic_by_seed(self):
        a, pa, _ = generate_simulation("two-regime", seed=7)
        b, pb, _ = generate_simulation("two-regime", seed=7)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(pa.thetas, pb.thetas)
        c, _, _ = generate_simulation("two-regime", seed=8)
        assert not np.array_equal(a.y, c.y)

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            generate_simulation("five-regime", seed=1)

    def test_scenario_priors_match_published_table(self):
        priors = scenario_priors("two-regime")
        assert priors.alpha.mean == 0.3 and priors.alpha.sd == 0.1
        assert priors.lambda_.shape == 2.0 and priors.lambda_.rate == 0.001
        assert priors.kappa.shape == 200.0 and priors.kappa.rate == 0.01
        assert priors.ident[0].lower == 0.1 and priors.ident[0].upper == 0.4
        assert priors.row_concentrations == ((10.0, 1.0), (1.0, 10.0))


def make_records(n=100, horizon=8, seed=0):
    from switchseir.model import draw_params

    g = rng(seed)
    priors = two_regime_priors()
    records = []
    for i in range(n):
        params = draw_params(priors, g)
        thetas = g.dirichlet(np.array([40.0, 3, 3, 3]), size=horizon)
        regimes = g.integers(0, 2, size=horizon)
        records.append(
            ChainRecord(
                iteration=i + 1,
                params=params,
                path=LatentPath(thetas, regimes),
                log_marginal=float(g.normal(100, 5)),
                mh_accepted={"alpha": (True, False), "f2": (False,)},
            )
        )
    return records


def write_records(path, records, header):
    """A chain file as fit writes it: the header, then each record appended."""
    write_chain(path, header)
    with open(path, "a") as fh:
        for rec in records:
            append_chain_record(fh, rec)


class TestChainFiles:
    def test_round_trip_bitwise(self, tmp_path):
        records = make_records()
        path = tmp_path / "chain.jsonl"
        header = chain_header(2, 8, "abc123", 5)
        write_records(path, records, header)
        got_header, got = read_chain(path)
        assert got_header == header
        assert len(got) == len(records)
        for a, b in zip(records, got):
            assert a.iteration == b.iteration
            assert a.log_marginal == b.log_marginal
            assert params_to_dict(a.params) == params_to_dict(b.params)
            np.testing.assert_array_equal(a.path.thetas, b.path.thetas)
            np.testing.assert_array_equal(a.path.regimes, b.path.regimes)
            assert a.mh_accepted == b.mh_accepted

    def test_truncated_file_names_last_complete_record(self, tmp_path):
        records = make_records(n=10)
        path = tmp_path / "chain.jsonl"
        write_records(path, records, chain_header(2, 8, "abc", 5))
        content = path.read_text()
        path.write_text(content[: int(len(content) * 0.83)])
        with pytest.raises(InputError) as exc_info:
            read_chain(path)
        last = re.search(r"record (\d+) unreadable .*; last complete record is (\d+)$",
                         str(exc_info.value))
        assert str(exc_info.value).startswith(f"{path}: ")
        assert int(last[2]) == int(last[1]) - 1 >= 1

    def test_schema_mismatch(self, tmp_path):
        path = tmp_path / "chain.jsonl"
        header = chain_header(2, 8, "abc", 5)
        header["schema"] = 99
        write_records(path, make_records(n=2), header)
        with pytest.raises(InputError, match="schema version"):
            read_chain(path)

    def test_truncate_chain_keeps_prefix(self, tmp_path):
        records = make_records(n=10)
        path = tmp_path / "chain.jsonl"
        header = chain_header(2, 8, "abc", 5)
        write_records(path, records, header)
        truncate_chain(path, header, 4)
        _, got = read_chain(path)
        assert len(got) == 4
        assert got[-1].iteration == records[3].iteration

    @pytest.mark.parametrize("header, n_records, message", [
        (chain_header(2, 8, "abc", 6), 4, "chain header differs"),
        (chain_header(2, 8, "abd", 5), 4, "chain header differs"),
        (chain_header(2, 8, "abc", 5), 11, "chain file holds 10 records, its checkpoint "
                                           "has emitted 11"),
    ])
    def test_truncate_chain_refuses_and_leaves_the_file(self, tmp_path, header,
                                                         n_records, message):
        path = tmp_path / "chain.jsonl"
        write_records(path, make_records(n=10), chain_header(2, 8, "abc", 5))
        before = path.read_bytes()
        with pytest.raises(InputError, match=message):
            truncate_chain(path, header, n_records)
        assert path.read_bytes() == before

    def test_truncate_chain_does_not_count_a_partial_record(self, tmp_path):
        path = tmp_path / "chain.jsonl"
        header = chain_header(2, 8, "abc", 5)
        write_records(path, make_records(n=3), header)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(InputError, match="holds 2 records, its checkpoint has emitted 3"):
            truncate_chain(path, header, 3)


class TestCheckpoints:
    def test_state_round_trip(self, tmp_path):
        records = make_records(n=1)
        ref = records[0].path
        ids = list(param_table(2, 1))
        state = PgState(
            iteration=17,
            params=records[0].params,
            reference=ref,
            step_sizes={pid: 0.01 * (i + 1) for i, pid in enumerate(ids)},
            window_counts={pid: [i, 10] for i, pid in enumerate(ids)},
            n_emitted=7,
            n_degenerate=0,
        )
        path = tmp_path / "chain.ckpt.json"
        write_checkpoint(path, state, "abc", 5)
        with pytest.raises(InputError, match="belongs to a different configuration"):
            load_checkpoint(path, two_regime_priors(), 8, "abd", 5)
        with pytest.raises(InputError, match="belongs to the chain of seed 5, not 6$"):
            load_checkpoint(path, two_regime_priors(), 8, "abc", 6)
        got = load_checkpoint(path, two_regime_priors(), 8, "abc", 5)
        assert got.iteration == 17
        assert got.step_sizes == state.step_sizes
        assert got.window_counts == state.window_counts
        assert got.n_emitted == 7
        np.testing.assert_array_equal(got.reference.thetas, ref.thetas)
        np.testing.assert_array_equal(got.reference.regimes, ref.regimes)
        assert params_to_dict(got.params) == params_to_dict(state.params)


class TestConfig:
    def test_happy_path(self, tmp_path):
        raw = sample_config_dict()
        cfg = parse_config(raw)
        assert cfg.n_regimes == 2
        assert cfg.sampler.n_iterations == 12
        assert cfg.priors.alpha.mean == 0.3

    def test_unknown_key_named(self):
        raw = sample_config_dict()
        raw["sampler"]["n_iters"] = 5
        raw["sampler"].pop("n_iterations")
        with pytest.raises(InputError, match="n_iters"):
            parse_config(raw)

    def test_unknown_block_named(self):
        raw = sample_config_dict()
        raw["plotting"] = {}
        with pytest.raises(InputError, match="plotting"):
            parse_config(raw)

    def test_missing_block(self):
        raw = sample_config_dict()
        del raw["priors"]
        with pytest.raises(InputError, match="priors"):
            parse_config(raw)

    def test_missing_prior_named(self):
        raw = sample_config_dict()
        del raw["priors"]["kappa"]
        with pytest.raises(InputError, match=r"^missing config key priors\.kappa$"):
            parse_config(raw)

    def test_sampler_keys_are_the_sampler_config_fields(self):
        assert set(_CONFIG_KEYS["sampler"]) == {f.name for f in fields(SamplerConfig)}

    def test_counts_format_requires_population(self):
        raw = sample_config_dict()
        raw["data"] = {"path": "x.csv", "format": "counts"}
        with pytest.raises(InputError, match="population"):
            parse_config(raw)

    def test_hash_ignores_iteration_count_only(self):
        raw = sample_config_dict()
        h0 = config_hash(raw)
        longer = json.loads(json.dumps(raw))
        longer["sampler"]["n_iterations"] = 99
        assert config_hash(longer) == h0
        reseeded = json.loads(json.dumps(raw))
        reseeded["sampler"]["seed"] = 1234
        assert config_hash(reseeded) != h0

    def test_piecewise_ident_change_times(self):
        raw = sample_config_dict()
        raw["model"]["ident_change_times"] = [1, 37]
        raw["priors"]["ident"] = [
            {"mean": 0.2, "sd": 0.05, "lower": 0.1, "upper": 0.4},
            {"mean": 0.3, "sd": 0.05, "lower": 0.2, "upper": 1.0},
        ]
        cfg = parse_config(raw)
        assert cfg.priors.ident_start_times == (0, 36)
        assert len(cfg.priors.ident) == 2

    def test_load_dataset_roundtrip(self, tmp_path):
        ds, _, _ = generate_simulation("two-regime", seed=1)
        write_dataset(tmp_path / "dataset.csv", ds)
        raw = sample_config_dict()
        cfg = parse_config(raw)
        loaded = load_dataset(cfg.data, str(tmp_path))
        np.testing.assert_array_equal(loaded.y, ds.y)


class TestWriters:
    def test_delimited_outputs_match_pinned_bytes(self, tmp_path):
        names = write_fixed_outputs(tmp_path)
        assert names == sorted(path.name for path in PINNED_OUTPUTS.iterdir())
        for name in names:
            assert (tmp_path / name).read_bytes() == (PINNED_OUTPUTS / name).read_bytes(), name

    def test_dataset_and_truth_round_trip(self, tmp_path):
        ds, latent, _ = generate_simulation("two-regime", seed=2)
        write_dataset(tmp_path / "d.csv", ds)
        got = load_proportions(tmp_path / "d.csv")
        np.testing.assert_array_equal(got.y, ds.y)
        write_truth(tmp_path / "t.csv", latent)
        got_truth = read_truth(tmp_path / "t.csv")
        np.testing.assert_array_equal(got_truth.thetas, latent.thetas)
        np.testing.assert_array_equal(got_truth.regimes, latent.regimes)

    def test_labels_with_commas_and_quotes_round_trip(self, tmp_path):
        labels = ("Jan 1, 2020", 'the "peak", day 2', "plain")
        ds = Dataset(labels, np.array([0.125, 0.5, 0.25]))
        write_dataset(tmp_path / "d.csv", ds)
        got = load_proportions(tmp_path / "d.csv")
        assert got.times == labels
        np.testing.assert_array_equal(got.y, ds.y)
        summary = PosteriorSummary(
            params={}, regime_probs=np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]),
            seir_mean=np.full((3, 4), 0.25), seir_lo=np.full((3, 4), 0.2),
            seir_hi=np.full((3, 4), 0.3), ey_mean=ds.y, ey_lo=ds.y, ey_hi=ds.y,
        )
        write_regime_curves(tmp_path / "r.csv", summary, ds)
        with open(tmp_path / "r.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [8] * 4
        assert tuple(row[1] for row in rows[1:]) == labels
        assert [float(row[4]) for row in rows[1:]] == ds.y.tolist()

    def test_particle_dump_schema(self, tmp_path):
        from switchseir.smc import run_smc

        ds, _, params = generate_simulation("two-regime", seed=2)
        system = run_smc(ds.y[:5], params, scenario_priors("two-regime"), 8, rng(3))
        out = tmp_path / "particles.csv"
        dump_particle_system(out, system)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,particle,regime,S,E,I,R,log_weight,norm_weight,ancestor"
        assert len(lines) == 1 + 5 * 8
        first = lines[1].split(",")
        assert first[0] == "1" and first[-1] == "-1"

    def test_priors_round_trip(self):
        priors = two_regime_priors()
        d = priors_to_dict(priors)
        back = priors_from_dict(d, 2)
        assert back.alpha == priors.alpha
        assert back.lambda_ == priors.lambda_
        assert back.row_concentrations == priors.row_concentrations
        np.testing.assert_array_equal(
            back.theta1.concentration, priors.theta1.concentration
        )

    def test_params_round_trip(self):
        params = two_regime_params(ident_rates=((0.2, 0), (0.3, 40)))
        back = params_from_dict(params_to_dict(params))
        assert back.ident_rates == params.ident_rates
        np.testing.assert_array_equal(back.trans_matrix, params.trans_matrix)

    def test_path_round_trip(self):
        g = rng(4)
        path = LatentPath(
            g.dirichlet(np.ones(4), size=6), g.integers(0, 2, size=6)
        )
        back = path_from_dict(path_to_dict(path))
        np.testing.assert_array_equal(back.thetas, path.thetas)
        np.testing.assert_array_equal(back.regimes, path.regimes)


class TestDatasetValidation:
    def test_rejects_boundary_proportions(self):
        with pytest.raises(ValueError):
            Dataset(("a", "b"), np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            Dataset(("a",), np.array([1.0]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="strictly inside"):
            Dataset(("a", "b"), np.array([0.5, np.nan]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(("a",), np.array([0.1, 0.2]))


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_fmt_round_trips_floats_exactly(x):
    assert float(fmt(x)) == x

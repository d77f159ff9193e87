import math
from dataclasses import replace

import numpy as np
import pytest

from switchseir.diagnostics import (
    gelman_rubin,
    gelman_rubin_table,
    param_values,
    rhat_status,
    score_records,
    summarize,
    _stats,
)
from switchseir.model import LatentPath
from switchseir.pg import ChainRecord
from tests.test_model import two_regime_params, two_regime_priors


def rng(seed=0):
    return np.random.default_rng(seed)


def make_records(n=120, seed=0, horizon=6, vary=True):
    from switchseir.model import draw_params

    g = rng(seed)
    priors = two_regime_priors()
    records = []
    for i in range(n):
        if vary:
            params = draw_params(priors, g)
        else:
            params = two_regime_params()
        thetas = g.dirichlet(np.array([40.0, 3, 3, 3]), size=horizon)
        regimes = g.integers(0, 2, size=horizon)
        records.append(
            ChainRecord(
                iteration=i + 1,
                params=params,
                path=LatentPath(thetas, regimes),
                log_marginal=float(g.normal(100, 5)),
                mh_accepted={"alpha": (True,)},
            )
        )
    return records


class TestGelmanRubin:
    def test_identical_chains_below_one(self):
        chain = rng(1).normal(size=500)
        got = gelman_rubin(np.stack([chain, chain]))
        assert got == pytest.approx(math.sqrt(499 / 500), abs=1e-12)

    def test_iid_same_distribution_near_one(self):
        g = rng(2)
        chains = g.normal(size=(2, 10_000))
        assert 0.99 < gelman_rubin(chains) < 1.01

    def test_separated_chains_fail(self):
        g = rng(3)
        chains = np.stack(
            [g.normal(0, 1, size=10_000), g.normal(5, 1, size=10_000)]
        )
        assert gelman_rubin(chains) > 1.2

    def test_zero_within_variance_is_error(self):
        with pytest.raises(ValueError):
            gelman_rubin(np.ones((2, 50)))

    def test_affine_invariance(self):
        g = rng(4)
        chains = g.normal(size=(3, 2_000))
        base = gelman_rubin(chains)
        shifted = gelman_rubin(4.2 * chains - 17.0)
        assert shifted == pytest.approx(base, abs=1e-9)

    def test_needs_two_chains_and_length(self):
        with pytest.raises(ValueError):
            gelman_rubin(rng(5).normal(size=(1, 100)))
        with pytest.raises(ValueError):
            gelman_rubin(rng(6).normal(size=(2, 5)))

    def test_table_over_records(self):
        chains = [make_records(seed=1), make_records(seed=2)]
        table = gelman_rubin_table(chains)
        assert "alpha" in table and "r0" in table and "pi_11" in table
        for value in table.values():
            assert math.isfinite(value)
        r0 = [[r.params.beta / r.params.gamma for r in c] for c in chains]
        assert table["r0"] == gelman_rubin(r0)
        pi12 = [[r.params.trans_matrix[0, 1] for r in c] for c in chains]
        assert table["pi_12"] == gelman_rubin(pi12)

    def test_table_gives_a_parameter_that_never_moves_inf(self):
        # alpha stays at 0.25 in both 10-record chains: its R-hat is inf, a
        # FAIL, and every other parameter's is the one computed without it.
        chains = [make_records(n=10, seed=s) for s in (1, 2)]
        frozen = [[replace(r, params=replace(r.params, alpha=0.25)) for r in c]
                  for c in chains]
        table = gelman_rubin_table(frozen)
        assert table["alpha"] == math.inf
        assert rhat_status(table["alpha"]) == "FAIL"
        assert table == {**gelman_rubin_table(chains), "alpha": math.inf}


class TestSummaryStats:
    def test_normal_quantiles(self):
        draws = rng(7).standard_normal(1_000_000)
        st = _stats(draws)
        assert abs(st.mean) < 3 / 1000
        assert st.ci_lo == pytest.approx(-1.96, abs=0.05)
        assert st.ci_hi == pytest.approx(1.96, abs=0.05)
        assert st.sd == pytest.approx(1.0, rel=0.01)

    def test_constant_chain_collapses(self):
        records = make_records(vary=False)
        summary = summarize([records])
        st = summary.params["alpha"]
        assert st.sd == 0.0
        assert st.ci_lo == st.ci_hi == st.mean == st.median

    def test_regime_probabilities_sum_to_one(self):
        summary = summarize([make_records()])
        np.testing.assert_allclose(summary.regime_probs.sum(axis=1), 1.0, atol=1e-9)

    def test_permutation_invariance(self):
        records = make_records()
        shuffled = [records[i] for i in rng(8).permutation(len(records))]
        a = summarize([records])
        b = summarize([shuffled])
        for lab in a.params:
            assert a.params[lab].mean == pytest.approx(b.params[lab].mean, abs=1e-12)
            assert a.params[lab].ci_lo == pytest.approx(b.params[lab].ci_lo, abs=1e-12)
        np.testing.assert_allclose(a.regime_probs, b.regime_probs)

    def test_includes_derived_reproduction_number(self):
        summary = summarize([make_records()])
        assert "r0" in summary.params
        assert summary.params["r0"].mean > 0

    def test_rejects_empty_or_tiny(self):
        with pytest.raises(ValueError):
            summarize([])
        with pytest.raises(ValueError):
            summarize([[]])
        with pytest.raises(ValueError):
            summarize([make_records(n=40)])


class TestParamValues:
    def test_two_regime_labels(self):
        vals = param_values(two_regime_params())
        assert set(vals) == {
            "alpha", "beta", "gamma", "lambda", "kappa", "p", "f2",
            "pi_11", "pi_12", "pi_21", "pi_22",
        }

    def test_single_regime_labels(self):
        params = two_regime_params(
            trans_matrix=np.array([[1.0]]), modifiers=np.array([1.0])
        )
        vals = param_values(params)
        assert set(vals) == {"alpha", "beta", "gamma", "lambda", "kappa", "p"}

    def test_piecewise_rate_labels(self):
        params = two_regime_params(ident_rates=((0.2, 0), (0.3, 40)))
        vals = param_values(params)
        assert "p1" in vals and "p2" in vals and "p" not in vals


class TestScoreRecords:
    def test_mean_of_logs_not_log_of_mean(self):
        records = make_records(n=100, seed=9)
        lm = np.array([r.log_marginal for r in records])
        mean, sd = score_records(records)
        assert mean == pytest.approx(lm.mean(), abs=1e-12)
        assert sd == pytest.approx(lm.std(ddof=1), abs=1e-12)
        from scipy.special import logsumexp

        log_of_mean = logsumexp(lm) - math.log(len(lm))
        assert mean < log_of_mean  # Jensen gap: the two must differ

    def test_hand_computation(self):
        records = make_records(n=100, seed=10)
        for i, value in enumerate((1.0, 2.0, 3.0, 4.0)):
            records[i] = ChainRecord(
                records[i].iteration,
                records[i].params,
                records[i].path,
                value,
                records[i].mh_accepted,
            )
        mean, _ = score_records(records[:4])
        assert mean == pytest.approx(2.5, abs=1e-15)

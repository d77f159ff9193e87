import math

import numpy as np
import pytest
from scipy import stats

from switchseir.distributions import TruncNormalParams, trunc_normal_logpdf
from switchseir.model import (
    get_param,
    joint_log_posterior,
    param_log_prior,
    scalar_param_ids,
)
from switchseir.pg import (
    ChainRecord,
    SamplerConfig,
    acceptance_rates,
    default_step_sizes,
    mh_update_scalar,
    mh_update_trans_row,
    run_pg,
    tune_step_sizes,
)
from tests.test_model import two_regime_params, two_regime_priors
from tests.test_smc import make_data


def rng(seed=0):
    return np.random.default_rng(seed)


def batch_se(x, n_blocks=50):
    blocks = x[: len(x) // n_blocks * n_blocks].reshape(n_blocks, -1).mean(axis=1)
    return blocks.std(ddof=1) / math.sqrt(n_blocks)


class TestMhScalar:
    def test_tiny_step_accepts_almost_always(self):
        y, params, priors, path = make_data(horizon=20)
        g = rng(1)
        accepted = 0
        cur = params
        for _ in range(200):
            cur, ok = mh_update_scalar(cur, "beta", path, y, priors, 1e-9, g)
            accepted += ok
        assert accepted >= 195

    def test_identification_rate_proposals_respect_bounds(self):
        y, params, priors, path = make_data(horizon=10)
        g = rng(2)
        cur = params
        for _ in range(500):
            cur, _ = mh_update_scalar(cur, "p", path, y, priors, 5.0, g)
            assert 0.1 < cur.ident_rates[0][0] < 0.4

    def test_modifier_proposals_respect_band(self):
        y, params, priors, path = make_data(horizon=10)
        g = rng(3)
        cur = params
        for _ in range(500):
            cur, _ = mh_update_scalar(cur, "f2", path, y, priors, 3.0, g)
            assert 0.0 < cur.modifiers[1] < 1.0

    @pytest.mark.slow
    def test_detailed_balance_against_truncated_normal_target(self):
        # Stub posterior: alpha ~ TN(0.7, 0.2^2, 0, inf).  The chain's
        # stationary law must match it (KS on thinned draws).
        target = TruncNormalParams(0.7, 0.2, 0.0, math.inf)
        log_target = lambda ps: trunc_normal_logpdf(ps.alpha, target)
        y, params, priors, path = make_data(horizon=4)
        g = rng(4)
        n, thin = 1_000_000, 10
        kept = np.empty(n // thin)
        cur = params
        for i in range(n):
            cur, _ = mh_update_scalar(
                cur, "alpha", path, y, priors, 0.4, g, log_target=log_target
            )
            if i % thin == thin - 1:
                kept[i // thin] = cur.alpha
        a = (0.0 - 0.7) / 0.2
        _, pvalue = stats.kstest(kept, "truncnorm", args=(a, np.inf, 0.7, 0.2))
        assert pvalue > 0.01

    def test_prior_recovery_with_likelihood_disabled(self):
        # With the likelihood zeroed out the MH chain must target the
        # prior itself; check first two moments of the alpha chain.
        y, params, priors, path = make_data(horizon=4)
        log_target = lambda ps: param_log_prior(ps, priors)
        g = rng(5)
        n = 100_000
        draws = np.empty(n)
        cur = params
        for i in range(n):
            cur, _ = mh_update_scalar(
                cur, "alpha", path, y, priors, 0.15, g, log_target=log_target
            )
            draws[i] = cur.alpha
        a = (0.0 - 0.3) / 0.1
        expect_mean = stats.truncnorm.mean(a, np.inf, loc=0.3, scale=0.1)
        expect_sd = stats.truncnorm.std(a, np.inf, loc=0.3, scale=0.1)
        assert abs(draws.mean() - expect_mean) < 3 * batch_se(draws)
        assert abs(draws.std() - expect_sd) < 0.02 * expect_sd


def test_cached_target_matches_full_posterior_target():
    # The default (cached-terms) target and an explicit full
    # joint_log_posterior target must make the same decisions bit for bit.
    y, params, priors, path = make_data(horizon=12)
    full = lambda ps: joint_log_posterior(path, y, ps, priors)
    steps = default_step_sizes(priors)
    for which in scalar_param_ids(priors):
        a = b = params
        ga, gb = rng(31), rng(31)
        for _ in range(20):
            a, ok_a = mh_update_scalar(a, which, path, y, priors, steps[which], ga)
            b, ok_b = mh_update_scalar(
                b, which, path, y, priors, steps[which], gb, log_target=full
            )
            assert ok_a == ok_b and get_param(a, which) == get_param(b, which)
    a = b = params
    ga, gb = rng(32), rng(32)
    for _ in range(20):
        a, ok_a = mh_update_trans_row(a, path, y, priors, np.array([0.05]), ga)
        b, ok_b = mh_update_trans_row(
            b, path, y, priors, np.array([0.05]), gb, log_target=full
        )
        assert ok_a == ok_b and np.array_equal(a.trans_matrix, b.trans_matrix)


class TestMhTransRow:
    def test_row_closure_is_exact(self):
        y, params, priors, path = make_data(horizon=10)
        g = rng(6)
        cur = params
        for _ in range(300):
            cur, _ = mh_update_trans_row(
                cur, path, y, priors, np.array([0.2]), g
            )
            np.testing.assert_allclose(cur.trans_matrix.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(cur.trans_matrix > 0)

    def test_prior_recovery_rows(self):
        # Flat likelihood: accepted rows must match their Dirichlet priors
        # Dir(10,1) / Dir(1,10) in mean within 3 batch SEs.
        y, params, priors, path = make_data(horizon=4)
        log_target = lambda ps: param_log_prior(ps, priors)
        g = rng(7)
        n = 60_000
        pi11 = np.empty(n)
        pi22 = np.empty(n)
        cur = params
        for i in range(n):
            cur, _ = mh_update_trans_row(
                cur, path, y, priors, np.array([0.15]), g, log_target=log_target
            )
            pi11[i] = cur.trans_matrix[0, 0]
            pi22[i] = cur.trans_matrix[1, 1]
        assert abs(pi11.mean() - 10 / 11) < 3 * batch_se(pi11)
        assert abs(pi22.mean() - 10 / 11) < 3 * batch_se(pi22)

    def test_three_regime_rows_stay_stochastic(self):
        params = two_regime_params(
            trans_matrix=np.array(
                [[0.94, 0.03, 0.03], [0.03, 0.94, 0.03], [0.03, 0.03, 0.94]]
            ),
            modifiers=np.array([1.0, 0.6, 0.05]),
        )
        priors = two_regime_priors()
        from switchseir.data_io import priors_for_k

        priors3 = priors_for_k(priors, 3)
        y, _, _, path3 = make_data(horizon=10)
        # Rebuild a 3-regime path by clamping regimes into range.
        from switchseir.model import LatentPath

        path = LatentPath(path3.thetas[:10], path3.regimes[:10] % 3)
        g = rng(8)
        cur = params
        for _ in range(300):
            cur, _ = mh_update_trans_row(
                cur, path, y, priors3, np.array([0.1, 0.1]), g
            )
            np.testing.assert_allclose(cur.trans_matrix.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(cur.trans_matrix > 0)

    def test_single_regime_is_noop(self):
        params = two_regime_params(
            trans_matrix=np.array([[1.0]]), modifiers=np.array([1.0])
        )
        y, _, priors, path = make_data(horizon=6)
        out, accepted = mh_update_trans_row(
            params, path, y, priors, np.array([0.1]), rng(9)
        )
        assert out is params and accepted is False


def fake_records(rates: dict, n=250, sweeps=4):
    """Records whose acceptance flags reproduce the given rates."""
    params = two_regime_params()
    from switchseir.model import LatentPath

    path = LatentPath(np.full((3, 4), 0.25), np.zeros(3, dtype=int))
    records = []
    for i in range(n):
        flags = {}
        for pid, rate in rates.items():
            flags[pid] = tuple(
                (i * sweeps + s) % 100 < rate * 100 for s in range(sweeps)
            )
        records.append(ChainRecord(i, params, path, 0.0, flags))
    return records


class TestTuneStepSizes:
    def test_low_acceptance_shrinks_step(self):
        recs = fake_records({"alpha": 0.05})
        out = tune_step_sizes(recs, {"alpha": 0.1}, target_rate=0.3)
        assert out["alpha"] < 0.1

    def test_high_acceptance_grows_step(self):
        recs = fake_records({"alpha": 0.9})
        out = tune_step_sizes(recs, {"alpha": 0.1}, target_rate=0.3)
        assert out["alpha"] > 0.1

    def test_on_target_leaves_step(self):
        recs = fake_records({"alpha": 0.3})
        out = tune_step_sizes(recs, {"alpha": 0.1}, target_rate=0.3)
        assert out["alpha"] == pytest.approx(0.1, rel=0.01)

    def test_preconditions(self):
        recs = fake_records({"alpha": 0.3}, n=100)
        with pytest.raises(ValueError):
            tune_step_sizes(recs, {"alpha": 0.1})
        with pytest.raises(ValueError):
            tune_step_sizes(fake_records({"alpha": 0.3}), {"alpha": 0.1}, 0.95)

    def test_acceptance_rates_helper(self):
        recs = fake_records({"alpha": 0.4, "kappa": 0.1})
        rates = acceptance_rates(recs)
        assert rates["alpha"] == pytest.approx(0.4, abs=0.02)
        assert rates["kappa"] == pytest.approx(0.1, abs=0.02)


def small_config(**overrides):
    base = dict(
        n_iterations=30,
        burn_in=10,
        m_per_regime=5,
        seed=11,
        mh_sweeps_per_iter=2,
        thin=1,
    )
    base.update(overrides)
    return SamplerConfig(**base)


class TestRunPg:
    def test_emits_expected_record_count(self):
        y, _, priors, _ = make_data(horizon=25)
        records = run_pg(y, priors, small_config())
        assert len(records) == 20
        assert [r.iteration for r in records] == list(range(11, 31))

    def test_thinning(self):
        y, _, priors, _ = make_data(horizon=25)
        records = run_pg(y, priors, small_config(thin=3))
        assert [r.iteration for r in records] == [11, 14, 17, 20, 23, 26, 29]

    def test_bit_reproducible(self):
        y, _, priors, _ = make_data(horizon=25)
        a = run_pg(y, priors, small_config())
        b = run_pg(y, priors, small_config())
        for ra, rb in zip(a, b):
            for pid in ("alpha", "beta", "gamma", "lambda", "kappa", "p", "f2"):
                assert get_param(ra.params, pid) == get_param(rb.params, pid)
            np.testing.assert_array_equal(
                ra.params.trans_matrix, rb.params.trans_matrix
            )
            np.testing.assert_array_equal(ra.path.thetas, rb.path.thetas)
            np.testing.assert_array_equal(ra.path.regimes, rb.path.regimes)
            assert ra.log_marginal == rb.log_marginal

    def test_resume_equals_straight_through(self):
        y, _, priors, _ = make_data(horizon=25)
        full = run_pg(y, priors, small_config(n_iterations=30))

        captured = {}

        def keep(state):
            if state.iteration == 18:
                import copy

                captured["state"] = copy.deepcopy(state)

        first = run_pg(y, priors, small_config(n_iterations=18), callback=keep)
        rest = run_pg(
            y, priors, small_config(n_iterations=30), resume=captured["state"]
        )
        combined = first + rest
        assert len(combined) == len(full)
        for ra, rb in zip(combined, full):
            assert ra.iteration == rb.iteration
            assert ra.params.kappa == rb.params.kappa
            assert ra.log_marginal == rb.log_marginal
            np.testing.assert_array_equal(ra.path.thetas, rb.path.thetas)

    def test_acceptance_flags_recorded_for_every_parameter(self):
        y, _, priors, _ = make_data(horizon=25)
        records = run_pg(y, priors, small_config())
        ids = set(scalar_param_ids(priors)) | {"rows"}
        for rec in records:
            assert set(rec.mh_accepted) == ids
            assert all(len(f) == 2 for f in rec.mh_accepted.values())

    def test_adaptation_frozen_after_burn_in(self):
        y, _, priors, _ = make_data(horizon=25)
        seen = {}

        def watch(state):
            seen[state.iteration] = dict(state.step_sizes)

        run_pg(y, priors, small_config(n_iterations=250, burn_in=200), callback=watch)
        # Steps may move during burn-in but not afterwards.
        post = [seen[i] for i in range(201, 251)]
        assert all(p == post[0] for p in post)

    def test_rejects_short_series(self):
        _, _, priors, _ = make_data(horizon=4)
        with pytest.raises(ValueError):
            run_pg(np.array([0.01]), priors, small_config())

    def test_default_step_sizes_cover_all_parameters(self):
        priors = two_regime_priors()
        steps = default_step_sizes(priors)
        for pid in scalar_param_ids(priors) + ["rows"]:
            assert steps[pid] > 0


class TestSamplerConfigValidation:
    def test_iterations_must_exceed_burn_in(self):
        with pytest.raises(ValueError):
            small_config(n_iterations=10, burn_in=10)

    def test_m_per_regime_minimum(self):
        with pytest.raises(ValueError):
            small_config(m_per_regime=1)

    def test_positive_steps(self):
        with pytest.raises(ValueError):
            small_config(step_sizes={"alpha": 0.0})

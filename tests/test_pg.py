import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from switchseir import pg, smc
from switchseir.data_io import priors_for_k, scenario_priors
from switchseir.distributions import (
    SIMPLEX_FLOOR,
    DirichletParams,
    GammaParams,
    TruncNormalParams,
    trunc_normal_logpdf,
)
from switchseir.model import (
    OBS_EPS,
    LatentPath,
    PosteriorTerms,
    _row_log_priors,
    draw_params,
    joint_log_posterior,
    param_table,
    simulate_dataset,
)
from switchseir.pg import (
    TARGET_ACCEPT,
    ChainRecord,
    PgState,
    SamplerConfig,
    _adjusted_step,
    _draw_rows,
    acceptance_rates,
    mh_step,
    run_pg,
)
from tests.test_model import (
    log_prior,
    three_regime_case,
    two_regime_params,
    two_regime_priors,
)
from tests.test_smc import make_data


def rng(seed=0):
    return np.random.default_rng(seed)


class CallableTarget:
    """An MH target from a log_target(params) callable, with the interface
    (params, total, moved) of the PosteriorTerms that run_pg uses."""

    def __init__(self, log_target, params):
        self.log_target = log_target
        self.params = params
        self.total = log_target(params)

    def moved(self, which, params):
        return CallableTarget(self.log_target, params)


def entry(priors, which):
    return param_table(priors.n_regimes, len(priors.ident))[which]


def batch_se(x, n_blocks=50):
    blocks = x[: len(x) // n_blocks * n_blocks].reshape(n_blocks, -1).mean(axis=1)
    return blocks.std(ddof=1) / math.sqrt(n_blocks)


class TestMhStepScalar:
    def test_tiny_step_accepts_almost_always(self):
        y, params, priors, path = make_data(horizon=20)
        g = rng(1)
        beta = entry(priors, "beta")
        accepted = 0
        target = PosteriorTerms.build(path, y, params, priors)
        for _ in range(200):
            target, ok = mh_step(target, beta, 1e-9, priors, g)
            accepted += ok
        assert accepted >= 195

    def test_rate_proposals_stay_positive(self):
        # A walk 50 times wider than alpha's prior SD: every proposal
        # stays inside the rate's support (0, inf).
        _, params, priors, _ = make_data(horizon=4)
        alpha = entry(priors, "alpha")
        proposed = []
        target = CallableTarget(lambda ps: proposed.append(ps.alpha) or 0.0, params)
        g = rng(9)
        for _ in range(500):
            target, _ = mh_step(target, alpha, 5.0, priors, g)
        assert len(proposed) == 501 and min(proposed) > 0.0

    @pytest.mark.parametrize("which", list(param_table(3, 2)))
    def test_walk_stays_strictly_inside_the_support(self, which):
        # A flat target at 20 times the default step: every proposal of
        # every entry lies strictly inside entry.support(priors).
        params, priors, _, _ = three_regime_case()
        e = entry(priors, which)
        lo, hi = e.support(priors)
        proposed = []
        target = CallableTarget(lambda ps: proposed.append(e.get(ps)) or 0.0, params)
        g = rng(10)
        for _ in range(500):
            target, _ = mh_step(target, e, 20 * e.default_step(priors), priors, g)
        assert len(proposed) == 501
        assert all(lo < v < hi for v in proposed), (min(proposed), max(proposed))

    def test_identification_rate_proposals_respect_bounds(self):
        y, params, priors, path = make_data(horizon=10)
        g = rng(2)
        p = entry(priors, "p")
        target = PosteriorTerms.build(path, y, params, priors)
        for _ in range(500):
            target, _ = mh_step(target, p, 5.0, priors, g)
            assert 0.1 < target.params.ident_rates[0][0] < 0.4

    def test_modifier_proposals_respect_band(self):
        y, params, priors, path = make_data(horizon=10)
        g = rng(3)
        f2 = entry(priors, "f2")
        target = PosteriorTerms.build(path, y, params, priors)
        for _ in range(500):
            target, _ = mh_step(target, f2, 3.0, priors, g)
            assert 0.0 < target.params.modifiers[1] < 1.0

    @pytest.mark.slow
    def test_detailed_balance_against_truncated_normal_target(self):
        # Stub posterior: alpha ~ TN(0.7, 0.2^2, 0, inf).  The chain's
        # stationary law must match it (KS on thinned draws).
        target = TruncNormalParams(0.7, 0.2, 0.0, math.inf)
        log_target = lambda ps: trunc_normal_logpdf(ps.alpha, target)
        _, params, priors, _ = make_data(horizon=4)
        g = rng(4)
        alpha = entry(priors, "alpha")
        n, thin = 1_000_000, 10
        kept = np.empty(n // thin)
        cur = CallableTarget(log_target, params)
        for i in range(n):
            cur, _ = mh_step(cur, alpha, 0.4, priors, g)
            if i % thin == thin - 1:
                kept[i // thin] = cur.params.alpha
        a = (0.0 - 0.7) / 0.2
        _, pvalue = stats.kstest(kept, "truncnorm", args=(a, np.inf, 0.7, 0.2))
        assert pvalue > 0.01

    def test_prior_recovery_with_likelihood_disabled(self):
        # With the likelihood zeroed out the MH chain must target the
        # prior itself; check first two moments of the alpha chain.
        _, params, priors, _ = make_data(horizon=4)
        g = rng(5)
        alpha = entry(priors, "alpha")
        n = 100_000
        draws = np.empty(n)
        cur = CallableTarget(lambda ps: log_prior(ps, priors), params)
        for i in range(n):
            cur, _ = mh_step(cur, alpha, 0.15, priors, g)
            draws[i] = cur.params.alpha
        a = (0.0 - 0.3) / 0.1
        expect_mean = stats.truncnorm.mean(a, np.inf, loc=0.3, scale=0.1)
        expect_sd = stats.truncnorm.std(a, np.inf, loc=0.3, scale=0.1)
        assert abs(draws.mean() - expect_mean) < 3 * batch_se(draws)
        assert abs(draws.std() - expect_sd) < 0.02 * expect_sd


def test_cached_target_matches_full_posterior_target():
    # The cached-terms target run_pg uses and an explicit full
    # joint_log_posterior target must make the same decisions bit for bit,
    # for every entry of the table.
    y, params, priors, path = make_data(horizon=12)
    full = lambda ps: joint_log_posterior(path, y, ps, priors)
    for which, e in param_table(priors.n_regimes, len(priors.ident)).items():
        step = e.default_step(priors)
        a = PosteriorTerms.build(path, y, params, priors)
        b = CallableTarget(full, params)
        ga, gb = rng(31), rng(31)
        for _ in range(20):
            a, ok_a = mh_step(a, e, step, priors, ga)
            b, ok_b = mh_step(b, e, step, priors, gb)
            assert ok_a == ok_b, which
            assert np.array_equal(e.get(a.params), e.get(b.params)), which
            assert a.total == b.total, which


def three_regime_params():
    return two_regime_params(
        trans_matrix=np.array(
            [[0.94, 0.03, 0.03], [0.03, 0.94, 0.03], [0.03, 0.03, 0.94]]
        ),
        modifiers=np.array([1.0, 0.6, 0.05]),
    )


def transition_counts(regimes, k):
    counts = np.zeros((k, k))
    for a, b in zip(regimes, regimes[1:]):
        counts[a, b] += 1
    return counts


class TestRowDraw:
    @pytest.mark.parametrize("k", [2, 3])
    def test_rows_match_dirichlet_of_prior_plus_path_counts(self, k):
        # Given a fixed path, each row must be an exact Dir(c_j + n_j) draw:
        # every entry's mean and variance within 4 standard errors of the
        # Beta marginal's, and a KS test per entry at the 0.001 level.
        params, priors = two_regime_params(), two_regime_priors()
        regimes = np.array([0, 0, 0, 1, 1, 0, 1, 1, 1, 0, 0, 0, 0])
        if k == 3:
            params, priors = three_regime_params(), priors_for_k(priors, 3)
            regimes = np.array([0, 0, 2, 2, 1, 0, 1, 1, 2, 0, 0, 2, 2])
        conc = np.asarray(priors.row_concentrations) + transition_counts(regimes, k)
        g, n = rng(12), 20_000
        draws = np.array([_draw_rows(regimes, params, priors, g).trans_matrix
                          for _ in range(n)])
        for i in range(k):
            for j in range(k):
                a, b = conc[i, j], conc[i].sum() - conc[i, j]
                mean, var, _, kurt = stats.beta.stats(a, b, moments="mvsk")
                x = draws[:, i, j]
                assert abs(x.mean() - mean) < 4 * math.sqrt(var / n), (i, j)
                assert abs(x.var() - var) < 4 * var * math.sqrt((kurt + 2) / n), (i, j)
                assert stats.kstest(x, "beta", args=(a, b)).pvalue > 1e-3, (i, j)

    def test_small_concentration_never_gives_a_minus_inf_row_prior(self):
        # A Gamma(0.01) variate underflows to exactly 0 about once in 1,800
        # draws; the Dirichlet floor keeps every row entry inside (0, 1).
        params = two_regime_params()
        priors = replace(two_regime_priors(), row_concentrations=((0.01, 0.01),) * 2)
        regimes = np.zeros(3, dtype=int)
        g = rng(13)
        smallest = 1.0
        for _ in range(5000):
            drawn = _draw_rows(regimes, params, priors, g)
            assert np.isfinite(_row_log_priors(drawn, priors)).all()
            smallest = min(smallest, drawn.trans_matrix.min())
        assert smallest < 2 * SIMPLEX_FLOOR

    def test_single_regime_keeps_its_fixed_matrix(self):
        y, _, priors, _ = make_data(horizon=12)
        (records,) = run_pg(y, priors_for_k(priors, 1), [small_config(n_iterations=5, burn_in=2)])
        for rec in records:
            np.testing.assert_array_equal(rec.params.trans_matrix, [[1.0]])


# Geweke (2004, JASA, "Getting it right") test of the whole PG iteration:
# the prior draws of (psi, x, y) must have the law of a successive-
# conditional chain that alternates y | (psi, x) with one run_pg iteration
# resumed from (psi, x).  The priors keep short series off the
# observation clamp and the state floor, which the likelihood ignores:
# theta_1 ~ Dir(50, 5, 5, 1) and lambda ~ Gamma(20, 0.01).  kappa ~
# Gamma(10, 0.01) leaves the rates weakly tied to the path, so that the
# chain mixes within the run (integrated autocorrelation of alpha about 50
# steps, against about 1,000 at the scenario's Gamma(200, 0.01)), and
# rows of concentration 2 and 1 spread pi_11 enough that a row draw
# ignoring the path shows.
GEWEKE_PRIORS = replace(
    scenario_priors("two-regime"),
    theta1=DirichletParams(np.array([50.0, 5.0, 5.0, 1.0])),
    lambda_=GammaParams(20.0, 0.01),
    kappa=GammaParams(10.0, 0.01),
    row_concentrations=((2.0, 1.0), (1.0, 2.0)),
)
GEWEKE_T, GEWEKE_M = 10, 5
GEWEKE_STATS = ("alpha", "beta", "gamma", "kappa", "f2", "pi_11", "switches",
                "pi_11 x stays")
# Bound on each statistic's |z|: two-sided 0.0005 each, so about 0.004
# over the eight.
GEWEKE_Z = 3.5


def geweke_stats(params, regimes):
    stays = np.mean((regimes[:-1] == 0) & (regimes[1:] == 0))
    pi11 = params.trans_matrix[0, 0]
    return [params.alpha, params.beta, params.gamma, params.kappa, params.modifiers[1],
            pi11, np.count_nonzero(np.diff(regimes)), pi11 * stays]


def at_clamp_or_floor(y, path):
    return bool(np.any((y <= OBS_EPS) | (y >= 1 - OBS_EPS))
                or np.any(path.thetas < 2 * SIMPLEX_FLOOR))


@pytest.fixture(scope="module")
def geweke_prior_draws():
    """10,000 independent draws of the statistics under the prior, and the
    share of their series at a clamp or a floor."""
    g = rng(2004)
    values, hit = [], 0
    for _ in range(10_000):
        params = draw_params(GEWEKE_PRIORS, g)
        y, path = simulate_dataset(params, GEWEKE_PRIORS, GEWEKE_T, g)
        hit += at_clamp_or_floor(y, path)
        values.append(geweke_stats(params, path.regimes))
    return np.array(values), hit / 10_000


def successive_conditional(n_steps, seed):
    """The statistics of n_steps successive-conditional steps, and the
    share of their series at a clamp or a floor."""
    table = param_table(2, 1)
    g = rng(seed)
    params = draw_params(GEWEKE_PRIORS, g)
    path = simulate_dataset(params, GEWEKE_PRIORS, GEWEKE_T, g)[1]
    values, hit = [], 0
    for i in range(n_steps):
        mean = params.ident_series(GEWEKE_T) * path.thetas[:, 2]
        y = g.beta(params.lambda_ * mean, params.lambda_ * (1.0 - mean))
        y = np.clip(y, OBS_EPS, 1.0 - OBS_EPS)
        hit += at_clamp_or_floor(y, path)
        # burn_in 0: iteration i + 1 emits its record and adapts nothing.
        state = PgState(i, params, path, {pid: e.default_step(GEWEKE_PRIORS)
                                          for pid, e in table.items()},
                        {pid: [0, 0] for pid in table}, 0, 0)
        config = SamplerConfig(n_iterations=i + 1, burn_in=0, m_per_regime=GEWEKE_M,
                               seed=seed, mh_sweeps_per_iter=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a degenerate pass keeps x
            ((rec,),) = run_pg(y, GEWEKE_PRIORS, [config], resume=[state])
        params, path = rec.params, rec.path
        values.append(geweke_stats(params, path.regimes))
    return np.array(values), hit / n_steps


def integrated_autocorrelation(x):
    """1 + 2 * the sum of autocorrelations, over Geyer's (1992) initial
    positive sequence of paired lags."""
    x = x - x.mean()
    n = len(x)
    f = np.fft.rfft(x, 2 * n)
    acf = np.fft.irfft(f * np.conj(f))[:n]
    if acf[0] == 0:
        return 1.0
    acf /= acf[0]
    tau = 1.0
    for lag in range(1, n - 1, 2):
        pair = acf[lag] + acf[lag + 1]
        if pair < 0:
            break
        tau += 2 * pair
    return tau


def geweke_z(prior, chain):
    """Per statistic, the difference of the two means over its standard
    error; the chain's variance is scaled by its autocorrelation time."""
    z = []
    for j in range(prior.shape[1]):
        se2 = (prior[:, j].var(ddof=1) / len(prior)
               + chain[:, j].var(ddof=1) * integrated_autocorrelation(chain[:, j])
               / len(chain))
        z.append((prior[:, j].mean() - chain[:, j].mean()) / math.sqrt(se2))
    return dict(zip(GEWEKE_STATS, np.round(z, 2)))


class TestGeweke:
    @pytest.mark.parametrize("n_steps", [
        4000, pytest.param(12_000, marks=pytest.mark.slow)])
    def test_whole_iteration_leaves_the_joint_law_invariant(self, geweke_prior_draws, n_steps):
        prior, prior_hit = geweke_prior_draws
        chain, chain_hit = successive_conditional(n_steps, seed=n_steps)
        assert prior_hit < 0.01 and chain_hit < 0.01, (prior_hit, chain_hit)
        z = geweke_z(prior, chain)
        assert max(map(abs, z.values())) < GEWEKE_Z, z

    def test_fails_without_the_state_transition_in_ancestor_weights(
        self, geweke_prior_draws, monkeypatch
    ):
        monkeypatch.setattr(smc, "_ancestor_log_weights",
                            lambda log_ref, conc, log_into, log_w: log_into + log_w)
        z = geweke_z(geweke_prior_draws[0], successive_conditional(1000, seed=1000)[0])
        assert max(map(abs, z.values())) > GEWEKE_Z, z

    def test_fails_when_rows_ignore_the_path(self, geweke_prior_draws, monkeypatch):
        exact = pg._draw_rows
        monkeypatch.setattr(pg, "_draw_rows", lambda regimes, params, priors, g: exact(
            regimes[:1], params, priors, g))
        z = geweke_z(geweke_prior_draws[0], successive_conditional(4000, seed=4000)[0])
        assert max(map(abs, z.values())) > GEWEKE_Z, z


def fake_records(rates: dict, n=250, sweeps=4):
    """Records whose acceptance flags reproduce the given rates."""
    params = two_regime_params()
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


def tuned_alpha_step(rate, step=0.1):
    """run_pg's burn-in rule applied to records accepting alpha at rate."""
    rates = acceptance_rates(fake_records({"alpha": rate}))
    return _adjusted_step(step, rates["alpha"], TARGET_ACCEPT)


class TestTuneStepSizes:
    def test_low_acceptance_shrinks_step(self):
        assert tuned_alpha_step(0.05) < 0.1

    def test_high_acceptance_grows_step(self):
        assert tuned_alpha_step(0.9) > 0.1

    def test_on_target_leaves_step(self):
        assert tuned_alpha_step(TARGET_ACCEPT) == pytest.approx(0.1, rel=0.01)

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
        (records,) = run_pg(y, priors, [small_config()])
        assert len(records) == 20
        assert [r.iteration for r in records] == list(range(11, 31))

    def test_thinning(self):
        y, _, priors, _ = make_data(horizon=25)
        (records,) = run_pg(y, priors, [small_config(thin=3)])
        assert [r.iteration for r in records] == [11, 14, 17, 20, 23, 26, 29]

    def test_bit_reproducible(self):
        y, _, priors, _ = make_data(horizon=25)
        (a,) = run_pg(y, priors, [small_config()])
        (b,) = run_pg(y, priors, [small_config()])
        table = param_table(2, 1)
        for ra, rb in zip(a, b):
            for pid in ("alpha", "beta", "gamma", "lambda", "kappa", "p", "f2"):
                assert table[pid].get(ra.params) == table[pid].get(rb.params)
            np.testing.assert_array_equal(
                ra.params.trans_matrix, rb.params.trans_matrix
            )
            np.testing.assert_array_equal(ra.path.thetas, rb.path.thetas)
            np.testing.assert_array_equal(ra.path.regimes, rb.path.regimes)
            assert ra.log_marginal == rb.log_marginal

    def test_resume_equals_straight_through(self):
        y, _, priors, _ = make_data(horizon=25)
        (full,) = run_pg(y, priors, [small_config(n_iterations=30)])

        captured = {}

        def keep(state):
            if state.iteration == 18:
                import copy

                captured["state"] = copy.deepcopy(state)

        (first,) = run_pg(y, priors, [small_config(n_iterations=18)], callbacks=[keep])
        (rest,) = run_pg(
            y, priors, [small_config(n_iterations=30)], resume=[captured["state"]]
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
        (records,) = run_pg(y, priors, [small_config()])
        ids = {"alpha", "beta", "gamma", "lambda", "kappa", "p", "f2"}
        for rec in records:
            assert set(rec.mh_accepted) == ids
            assert all(len(f) == 2 for f in rec.mh_accepted.values())

    def test_adaptation_frozen_after_burn_in(self):
        y, _, priors, _ = make_data(horizon=25)
        seen = {}

        def watch(state):
            seen[state.iteration] = dict(state.step_sizes)

        run_pg(y, priors, [small_config(n_iterations=250, burn_in=200)], callbacks=[watch])
        # Steps may move during burn-in but not afterwards.
        post = [seen[i] for i in range(201, 251)]
        assert all(p == post[0] for p in post)

    def test_rejects_short_series(self):
        _, _, priors, _ = make_data(horizon=4)
        with pytest.raises(ValueError):
            run_pg(np.array([0.01]), priors, [small_config()])

    def test_default_step_sizes_cover_all_parameters(self):
        priors = two_regime_priors()
        for e in param_table(2, 1).values():
            assert e.default_step(priors) > 0

    def test_step_sizes_start_at_the_table_defaults(self):
        # Without burn-in nothing adapts, so every iteration proposes with
        # each entry's default_step and nothing else.
        y, _, priors, _ = make_data(horizon=25)
        defaults = {pid: e.default_step(priors)
                    for pid, e in param_table(priors.n_regimes, len(priors.ident)).items()}
        seen = []
        run_pg(y, priors, [small_config(n_iterations=3, burn_in=0)],
               callbacks=[lambda state: seen.append(dict(state.step_sizes))])
        assert seen == [defaults] * 3


def records_equal(a, b):
    assert [r.iteration for r in a] == [r.iteration for r in b]
    for ra, rb in zip(a, b):
        assert ra.params.__dict__.keys() == rb.params.__dict__.keys()
        for key, value in ra.params.__dict__.items():
            np.testing.assert_array_equal(value, rb.params.__dict__[key])
        np.testing.assert_array_equal(ra.path.thetas, rb.path.thetas)
        np.testing.assert_array_equal(ra.path.regimes, rb.path.regimes)
        assert ra.log_marginal == rb.log_marginal
        assert ra.mh_accepted == rb.mh_accepted


def captured_states(y, priors, config, at):
    """Deep copies of a chain's state after each iteration in `at`."""
    import copy

    states = {}

    def keep(state):
        if state.iteration in at:
            states[state.iteration] = copy.deepcopy(state)

    run_pg(y, priors, [config], callbacks=[keep])
    return states


class TestLockstepChains:
    def test_each_chain_equals_its_run_alone(self):
        # Chain 0 resumes at iteration 7 and chain 1 at 12, chain 2 starts
        # fresh with its own length and thinning; in lockstep each must
        # give exactly the records and states it gives alone.
        import copy

        y, _, priors, _ = make_data(horizon=25)
        configs = [
            small_config(seed=21, n_iterations=20),
            small_config(seed=22, n_iterations=24),
            small_config(seed=23, n_iterations=16, thin=2),
        ]
        resume = [
            captured_states(y, priors, configs[0], {7})[7],
            captured_states(y, priors, configs[1], {12})[12],
            None,
        ]
        seen = [[], [], []]
        callbacks = [
            lambda st, c=c: seen[c].append((st.iteration, st.n_emitted, dict(st.step_sizes)))
            for c in range(3)
        ]
        together = run_pg(y, priors, configs, callbacks=callbacks,
                          resume=copy.deepcopy(resume))
        for c in range(3):
            alone_seen = []
            (alone,) = run_pg(
                y, priors, [configs[c]],
                callbacks=[lambda st: alone_seen.append(
                    (st.iteration, st.n_emitted, dict(st.step_sizes)))],
                resume=[copy.deepcopy(resume[c])],
            )
            records_equal(together[c], alone)
            assert seen[c] == alone_seen
        assert [s[0][0] for s in seen] == [8, 13, 1]

    def test_degenerate_chain_is_reported_as_alone(self):
        # A chain whose reference enters a regime its transition matrix
        # cannot reach loses its ancestor weights: that iteration keeps
        # the old reference, records log-marginal -inf and counts one
        # degeneracy, with or without another chain beside it.
        import copy

        y, _, priors, _ = make_data(horizon=25)
        configs = [small_config(seed=31, n_iterations=8, burn_in=2),
                   small_config(seed=32, n_iterations=6, burn_in=2)]
        state = captured_states(y, priors, configs[0], {5})[5]
        regimes = np.zeros(25, dtype=int)
        regimes[3] = 1
        state.reference = LatentPath(state.reference.thetas, regimes)
        state.params = replace(state.params, trans_matrix=[[1.0, 0.0], [1.0, 0.0]])
        message = (
            "iteration 6: all particle weights degenerate at time step 3 "
            r"\(ancestor-sampling weights all zero\); latent update skipped"
        )
        states = [None, copy.deepcopy(state)]
        with pytest.warns(UserWarning, match=message) as caught:
            together = run_pg(y, priors, configs, resume=states)
        with pytest.warns(UserWarning, match=message) as caught_alone:
            (alone,) = run_pg(y, priors, [configs[1]], resume=[copy.deepcopy(state)])
        assert [str(w.message) for w in caught] == [message.replace("\\", "")]
        assert [str(w.message) for w in caught_alone] == [message.replace("\\", "")]
        assert states[1].n_degenerate == state.n_degenerate + 1
        assert together[1][0].iteration == 6
        assert together[1][0].log_marginal == -math.inf
        records_equal(together[1], alone)
        (first,) = run_pg(y, priors, [configs[0]])
        records_equal(together[0], first)

    def test_degenerate_round_reruns_each_live_chain_alone(self, monkeypatch):
        # Chain 1 resumes at iteration 5 with a reference that its
        # transition matrix cannot reach, so its iteration 6 degenerates in
        # round 1.  That round's pass raises and each live chain reruns
        # alone; healthy rounds make one pass, and so does every round of
        # a one-chain run, degenerate or not.
        import copy

        from switchseir import pg

        sizes, original = [], pg.run_csmc_as_batch

        def counting(*args):
            sizes.append(len(args[2]))  # the chains of the pass
            return original(*args)

        monkeypatch.setattr(pg, "run_csmc_as_batch", counting)
        y, _, priors, _ = make_data(horizon=25)
        configs = [small_config(seed=31, n_iterations=8, burn_in=2),
                   small_config(seed=32, n_iterations=6, burn_in=2),
                   small_config(seed=33, n_iterations=8, burn_in=2)]
        state = captured_states(y, priors, configs[0], {5})[5]
        state.reference = LatentPath(state.reference.thetas, np.r_[0, 0, 0, 1, [0] * 21])
        state.params = replace(state.params, trans_matrix=[[1.0, 0.0], [1.0, 0.0]])
        sizes.clear()
        with pytest.warns(UserWarning, match="iteration 6: .* at time step 3"):
            run_pg(y, priors, configs, resume=[None, copy.deepcopy(state), None])
        assert sizes == [3, 1, 1, 1] + [2] * 7
        sizes.clear()
        with pytest.warns(UserWarning, match="iteration 6: .* at time step 3"):
            run_pg(y, priors, [configs[1]], resume=[state])
        assert sizes == [1]
        sizes.clear()
        run_pg(y, priors, [configs[0]])
        assert sizes == [1] * 8

    def test_chains_must_share_m_per_regime(self):
        y, _, priors, _ = make_data(horizon=25)
        with pytest.raises(ValueError, match="m_per_regime"):
            run_pg(y, priors, [small_config(), small_config(m_per_regime=6)])


class TestSamplerConfigValidation:
    def test_iterations_must_exceed_burn_in(self):
        with pytest.raises(ValueError):
            small_config(n_iterations=10, burn_in=10)

    def test_m_per_regime_minimum(self):
        with pytest.raises(ValueError):
            small_config(m_per_regime=1)

    def test_no_step_size_override(self):
        # Proposal scales come from the priors alone.
        with pytest.raises(TypeError, match="step_sizes"):
            small_config(step_sizes={"alpha": 0.1})

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from switchseir.distributions import SORTED_SEARCH_MIN_KEYS, BetaParams, logsumexp
from switchseir.model import LatentPath, transition_mean
from switchseir.rng import substream
from switchseir.smc import (
    DegenerateWeightsError,
    ParticleSystem,
    ReferenceTrajectory,
    _normalize_step,
    run_csmc_as,
    run_smc,
    sample_reference,
)
from tests.test_distributions import beta_logpdf
from tests.test_model import two_regime_params, two_regime_priors


def rng(seed=0):
    return np.random.default_rng(seed)


def make_data(horizon=8, seed=100):
    from switchseir.model import simulate_dataset

    params = two_regime_params(lambda_=2500.0, kappa=5500.0)
    priors = two_regime_priors()
    y, path = simulate_dataset(
        params,
        priors,
        max(horizon, 2),
        rng(seed),
        initial=(np.array([0.95, 0.02, 0.02, 0.01]), 0),
    )
    return y[:horizon], params, priors, path


def exact_deterministic_log_likelihood(y, params, priors):
    """Brute force: marginalize the regime chain by full enumeration with
    the state pinned to its deterministic propagation."""

    def obs_logdensity(y_t, theta, t):
        mean = params.ident_series(len(y))[t] * theta[2]
        lam = params.lambda_
        return beta_logpdf(y_t, BetaParams(lam * mean, lam * (1.0 - mean)))

    k = params.n_regimes
    horizon = len(y)
    conc = priors.theta1.concentration
    theta1 = conc / conc.sum()
    log_terms = []
    for regime_path in itertools.product(range(k), repeat=horizon):
        lp = -math.log(k)
        for t in range(1, horizon):
            lp += math.log(params.trans_matrix[regime_path[t - 1], regime_path[t]])
        theta = theta1
        lp += obs_logdensity(y[0], theta, 0)
        for t in range(1, horizon):
            theta = transition_mean(theta, params.rates_for(regime_path[t]))
            lp += obs_logdensity(y[t], theta, t)
        log_terms.append(lp)
    return logsumexp(np.array(log_terms))


class TestRunSmc:
    def test_single_step_marginal_is_mean_weight(self):
        y, params, priors, _ = make_data(horizon=1)
        system = run_smc(y, params, priors, 500, rng(1))
        direct = math.log(
            math.fsum(np.exp(system.log_weights[0])) / system.n_particles
        )
        assert system.log_marginal == pytest.approx(direct, abs=1e-12)

    def test_deterministic_limit_matches_enumeration(self):
        y, params, priors, _ = make_data(horizon=8)
        exact = exact_deterministic_log_likelihood(y, params, priors)
        system = run_smc(
            y, params, priors, 10_000, rng(2), deterministic_transitions=True
        )
        rel_err = abs(math.expm1(system.log_marginal - exact))
        assert rel_err < 0.02

    def test_variance_shrinks_with_more_particles(self):
        y, params, priors, _ = make_data(horizon=8)
        estimates = {n: [] for n in (100, 400)}
        for n in estimates:
            for rep in range(200):
                system = run_smc(y, params, priors, n, rng(1000 + rep + 7 * n))
                estimates[n].append(system.log_marginal)
        assert np.std(estimates[400]) < np.std(estimates[100])

    def test_invariants_of_particle_system(self):
        y, params, priors, _ = make_data(horizon=12)
        system = run_smc(y, params, priors, 64, rng(3))
        np.testing.assert_allclose(system.norm_weights.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(system.ancestors >= 0)
        assert np.all(system.ancestors < 64)
        assert np.abs(system.thetas.sum(axis=2) - 1.0).max() < 1e-9
        log_z = sum(logsumexp(lw) - math.log(64) for lw in system.log_weights)
        assert log_z == pytest.approx(system.log_marginal, abs=1e-12)

    def test_reproducible(self):
        y, params, priors, _ = make_data(horizon=10)
        a = run_smc(y, params, priors, 50, rng(4))
        b = run_smc(y, params, priors, 50, rng(4))
        np.testing.assert_array_equal(a.thetas, b.thetas)
        assert a.log_marginal == b.log_marginal

    def test_needs_two_particles(self):
        y, params, priors, _ = make_data(horizon=3)
        with pytest.raises(ValueError):
            run_smc(y, params, priors, 1, rng(5))


def plain_run_smc(y, params, priors, n, rng):
    """run_smc with fancy-index gathers, an argmax regime proposal and a
    resampling search in draw order: the reference for the take gathers,
    the threshold-count proposal and the sorted-key search."""
    from switchseir.distributions import DirichletParams, sample_dirichlet
    from switchseir.smc import _draw_initial_thetas, _obs_log_weights_for

    horizon, k = len(y), params.n_regimes
    thetas = np.empty((horizon, n, 4))
    regimes = np.empty((horizon, n), dtype=int)
    log_w = np.empty((horizon, n))
    norm_w = np.empty((horizon, n))
    ancestors = np.empty((horizon - 1, n), dtype=int)
    obs_log_weights = _obs_log_weights_for(y, params)
    thetas[0] = _draw_initial_thetas(priors, n, rng, False)
    regimes[0] = rng.integers(k, size=n)
    log_w[0] = obs_log_weights(thetas[0], 0)
    norm_w[0], log_marginal = _normalize_step(log_w[0], 0)
    row_cdf = np.cumsum(params.trans_matrix, axis=1)
    row_cdf[:, -1] = 1.0
    for t in range(1, horizon):
        cdf = np.cumsum(norm_w[t - 1])
        cdf[-1] = 1.0
        anc = np.minimum(np.searchsorted(cdf, rng.random(n), side="right"), n - 1)
        ancestors[t - 1] = anc
        u = rng.random(n)
        regimes[t] = np.argmax(u[:, None] < row_cdf[regimes[t - 1][anc]], axis=1)
        eta = transition_mean(thetas[t - 1][anc], params.rates_for(regimes[t]))
        thetas[t] = sample_dirichlet(DirichletParams(params.kappa * eta), rng)
        log_w[t] = obs_log_weights(thetas[t], t)
        norm_w[t], inc = _normalize_step(log_w[t], t)
        log_marginal += inc
    return thetas, regimes, log_w, norm_w, ancestors, log_marginal


class TestRunSmcMatchesPlainLoop:
    # K = 3 has zero entries, and its second row sums to 1 + 1e-10, so that
    # row's CDF passes 1.0 before its last column.
    MATRICES = {
        1: [[1.0]],
        2: [[0.9, 0.1], [0.1, 0.9]],
        3: [[0.6, 0.0, 0.4], [0.3, 0.7 + 1e-10, 0.0], [0.0, 0.5, 0.5]],
    }
    MODIFIERS = {1: [1.0], 2: [1.0, 0.4], 3: [1.0, 0.7, 0.3]}

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [64, 2 * SORTED_SEARCH_MIN_KEYS])
    def test_every_output_equal(self, k, n):
        y, base, priors, _ = make_data(horizon=6)
        params = replace(
            base,
            trans_matrix=np.array(self.MATRICES[k]),
            modifiers=np.array(self.MODIFIERS[k]),
        )
        for seed in (7, 8):
            a, b = substream(seed, k), substream(seed, k)
            got = run_smc(y, params, priors, n, a)
            want = plain_run_smc(y, params, priors, n, b)
            fields = (got.thetas, got.regimes, got.log_weights, got.norm_weights,
                      got.ancestors, got.log_marginal)
            for g, w in zip(fields, want, strict=True):
                np.testing.assert_array_equal(g, w)
            assert a.random() == b.random()
        if k > 1:
            assert len(np.unique(got.regimes[1:])) == k


class TestEstimateLogMarginal:
    """The per-step log-marginal increments the filters add up."""

    def test_unit_weights_give_zero(self):
        increments = [_normalize_step(np.zeros(10), t)[1] for t in range(4)]
        assert sum(increments) == 0.0

    def test_degenerate_step_raises(self):
        # Never a silent -inf: an all-zero step aborts the pass.
        lw = np.zeros(10)
        lw[:] = -np.inf
        with pytest.raises(DegenerateWeightsError):
            _normalize_step(lw, 2)

    def test_label_permutation_leaves_marginal_bit_identical(self):
        y, params, priors, _ = make_data(horizon=10)
        system = run_smc(y, params, priors, 100, rng(6))
        g = rng(7)
        for t, lw in enumerate(system.log_weights):
            permuted = lw[g.permutation(100)]
            assert _normalize_step(permuted, t)[1] == _normalize_step(lw, t)[1]


class TestSampleReference:
    def test_single_particle_returns_only_trajectory(self):
        horizon = 5
        thetas = rng(8).dirichlet(np.ones(4), size=horizon).reshape(horizon, 1, 4)
        system = ParticleSystem(
            thetas=thetas,
            regimes=np.zeros((horizon, 1), dtype=int),
            log_weights=np.zeros((horizon, 1)),
            norm_weights=np.ones((horizon, 1)),
            ancestors=np.zeros((horizon - 1, 1), dtype=int),
            log_marginal=0.0,
        )
        ref = sample_reference(system, rng(9))
        np.testing.assert_array_equal(ref.path.thetas, thetas[:, 0])
        np.testing.assert_array_equal(ref.lineage, np.zeros(horizon, dtype=int))

    def test_point_mass_final_weights_pin_endpoint(self):
        y, params, priors, _ = make_data(horizon=6)
        system = run_smc(y, params, priors, 40, rng(10))
        nw = system.norm_weights.copy()
        nw[-1] = 0.0
        nw[-1, 17] = 1.0
        pinned = ParticleSystem(
            system.thetas, system.regimes, system.log_weights, nw,
            system.ancestors, system.log_marginal,
        )
        for seed in range(5):
            ref = sample_reference(pinned, rng(seed))
            assert ref.lineage[-1] == 17

    def test_replay_consistency(self):
        y, params, priors, _ = make_data(horizon=9)
        system = run_smc(y, params, priors, 30, rng(11))
        ref = sample_reference(system, rng(12))
        for t in range(9):
            b = ref.lineage[t]
            np.testing.assert_array_equal(ref.path.thetas[t], system.thetas[t, b])
            assert ref.path.regimes[t] == system.regimes[t, b]
        for t in range(8):
            assert ref.lineage[t] == system.ancestors[t][ref.lineage[t + 1]]


class TestCsmcAs:
    def _reference(self, y, params, priors, seed=13):
        system = run_smc(y, params, priors, 50, rng(seed))
        return sample_reference(system, rng(seed + 1))

    def test_reference_survives_at_its_slot(self):
        y, params, priors, _ = make_data(horizon=15)
        ref = self._reference(y, params, priors)
        m = 10
        system = run_csmc_as(y, params, priors, ref, m, rng(14))
        for t in range(15):
            slot = (ref.path.regimes[t] + 1) * m - 1
            np.testing.assert_array_equal(system.thetas[t, slot], ref.path.thetas[t])
            assert system.regimes[t, slot] == ref.path.regimes[t]

    def test_block_deterministic_regimes(self):
        y, params, priors, _ = make_data(horizon=15)
        ref = self._reference(y, params, priors)
        m = 50
        system = run_csmc_as(y, params, priors, ref, m, rng(15))
        expected = np.repeat(np.arange(2), m)
        for t in range(15):
            got = system.regimes[t].copy()
            slot = (ref.path.regimes[t] + 1) * m - 1
            # The reference overwrite lands inside its own block, so the
            # whole row must equal the block pattern.
            assert got[slot] == expected[slot]
            np.testing.assert_array_equal(got, expected)

    def test_weight_rows_normalized(self):
        y, params, priors, _ = make_data(horizon=15)
        ref = self._reference(y, params, priors)
        system = run_csmc_as(y, params, priors, ref, 10, rng(16))
        np.testing.assert_allclose(system.norm_weights.sum(axis=1), 1.0, atol=1e-9)

    def test_replicated_ancestors_across_blocks(self):
        y, params, priors, _ = make_data(horizon=10)
        ref = self._reference(y, params, priors)
        m = 8
        system = run_csmc_as(y, params, priors, ref, m, rng(17))
        for t in range(9):
            anc = system.ancestors[t]
            slot = (ref.path.regimes[t + 1] + 1) * m - 1
            mask = np.ones(2 * m, dtype=bool)
            mask[slot] = False
            # Block 2 repeats block 1 outside the reference slot.
            first, second = anc[:m], anc[m:]
            for j in range(m):
                if mask[j] and mask[m + j]:
                    assert first[j] == second[j]

    def test_ancestor_sampling_follows_point_mass(self):
        # If the previous weights are a point mass, the reference's
        # ancestor must be that particle, whatever the transition densities.
        _, params, _, _ = make_data(horizon=2)
        m = 5
        from switchseir.smc import _ancestor_sampling_draw

        thetas_prev = rng(18).dirichlet(np.array([50.0, 2, 2, 2]), size=2 * m)
        regimes_prev = np.repeat(np.arange(2), m)
        w = np.zeros(2 * m)
        w[3] = 1.0
        eta = transition_mean(thetas_prev, params.rates_for(1))
        theta_ref = eta[3]
        log_p = np.log(params.trans_matrix[regimes_prev, 1])
        for seed in range(5):
            idx = _ancestor_sampling_draw(
                np.log(theta_ref), params.kappa * eta, log_p, w, rng(seed), 1
            )
            assert idx == 3

    def test_transition_cache_rows_equal_per_regime_calls(self):
        # The (K, N, 4) cache gathered as CSMC-AS does must equal separate
        # transition_mean calls, bit for bit.
        params = two_regime_params(
            trans_matrix=np.full((3, 3), 1 / 3), modifiers=np.array([1.0, 0.7, 0.2])
        )
        n = 12
        prev = rng(40).dirichlet(np.array([50.0, 2, 2, 2]), size=n)
        k = params.n_regimes
        cache = transition_mean(
            np.broadcast_to(prev, (k, n, 4)), params.rates_for(np.arange(k)[:, None])
        )
        block_regimes = np.repeat(np.arange(k), n // k)
        anc = rng(41).integers(n, size=n)
        gathered = cache[block_regimes, anc]
        direct = transition_mean(prev[anc], params.rates_for(block_regimes))
        assert np.array_equal(gathered, direct)
        for x in range(k):
            assert np.array_equal(
                cache[x], transition_mean(prev, params.rates_for(np.full(n, x)))
            )

    @pytest.mark.parametrize("defect", ["zero component", "sum off by 1e-7"])
    def test_reference_checked_before_particle_work(self, defect):
        y, params, priors, _ = make_data(horizon=6)
        ref = self._reference(y, params, priors)
        thetas = ref.path.thetas.copy()
        if defect == "zero component":
            thetas[3] = [0.9, 0.0, 0.05, 0.05]
        else:
            thetas[3, 0] += 1e-7
        bad = ReferenceTrajectory(LatentPath(thetas, ref.path.regimes), ref.lineage)
        g = rng(42)
        before = g.bit_generator.state
        with pytest.raises(ValueError):
            run_csmc_as(y, params, priors, bad, 5, g)
        assert g.bit_generator.state == before

    def test_rejects_bad_reference(self):
        y, params, priors, _ = make_data(horizon=6)
        ref = self._reference(y, params, priors)
        with pytest.raises(ValueError):
            run_csmc_as(y[:4], params, priors, ref, 5, rng(19))
        bad_regimes = ref.path.regimes.copy()
        bad_regimes[2] = 7
        bad = ReferenceTrajectory(
            LatentPath(ref.path.thetas, bad_regimes), ref.lineage
        )
        with pytest.raises(ValueError):
            run_csmc_as(y, params, priors, bad, 5, rng(20))

    def test_reproducible(self):
        y, params, priors, _ = make_data(horizon=10)
        ref = self._reference(y, params, priors)
        a = run_csmc_as(y, params, priors, ref, 10, rng(21))
        b = run_csmc_as(y, params, priors, ref, 10, rng(21))
        np.testing.assert_array_equal(a.thetas, b.thetas)
        assert a.log_marginal == b.log_marginal


def mann_kendall_z(series):
    n = len(series)
    s = 0.0
    for i in range(n - 1):
        s += np.sign(series[i + 1 :] - series[i]).sum()
    var = n * (n - 1) * (2 * n + 5) / 18.0
    if s > 0:
        return (s - 1) / math.sqrt(var)
    if s < 0:
        return (s + 1) / math.sqrt(var)
    return 0.0


@pytest.mark.slow
def test_repeated_csmc_sweeps_are_stationary():
    """At fixed parameters, repeated CSMC-AS passes keep the filtered
    infectious mean stable: no monotone drift once the initial
    filtering-distribution transient has passed."""
    y, params, priors, _ = make_data(horizon=40, seed=101)
    system = run_smc(y, params, priors, 20, rng(22))
    ref = sample_reference(system, rng(23))
    g = rng(24)
    transient, kept = 100, 500
    track = np.empty(kept)
    for sweep in range(transient + kept):
        system = run_csmc_as(y, params, priors, ref, 10, g)
        ref = sample_reference(system, g)
        if sweep >= transient:
            filtered_i = (system.norm_weights * system.thetas[:, :, 2]).sum(axis=1)
            track[sweep - transient] = filtered_i.mean()
    blocks = track.reshape(25, 20).mean(axis=1)
    assert abs(mann_kendall_z(blocks)) < 1.96

import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from switchseir.data_io import generate_simulation, scenario_priors
from switchseir.distributions import (
    DirichletParams,
    _dirichlet_log_kernel,
    logsumexp,
    logsumexp_rows,
    require_open_simplex,
    sample_dirichlet,
)
from switchseir.model import LatentPath, _obs_log_density
from switchseir.rng import substream
from switchseir.seir import STATE_FLOOR, EpidemicRates, rk4_step
from switchseir.smc import (
    DegenerateWeightsError,
    ParticleSystem,
    _ancestor_log_weights,
    _check_particle_count,
    _draw_initial_thetas,
    _normalize_rows,
    _normalize_step,
    run_csmc_as_batch,
    run_smc,
    sample_reference,
)
from tests.test_distributions import beta_logpdf, plain_systematic_offspring
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


def deterministic_path_log_weights(y, params, priors):
    """Every regime path over the series, with its log joint density with y
    when the state is pinned to its deterministic propagation from the
    theta_1 prior mean: (paths (K^T, T), log weights (K^T,))."""

    def obs_logdensity(y_t, theta, t):
        mean = params.ident_series(len(y))[t] * theta[2]
        lam = params.lambda_
        return beta_logpdf(y_t, lam * mean, lam * (1.0 - mean))

    k = params.n_regimes
    horizon = len(y)
    conc = priors.theta1.concentration
    theta1 = conc / conc.sum()
    paths = list(itertools.product(range(k), repeat=horizon))
    log_terms = []
    for regime_path in paths:
        lp = -math.log(k)
        for t in range(1, horizon):
            lp += math.log(params.trans_matrix[regime_path[t - 1], regime_path[t]])
        theta = theta1
        lp += obs_logdensity(y[0], theta, 0)
        for t in range(1, horizon):
            theta = rk4_step(theta, params.rates_for(regime_path[t]))
            lp += obs_logdensity(y[t], theta, t)
        log_terms.append(lp)
    return np.array(paths), np.array(log_terms)


def exact_deterministic_log_likelihood(y, params, priors):
    """Brute force: marginalize the regime chain by full enumeration with
    the state pinned to its deterministic propagation."""
    return logsumexp(deterministic_path_log_weights(y, params, priors)[1])


def sharp_limit(priors, params):
    """priors and params with kappa and the theta_1 concentration at 1e12
    (theta_1 keeps its prior mean): every Dirichlet draw then lies within
    about 1e-6 of its mean, so the state path is a deterministic function
    of the regime path."""
    conc = priors.theta1.concentration
    return (replace(priors, theta1=DirichletParams(conc / conc.sum() * 1e12)),
            replace(params, kappa=1e12))


class TestRunSmc:
    def test_single_step_marginal_is_mean_weight(self):
        y, params, priors, _ = make_data(horizon=1)
        system = run_smc(y, params, priors, 500, rng(1))
        direct = math.log(
            math.fsum(np.exp(system.log_weights[0])) / system.n_particles
        )
        assert system.log_marginal == pytest.approx(direct, abs=1e-12)

    def test_deterministic_limit_matches_enumeration(self):
        # In the sharp limit the filter's likelihood is that of the
        # deterministic state path, which enumeration gives exactly.  The
        # estimate is unbiased: over 20 seeded passes the mean of
        # Z_hat / Z - 1 lies within 0.02 of 0 and within 3 standard errors
        # of it.  One pass's error has an SD of about 0.02.
        y, params, priors, _ = make_data(horizon=8)
        exact = exact_deterministic_log_likelihood(y, params, priors)
        sharp_priors, sharp_params = sharp_limit(priors, params)
        rel_errs = [
            math.expm1(
                run_smc(y, sharp_params, sharp_priors, 10_000, rng(seed)).log_marginal
                - exact
            )
            for seed in range(20)
        ]
        mean = np.mean(rel_errs)
        se = np.std(rel_errs, ddof=1) / math.sqrt(len(rel_errs))
        assert abs(mean) < 0.02
        assert abs(mean) < 3 * se

    def test_overflowing_rates_raise_degenerate_weights(self):
        # alpha = 1e300 overflows RK4 at the first transition: NaN means
        # give NaN weights, which end the pass as degenerate.
        y, params, priors, _ = make_data(horizon=8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(DegenerateWeightsError, match="time step 1$"):
                run_smc(y, replace(params, alpha=1e300), priors, 100, rng(2))

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

    def test_particle_count_fits_int32_ancestors(self):
        # Both filters check N with this before allocating their storage;
        # calling them at N = 2^31 would try to allocate it if they did not.
        _check_particle_count(2**31 - 1)
        with pytest.raises(ValueError, match="int32"):
            _check_particle_count(2**31)


def obs_log_weights_for(y, params):
    """log_weights(thetas, t): the observation log density of every
    particle of one chain at step t."""
    p = params.ident_series(len(y))

    def log_weights(thetas, t):
        return _obs_log_density(
            thetas[..., 2], p[t], params.lambda_, math.log(y[t]), math.log1p(-y[t])
        )

    return log_weights


def plain_rk4_step(state, rates):
    """One RK4 step as seir.rk4_step computes it, written out with its own
    flow so that it shares no code with seir: the stages on a
    component-first copy, the clamp, then a C-ordered (..., 4) result
    divided by the component sum."""
    def flow(x, infect_rate):
        s, e, i = x[0], x[1], x[2]
        infection = infect_rate * s * i
        progression = rates.alpha * e
        k = np.empty((4,) + infection.shape)
        recovery = np.multiply(rates.gamma, i, out=k[3, ...])
        np.negative(infection, out=k[0, ...])
        np.subtract(infection, progression, out=k[1, ...])
        np.subtract(progression, recovery, out=k[2, ...])
        return k

    def midpoint(x, step, k):
        mid = np.multiply(k[:3], step)
        mid += x[:3]
        return mid

    lead = tuple(range(state.ndim - 1))
    x = np.ascontiguousarray(state.transpose((state.ndim - 1, *lead)))
    infect_rate = rates.modifier * rates.beta
    k1 = flow(x, infect_rate)
    k2 = flow(midpoint(x, 0.5, k1), infect_rate)
    k3 = flow(midpoint(x, 0.5, k2), infect_rate)
    k4 = flow(midpoint(x, 1.0, k3), infect_rate)
    k2 *= 2
    k1 += k2
    k3 *= 2
    k1 += k3
    k1 += k4
    k1 *= 1.0 / 6.0
    k1 += x
    assert np.isfinite(k1).all()
    np.clip(k1, STATE_FLOOR, 1.0 - STATE_FLOOR, out=k1)
    total = ((k1[0] + k1[1]) + k1[2]) + k1[3]
    th = np.empty(k1.shape[1:] + (4,))
    np.divide(k1, total, out=th.transpose((th.ndim - 1, *lead)))
    return th


def plain_normalize(log_w, t):
    """The step's normalized weights and log mean weight, with the
    log-sum-exp taken as peak + log(np.add.reduce) over the whole vector."""
    peak = log_w.max()
    if not np.isfinite(peak):
        raise DegenerateWeightsError(t)
    total = peak + math.log(np.add.reduce(np.exp(log_w - peak)))
    w = np.exp(log_w - total)
    return w / w.sum(), total - math.log(len(log_w))


def plain_run_smc(y, params, priors, n, rng):
    """run_smc as a plain loop: fancy-index gathers in the row layout, an
    argmax regime proposal, systematic resampling as a per-particle loop,
    the RK4 step of plain_rk4_step with per-step rates and a plain
    log-sum-exp normalization.  The reference for the compact store, the
    component-first step and the offspring kernel."""
    horizon, k = len(y), params.n_regimes
    thetas = np.empty((horizon, n, 4))
    regimes = np.empty((horizon, n), dtype=int)
    log_w = np.empty((horizon, n))
    norm_w = np.empty((horizon, n))
    ancestors = np.empty((horizon - 1, n), dtype=int)
    obs_log_weights = obs_log_weights_for(y, params)
    thetas[0] = _draw_initial_thetas(priors, n, rng)
    regimes[0] = rng.integers(k, size=n)
    log_w[0] = obs_log_weights(thetas[0], 0)
    norm_w[0], log_marginal = plain_normalize(log_w[0], 0)
    row_cdf = np.cumsum(params.trans_matrix, axis=1)
    row_cdf[:, -1] = 1.0
    for t in range(1, horizon):
        counts = plain_systematic_offspring(norm_w[t - 1], rng.random())
        anc = np.array([j for j, c in enumerate(counts) for _ in range(c)])
        ancestors[t - 1] = anc
        u = rng.random(n)
        regimes[t] = np.argmax(u[:, None] < row_cdf[regimes[t - 1][anc]], axis=1)
        eta = plain_rk4_step(thetas[t - 1][anc], params.rates_for(regimes[t]))
        thetas[t] = sample_dirichlet(DirichletParams(params.kappa * eta), rng)
        log_w[t] = obs_log_weights(thetas[t], t)
        norm_w[t], inc = plain_normalize(log_w[t], t)
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
    @pytest.mark.parametrize("n", [64, 2048])
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
            assert got.regimes.dtype == np.int8
            assert got.ancestors.dtype == {64: np.int8, 2048: np.int16}[n]
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

    def test_label_permutation_moves_marginal_by_rounding_only(self):
        # The step's sum of weights is numpy's pairwise sum, whose bits may
        # depend on particle order, but only within the rounding of two
        # such sums (7 ulps of a sum >= 1 each, and of the results).
        y, params, priors, _ = make_data(horizon=10)
        system = run_smc(y, params, priors, 100, rng(6))
        g = rng(7)
        for t, lw in enumerate(system.log_weights):
            permuted = lw[g.permutation(100)]
            want = _normalize_step(lw, t)[1]
            assert _normalize_step(permuted, t)[1] == pytest.approx(want, rel=1e-15, abs=4e-15)


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


def csmc(y, params, priors, ref, m, rng):
    """One chain's CSMC-AS pass of K * m particles: run_csmc_as_batch
    with C = 1."""
    (result,) = run_csmc_as_batch(y, priors, [params], [ref], params.n_regimes * m, [rng])
    return result


def pass_result(y, priors, params, refs, n, rngs):
    """run_csmc_as_batch's systems, or the DegenerateWeightsError it raised."""
    try:
        return run_csmc_as_batch(y, priors, params, refs, n, rngs)
    except DegenerateWeightsError as exc:
        return exc


def serial_csmc_as(y, params, priors, reference, m, rng):
    """One chain's CSMC-AS pass as a plain loop: fancy-index gathers in the
    row layout, an argmax regime proposal, the RK4 step of plain_rk4_step
    with per-step rates, the ancestor-sampling weights from the
    transition matrix and the Dirichlet density, and plain log-sum-exp
    normalizations: the reference for run_csmc_as_batch.  Returns the
    ParticleSystem, or the DegenerateWeightsError the pass hit."""
    horizon, k = len(y), params.n_regimes
    ref = reference
    require_open_simplex(ref.thetas, "reference states")
    n = k * m
    with np.errstate(divide="ignore"):
        log_trans = np.log(params.trans_matrix)
    row_cdf = np.cumsum(params.trans_matrix, axis=1)
    row_cdf[:, -1] = 1.0
    log_ref = np.log(ref.thetas)
    obs_log_weights = obs_log_weights_for(y, params)
    thetas = np.empty((horizon, n, 4))
    regimes = np.empty((horizon, n), dtype=int)
    log_w = np.empty((horizon, n))
    norm_w = np.empty((horizon, n))
    ancestors = np.empty((horizon - 1, n), dtype=int)
    thetas[:, -1] = ref.thetas
    regimes[:, -1] = ref.regimes

    try:
        thetas[0, :-1] = _draw_initial_thetas(priors, n - 1, rng)
        regimes[0, :-1] = rng.integers(k, size=n - 1)
        log_w[0] = obs_log_weights(thetas[0], 0)
        norm_w[0], log_marginal = plain_normalize(log_w[0], 0)
        for t in range(1, horizon):
            cdf = np.cumsum(norm_w[t - 1])
            cdf[-1] = 1.0
            anc = np.empty(n, dtype=int)
            anc[:-1] = np.minimum(np.searchsorted(cdf, rng.random(n - 1), side="right"), n - 1)
            u = rng.random(n - 1)
            regimes[t, :-1] = np.argmax(u[:, None] < row_cdf[regimes[t - 1][anc[:-1]]], axis=1)
            eta = plain_rk4_step(thetas[t - 1][anc[:-1]], params.rates_for(regimes[t, :-1]))
            x_ref = regimes[t, -1]
            eta_ref = plain_rk4_step(thetas[t - 1], params.rates_for(x_ref))
            with np.errstate(invalid="ignore"):
                log_g = _dirichlet_log_kernel(log_ref[t], params.kappa * eta_ref)
                log_as = log_g + log_trans[regimes[t - 1], x_ref] + log_w[t - 1]
            if np.isnan(log_as).any():
                raise DegenerateWeightsError(t, "ancestor-sampling weights not a number")
            if not np.isfinite(log_as.max()):
                raise DegenerateWeightsError(t, "ancestor-sampling weights all zero")
            cdf = np.cumsum(np.exp(log_as - log_as.max()))
            anc[-1] = min(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"), n - 1)
            ancestors[t - 1] = anc
            thetas[t, :-1] = sample_dirichlet(DirichletParams(params.kappa * eta), rng)
            log_w[t] = obs_log_weights(thetas[t], t)
            norm_w[t], inc = plain_normalize(log_w[t], t)
            log_marginal += inc
    except DegenerateWeightsError as exc:
        return exc
    return ParticleSystem(thetas, regimes, log_w, norm_w, ancestors, log_marginal)


def assert_same_pass(got, want):
    """Two CSMC-AS results are equal: every array and log Z bit for bit,
    or errors of one type with one message."""
    if isinstance(want, DegenerateWeightsError):
        assert type(got) is type(want)
        assert (got.step, str(got)) == (want.step, str(want))
        return
    for field in ("thetas", "regimes", "log_weights", "norm_weights", "ancestors"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
    assert got.log_marginal == want.log_marginal


class TestCsmcAs:
    def _reference(self, y, params, priors, seed=13):
        system = run_smc(y, params, priors, 50, rng(seed))
        return sample_reference(system, rng(seed + 1)).path

    def test_reference_survives_in_the_last_slot(self):
        y, params, priors, _ = make_data(horizon=15)
        ref = self._reference(y, params, priors)
        system = csmc(y, params, priors, ref, 10, rng(14))
        np.testing.assert_array_equal(system.thetas[:, -1], ref.thetas)
        np.testing.assert_array_equal(system.regimes[:, -1], ref.regimes)

    def test_weight_rows_normalized(self):
        y, params, priors, _ = make_data(horizon=15)
        ref = self._reference(y, params, priors)
        system = csmc(y, params, priors, ref, 10, rng(16))
        np.testing.assert_allclose(system.norm_weights.sum(axis=1), 1.0, atol=1e-9)

    def test_ancestor_sampling_follows_point_mass(self):
        # If the previous weights are a point mass, the reference's
        # ancestor must be that particle, whatever the transition densities.
        n = 10
        prev = rng(18).dirichlet(np.array([50.0, 2, 2, 2]), size=n)
        conc = 5500.0 * rk4_step(prev, EpidemicRates(0.3, 0.5, 0.2))
        log_ref = np.log(rng(19).dirichlet(np.array([50.0, 2, 2, 2])))
        point_mass = np.eye(n)[3]
        with np.errstate(divide="ignore"):
            log_w = np.log(point_mass)
        log_as = _ancestor_log_weights(
            log_ref[None, None], conc[None], np.log(np.full((1, n), 0.5)), log_w[None]
        )
        w = _normalize_rows(log_as, logsumexp_rows(log_as))
        np.testing.assert_array_equal(w[0], point_mass)

    @pytest.mark.parametrize("defect", ["zero component", "sum off by 1e-7"])
    def test_reference_checked_before_particle_work(self, defect):
        y, params, priors, _ = make_data(horizon=6)
        ref = self._reference(y, params, priors)
        thetas = ref.thetas.copy()
        if defect == "zero component":
            thetas[3] = [0.9, 0.0, 0.05, 0.05]
        else:
            thetas[3, 0] += 1e-7
        bad = LatentPath(thetas, ref.regimes)
        g = rng(42)
        before = g.bit_generator.state
        with pytest.raises(ValueError):
            csmc(y, params, priors, bad, 5, g)
        assert g.bit_generator.state == before

    def test_rejects_bad_reference(self):
        y, params, priors, _ = make_data(horizon=6)
        ref = self._reference(y, params, priors)
        with pytest.raises(ValueError):
            csmc(y[:4], params, priors, ref, 5, rng(19))
        bad_regimes = ref.regimes.copy()
        bad_regimes[2] = 7
        bad = LatentPath(ref.thetas, bad_regimes)
        with pytest.raises(ValueError):
            csmc(y, params, priors, bad, 5, rng(20))

    def test_reproducible(self):
        y, params, priors, _ = make_data(horizon=10)
        ref = self._reference(y, params, priors)
        a = csmc(y, params, priors, ref, 10, rng(21))
        b = csmc(y, params, priors, ref, 10, rng(21))
        np.testing.assert_array_equal(a.thetas, b.thetas)
        assert a.log_marginal == b.log_marginal


MATRICES = TestRunSmcMatchesPlainLoop.MATRICES
MODIFIERS = TestRunSmcMatchesPlainLoop.MODIFIERS


def batch_inputs(k, horizon=12, n_chains=3):
    """Parameters and references of n_chains chains that differ in their
    rates, precisions, transition matrices and reference regimes."""
    y, base, priors, _ = make_data(horizon=horizon)
    params, refs = [], []
    for c in range(n_chains):
        matrix = np.array(MATRICES[k])
        params.append(replace(
            base,
            alpha=base.alpha * (1 + 0.2 * c),
            gamma=base.gamma * (1 - 0.1 * c),
            kappa=base.kappa * (1 + 0.5 * c),
            lambda_=base.lambda_ * (1 - 0.2 * c),
            trans_matrix=matrix if c == 0 else 0.5 * (matrix + np.eye(k)),
            modifiers=np.array(MODIFIERS[k]) * np.r_[1.0, np.full(k - 1, 1 - 0.05 * c)],
        ))
        system = run_smc(y, params[c], priors, 30, rng(60 + c))
        path = sample_reference(system, rng(70 + c)).path
        regimes = (np.arange(horizon) // (2 + c) + c) % k
        refs.append(LatentPath(path.thetas, regimes))
    return y, priors, params, refs


class TestBatchedPass:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("m", [2, 5])
    def test_each_chain_equals_its_pass_alone(self, k, m):
        y, priors, params, refs = batch_inputs(k)
        for seed in (1, 2):
            got = run_csmc_as_batch(
                y, priors, params, refs, k * m, [substream(seed, c) for c in range(3)]
            )
            for c in range(3):
                (alone,) = run_csmc_as_batch(
                    y, priors, [params[c]], [refs[c]], k * m, [substream(seed, c)]
                )
                assert_same_pass(got[c], alone)
                assert_same_pass(got[c], serial_csmc_as(
                    y, params[c], priors, refs[c], m, substream(seed, c)))

    @pytest.mark.parametrize("case", ["ancestor weights at step 5", "step-0 weights"])
    def test_degenerate_chain_raises_its_error_alone(self, case):
        y, priors, params, refs = batch_inputs(2)
        if case == "step-0 weights":
            # lambda so large that every Beta log density is NaN.
            params[1] = replace(params[1], lambda_=1e308)
        else:
            # No regime moves into regime 1, the reference's regime at step 5.
            params[1] = replace(params[1], trans_matrix=np.array([[1.0, 0.0], [1.0, 0.0]]))
            regimes = np.zeros(len(y), dtype=int)
            regimes[5] = 1
            refs[1] = LatentPath(refs[1].thetas, regimes)
        want = [serial_csmc_as(y, p, priors, r, 5, substream(3, c))
                for c, (p, r) in enumerate(zip(params, refs))]
        assert isinstance(want[1], DegenerateWeightsError)
        assert want[1].step == (5 if case.startswith("ancestor") else 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pass_result(y, priors, params, refs, 2 * 5, [substream(3, c) for c in range(3)])
        assert_same_pass(got, want[1])
        for c in range(3):
            alone = pass_result(y, priors, [params[c]], [refs[c]], 2 * 5, [substream(3, c)])
            assert_same_pass(alone if c == 1 else alone[0], want[c])
        rest = run_csmc_as_batch(y, priors, [params[0], params[2]], [refs[0], refs[2]], 2 * 5,
                                 [substream(3, 0), substream(3, 2)])
        assert_same_pass(rest[0], want[0])
        assert_same_pass(rest[1], want[2])

    def huge_kappa_batch(self):
        """Chain 0 at kappa = 1e306, whose ancestor-sampling Dirichlet
        density overflows to inf - inf at step 1, batched with a sound
        chain 1 on the 12-step series; warnings raise.  Returns the
        inputs and the error the pass raised."""
        y, priors, params, refs = batch_inputs(2, n_chains=2)
        params[0] = replace(params[0], kappa=1e306)
        rngs = [substream(4, c) for c in range(2)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateWeightsError) as caught:
                run_csmc_as_batch(y, priors, params, refs, 2 * 5, rngs)
        return y, priors, params, refs, caught.value

    def test_nan_ancestor_weights_name_their_cause(self):
        *_, error = self.huge_kappa_batch()
        assert error.step == 1
        assert "(ancestor-sampling weights not a number)" in str(error)

    def test_nan_ancestor_weights_raise_no_warning(self):
        # huge_kappa_batch turns every warning into an error.
        self.huge_kappa_batch()

    def test_nan_ancestor_weights_spare_the_rest_alone(self):
        y, priors, params, refs, error = self.huge_kappa_batch()
        assert_same_pass(error, serial_csmc_as(y, params[0], priors, refs[0], 5,
                                               substream(4, 0)))
        (alone,) = run_csmc_as_batch(y, priors, [params[1]], [refs[1]], 2 * 5,
                                     [substream(4, 1)])
        assert_same_pass(alone, serial_csmc_as(y, params[1], priors, refs[1], 5,
                                               substream(4, 1)))

    def test_compact_store(self):
        # int8 regimes and, for N = 12 <= 128, int8 ancestors.
        y, priors, params, refs = batch_inputs(3, n_chains=2)
        got = run_csmc_as_batch(y, priors, params, refs, 3 * 4, [rng(1), rng(2)])
        for system in got:
            assert system.regimes.dtype == np.int8
            assert system.regimes.shape == (len(y), 12)
            assert system.ancestors.dtype == np.int8

    def test_first_degenerate_chain_names_the_error(self):
        # At step 1 chain 0's ancestor weights are NaN (kappa = 1e306) and
        # chain 1's all zero (its reference enters a regime no row reaches):
        # in either order the pass raises the first chain's error.
        y, priors, params, refs = batch_inputs(2, n_chains=2)
        params[0] = replace(params[0], kappa=1e306)
        params[1] = replace(params[1], trans_matrix=np.array([[1.0, 0.0], [1.0, 0.0]]))
        refs[1] = LatentPath(refs[1].thetas, np.r_[0, 1, np.zeros(len(y) - 2, dtype=int)])
        for order, detail in (([0, 1], "not a number"), ([1, 0], "all zero")):
            with pytest.raises(DegenerateWeightsError,
                               match=rf"step 1 \(ancestor-sampling weights {detail}\)$"):
                run_csmc_as_batch(y, priors, [params[c] for c in order],
                                  [refs[c] for c in order], 2 * 3, [rng(1), rng(2)])

    def test_chains_must_share_the_regime_count(self):
        y, priors, params2, refs2 = batch_inputs(2, n_chains=1)
        _, _, params3, refs3 = batch_inputs(3, n_chains=1)
        with pytest.raises(ValueError, match="share the number of regimes"):
            run_csmc_as_batch(y, priors, params2 + params3, refs2 + refs3, 6,
                              [rng(1), rng(2)])


# Particle counts at the edges of the ancestor type rule, and the type each
# gets: the smallest signed integer type that holds 0..N-1.
ANCESTOR_TYPES = [(128, np.int8), (129, np.int16), (32_768, np.int16), (32_769, np.int32)]


class TestAncestorType:
    """Both passes store ancestors at the smallest signed integer type
    that holds 0..N-1.  A 2-step series keeps the largest store small."""

    @pytest.mark.parametrize("n, dtype", ANCESTOR_TYPES)
    def test_bootstrap_pass(self, n, dtype):
        y, params, priors, _ = make_data(horizon=2)
        system = run_smc(y, params, priors, n, rng(n))
        assert system.ancestors.dtype == dtype
        assert system.ancestors.shape == (1, n)
        assert 0 <= system.ancestors.min() and system.ancestors.max() < n

    @pytest.mark.parametrize("n, dtype", ANCESTOR_TYPES)
    def test_conditional_pass(self, n, dtype):
        y, priors, params, refs = batch_inputs(2, horizon=2, n_chains=2)
        for system in run_csmc_as_batch(y, priors, params, refs, n, [rng(n), rng(n + 1)]):
            assert system.ancestors.dtype == dtype
            assert system.ancestors.shape == (1, n)
            assert 0 <= system.ancestors.min() and system.ancestors.max() < n


def test_csmc_regime_switches_follow_markov_prior():
    """With modifiers (1, 0.99999) the data barely tell the regimes apart,
    so retained regime paths should switch about as often as the Markov
    prior expects: 59 x 0.02 = 1.18 times over 60 steps."""
    dataset, _, truth = generate_simulation("two-regime", seed=0)
    y = dataset.y[:60]
    params = replace(
        truth,
        modifiers=np.array([1.0, 0.99999]),
        trans_matrix=np.array([[0.98, 0.02], [0.02, 0.98]]),
    )
    priors = scenario_priors("two-regime")
    ref = sample_reference(run_smc(y, params, priors, 100, substream(0, 1)),
                           substream(0, 2)).path
    switches = []
    for sweep in range(150):
        system = csmc(y, params, priors, ref, 50, substream(1, sweep))
        ref = sample_reference(system, substream(2, sweep)).path
        switches.append(np.count_nonzero(np.diff(ref.regimes)))
    assert np.mean(switches[20:]) < 3


@pytest.mark.parametrize("m", [2, 8])
def test_csmc_regime_marginals_match_enumeration(m):
    """In the sharp limit, P(x_t = 1 | y) follows exactly by enumerating
    the 2^8 regime paths of steps 10-17 of the two-regime series.  The
    retained references of 1,500 CSMC-AS sweeps (after 50) must match it
    within 5 batch-means SEs (20 batches) at every step whose exact
    marginal lies in (0.05, 0.95).  Over seeds 1-30 of this setting the
    largest |z| of a correct pass was 4.2.  Rarer marginals are left out:
    at M = 2 their few excursions make the batch-means SE too small."""
    dataset, _, truth = generate_simulation("two-regime", seed=0)
    y = dataset.y[10:18]
    params = replace(truth, modifiers=np.array([1.0, 0.9]),
                     trans_matrix=np.array([[0.9, 0.1], [0.4, 0.6]]))
    priors, params = sharp_limit(scenario_priors("two-regime"), params)
    paths, log_w = deterministic_path_log_weights(y, params, priors)
    exact = np.exp(log_w - logsumexp(log_w)) @ paths

    ref = sample_reference(run_smc(y, params, priors, 2 * m, substream(0, m, 0)),
                           substream(0, m, 1)).path
    kept = []
    for sweep in range(1550):
        ref = sample_reference(csmc(y, params, priors, ref, m, substream(0, m, 2, sweep)),
                               substream(0, m, 3, sweep)).path
        if sweep >= 50:
            kept.append(ref.regimes)
    batches = np.reshape(kept, (20, -1, len(y))).mean(axis=1)
    mean = batches.mean(axis=0)
    se = batches.std(axis=0, ddof=1) / math.sqrt(len(batches))
    checked = (exact > 0.05) & (exact < 0.95)
    assert checked.sum() >= 3
    z = (mean - exact)[checked] / se[checked]
    assert np.abs(z).max() < 5, z


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
    ref = sample_reference(system, rng(23)).path
    g = rng(24)
    transient, kept = 100, 500
    track = np.empty(kept)
    for sweep in range(transient + kept):
        system = csmc(y, params, priors, ref, 10, g)
        ref = sample_reference(system, g).path
        if sweep >= transient:
            filtered_i = (system.norm_weights * system.thetas[:, :, 2]).sum(axis=1)
            track[sweep - transient] = filtered_i.mean()
    blocks = track.reshape(25, 20).mean(axis=1)
    assert abs(mann_kendall_z(blocks)) < 1.96

import math
from dataclasses import replace

import numpy as np
import pytest

from switchseir.distributions import (
    BetaParams,
    DirichletParams,
    GammaParams,
    TruncNormalParams,
)
from switchseir.model import (
    ROW_ID,
    LatentPath,
    ParameterSet,
    PosteriorTerms,
    PriorSpec,
    draw_params,
    initial_logdensity,
    joint_log_posterior,
    modifier_band,
    param_table,
    regime_loglik_series,
    sample_initial,
    simulate_dataset,
    transition_mean,
)
from switchseir.seir import EpidemicRates, rk4_step
from tests.test_distributions import beta_logpdf


def two_regime_params(**overrides):
    base = dict(
        alpha=0.3,
        beta=0.45,
        gamma=0.2,
        lambda_=2000.0,
        kappa=5000.0,
        ident_rates=((0.25, 0),),
        trans_matrix=np.array([[0.9, 0.1], [0.1, 0.9]]),
        modifiers=np.array([1.0, 0.4]),
    )
    base.update(overrides)
    return ParameterSet(**base)


def two_regime_priors():
    return PriorSpec(
        n_regimes=2,
        alpha=TruncNormalParams(0.3, 0.1, 0.0, math.inf),
        beta=TruncNormalParams(0.4, 0.1, 0.0, math.inf),
        gamma=TruncNormalParams(0.2, 0.1, 0.0, math.inf),
        lambda_=GammaParams(2.0, 0.001),
        kappa=GammaParams(200.0, 0.01),
        ident=(TruncNormalParams(0.25, 0.05, 0.1, 0.4),),
        row_concentrations=((10.0, 1.0), (1.0, 10.0)),
    )


def rng(seed=0):
    return np.random.default_rng(seed)


def table_for(params):
    return param_table(params.n_regimes, len(params.ident_rates))


def log_prior(params, priors):
    """Sum of the prior terms of every param_table entry."""
    table = table_for(params)
    return sum(t for e in table.values() for t in e.log_prior(params, priors))


def obs_loglik_series(y, thetas, params):
    """Sum of observation log densities over a series: the observation
    factor of the joint posterior (the regimes do not enter it)."""
    path = LatentPath(thetas, np.zeros(len(thetas), dtype=int))
    priors = replace(
        two_regime_priors(),
        ident=two_regime_priors().ident * len(params.ident_rates),
        ident_start_times=tuple(start for _, start in params.ident_rates),
    )
    return PosteriorTerms.build(path, y, params, priors).obs


def obs_term(y, theta, params):
    """Observation log density of y from theta, as a one-step series."""
    return obs_loglik_series(np.array([y]), np.asarray(theta)[None, :], params)


def trans_loglik_series(thetas, regimes, params, priors=None):
    """Sum of state-transition log densities along a path: the transition
    factor of the joint posterior (any y in (0, 1) will do)."""
    path = LatentPath(thetas, regimes)
    y = np.full(len(path), 0.01)
    return PosteriorTerms.build(path, y, params, priors or two_regime_priors()).trans


def trans_term(theta_next, theta, x_next, params):
    """Log density of theta -> theta_next under regime x_next, as a
    two-step series."""
    return trans_loglik_series(
        np.stack([theta, theta_next]), np.array([0, x_next]), params
    )


class TestParameterSetValidation:
    def test_modifier_bands(self):
        assert modifier_band(1, 2) == (0.0, 1.0)
        assert modifier_band(1, 3) == (0.5, 1.0)
        assert modifier_band(2, 3) == pytest.approx((0.0, 0.5))
        with pytest.raises(ValueError):
            two_regime_params(modifiers=np.array([1.0, 1.5]))
        with pytest.raises(ValueError):
            two_regime_params(modifiers=np.array([0.9, 0.5]))
        # Three-regime modifier outside its band.
        with pytest.raises(ValueError):
            ParameterSet(
                alpha=0.3,
                beta=0.5,
                gamma=0.2,
                lambda_=2000.0,
                kappa=8000.0,
                ident_rates=((0.25, 0),),
                trans_matrix=np.full((3, 3), 1 / 3),
                modifiers=np.array([1.0, 0.4, 0.05]),
            )

    def test_row_stochastic_enforced(self):
        with pytest.raises(ValueError):
            two_regime_params(trans_matrix=np.array([[0.9, 0.2], [0.1, 0.9]]))
        with pytest.raises(ValueError):
            two_regime_params(trans_matrix=np.array([[1.1, -0.1], [0.1, 0.9]]))

    def test_ident_rate_structure(self):
        with pytest.raises(ValueError):
            two_regime_params(ident_rates=((0.25, 1),))
        with pytest.raises(ValueError):
            two_regime_params(ident_rates=((0.2, 0), (0.3, 0)))
        p = two_regime_params(ident_rates=((0.2, 0), (0.3, 40)))
        assert p.ident_series(42)[39] == 0.2
        assert p.ident_series(42)[40] == 0.3
        np.testing.assert_array_equal(
            p.ident_series(42)[38:], [0.2, 0.2, 0.3, 0.3]
        )

    def test_single_regime_model(self):
        p = two_regime_params(
            trans_matrix=np.array([[1.0]]), modifiers=np.array([1.0])
        )
        assert p.n_regimes == 1
        assert regime_loglik_series(np.array([0, 0]), p) == 0.0


class TestObsDensity:
    def test_moment_parameterization(self):
        # p=0.25, I=0.2, lambda=2500: mean 0.05, variance 0.05*0.95/2501.
        params = two_regime_params(lambda_=2500.0)
        theta = np.array([0.7, 0.05, 0.2, 0.05])
        n = 1_000_000
        a = 2500 * 0.05
        b = 2500 * 0.95
        draws = rng(1).beta(a, b, size=n)
        mean, var = 0.05, 0.05 * 0.95 / 2501
        assert abs(draws.mean() - mean) < 3 * math.sqrt(var / n)
        assert abs(draws.var() - var) < 3 * var * math.sqrt(8.0 / n)
        # Density must be the matching Beta.
        assert obs_term(0.049, theta, params) == pytest.approx(
            beta_logpdf(0.049, BetaParams(a, b)), abs=1e-12
        )

    def test_monte_carlo_moments_random_triples(self):
        g = rng(2)
        n = 1_000_000
        for _ in range(5):
            p = g.uniform(0.1, 0.4)
            i_prop = g.uniform(0.01, 0.5)
            lam = g.uniform(500, 5000)
            mean = p * i_prop
            var = mean * (1 - mean) / (lam + 1)
            draws = g.beta(lam * mean, lam * (1 - mean), size=n)
            assert abs(draws.mean() - mean) < 3 * math.sqrt(var / n)
            assert abs(draws.var() - var) < 4 * var * math.sqrt(8.0 / n)

    def test_piecewise_identification_rate(self):
        tstar = 50
        params = two_regime_params(ident_rates=((0.2, 0), (0.3, tstar)))
        lo_rate = two_regime_params(ident_rates=((0.2, 0),))
        hi_rate = two_regime_params(ident_rates=((0.3, 0),))
        theta = np.array([0.7, 0.05, 0.2, 0.05])
        y = 0.05
        # Up to the change point every step is priced at the first rate.
        for t in (0, 17, tstar - 1):
            ys, thetas = np.full(t + 1, y), np.tile(theta, (t + 1, 1))
            assert obs_loglik_series(ys, thetas, params) == obs_loglik_series(
                ys, thetas, lo_rate
            )
        # Across a change point: the step before it at the first rate, the
        # step after it at the second.
        switch = two_regime_params(ident_rates=((0.2, 0), (0.3, 1)))
        across = obs_loglik_series(np.full(2, y), np.tile(theta, (2, 1)), switch)
        assert across == obs_term(y, theta, lo_rate) + obs_term(y, theta, hi_rate)

    def test_precision_concentrates_density(self):
        theta = np.array([0.7, 0.05, 0.2, 0.05])
        y = 0.25 * 0.2  # observation equal to its mean
        values = [
            obs_term(y, theta, two_regime_params(lambda_=lam))
            for lam in (1e2, 1e4, 1e6, 1e8)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_zero_mean_gives_neg_inf(self):
        params = two_regime_params()
        theta = np.array([0.9, 0.1, 0.0, 0.0])
        assert obs_term(0.01, theta, params) == -math.inf

    def test_rejects_boundary_observation(self):
        with pytest.raises(ValueError):
            obs_term(0.0, np.array([0.7, 0.1, 0.1, 0.1]), two_regime_params())

    def test_series_matches_sum_of_scalars(self):
        params = two_regime_params(ident_rates=((0.2, 0), (0.3, 2)))
        g = rng(3)
        thetas = g.dirichlet(np.array([20.0, 2, 2, 2]), size=5)
        y = g.uniform(0.001, 0.05, size=5)
        # Independent per-step oracle: the Beta density at the rate in force.
        total = 0.0
        for t in range(5):
            mean = params.ident_series(5)[t] * thetas[t, 2]
            lam = params.lambda_
            total += beta_logpdf(y[t], BetaParams(lam * mean, lam * (1 - mean)))
        assert obs_loglik_series(y, thetas, params) == pytest.approx(total, abs=1e-9)


class TestTransDensity:
    def test_density_peaks_near_mean(self):
        params = two_regime_params(kappa=5500.0)
        theta = np.array([0.8, 0.08, 0.07, 0.05])
        eta = transition_mean(theta, params.rates_for(1))
        at_mean = trans_term(eta, theta, 1, params)
        g = rng(4)
        for _ in range(25):
            bump = g.normal(0, 0.004, size=4)
            other = np.clip(eta + bump, 1e-6, 1)
            other = other / other.sum()
            assert at_mean >= trans_term(other, theta, 1, params)

    def test_conditional_moments(self):
        params = two_regime_params(kappa=5500.0)
        theta = np.array([0.8, 0.08, 0.07, 0.05])
        eta = transition_mean(theta, params.rates_for(0))
        n = 1_000_000
        conc = np.broadcast_to(5500.0 * eta, (n, 4))
        from switchseir.distributions import sample_dirichlet

        draws = sample_dirichlet(DirichletParams(conc), rng(5))
        for j in range(4):
            var = eta[j] * (1 - eta[j]) / (1 + 5500.0)
            assert abs(draws[:, j].mean() - eta[j]) < 3 * math.sqrt(var / n)
            assert abs(draws[:, j].var() - var) < 3 * var * math.sqrt(8.0 / n)

    def test_doubling_kappa_halves_variance(self):
        theta = np.array([0.8, 0.08, 0.07, 0.05])
        kappa = 3000.0
        params1 = two_regime_params(kappa=kappa)
        eta = transition_mean(theta, params1.rates_for(0))
        n = 1_000_000
        from switchseir.distributions import sample_dirichlet

        d1 = sample_dirichlet(
            DirichletParams(np.broadcast_to(kappa * eta, (n, 4))), rng(6)
        )
        d2 = sample_dirichlet(
            DirichletParams(np.broadcast_to(2 * kappa * eta, (n, 4))), rng(7)
        )
        expect = (1 + kappa) / (1 + 2 * kappa)
        for j in range(4):
            ratio = d2[:, j].var() / d1[:, j].var()
            assert ratio == pytest.approx(expect, rel=0.02)

    def test_boundary_state_gives_neg_inf(self):
        params = two_regime_params()
        theta = np.array([0.8, 0.08, 0.07, 0.05])
        bad = np.array([1.0, 0.0, 0.0, 0.0])
        assert trans_term(bad, theta, 0, params) == -math.inf

    def test_series_matches_sum_of_scalars(self):
        params = two_regime_params()
        g = rng(8)
        thetas = g.dirichlet(np.array([30.0, 3, 3, 3]), size=6)
        regimes = np.array([0, 1, 1, 0, 1, 0])
        total = sum(
            trans_term(thetas[t], thetas[t - 1], regimes[t], params)
            for t in range(1, 6)
        )
        assert trans_loglik_series(thetas, regimes, params) == pytest.approx(
            total, abs=1e-9
        )


class TestRegimeChain:
    def test_absorbing_identity(self):
        params = two_regime_params(trans_matrix=np.eye(2))
        assert regime_loglik_series(np.array([0, 0]), params) == 0.0
        assert regime_loglik_series(np.array([0, 1]), params) == -math.inf

    def test_reference_matrix_values(self):
        params = two_regime_params()
        stay = regime_loglik_series(np.array([0, 0]), params)
        switch = regime_loglik_series(np.array([0, 1]), params)
        assert stay == pytest.approx(math.log(0.9))
        assert switch == pytest.approx(math.log(0.1))

    def test_series(self):
        params = two_regime_params()
        regimes = np.array([0, 0, 1, 1])
        expect = math.log(0.9) + math.log(0.1) + math.log(0.9)
        assert regime_loglik_series(regimes, params) == pytest.approx(expect)


def build_t5_case():
    params = two_regime_params()
    priors = two_regime_priors()
    thetas = np.array(
        [
            [0.96, 0.02, 0.01, 0.01],
            [0.94, 0.03, 0.02, 0.01],
            [0.90, 0.05, 0.03, 0.02],
            [0.85, 0.07, 0.05, 0.03],
            [0.80, 0.08, 0.07, 0.05],
        ]
    )
    regimes = np.array([0, 0, 1, 1, 0])
    y = np.array([0.004, 0.006, 0.009, 0.014, 0.018])
    return params, priors, LatentPath(thetas, regimes), y


def mpmath_joint_log_posterior(params, priors, path, y):
    """Arbitrary-precision evaluation of the full factorized posterior,
    written from scratch against the density definitions."""
    import mpmath as mp

    mp.mp.dps = 50

    def logbeta_pdf(yv, a, b):
        yv, a, b = mp.mpf(yv), mp.mpf(a), mp.mpf(b)
        return (
            (a - 1) * mp.log(yv)
            + (b - 1) * mp.log(1 - yv)
            - (mp.loggamma(a) + mp.loggamma(b) - mp.loggamma(a + b))
        )

    def logdir_pdf(x, conc):
        x = [mp.mpf(v) for v in x]
        conc = [mp.mpf(c) for c in conc]
        out = mp.loggamma(mp.fsum(conc)) - mp.fsum(mp.loggamma(c) for c in conc)
        return out + mp.fsum((c - 1) * mp.log(v) for v, c in zip(x, conc))

    def logtn_pdf(x, mean, sd, lower, upper):
        x, mean, sd = mp.mpf(x), mp.mpf(mean), mp.mpf(sd)
        mass = mp.ncdf((upper - mean) / sd) - mp.ncdf((lower - mean) / sd)
        z = (x - mean) / sd
        return -z * z / 2 - mp.log(2 * mp.pi) / 2 - mp.log(sd) - mp.log(mass)

    def loggamma_pdf(x, shape, rate):
        x, shape, rate = mp.mpf(x), mp.mpf(shape), mp.mpf(rate)
        return shape * mp.log(rate) - mp.loggamma(shape) + (shape - 1) * mp.log(x) - rate * x

    def rk4(state, modifier):
        a, b, g = mp.mpf(params.alpha), mp.mpf(params.beta), mp.mpf(params.gamma)
        f = mp.mpf(modifier)

        def flow(th):
            s, e, i, r = th
            inf = f * b * s * i
            return [-inf, inf - a * e, a * e - g * i, g * i]

        th = [mp.mpf(v) for v in state]
        k1 = flow(th)
        k2 = flow([v + k / 2 for v, k in zip(th, k1)])
        k3 = flow([v + k / 2 for v, k in zip(th, k2)])
        k4 = flow([v + k for v, k in zip(th, k3)])
        return [
            v + (a1 + 2 * a2 + 2 * a3 + a4) / 6
            for v, a1, a2, a3, a4 in zip(th, k1, k2, k3, k4)
        ]

    total = mp.mpf(0)
    p_rate = params.ident_rates[0][0]
    lam = mp.mpf(params.lambda_)
    for t in range(len(y)):
        mean = mp.mpf(p_rate) * mp.mpf(path.thetas[t][2])
        total += logbeta_pdf(y[t], lam * mean, lam * (1 - mean))
    kap = mp.mpf(params.kappa)
    for t in range(1, len(y)):
        eta = rk4(path.thetas[t - 1], params.modifiers[path.regimes[t]])
        total += logdir_pdf(path.thetas[t], [kap * v for v in eta])
    for t in range(1, len(y)):
        total += mp.log(mp.mpf(params.trans_matrix[path.regimes[t - 1], path.regimes[t]]))
    total += logdir_pdf(path.thetas[0], [100, 1, 1, 1])
    total += mp.log(mp.mpf(1) / 2)
    total += logtn_pdf(params.alpha, priors.alpha.mean, priors.alpha.sd, 0, mp.inf)
    total += logtn_pdf(params.beta, priors.beta.mean, priors.beta.sd, 0, mp.inf)
    total += logtn_pdf(params.gamma, priors.gamma.mean, priors.gamma.sd, 0, mp.inf)
    total += loggamma_pdf(params.lambda_, priors.lambda_.shape, priors.lambda_.rate)
    total += loggamma_pdf(params.kappa, priors.kappa.shape, priors.kappa.rate)
    total += logtn_pdf(p_rate, 0.25, 0.05, 0.1, 0.4)
    # f2 uniform over (0,1): density 1.  Transition rows:
    for conc, row in zip(priors.row_concentrations, params.trans_matrix):
        total += logdir_pdf(list(row), list(conc))
    return float(total)


class TestJointLogPosterior:
    def test_equals_sum_of_factors(self):
        params, priors, path, y = build_t5_case()
        total = joint_log_posterior(path, y, params, priors)
        parts = (
            obs_loglik_series(y, path.thetas, params)
            + trans_loglik_series(path.thetas, path.regimes, params, priors)
            + regime_loglik_series(path.regimes, params)
            + initial_logdensity(path.thetas[0], int(path.regimes[0]), priors)
            + log_prior(params, priors)
        )
        assert total == pytest.approx(parts, abs=1e-9)

    def test_additivity_of_one_observation_term(self):
        params, priors, path, y = build_t5_case()
        full = joint_log_posterior(path, y, params, priors)
        t = 2
        single = obs_term(y[t], path.thetas[t], params)
        shorter = obs_loglik_series(
            np.delete(y, t), np.delete(path.thetas, t, axis=0)[: len(y) - 1], params
        )
        # Recompute the obs block directly: dropping term t changes the
        # total by exactly that term.
        all_obs = obs_loglik_series(y, path.thetas, params)
        rest = all_obs - single
        assert full - single == pytest.approx(
            joint_log_posterior(path, y, params, priors) - single, abs=0
        )
        assert rest == pytest.approx(
            sum(
                obs_term(y[s], path.thetas[s], params)
                for s in range(len(y))
                if s != t
            ),
            abs=1e-9,
        )

    def test_matches_arbitrary_precision_oracle(self):
        params, priors, path, y = build_t5_case()
        got = joint_log_posterior(path, y, params, priors)
        expect = mpmath_joint_log_posterior(params, priors, path, y)
        assert got == pytest.approx(expect, abs=1e-8)

    def test_never_nan(self):
        params, priors, path, y = build_t5_case()
        # Zero-probability regime transition: density -inf, not NaN.
        frozen = two_regime_params(trans_matrix=np.eye(2))
        val = joint_log_posterior(path, y, frozen, priors)
        assert val == -math.inf


def three_regime_case():
    """A 3-regime, 2-segment case, so every kind of MH id (p1, p2, f2, f3,
    rows) occurs."""
    params = ParameterSet(
        alpha=0.3,
        beta=0.45,
        gamma=0.2,
        lambda_=2000.0,
        kappa=5000.0,
        ident_rates=((0.25, 0), (0.3, 3)),
        trans_matrix=np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]]),
        modifiers=np.array([1.0, 0.7, 0.3]),
    )
    base = two_regime_priors()
    priors = PriorSpec(
        n_regimes=3,
        alpha=base.alpha,
        beta=base.beta,
        gamma=base.gamma,
        lambda_=base.lambda_,
        kappa=base.kappa,
        ident=(base.ident[0], base.ident[0]),
        row_concentrations=((8.0, 1.0, 1.0), (1.0, 8.0, 1.0), (1.0, 1.0, 8.0)),
        ident_start_times=(0, 3),
    )
    _, _, path, y = build_t5_case()
    path = LatentPath(path.thetas, np.array([0, 1, 2, 2, 0]))
    return params, priors, path, y


def _unchecked(params: ParameterSet, **fields) -> ParameterSet:
    """params with fields set past ParameterSet's validation, to reach
    zero-density parameter values."""
    out = replace(params)
    for name, value in fields.items():
        object.__setattr__(out, name, value)
    return out


class TestPosteriorTerms:
    @pytest.mark.parametrize("case", [build_t5_case, three_regime_case])
    def test_cached_moves_equal_full_evaluation(self, case):
        params, priors, path, y = case()
        terms = PosteriorTerms.build(path, y, params, priors)
        assert terms.total == joint_log_posterior(path, y, params, priors)
        g = rng(30)
        # Chain several moves of every id, so later moves build on
        # earlier cached sums.
        for _ in range(3):
            for which, entry in table_for(params).items():
                cur = terms.params
                if which == ROW_ID:
                    matrix = cur.trans_matrix.copy()
                    matrix[1] = g.dirichlet(np.full(cur.n_regimes, 5.0))
                    moved = replace(cur, trans_matrix=matrix)
                else:
                    lo, hi = entry.support(priors)
                    value = entry.get(cur)
                    value = min(max(value * g.uniform(0.9, 1.1), lo + 1e-9), hi - 1e-9)
                    moved = entry.set(cur, value)
                terms = terms.moved(which, moved)
                assert terms.total == joint_log_posterior(path, y, moved, priors), which
                assert np.isfinite(terms.total)

    def test_zero_density_moves_are_minus_inf_not_nan(self):
        params, priors, path, y = three_regime_case()
        terms = PosteriorTerms.build(path, y, params, priors)
        outside_band = _unchecked(params, modifiers=np.array([1.0, 0.7, 0.8]))
        zero_row = replace(
            params,
            trans_matrix=np.array([[1.0, 0.0, 0.0], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]]),
        )
        outside_prior = table_for(params)["p2"].set(params, 0.45)
        for which, moved in (
            ("f3", outside_band),
            (ROW_ID, zero_row),
            ("p2", outside_prior),
        ):
            got = terms.moved(which, moved).total
            assert got == joint_log_posterior(path, y, moved, priors) == -math.inf, which


class TestMhTargetChain:
    def test_kept_and_rejected_moves_equal_full_evaluation(self):
        # alpha -> kappa -> f2 -> kappa -> beta, each proposal kept or
        # rejected as listed: a kappa move reuses the transition means of
        # the target it moves from (never those of a rejected proposal),
        # and every other transition move recomputes them.
        params, priors, path, y = build_t5_case()
        table = table_for(params)
        target = PosteriorTerms.build(path, y, params, priors)
        for which, scale, keep in [
            ("alpha", 1.1, True),
            ("kappa", 0.9, False),
            ("f2", 1.2, False),
            ("kappa", 1.3, True),
            ("f2", 0.8, True),
            ("kappa", 1.1, True),
            ("beta", 0.9, False),
            ("kappa", 0.7, False),
        ]:
            entry = table[which]
            value = entry.get(target.params) * scale
            proposal = target.moved(which, entry.set(target.params, value))
            full = joint_log_posterior(path, y, proposal.params, priors)
            assert proposal.total == full
            assert (proposal.eta is target.eta) == (which == "kappa"), which
            if keep:
                target = proposal
            assert target.total == joint_log_posterior(path, y, target.params, priors)
            assert np.isfinite(target.total)


class TestTableSetters:
    # One value per id that breaks ParameterSet's rule for that field.
    BAD = {
        "alpha": -0.1, "beta": 0.0, "gamma": -1.0, "lambda": 0.0, "kappa": -5.0,
        "p1": 1.2, "p2": 0.0, "f2": 0.3, "f3": 0.6,
        ROW_ID: np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.2], [0.2, 0.2, 0.6]]),
    }

    def full_check_message(self, params, which, value):
        """ParameterSet's own error for the same change, by full validation."""
        mods, rates = params.modifiers.copy(), list(params.ident_rates)
        if which in ("f2", "f3"):
            mods[int(which[1]) - 1] = value
        if which in ("p1", "p2"):
            j = int(which[1]) - 1
            rates[j] = (value, rates[j][1])
        field = {"lambda": "lambda_", ROW_ID: "trans_matrix"}.get(which, which)
        fields = {field: value} if hasattr(params, field) else {}
        with pytest.raises(ValueError) as exc:
            replace(params, modifiers=mods, ident_rates=tuple(rates), **fields)
        return str(exc.value)

    def test_bad_values_raise_parameter_set_errors(self):
        params, _, _, _ = three_regime_case()
        table = table_for(params)
        assert set(table) == set(self.BAD)
        for which, bad in self.BAD.items():
            with pytest.raises(ValueError) as exc:
                table[which].set(params, bad)
            assert str(exc.value) == self.full_check_message(params, which, bad), which
        negative = np.array([[1.1, -0.1, 0.0], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            table[ROW_ID].set(params, negative)

    def test_setters_return_read_only_arrays(self):
        params, _, _, _ = three_regime_case()
        table = table_for(params)
        good = {
            "alpha": 0.31, "beta": 0.5, "gamma": 0.21, "lambda": 1900.0,
            "kappa": 4000.0, "p1": 0.26, "p2": 0.29, "f2": 0.6, "f3": 0.2,
            ROW_ID: np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]]),
        }
        for which, value in good.items():
            moved = table[which].set(params, value)
            np.testing.assert_array_equal(table[which].get(moved), value)
            assert not moved.trans_matrix.flags.writeable, which
            assert not moved.modifiers.flags.writeable, which
            # The same parameters as full validation would give.
            checked = replace(moved)
            for pid, e in table.items():
                np.testing.assert_array_equal(e.get(checked), e.get(moved))


class TestInitialSampler:
    def test_theta1_mean(self):
        priors = two_regime_priors()
        n = 1_000_000
        from switchseir.distributions import sample_dirichlet

        draws = sample_dirichlet(
            DirichletParams(np.broadcast_to(priors.theta1.concentration, (n, 4))),
            rng(9),
        )
        expect = np.array([100, 1, 1, 1]) / 103
        for j in range(4):
            var = expect[j] * (1 - expect[j]) / 104
            assert abs(draws[:, j].mean() - expect[j]) < 3 * math.sqrt(var / n)

    def test_regime_uniform_and_independent(self):
        priors = two_regime_priors()
        g = rng(10)
        n = 200_000
        thetas = np.empty(n)
        regimes = np.empty(n, dtype=int)
        for i in range(n):
            th, x = sample_initial(priors, g)
            thetas[i] = th[0]
            regimes[i] = x
        freq = np.bincount(regimes, minlength=2) / n
        se = math.sqrt(0.5 * 0.5 / n)
        assert abs(freq[0] - 0.5) < 3 * se
        # Independence: chi-square of binned S-component against regime.
        from scipy import stats

        bins = np.quantile(thetas, [0.25, 0.5, 0.75])
        binned = np.digitize(thetas, bins)
        table = np.zeros((4, 2))
        for b, x in zip(binned, regimes):
            table[b, x] += 1
        _, pvalue, _, _ = stats.chi2_contingency(table)
        assert pvalue > 0.01


class TestSimulateDataset:
    def test_two_regime_reference_configuration(self):
        from switchseir.data_io import generate_simulation

        ds, path, params = generate_simulation("two-regime", seed=1)
        assert ds.horizon == 150
        assert params.beta / params.gamma == pytest.approx(2.1666666, rel=1e-6)
        assert len(path) == 150
        # Multi-wave: infectious curve has at least two separated peaks.
        i_curve = path.thetas[:, 2]
        assert i_curve.max() > 5 * i_curve[0]

    def test_same_seed_identical(self):
        params = two_regime_params()
        priors = two_regime_priors()
        y1, p1 = simulate_dataset(params, priors, 60, rng(11))
        y2, p2 = simulate_dataset(params, priors, 60, rng(11))
        np.testing.assert_array_equal(y1, y2)
        np.testing.assert_array_equal(p1.thetas, p2.thetas)
        np.testing.assert_array_equal(p1.regimes, p2.regimes)

    def test_precision_limit_collapses_to_deterministic_path(self):
        params = two_regime_params(
            lambda_=1e12,
            kappa=1e12,
            trans_matrix=np.array([[1.0]]),
            modifiers=np.array([1.0]),
        )
        priors = two_regime_priors()
        theta1 = np.array([0.95, 0.02, 0.02, 0.01])
        horizon = 60
        y, path = simulate_dataset(
            params, priors, horizon, rng(12), initial=(theta1, 0)
        )
        rates = EpidemicRates(params.alpha, params.beta, params.gamma, 1.0)
        det = [theta1]
        for _ in range(horizon - 1):
            det.append(rk4_step(det[-1], rates))
        expect = 0.25 * np.array(det)[:, 2]
        assert np.abs(y - expect).max() < 1e-4


class TestParamAccessors:
    def test_replace_and_get_round_trip(self):
        params = two_regime_params()
        table = table_for(params)
        for pid, value in [
            ("alpha", 0.5),
            ("beta", 0.6),
            ("gamma", 0.25),
            ("lambda", 1500.0),
            ("kappa", 7000.0),
            ("p", 0.3),
            ("f2", 0.7),
        ]:
            updated = table[pid].set(params, value)
            assert table[pid].get(updated) == value
            # Everything else unchanged.
            for other in ("alpha", "beta", "gamma", "lambda", "kappa", "p", "f2"):
                if other != pid:
                    assert table[other].get(updated) == table[other].get(params)

    def test_param_support(self):
        priors = two_regime_priors()
        table = param_table(2, 1)
        assert table["alpha"].support(priors) == (0.0, math.inf)
        assert table["p"].support(priors) == (0.1, 0.4)
        assert table["f2"].support(priors) == (0.0, 1.0)

    def test_table_ids_in_sweep_order(self):
        assert list(param_table(3, 2)) == [
            "alpha", "beta", "gamma", "lambda", "kappa",
            "p1", "p2", "f2", "f3", ROW_ID,
        ]
        # A single-regime model has a fixed 1x1 matrix and no modifiers.
        assert list(param_table(1, 1)) == [
            "alpha", "beta", "gamma", "lambda", "kappa", "p",
        ]
        assert param_table(2, 1) is param_table(2, 1)

    def test_draw_params_respects_invariants(self):
        priors = two_regime_priors()
        g = rng(13)
        for _ in range(200):
            params = draw_params(priors, g)
            assert params.modifiers[0] == 1.0
            assert 0 < params.modifiers[1] < 1
            assert 0.1 < params.ident_rates[0][0] < 0.4
            np.testing.assert_allclose(params.trans_matrix.sum(axis=1), 1.0)

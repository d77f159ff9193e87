import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from switchseir.distributions import (
    SORTED_SEARCH_MIN_KEYS,
    BetaParams,
    DirichletParams,
    GammaParams,
    TruncNormalParams,
    _beta_log_kernel,
    _beta_logs,
    dirichlet_logpdf,
    gamma_logpdf,
    logsumexp,
    sample_categorical,
    sample_dirichlet,
    sample_gamma,
    sample_trunc_normal,
    sample_uniform,
    trunc_normal_logpdf,
    uniform_logpdf,
)
from switchseir.rng import substream

# Frozen reference values computed with 60-digit arithmetic (mpmath).
BETA_LOGPDF_OBS_CASE = 4.515928836563838  # y=0.05, a=125, b=2375
DIRICHLET_LOGPDF_PRIOR_CASE = 12.850280266616979  # x=[.99,.001,.003,.006], conc=[100,1,1,1]


def rng(seed=0):
    return np.random.default_rng(seed)


def beta_logpdf(y, params: BetaParams):
    """Beta(a, b) log density at y as the package computes it: the (0, 1)
    check and logs of _beta_logs, then _beta_log_kernel."""
    out = _beta_log_kernel(*_beta_logs(y), params.a, params.b)
    return out if np.ndim(out) else float(out)


class TestBetaLogpdf:
    def test_uniform_density_is_flat(self):
        assert beta_logpdf(0.5, BetaParams(1.0, 1.0)) == pytest.approx(0.0, abs=1e-14)

    def test_symmetric_case(self):
        assert beta_logpdf(0.5, BetaParams(2.0, 2.0)) == pytest.approx(
            math.log(1.5), abs=1e-12
        )

    def test_observation_scale_case_matches_high_precision_reference(self):
        got = beta_logpdf(0.05, BetaParams(125.0, 2375.0))
        assert got == pytest.approx(BETA_LOGPDF_OBS_CASE, abs=1e-10)

    def test_rejects_boundary_and_outside(self):
        for y in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                beta_logpdf(y, BetaParams(2.0, 3.0))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            BetaParams(0.0, 1.0)
        with pytest.raises(ValueError):
            BetaParams(1.0, -2.0)

    def test_broadcasts_over_arrays(self):
        y = np.array([0.2, 0.4, 0.6])
        out = beta_logpdf(y, BetaParams(2.0, 2.0))
        expect = [beta_logpdf(v, BetaParams(2.0, 2.0)) for v in y]
        np.testing.assert_allclose(out, expect)

    @pytest.mark.parametrize("a,b", [(0.7, 1.3), (2.0, 5.0), (125.0, 2375.0)])
    def test_integrates_to_one(self, a, b):
        val, _ = integrate.quad(
            lambda y: math.exp(beta_logpdf(y, BetaParams(a, b))), 0, 1, limit=200
        )
        assert val == pytest.approx(1.0, abs=1e-6)


class TestDirichletLogpdf:
    def test_flat_on_2_simplex(self):
        assert dirichlet_logpdf([0.5, 0.5], DirichletParams(np.ones(2))) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_flat_on_4_simplex(self):
        got = dirichlet_logpdf([0.25] * 4, DirichletParams(np.ones(4)))
        assert got == pytest.approx(math.log(6.0), abs=1e-12)

    def test_initial_state_prior_matches_high_precision_reference(self):
        got = dirichlet_logpdf(
            [0.99, 0.001, 0.003, 0.006], DirichletParams(np.array([100.0, 1, 1, 1]))
        )
        assert got == pytest.approx(DIRICHLET_LOGPDF_PRIOR_CASE, abs=1e-10)

    def test_rejects_off_simplex(self):
        with pytest.raises(ValueError):
            dirichlet_logpdf([0.5, 0.6], DirichletParams(np.ones(2)))
        with pytest.raises(ValueError):
            dirichlet_logpdf([1.0, 0.0], DirichletParams(np.ones(2)))

    def test_scipy_cross_check(self):
        x = np.array([0.2, 0.3, 0.5])
        conc = np.array([2.0, 3.0, 5.0])
        assert dirichlet_logpdf(x, DirichletParams(conc)) == pytest.approx(
            stats.dirichlet.logpdf(x, conc), abs=1e-10
        )


class TestSampleDirichlet:
    def test_huge_concentration_pins_mean(self):
        x = sample_dirichlet(DirichletParams(np.array([1e9, 1e9])), rng())
        assert abs(x[0] - 0.5) < 1e-3 and abs(x[1] - 0.5) < 1e-3

    def test_moments_match_closed_form(self):
        conc = np.array([2.0, 3.0, 5.0])
        n = 1_000_000
        draws = sample_dirichlet(
            DirichletParams(np.broadcast_to(conc, (n, 3))), rng(1)
        )
        total = conc.sum()
        mean = conc / total
        var = conc * (total - conc) / (total**2 * (total + 1))
        for i in range(3):
            se_mean = math.sqrt(var[i] / n)
            assert abs(draws[:, i].mean() - mean[i]) < 3 * se_mean
            # SE of a sample variance ~ sqrt(2/(n-1)) * var for roughly
            # normal components; use a generous 4th-moment-free bound.
            se_var = var[i] * math.sqrt(8.0 / n)
            assert abs(draws[:, i].var() - var[i]) < 3 * se_var

    def test_on_simplex_and_interior(self):
        draws = sample_dirichlet(
            DirichletParams(np.full((1000, 4), 0.05)), rng(2)
        )
        np.testing.assert_allclose(draws.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(draws > 0) and np.all(draws < 1)

    def test_reproducible(self):
        p = DirichletParams(np.array([2.0, 3.0, 5.0]))
        a = sample_dirichlet(p, rng(42))
        b = sample_dirichlet(p, rng(42))
        np.testing.assert_array_equal(a, b)


class TestTruncNormal:
    def test_untruncated_matches_normal(self):
        p = TruncNormalParams(0.3, 1.7)
        draws = sample_trunc_normal(p, rng(3), size=100_000)
        _, pvalue = stats.kstest(draws, "norm", args=(0.3, 1.7))
        assert pvalue > 0.01

    def test_narrow_window_all_inside(self):
        p = TruncNormalParams(0.25, 0.05, 0.1, 0.4)
        draws = sample_trunc_normal(p, rng(4), size=100_000)
        assert np.all((draws > 0.1) & (draws < 0.4))

    def test_half_normal_mean(self):
        p = TruncNormalParams(0.0, 1.0, 0.0, math.inf)
        n = 1_000_000
        draws = sample_trunc_normal(p, rng(5), size=n)
        expect = math.sqrt(2 / math.pi)
        sd = math.sqrt(1 - expect**2)
        assert abs(draws.mean() - expect) < 3 * sd / math.sqrt(n)

    def test_far_tail_inverse_cdf_branch(self):
        # Acceptance mass ~ 2e-7: forces the inverse-CDF path.
        p = TruncNormalParams(0.0, 1.0, 5.0, 6.0)
        draws = sample_trunc_normal(p, rng(6), size=10_000)
        assert np.all((draws > 5.0) & (draws < 6.0))
        # Conditional density decays ~ exp(-5x); mean near 5 + 1/5.
        assert abs(draws.mean() - 5.186) < 0.02

    def test_logpdf_standard_mode(self):
        p = TruncNormalParams(0.0, 1.0)
        assert trunc_normal_logpdf(0.0, p) == pytest.approx(
            -0.5 * math.log(2 * math.pi), abs=1e-12
        )

    def test_logpdf_half_line(self):
        p = TruncNormalParams(0.0, 1.0, 0.0, math.inf)
        expect = stats.norm.logpdf(0.5) - math.log(0.5)
        assert trunc_normal_logpdf(0.5, p) == pytest.approx(expect, abs=1e-12)

    def test_logpdf_outside_support(self):
        p = TruncNormalParams(0.0, 1.0, -1.0, 1.0)
        assert trunc_normal_logpdf(2.0, p) == -math.inf
        assert trunc_normal_logpdf(-1.5, p) == -math.inf

    @pytest.mark.parametrize(
        "p",
        [
            TruncNormalParams(0.25, 0.05, 0.1, 0.4),
            TruncNormalParams(0.3, 0.1, 0.0, math.inf),
            TruncNormalParams(-2.0, 0.7, -3.0, -1.0),
        ],
    )
    def test_integrates_to_one(self, p):
        lo = p.lower if math.isfinite(p.lower) else p.mean - 12 * p.sd
        hi = p.upper if math.isfinite(p.upper) else p.mean + 12 * p.sd
        val, _ = integrate.quad(
            lambda x: math.exp(trunc_normal_logpdf(x, p)), lo, hi, limit=200
        )
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_scipy_cross_check(self):
        p = TruncNormalParams(0.25, 0.05, 0.1, 0.4)
        a, b = (0.1 - 0.25) / 0.05, (0.4 - 0.25) / 0.05
        for x in (0.12, 0.25, 0.39):
            assert trunc_normal_logpdf(x, p) == pytest.approx(
                stats.truncnorm.logpdf(x, a, b, loc=0.25, scale=0.05), abs=1e-10
            )

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            TruncNormalParams(0.0, 0.0)
        with pytest.raises(ValueError):
            TruncNormalParams(0.0, 1.0, 2.0, 1.0)


class TestGamma:
    def test_moments(self):
        p = GammaParams(200.0, 0.01)
        n = 1_000_000
        draws = sample_gamma(p, rng(7), size=n)
        mean, var = 200 / 0.01, 200 / 0.01**2
        assert abs(draws.mean() - mean) < 3 * math.sqrt(var / n)
        assert abs(draws.var() - var) < 3 * var * math.sqrt(8.0 / n)

    def test_logpdf_matches_scipy(self):
        p = GammaParams(2.0, 0.001)
        for x in (10.0, 2000.0, 9000.0):
            assert gamma_logpdf(x, p) == pytest.approx(
                stats.gamma.logpdf(x, 2.0, scale=1000.0), abs=1e-10
            )

    def test_logpdf_outside_support(self):
        assert gamma_logpdf(-1.0, GammaParams(2.0, 1.0)) == -math.inf
        assert gamma_logpdf(0.0, GammaParams(2.0, 1.0)) == -math.inf

    @pytest.mark.parametrize("shape,rate", [(2.0, 0.001), (200.0, 0.01), (0.8, 2.0)])
    def test_integrates_to_one(self, shape, rate):
        p = GammaParams(shape, rate)
        hi = (shape / rate) + 20 * math.sqrt(shape) / rate
        val, _ = integrate.quad(
            lambda x: math.exp(gamma_logpdf(x, p)), 0, hi, limit=400
        )
        assert val == pytest.approx(1.0, abs=1e-6)


class TestUniform:
    def test_logpdf(self):
        assert uniform_logpdf(0.3, 0.0, 0.5) == pytest.approx(math.log(2.0))
        assert uniform_logpdf(0.7, 0.0, 0.5) == -math.inf

    def test_sampler_moments(self):
        n = 1_000_000
        draws = sample_uniform(0.5, 1.0, rng(8), size=n)
        assert np.all((draws >= 0.5) & (draws <= 1.0))
        assert abs(draws.mean() - 0.75) < 3 * (0.5 / math.sqrt(12 * n))

    def test_integrates_to_one(self):
        val, _ = integrate.quad(
            lambda x: math.exp(uniform_logpdf(x, 0.25, 0.75)), 0.25, 0.75
        )
        assert val == pytest.approx(1.0, abs=1e-9)


class TestCategorical:
    def test_point_mass(self):
        g = rng(9)
        assert all(sample_categorical([1.0, 0.0, 0.0], g) == 0 for _ in range(50))

    def test_uniform_frequencies(self):
        n, cats = 1_000_000, 100
        w = np.full(cats, 1.0 / cats)
        draws = sample_categorical(w, rng(0), size=n)
        counts = np.bincount(draws, minlength=cats)
        freq = counts / n
        se = math.sqrt(0.01 * 0.99 / n)
        assert np.all(np.abs(freq - 0.01) < 3 * se)
        # Seed-robust companion: chi-square goodness of fit at 1%.
        _, pvalue = stats.chisquare(counts)
        assert pvalue > 0.01

    def test_weighted_frequencies(self):
        w = np.array([0.7, 0.2, 0.1])
        n = 1_000_000
        draws = sample_categorical(w, rng(11), size=n)
        freq = np.bincount(draws, minlength=3) / n
        for i in range(3):
            se = math.sqrt(w[i] * (1 - w[i]) / n)
            assert abs(freq[i] - w[i]) < 3 * se

    def test_single_and_batched_draws_agree(self):
        # The filters resample with size=m and draw single indices with
        # size=None; both read one uniform per draw from the same stream.
        # The second size is searched in sorted-key order.
        w = rng(12).dirichlet(np.ones(100))
        for size in (1000, 2 * SORTED_SEARCH_MIN_KEYS):
            a, b = substream(3, 1), substream(3, 1)
            singles = [sample_categorical(w, a) for _ in range(size)]
            batched = sample_categorical(w, b, size=size)
            np.testing.assert_array_equal(singles, batched)


class TestLogsumexp:
    def test_matches_scipy(self):
        from scipy.special import logsumexp as sp_lse

        x = rng(13).normal(size=257)
        assert logsumexp(x) == pytest.approx(sp_lse(x), abs=1e-12)

    def test_permutation_invariant_bitwise(self):
        x = rng(14).normal(size=100) * 50
        perm = rng(15).permutation(100)
        assert logsumexp(x) == logsumexp(x[perm])

    def test_all_neg_inf(self):
        assert logsumexp(np.full(5, -np.inf)) == -math.inf


@settings(max_examples=200, deadline=None)
@given(
    y=st.floats(1e-9, 1 - 1e-9),
    a=st.floats(1e-3, 1e4),
    b=st.floats(1e-3, 1e4),
)
def test_beta_logpdf_never_nan_on_interior(y, a, b):
    assert math.isfinite(beta_logpdf(y, BetaParams(a, b)))


@settings(max_examples=200, deadline=None)
@given(
    x=st.floats(-50, 50),
    mean=st.floats(-10, 10),
    sd=st.floats(1e-3, 10),
    lo=st.floats(-20, 0),
    width=st.floats(1e-3, 40),
)
def test_trunc_normal_logpdf_never_nan(x, mean, sd, lo, width):
    val = trunc_normal_logpdf(x, TruncNormalParams(mean, sd, lo, lo + width))
    assert not math.isnan(val)


class TestKernelsMatchPlainNumpyFormulas:
    """The hot kernels add short rows column by column, update in place and
    search sorted keys; they must equal the plain numpy formulas (row
    reductions, np.clip, an fsum over an array, a search in draw order)
    exactly, on every shape the samplers use."""

    SHAPES = [(100, 4), (2, 100, 4), (149, 4), (50, 2), (50, 3), (20, 9), (4,)]
    SWITCH = SORTED_SEARCH_MIN_KEYS

    @staticmethod
    def log_uniform(g, shape, lo=-12.0, hi=3.0):
        return 10.0 ** g.uniform(lo, hi, size=shape)

    def simplex_points(self, g, shape):
        x = self.log_uniform(g, shape, hi=0.0)
        return x / x.sum(axis=-1, keepdims=True)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_dirichlet_log_kernel(self, shape):
        from scipy.special import gammaln

        from switchseir.distributions import _dirichlet_log_kernel

        g = rng(40)
        for _ in range(20):
            conc = self.log_uniform(g, shape)
            log_x = np.log(self.simplex_points(g, shape))
            plain = (
                gammaln(conc.sum(axis=-1))
                - gammaln(conc).sum(axis=-1)
                + ((conc - 1) * log_x).sum(axis=-1)
            )
            got = _dirichlet_log_kernel(log_x, conc)
            assert np.shape(got) == np.shape(plain)
            assert np.all(got == plain)
            # One reference row against a (..., d) concentration, as the
            # ancestor-sampling draw calls it.
            row = log_x.reshape(-1, shape[-1])[0]
            plain_row = (
                gammaln(conc.sum(axis=-1))
                - gammaln(conc).sum(axis=-1)
                + ((conc - 1) * row).sum(axis=-1)
            )
            assert np.all(_dirichlet_log_kernel(row, conc) == plain_row)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_sample_dirichlet(self, shape):
        from switchseir.distributions import SIMPLEX_FLOOR

        for seed in range(10):
            conc = self.log_uniform(rng(seed), shape)
            a, b = substream(seed, 2), substream(seed, 2)
            with np.errstate(invalid="ignore"):
                g = a.standard_gamma(conc)
                x = g / g.sum(axis=-1, keepdims=True)
                x = np.clip(x, SIMPLEX_FLOOR, None)
                plain = x / x.sum(axis=-1, keepdims=True)
                got = sample_dirichlet(DirichletParams(conc), b)
            assert got.shape == plain.shape
            # Tiny concentrations give rows of all-zero Gamma draws, NaN in
            # both; assert_array_equal matches NaN with NaN, the rest by ==.
            np.testing.assert_array_equal(got, plain)
            assert a.random() == b.random()

    @pytest.mark.parametrize(
        "n,m",
        [(2, 1), (100, 50), (300, 100), (SWITCH, SWITCH - 1), (SWITCH, SWITCH),
         (300, 4096), (10_000, 10_000)],
    )
    def test_sample_categorical(self, n, m):
        # m indices from n weights, on both sides of the sorted-key switch.
        # Weights with runs of zeros give flat CDF steps; a point mass
        # gives one step of height 1, at the first, a middle or the last
        # index.
        g = rng(42)
        zeros = self.log_uniform(g, n)
        zeros[g.random(n) < 0.5] = 0.0
        zeros[: n // 4] = 0.0
        zeros[-1] = 1.0
        cases = [self.log_uniform(g, n), zeros]
        for at in {0, n // 2, n - 1}:
            mass = np.zeros(n)
            mass[at] = 1.0
            cases.append(mass)
        for seed, w in enumerate(cases):
            w = w / w.sum()
            a, b = substream(seed, 3), substream(seed, 3)
            cdf = np.cumsum(w)
            cdf[-1] = 1.0
            plain = np.minimum(np.searchsorted(cdf, a.random(m), side="right"), n - 1)
            got = sample_categorical(w, b, size=m)
            assert got.dtype == plain.dtype
            np.testing.assert_array_equal(got, plain)
            assert a.random() == b.random()

    @pytest.mark.parametrize("n", [2, 7, 8, 100, 10_000])
    def test_logsumexp(self, n):
        g = rng(41)
        for _ in range(20):
            lv = np.log(self.log_uniform(g, n)) * g.uniform(0.1, 10.0)
            m = lv.max()
            plain = float(m + math.log(math.fsum(np.exp(lv - m))))
            assert logsumexp(lv) == plain

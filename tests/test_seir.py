import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchseir.distributions import require_open_simplex
from switchseir.seir import STATE_FLOOR, EpidemicRates, rk4_step


def reference_step(state, alpha, beta, gamma, modifier, h=1e-4):
    """Independent fine-step oracle: RK4 with tiny sub-steps over one
    time unit, in plain float arithmetic."""
    s, e, i, r = (float(v) for v in state)
    n = round(1.0 / h)

    def flow(s, e, i, r):
        inf = modifier * beta * s * i
        return (-inf, inf - alpha * e, alpha * e - gamma * i, gamma * i)

    for _ in range(n):
        k1 = flow(s, e, i, r)
        k2 = flow(*(v + 0.5 * h * k for v, k in zip((s, e, i, r), k1)))
        k3 = flow(*(v + 0.5 * h * k for v, k in zip((s, e, i, r), k2)))
        k4 = flow(*(v + h * k for v, k in zip((s, e, i, r), k3)))
        s, e, i, r = (
            v + (h / 6.0) * (a + 2 * b + 2 * c + d)
            for v, a, b, c, d in zip((s, e, i, r), k1, k2, k3, k4)
        )
    return np.array([s, e, i, r])


FIG_STATE = np.array([0.99, 0.005, 0.003, 0.002])
FIG_RATES = dict(alpha=0.2, beta=0.4, gamma=0.1)


def propagate(state, rates_per_step):
    """The states after each rk4_step, one EpidemicRates per step."""
    out = []
    for rates in rates_per_step:
        state = rk4_step(state, rates)
        out.append(state)
    return np.array(out)


def rk4_substeps(state, n, alpha, beta, gamma, modifier):
    """n RK4 steps of length 1/n over one time unit.  The flow is linear
    in the rates, so one rk4_step with alpha, beta and gamma scaled by 1/n
    is one RK4 step of length 1/n."""
    rates = EpidemicRates(alpha / n, beta / n, gamma / n, modifier)
    return propagate(state, [rates] * n)[-1]


class TestRk4Step:
    def test_all_susceptible_is_fixed_point(self):
        out = rk4_step(np.array([1.0, 0, 0, 0]), EpidemicRates(0.7, 1.3, 0.2))
        np.testing.assert_allclose(out, [1.0, 0, 0, 0], atol=1e-9)

    def test_matches_fine_step_reference(self):
        out = rk4_step(FIG_STATE, EpidemicRates(modifier=1.0, **FIG_RATES))
        expect = reference_step(FIG_STATE, modifier=1.0, **FIG_RATES)
        np.testing.assert_allclose(out, expect, atol=1e-6)

    def test_modifier_scales_down_infection_flux(self):
        full = rk4_step(FIG_STATE, EpidemicRates(modifier=1.0, **FIG_RATES))
        half = rk4_step(FIG_STATE, EpidemicRates(modifier=0.5, **FIG_RATES))
        # Weaker transmission: smaller E increment, more S left.
        assert half[1] - FIG_STATE[1] < full[1] - FIG_STATE[1]
        assert half[0] > full[0]

    def test_conserves_simplex_sum(self):
        g = np.random.default_rng(0)
        states = g.dirichlet(np.full(4, 0.8), size=100_000)
        rates = EpidemicRates(
            alpha=0.5, beta=0.8, gamma=0.3, modifier=g.uniform(0.05, 1.0, 100_000)
        )
        out = rk4_step(states, rates)
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-9
        assert np.all(out > 0)

    def test_vectorized_matches_scalar(self):
        g = np.random.default_rng(1)
        states = g.dirichlet(np.ones(4), size=8)
        rates = EpidemicRates(0.3, 0.4, 0.2, 0.6)
        batch = rk4_step(states, rates)
        for i in range(8):
            np.testing.assert_array_equal(batch[i], rk4_step(states[i], rates))

    def test_same_arithmetic_as_plain_float_step(self):
        # With h = 1 the plain-float oracle does the same operations in the
        # same order, so a (K, N, 4) broadcast population must agree with
        # it bit for bit, row by row.
        g = np.random.default_rng(2)
        states = g.dirichlet([50.0, 2, 2, 2], size=6)
        mods = np.array([[1.0], [0.6]])
        out = rk4_step(
            np.broadcast_to(states, (2, 6, 4)), EpidemicRates(0.3, 0.9, 0.2, mods)
        )
        for x in range(2):
            for j in range(6):
                ref = reference_step(states[j], 0.3, 0.9, 0.2, mods[x, 0], h=1.0)
                ref = np.clip(ref, STATE_FLOOR, 1.0 - STATE_FLOOR)
                assert np.array_equal(out[x, j], ref / ref.sum())

    @pytest.mark.parametrize("shape", [(2, 100, 4), (3, 100, 4), (149, 4), (100, 4)])
    def test_equals_row_clip_and_row_sum_formula(self, shape):
        # The clamp and renormalisation run component-first; they must equal
        # np.clip on the (..., 4) rows divided by numpy's row sums.
        from switchseir.seir import _flow, _midpoint

        def plain_rk4(th, rates):
            lead = tuple(range(th.ndim - 1))
            x = np.ascontiguousarray(th.transpose((th.ndim - 1, *lead)))
            rate = (rates.modifier * rates.beta, rates.alpha, rates.gamma)
            k1 = _flow(x, *rate)
            k2 = _flow(_midpoint(x, 0.5, k1), *rate)
            k3 = _flow(_midpoint(x, 0.5, k2), *rate)
            k4 = _flow(_midpoint(x, 1.0, k3), *rate)
            x = x + (((k1 + 2 * k2) + 2 * k3) + k4) * (1.0 / 6.0)
            th = np.clip(x.transpose((*(a + 1 for a in lead), 0)),
                         STATE_FLOOR, 1.0 - STATE_FLOOR)
            return th / th.sum(axis=-1, keepdims=True)

        g = np.random.default_rng(3)
        rows = shape if len(shape) == 2 else shape[1:]
        mod_shape = shape[:-1] if len(shape) == 2 else (shape[0], 1)
        for _ in range(10):
            states = 10.0 ** g.uniform(-12, 0, size=rows)
            states /= states.sum(axis=-1, keepdims=True)
            mods = g.uniform(0.05, 1.0, size=mod_shape)
            rates = EpidemicRates(*g.uniform(0.05, 3.0, size=3), mods)
            th = np.broadcast_to(states, shape)
            assert np.all(rk4_step(th, rates) == plain_rk4(th, rates))

    def test_substep_convergence_is_fourth_order(self):
        # Stiff-ish rates so single-step error is visible.
        kw = dict(alpha=1.5, beta=3.0, gamma=1.0, modifier=1.0)
        truth = reference_step(FIG_STATE, h=1e-4, **kw)
        err1 = np.abs(rk4_substeps(FIG_STATE, 1, **kw) - truth).max()
        err2 = np.abs(rk4_substeps(FIG_STATE, 2, **kw) - truth).max()
        err4 = np.abs(rk4_substeps(FIG_STATE, 4, **kw) - truth).max()
        assert err2 < err1 / 8
        assert err4 < err2 / 8

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            EpidemicRates(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            EpidemicRates(1.0, 1.0, 1.0, modifier=0.0)
        with pytest.raises(ValueError):
            EpidemicRates(1.0, 1.0, 1.0, modifier=1.2)

    @pytest.mark.parametrize("field", ["alpha", "beta", "gamma"])
    def test_array_fields_checked_entrywise(self, field):
        # Per-chain rates are arrays; one non-positive entry fails with the
        # class's own message, not numpy's ambiguous truth value.
        good = dict(alpha=np.full((3, 1), 0.3), beta=np.full((3, 1), 0.4),
                    gamma=np.full((3, 1), 0.2))
        EpidemicRates(**good, modifier=np.array([1.0, 0.5]))
        good[field] = np.array([[0.3], [0.0], [0.2]])
        with pytest.raises(ValueError, match="alpha, beta, gamma must be strictly positive"):
            EpidemicRates(**good)


class TestPropagatePath:
    def test_all_susceptible_stays_constant(self):
        rates = [EpidemicRates(0.2, 0.4, 0.1)] * 10
        path = propagate(np.array([1.0, 0, 0, 0]), rates)
        np.testing.assert_allclose(path, np.tile([1.0, 0, 0, 0], (10, 1)), atol=1e-8)

    def test_intervention_flattens_curve(self):
        # Baseline run vs the same run with transmission halved from step 20.
        baseline = propagate(
            FIG_STATE, [EpidemicRates(modifier=1.0, **FIG_RATES)] * 100
        )
        mixed_rates = [
            EpidemicRates(modifier=1.0 if t < 20 else 0.5, **FIG_RATES)
            for t in range(100)
        ]
        flattened = propagate(FIG_STATE, mixed_rates)
        assert baseline[:, 2].max() > flattened[:, 2].max()
        assert baseline[:, 2].argmax() < flattened[:, 2].argmax()
        # Suppressed epidemic leaves a sizable susceptible pool behind.
        assert flattened[-1, 0] > baseline[-1, 0]


class TestValidateState:
    """SEIR states are checked by require_open_simplex (the CSMC reference)."""

    def test_accepts_simplex(self):
        require_open_simplex(np.array([0.7, 0.1, 0.1, 0.1]), "state")

    def test_rejects_bad_sum_and_negatives(self):
        with pytest.raises(ValueError):
            require_open_simplex(np.array([0.7, 0.1, 0.1, 0.2]), "state")
        with pytest.raises(ValueError):
            require_open_simplex(np.array([1.1, -0.1, 0.0, 0.0]), "state")


@settings(max_examples=300, deadline=None)
@given(
    raw=st.lists(st.floats(1e-6, 1.0), min_size=4, max_size=4),
    alpha=st.floats(0.01, 2.0),
    beta=st.floats(0.01, 3.0),
    gamma=st.floats(0.01, 2.0),
    modifier=st.floats(0.01, 1.0),
)
def test_rk4_always_returns_interior_simplex(raw, alpha, beta, gamma, modifier):
    state = np.asarray(raw) / np.sum(raw)
    out = rk4_step(state, EpidemicRates(alpha, beta, gamma, modifier))
    assert abs(out.sum() - 1.0) < 1e-9
    assert np.all((out > 0) & (out < 1))

"""Deterministic propagation of the modified SEIR system.

One model time unit is integrated with a single 4th-order Runge-Kutta
step.  The output is the mean vector handed to the Dirichlet state transition,
so components are clamped away from 0 and 1 and renormalized.

States are arrays [S, E, I, R] on the simplex; any number of leading
axes is supported, so whole particle populations propagate in one call.
rk4_step takes and returns rows (..., 4); rk4_components, the RK4 it
wraps, works component-first (4, ...), the layout in which both particle
filters propagate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Clamp bounds for propagated states: Dirichlet means must be strictly
# inside the simplex or the transition density degenerates.
STATE_FLOOR = 1e-10


@dataclass(frozen=True)
class EpidemicRates:
    """Rates of the modified SEIR flow.

    modifier scales the transmission term (1 = baseline, smaller values
    encode intervention-suppressed transmission).  Every field broadcasts
    against the component-first state (leading axes of the population),
    so each may be an array, such as modifiers aligned with the regimes
    of a path's steps.
    """

    alpha: float | np.ndarray
    beta: float | np.ndarray
    gamma: float | np.ndarray
    modifier: float | np.ndarray = 1.0

    def __post_init__(self):
        rates = (self.alpha, self.beta, self.gamma)
        if not all((np.asarray(v) > 0).all() for v in rates):
            raise ValueError("alpha, beta, gamma must be strictly positive")
        mod = np.asarray(self.modifier)
        if not np.all((mod > 0) & (mod <= 1)):
            raise ValueError("modifier must lie in (0, 1]")


def _flow(x: np.ndarray, infect_rate, alpha, gamma) -> np.ndarray:
    """Time derivative of [S, E, I, R] under the modified SEIR system, for
    a component-first x (only S, E, I are read); infect_rate = modifier * beta."""
    s, e, i = x[0], x[1], x[2]
    infection = infect_rate * s * i
    progression = alpha * e
    k = np.empty((4,) + infection.shape)
    recovery = np.multiply(gamma, i, out=k[3, ...])
    np.negative(infection, out=k[0, ...])
    np.subtract(infection, progression, out=k[1, ...])
    np.subtract(progression, recovery, out=k[2, ...])
    return k


def rk4_step(state: np.ndarray, rates: EpidemicRates) -> np.ndarray:
    """Propagate state(s) one time unit with one classical RK4 step.

    The flow's components sum to zero, so RK4 conserves the simplex sum
    exactly up to float rounding.  Output components are clamped to
    [STATE_FLOOR, 1 - STATE_FLOOR] and renormalized.  The row-layout
    wrapper of rk4_components: it works on a component-first copy and
    returns a C-ordered (..., 4) array, so every caller's row sums add in
    one order.
    """
    th = np.asarray(state, dtype=float)
    lead = tuple(range(th.ndim - 1))
    x = np.ascontiguousarray(th.transpose((th.ndim - 1, *lead)))
    out = np.empty(x.shape[1:] + (4,))
    rk4_components(
        x, rates.modifier * rates.beta, rates.alpha, rates.gamma,
        out=out.transpose((out.ndim - 1, *lead)),
    )
    return out


def rk4_components(x: np.ndarray, infect_rate, alpha, gamma, out=None) -> np.ndarray:
    """rk4_step on component-first states x (4, ...), written to out (a new
    (4, ...) array when None), with infect_rate = modifier * beta.

    The one RK4: the stages skip the R midpoints, which the flow never
    reads, and work in place.  Neither the rates nor the result are
    checked: callers pass rates of a checked ParameterSet or
    EpidemicRates.  Rates so large that a stage overflows (numpy warns
    unless told otherwise) leave infinite components, which the clamp
    bounds like any other, or NaN ones, which stay NaN: the transition
    and weight densities downstream read a NaN mean as zero density,
    which rejects an MH move and ends a filter pass with
    DegenerateWeightsError.
    """
    k1 = _flow(x, infect_rate, alpha, gamma)
    k2 = _flow(_midpoint(x, 0.5, k1), infect_rate, alpha, gamma)
    k3 = _flow(_midpoint(x, 0.5, k2), infect_rate, alpha, gamma)
    k4 = _flow(_midpoint(x, 1.0, k3), infect_rate, alpha, gamma)
    # x + (1 / 6) * (k1 + 2 k2 + 2 k3 + k4), added in that order.
    k2 *= 2
    k1 += k2
    k3 *= 2
    k1 += k3
    k1 += k4
    k1 *= 1.0 / 6.0
    k1 += x
    x = k1
    np.clip(x, STATE_FLOOR, 1.0 - STATE_FLOOR, out=x)
    total = ((x[0] + x[1]) + x[2]) + x[3]
    return np.divide(x, total, out=out)


def _midpoint(x: np.ndarray, step: float, k: np.ndarray) -> np.ndarray:
    """x + step * k over the S, E, I rows (the flow never reads R)."""
    mid = np.multiply(k[:3], step)
    mid += x[:3]
    return mid

"""Statistics the benchmark computes from switchseir outputs.

Nothing here is timed: these run after a timed call returns, on the
records, chain files and particle systems it produced.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess

import numpy as np
from scipy.special import ndtri

MB = 1e6


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def p95(values) -> float:
    """95th percentile (statistics' exclusive method); the max below 20 values."""
    values = sorted(values)
    if len(values) < 20:
        return float(values[-1]) if values else 0.0
    return float(statistics.quantiles(values, n=20)[18])


def update_rate(thetas: list[np.ndarray]) -> float:
    """Share of time steps whose state changed between consecutive paths.

    This is the reference-path update rate of Lindsten, Jordan & Schoen
    (2014): the share of t at which the new reference theta_t differs from
    the previous iteration's, over every consecutive pair given.
    """
    diffs = [np.any(prev != cur, axis=1) for prev, cur in zip(thetas, thetas[1:])]
    return float(np.mean(diffs)) if diffs else 0.0


def particle_stats(system) -> dict:
    """Health of one SMC or CSMC pass, from its returned ParticleSystem.

    ess_frac: effective sample size over N at each step; distinct_t0: how
    many time-0 particles the final particles descend from (path
    degeneracy); store_bytes: size of the arrays the pass keeps.
    """
    w = system.norm_weights
    ess_frac = 1.0 / np.sum(w * w, axis=1) / w.shape[1]
    idx = np.arange(system.n_particles)
    for t in range(system.n_steps - 2, -1, -1):
        idx = system.ancestors[t][idx]
    arrays = (
        system.thetas,
        system.regimes,
        system.log_weights,
        system.norm_weights,
        system.ancestors,
    )
    return {
        "ess_frac": ess_frac,
        "distinct_t0": int(np.unique(idx).size),
        "store_bytes": int(sum(a.nbytes for a in arrays)),
        "log_marginal": float(system.log_marginal),
    }


def _autocov(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row, via FFT."""
    n = x.shape[1]
    centred = x - x.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(centred, size, axis=1)
    return np.fft.irfft(f * np.conj(f), size, axis=1)[:, :n] / n


def _ess(x: np.ndarray) -> float:
    """Effective sample size of (chains, draws) by Geyer's initial
    monotone sequence on the multi-chain autocorrelation."""
    m, n = x.shape
    acov = _autocov(x)
    mean_var = acov[:, 0].mean() * n / (n - 1)
    var_plus = mean_var * (n - 1) / n
    if m > 1:
        var_plus += x.mean(axis=1).var(ddof=1)
    if not var_plus > 0:
        return math.nan
    rho = np.zeros(n)
    rho[0] = 1.0
    rho_even = 1.0
    rho_odd = 1.0 - (mean_var - acov[:, 1].mean()) / var_plus
    rho[1] = rho_odd
    t = 1
    while t < n - 3 and rho_even + rho_odd > 0:
        rho_even = 1.0 - (mean_var - acov[:, t + 1].mean()) / var_plus
        rho_odd = 1.0 - (mean_var - acov[:, t + 2].mean()) / var_plus
        if rho_even + rho_odd >= 0:
            rho[t + 1] = rho_even
            rho[t + 2] = rho_odd
        t += 2
    max_t = t - 2
    if rho_even > 0:
        rho[max_t + 1] = rho_even
    # Enforce a monotone sequence of paired sums.
    t = 1
    while t <= max_t - 2:
        if rho[t + 1] + rho[t + 2] > rho[t - 1] + rho[t]:
            rho[t + 1] = rho[t + 2] = (rho[t - 1] + rho[t]) / 2
        t += 2
    tau = -1.0 + 2.0 * rho[: max_t + 1].sum() + rho[max_t + 1]
    tau = max(tau, 1.0 / math.log10(m * n))
    return m * n / tau


def bulk_ess(chains) -> float:
    """Bulk ESS (Vehtari, Gelman, Simpson, Carpenter & Buerkner 2021):
    ESS of the rank-normalised values of the split chains.

    chains is (m, n) with n >= 4; returns nan for a constant parameter.
    """
    x = np.asarray(chains, dtype=float)
    half = x.shape[1] // 2
    split = np.concatenate([x[:, :half], x[:, x.shape[1] - half :]])
    # Average ranks over ties, so a stuck parameter reads as constant.
    flat = split.ravel()
    _, inverse, counts = np.unique(flat, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2)[inverse]
    z = ndtri((ranks - 0.375) / (flat.size + 0.25)).reshape(split.shape)
    return _ess(z)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_commit(root: str) -> str:
    """HEAD of the checkout, or "unknown" when it is not a git repository."""
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def src_lines(root: str) -> int:
    """Lines of Python under src/switchseir (the code-size figure)."""
    total = 0
    pkg = os.path.join(root, "src", "switchseir")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                total += sum(1 for _ in fh)
    return total


def metadata(root: str, workload: str, seed: int) -> dict:
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "src_lines": src_lines(root),
    }

"""Regenerate reference/three_regime.json: the series that the
filter-k3-n10k workload filters, and the expected log Z of the filter.

    python3 perfbench/make_reference.py

Simulates the three-regime scenario once (simulation seed 0), then runs
N_PASSES bootstrap filter passes with N = 10,000 at the true parameters and
stores the series, parameters, priors and the mean and SD of log Z.
filter-k3-n10k checks its own mean log Z against these numbers, so only
regenerate the file when the model itself is meant to change.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from switchseir import run_smc  # noqa: E402
from switchseir.data_io import (  # noqa: E402
    generate_simulation,
    params_to_dict,
    priors_to_dict,
    scenario_priors,
)
from switchseir.rng import substream  # noqa: E402

SCENARIO = "three-regime"
SIMULATION_SEED = 0
N_PARTICLES = 10_000
N_PASSES = 40
# Streams keyed under this root never coincide with a workload seed's.
REFERENCE_STREAM = 2**31


def main() -> int:
    dataset, _, params = generate_simulation(SCENARIO, seed=SIMULATION_SEED)
    priors = scenario_priors(SCENARIO)
    log_zs = []
    for p in range(N_PASSES):
        system = run_smc(dataset.y, params, priors, N_PARTICLES,
                         substream(REFERENCE_STREAM, p))
        log_zs.append(system.log_marginal)
        print(f"pass {p}: log Z = {system.log_marginal:.6f}", file=sys.stderr)
    ref = {
        "scenario": SCENARIO,
        "simulation_seed": SIMULATION_SEED,
        "n_particles": N_PARTICLES,
        "n_passes": N_PASSES,
        "logz_mean": statistics.fmean(log_zs),
        "logz_sd": statistics.stdev(log_zs),
        "params": params_to_dict(params),
        "priors": priors_to_dict(priors),
        "y": [float(v) for v in dataset.y],
    }
    path = os.path.join(HERE, "reference", "three_regime.json")
    with open(path, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}: log Z {ref['logz_mean']:.6f} (sd {ref['logz_sd']:.6f})",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

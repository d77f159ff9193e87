"""Regime-switching Beta-Dirichlet SEIR state-space model with particle
Gibbs inference."""

__version__ = "0.1.0"

from .distributions import (
    DirichletParams,
    GammaParams,
    TruncNormalParams,
)
from .model import LatentPath, ParameterSet, PriorSpec
from .pg import ChainRecord, SamplerConfig, run_pg
from .smc import (
    DegenerateWeightsError,
    ParticleSystem,
    ReferenceTrajectory,
    run_csmc_as_batch,
    run_smc,
    sample_reference,
)

__all__ = [
    "ChainRecord",
    "DegenerateWeightsError",
    "DirichletParams",
    "GammaParams",
    "LatentPath",
    "ParameterSet",
    "ParticleSystem",
    "PriorSpec",
    "ReferenceTrajectory",
    "SamplerConfig",
    "TruncNormalParams",
    "run_csmc_as_batch",
    "run_pg",
    "run_smc",
    "sample_reference",
]

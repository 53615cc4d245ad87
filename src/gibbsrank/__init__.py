"""Sparse additive bipartite ranking via a Gibbs pseudo-posterior and
transdimensional MCMC."""

__version__ = "0.1.0"

from .basis import (
    DICTIONARY_SIZE,
    FeatureMatrix,
    SparseCoef,
    build_features,
    rescale,
    score,
    score_dense,
)
from .data import Dataset, gen_synthetic, load_csv, make_splits, save_csv
from .gibbs import GibbsConfig, log_gibbs, log_prior, prior_size_distribution
from .risk import auc, empirical_rank_risk
from .sampler import (
    BenchmarkCache,
    ChainTrace,
    FinalEstimators,
    SamplerConfig,
    run_chain,
)
from .experiments import ExperimentConfig, run_cv, run_grid, run_grid_cell

__all__ = [
    "DICTIONARY_SIZE",
    "FeatureMatrix",
    "SparseCoef",
    "build_features",
    "rescale",
    "score",
    "score_dense",
    "Dataset",
    "gen_synthetic",
    "load_csv",
    "make_splits",
    "save_csv",
    "GibbsConfig",
    "log_gibbs",
    "log_prior",
    "prior_size_distribution",
    "auc",
    "empirical_rank_risk",
    "BenchmarkCache",
    "ChainTrace",
    "FinalEstimators",
    "SamplerConfig",
    "run_chain",
    "ExperimentConfig",
    "run_cv",
    "run_grid",
    "run_grid_cell",
]

"""Log-densities of the sparsity prior and the Gibbs pseudo-posterior.

The prior over coefficient vectors mixes, over model masks m, a uniform
density on an l2-ball of radius BALL_RADIUS weighted by

    C(d, |m|_0)^(-1) * w_|m|_0,

where w_k is the prior mass of model size k, GibbsConfig.size_log_weights:
the one input that states the prior.  Two builders give it,
geometric_size_log_weights (the stated beta^(kM)) and
tilted_size_log_weights (the experiments' vector).  The Gibbs
pseudo-posterior reweights the prior by exp(-delta * L_n).  Everything stays
in log-space; delta can be large without overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import DICTIONARY_SIZE, SparseCoef

# Every run's prior ball has this radius; the benchmark fits are shrunk into it.
BALL_RADIUS = 2.0


@dataclass(frozen=True)
class GibbsConfig:
    """Settings of the prior and the Gibbs pseudo-posterior.

    There is one target density: the uniform-ball and Gaussian-proposal
    densities always carry their normalising constants, so as delta -> 0 the
    chain samples model size k with mass proportional to
    exp(size_log_weights[k]) (prior_size_distribution).  size_log_weights
    holds d + 1 unnormalised log masses, one per size k = 0..d, each finite
    or -inf (size k has no mass) except at k = 0, where every chain starts;
    d is its length minus one.  Build it with geometric_size_log_weights or
    tilted_size_log_weights;
    tests/test_gibbs.py::test_chain_samples_its_size_prior_vector checks
    that a chain recovers it.
    """

    delta: float
    size_log_weights: tuple[float, ...]
    M: int = DICTIONARY_SIZE

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if self.delta == math.inf:  # exp(-inf * L_n) leaves no finite posterior to sample
            raise ValueError("delta is +inf; the Gibbs posterior needs a finite delta")
        weights = tuple(self.size_log_weights)
        if not weights:
            raise ValueError("size_log_weights needs an entry for size 0")
        for k, w in enumerate(weights):
            if math.isnan(w) or w == math.inf:
                raise ValueError(f"size_log_weights[{k}] is {w}; a log mass is finite or -inf")
        if weights[0] == -math.inf:
            raise ValueError("size_log_weights[0] is -inf; every chain starts at size k = 0")
        object.__setattr__(self, "size_log_weights", weights)
        # log_prior's size term, one entry per k = 0..d; not a field, so
        # dataclasses.replace recomputes it from the replaced settings
        object.__setattr__(self, "_log_prior_by_size", tuple(
            -log_binomial(self.d, k) + weights[k] - log_ball_volume(k * self.M, BALL_RADIUS)
            for k in range(self.d + 1)))

    @property
    def d(self) -> int:
        return len(self.size_log_weights) - 1


def _check_beta(beta: float) -> None:
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")


def geometric_size_log_weights(d: int, beta: float, M: int = DICTIONARY_SIZE) -> tuple[float, ...]:
    """The stated size prior beta^(kM): log masses k * M * log(beta), k = 0..d."""
    _check_beta(beta)
    return tuple(k * M * math.log(beta) for k in range(d + 1))


def tilted_size_log_weights(d: int, beta: float, sigma2: float,
                            M: int = DICTIONARY_SIZE) -> tuple[float, ...]:
    """The experiments' size prior: log of beta^(kM) Vol_kM(R) (2 pi sigma2)^(-kM/2).

    k runs over 0..d, R is BALL_RADIUS, and sigma2 is the variance of the
    chain's Gaussian proposal.
    """
    _check_beta(beta)
    log_beta = math.log(beta)
    log_gauss = math.log(2.0 * math.pi * sigma2)
    return tuple(
        k * M * log_beta + log_ball_volume(k * M, BALL_RADIUS) - 0.5 * (k * M) * log_gauss
        for k in range(d + 1)
    )


def log_ball_volume(dim: int, radius: float) -> float:
    """log of the volume of the l2-ball of the given dimension and radius."""
    if dim == 0:
        return 0.0
    return 0.5 * dim * math.log(math.pi) + dim * math.log(radius) - math.lgamma(0.5 * dim + 1.0)


def log_binomial(d: int, k: int) -> float:
    return math.lgamma(d + 1) - math.lgamma(k + 1) - math.lgamma(d - k + 1)


def log_prior(theta: SparseCoef, cfg: GibbsConfig) -> float:
    """Unnormalized log prior density of a restricted coefficient vector.

    Outside the prior ball the density is zero (-inf).  The empty model is a
    point mass at theta = 0 with log-weight size_log_weights[0], which is 0
    for both builders' vectors.  The size term comes from cfg's per-size
    table, the same doubles as computing it here.
    """
    theta.check(cfg.M, cfg.d)
    values = theta.values
    if math.sqrt(values @ values) > BALL_RADIUS:
        return -math.inf
    return cfg._log_prior_by_size[theta.active.size]


def log_gibbs(theta: SparseCoef, Ln: float, cfg: GibbsConfig) -> float:
    """Unnormalized log density of the Gibbs pseudo-posterior at theta."""
    return -cfg.delta * Ln + log_prior(theta, cfg)


def prior_size_distribution(cfg: GibbsConfig) -> np.ndarray:
    """Closed-form prior distribution of the model size |m|_0.

    Summing the model weights over the C(d, k) masks of size k cancels the
    binomial factor, and each uniform ball integrates to 1, leaving
    exp(size_log_weights[k]).
    """
    logw = np.array(cfg.size_log_weights)
    w = np.exp(logw - logw.max())
    return w / w.sum()

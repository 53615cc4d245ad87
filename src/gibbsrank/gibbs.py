"""Log-densities of the sparsity prior and the Gibbs pseudo-posterior.

The prior over coefficient vectors mixes, over model masks m, a uniform
density on an l2-ball of radius ball_radius weighted by

    C(d, |m|_0)^(-1) * w_|m|_0,

where w_k is the prior mass of model size k (GibbsConfig.size_log_weights,
beta^(kM) by default, so mass decays geometrically with model size).  The
Gibbs pseudo-posterior reweights the prior by exp(-delta * L_n).  Everything
stays in log-space; delta can be large without overflow.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .basis import DICTIONARY_SIZE, SparseCoef


@dataclass(frozen=True)
class GibbsConfig:
    """Settings of the prior and the Gibbs pseudo-posterior.

    There is one target density: the uniform-ball and Gaussian-proposal
    densities always carry their normalising constants, so as delta -> 0 the
    chain samples model size k with mass proportional to
    exp(size_log_weights[k]) (prior_size_distribution).  size_log_weights
    holds d + 1 unnormalised log masses, one per size k = 0..d; left out, it
    is k * M * log(beta), the geometric prior beta^(kM), filled in at
    construction (so dataclasses.replace of beta or M keeps the old vector
    unless size_log_weights=None is passed too).  The experiments
    pass tilted_size_log_weights, the size prior

        beta^(kM) * Vol_kM(ball_radius) * (2 pi sigma2)^(-kM/2),

    which depends on the proposal variance sigma2 and, at small sigma2,
    favours large models; tests/test_gibbs.py::
    test_chain_samples_its_size_prior_vector checks that a chain recovers it.
    beta has no default here: ExperimentConfig.beta is the one chain default.
    """

    delta: float
    d: int
    beta: float
    M: int = DICTIONARY_SIZE
    ball_radius: float = 2.0
    size_log_weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if self.ball_radius <= 0:
            raise ValueError("ball_radius must be positive")
        if self.size_log_weights is None:
            weights = tuple(k * self.M * math.log(self.beta) for k in range(self.d + 1))
        else:
            weights = tuple(self.size_log_weights)
        if len(weights) != self.d + 1:
            raise ValueError(f"size_log_weights needs d + 1 = {self.d + 1} entries, "
                             f"got {len(weights)}")
        object.__setattr__(self, "size_log_weights", weights)
        # log_prior's size term, one entry per k = 0..d; not a field, so
        # dataclasses.replace recomputes it from the replaced settings
        object.__setattr__(self, "_log_prior_by_size", tuple(
            -log_binomial(self.d, k) + weights[k]
            - log_ball_volume(self.ball_dim(k), self.ball_radius)
            for k in range(self.d + 1)))

    def ball_dim(self, n_active: int) -> int:
        """Dimension used for normalization constants of a size-n_active model."""
        return n_active * self.M


# Both constants depend only on the model size; each GibbsConfig tabulates
# them once, and the grid's many configs share the values.
@functools.cache
def log_ball_volume(dim: int, radius: float) -> float:
    """log of the volume of the l2-ball of the given dimension and radius."""
    if dim == 0:
        return 0.0
    return 0.5 * dim * math.log(math.pi) + dim * math.log(radius) - math.lgamma(0.5 * dim + 1.0)


@functools.cache
def log_binomial(d: int, k: int) -> float:
    return math.lgamma(d + 1) - math.lgamma(k + 1) - math.lgamma(d - k + 1)


def log_prior(theta: SparseCoef, cfg: GibbsConfig) -> float:
    """Unnormalized log prior density of a restricted coefficient vector.

    Outside the prior ball the density is zero (-inf).  The empty model is a
    point mass at theta = 0 with log-weight size_log_weights[0], which is 0
    for the default and the tilted vector.  The size term comes from cfg's
    per-size table, the same doubles as computing it here.
    """
    theta.check(cfg.M, cfg.d)
    values = theta.values
    if math.sqrt(values @ values) > cfg.ball_radius:
        return -math.inf
    return cfg._log_prior_by_size[theta.active.size]


def log_gibbs(theta: SparseCoef, Ln: float, cfg: GibbsConfig) -> float:
    """Unnormalized log density of the Gibbs pseudo-posterior at theta."""
    return -cfg.delta * Ln + log_prior(theta, cfg)


def tilted_size_log_weights(cfg: GibbsConfig, sigma2: float) -> tuple[float, ...]:
    """The experiments' size prior: log of beta^(kM) Vol_kM(R) (2 pi sigma2)^(-kM/2).

    k runs over 0..d; M, beta and the ball radius R come from cfg, and sigma2
    is the variance of the chain's Gaussian proposal.
    """
    log_beta = math.log(cfg.beta)
    log_gauss = math.log(2.0 * math.pi * sigma2)
    return tuple(
        k * cfg.M * log_beta + log_ball_volume(cfg.ball_dim(k), cfg.ball_radius)
        - 0.5 * cfg.ball_dim(k) * log_gauss
        for k in range(cfg.d + 1)
    )


def prior_size_distribution(cfg: GibbsConfig) -> np.ndarray:
    """Closed-form prior distribution of the model size |m|_0.

    Summing the model weights over the C(d, k) masks of size k cancels the
    binomial factor, and each uniform ball integrates to 1, leaving
    exp(size_log_weights[k]).
    """
    logw = np.array(cfg.size_log_weights)
    w = np.exp(logw - logw.max())
    return w / w.sum()

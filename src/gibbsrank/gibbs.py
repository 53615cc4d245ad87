"""Log-densities of the sparsity prior and the Gibbs pseudo-posterior.

The prior over coefficient vectors mixes, over model masks m, a uniform
density on an l2-ball of radius 2 weighted by

    C(d, |m|_0)^(-1) * beta^(|m|_0 * M),

so mass decays geometrically with model size.  The Gibbs pseudo-posterior
reweights the prior by exp(-delta * L_n).  Everything stays in log-space;
delta can be large without overflow.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .basis import SparseCoef

# Normalization conventions for the ball-volume and proposal-density
# constants.  "coefficient" uses the true dimension of the restricted
# coefficient vector (|m|_0 * M); "kernel" drops the constants entirely so
# only density ratios at fixed dimension are meaningful.
NORM_MODES = ("coefficient", "kernel")


@dataclass(frozen=True)
class GibbsConfig:
    """Settings of the prior and the Gibbs pseudo-posterior.

    The two normalization modes target different model-size priors.  With
    norm_mode="coefficient" the chain samples the stated prior: as
    delta -> 0 the size |m|_0 = k has mass proportional to beta^(kM)
    (prior_size_distribution).  With norm_mode="kernel", the mode the
    experiments run, the uniform-ball and Gaussian-proposal constants are
    left out, so as delta -> 0 the chain samples sizes with mass
    proportional to

        beta^(kM) * Vol_kM(ball_radius) * (2 pi sigma2)^(-kM/2),

    which depends on the proposal variance sigma2 and, at small sigma2,
    favours large models.
    """

    delta: float
    d: int
    beta: float = 0.5
    M: int = 13
    ball_radius: float = 2.0
    norm_mode: str = "coefficient"

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if self.ball_radius <= 0:
            raise ValueError("ball_radius must be positive")
        if self.norm_mode not in NORM_MODES:
            raise ValueError(f"norm_mode must be one of {NORM_MODES}")

    def ball_dim(self, n_active: int) -> int:
        """Dimension used for normalization constants of a size-n_active model."""
        return n_active * self.M


# Both constants depend only on the model size, so the sampler's per-candidate
# prior evaluations share a handful of values per chain.
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

    Outside the radius-2 ball the density is zero (-inf).  The empty model
    is a point mass at theta = 0 with log-weight 0.
    """
    theta.check(cfg.M)
    if theta.mask.d != cfg.d:
        raise ValueError(f"mask over {theta.mask.d} covariates, config says d={cfg.d}")
    k = theta.mask.size
    if k == 0:
        return 0.0
    values = theta.values
    if math.sqrt(values @ values) > cfg.ball_radius:
        return -math.inf
    out = -log_binomial(cfg.d, k) + k * cfg.M * math.log(cfg.beta)
    if cfg.norm_mode != "kernel":
        out -= log_ball_volume(cfg.ball_dim(k), cfg.ball_radius)
    return out


def log_gibbs(theta: SparseCoef, Ln: float, cfg: GibbsConfig) -> float:
    """Unnormalized log density of the Gibbs pseudo-posterior at theta."""
    return -cfg.delta * Ln + log_prior(theta, cfg)


def prior_size_log_weights(cfg: GibbsConfig) -> np.ndarray:
    """Unnormalized log prior mass of each model size 0..d.

    Summing the model weights over the C(d, k) masks of size k cancels the
    binomial factor, leaving beta^(kM) (each uniform ball integrates to 1).
    """
    return np.arange(cfg.d + 1) * cfg.M * math.log(cfg.beta)


def prior_size_distribution(cfg: GibbsConfig) -> np.ndarray:
    """Closed-form prior distribution of the model size |m|_0."""
    logw = prior_size_log_weights(cfg)
    w = np.exp(logw - logw.max())
    return w / w.sum()

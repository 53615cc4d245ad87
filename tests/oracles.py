"""Reference implementations that the tests compare the package against.

log_proposal_density is the one-candidate form of the proposal density that
the sampler computes a whole neighborhood at a time; padded is the dense
d*M embedding of a sparse coefficient vector.
"""

import math

import numpy as np


def log_proposal_density(values: np.ndarray, mean: np.ndarray, cfg, sigma2: float) -> float:
    """Normalised log density of the benchmark-centered Gaussian proposal.

    Its dimension is cfg.ball_dim of the model size, that of the full
    coefficient vector.  The empty model's point proposal has log density 0
    by convention.
    """
    if values.size == 0:
        return 0.0
    resid = values - mean
    np.square(resid, out=resid)
    quad = -float(np.add.reduce(resid)) / (2.0 * sigma2)
    dim = cfg.ball_dim(values.size // cfg.M)
    return quad - 0.5 * dim * math.log(2.0 * math.pi * sigma2)


def padded(coef, M: int) -> np.ndarray:
    """Embed a SparseCoef into the full d*M coefficient vector, zero outside its support."""
    coef.check(M)
    full = np.zeros((coef.mask.d, M))
    full[coef.mask.active] = coef.values.reshape(-1, M)
    return full.ravel()

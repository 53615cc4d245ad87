"""Reference implementations that the tests compare the package against.

log_proposal_density is the one-candidate form of the proposal density that
the sampler computes a whole neighborhood at a time; padded is the dense
d*M embedding of a sparse coefficient vector.  A model is its ascending,
read-only intp array of active indices: active builds one from indices in
any order and checks them, and bits is its (d,) bool inclusion vector.
geometric_config is a GibbsConfig on the stated geometric size prior.
"""

import math

import numpy as np

from gibbsrank.basis import DICTIONARY_SIZE
from gibbsrank.gibbs import GibbsConfig, geometric_size_log_weights


def log_proposal_density(values: np.ndarray, mean: np.ndarray, sigma2: float) -> float:
    """Normalised log density of the benchmark-centered Gaussian proposal.

    Its dimension is that of the coefficient vector.  The empty model's
    point proposal has log density 0 by convention.
    """
    if values.size == 0:
        return 0.0
    resid = values - mean
    np.square(resid, out=resid)
    quad = -float(np.add.reduce(resid)) / (2.0 * sigma2)
    return quad - 0.5 * values.size * math.log(2.0 * math.pi * sigma2)


def padded(coef, d: int, M: int) -> np.ndarray:
    """Embed a SparseCoef over d covariates into the full d*M coefficient
    vector, zero outside its support."""
    coef.check(M, d)
    full = np.zeros((d, M))
    full[coef.active] = coef.values.reshape(-1, M)
    return full.ravel()


def active(d: int, indices) -> np.ndarray:
    """The ascending, read-only intp active indices of a model over d covariates.

    indices may come in any order; one outside 0..d-1, one listed twice, or
    a non-integer is a ValueError.
    """
    listed = np.asarray(list(indices))
    if listed.size and (listed.ndim != 1 or listed.dtype.kind not in "iu"):
        raise ValueError(f"active indices must be a list of integers, got {listed.tolist()}")
    ordered = sorted(listed.tolist())
    outside = [j for j in ordered if not 0 <= j < d]
    if outside:
        raise ValueError(f"active index {outside[0]} outside 0..{d - 1} for d={d}")
    repeated = [j for j, following in zip(ordered, ordered[1:]) if j == following]
    if repeated:
        raise ValueError(f"active index {repeated[0]} listed twice for d={d}")
    out = np.array(ordered, dtype=np.intp)
    out.setflags(write=False)
    return out


def bits(active: np.ndarray, d: int) -> np.ndarray:
    """The read-only (d,) bool inclusion vector of a model's active indices."""
    out = np.zeros(d, dtype=bool)
    out[active] = True
    out.setflags(write=False)
    return out


def geometric_config(delta: float, d: int, beta: float, M: int = DICTIONARY_SIZE) -> GibbsConfig:
    """A GibbsConfig over d covariates with the size prior beta^(kM)."""
    return GibbsConfig(delta=delta, size_log_weights=geometric_size_log_weights(d, beta, M), M=M)

"""Fixed function dictionary and additive scoring functions.

The dictionary holds DICTIONARY_SIZE = 13 univariate functions evaluated on
[-1, 1]: Legendre polynomials of degrees 0..6 followed by sine and cosine
harmonics of frequencies 1..3.  Covariates living in [0, 1] are affinely
rescaled to [-1, 1] before evaluation.  A scoring function is a sparse
linear combination of these functions applied coordinate-wise:

    s(x) = sum_j sum_k theta[j, k] * phi_k(rescale(x_j))

with j ranging over the active covariates of a model mask.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

N_LEGENDRE = 7
N_HARMONICS = 3
DICTIONARY_SIZE = N_LEGENDRE + 2 * N_HARMONICS


def rescale(x):
    """Map [0, 1] to [-1, 1] via 2x - 1; values outside are clamped, with a warning."""
    x = np.asarray(x, dtype=float)
    outside = np.count_nonzero((x < 0.0) | (x > 1.0))
    if outside:
        logger.warning("%d input value(s) outside [0, 1]; clamping", outside)
        x = np.clip(x, 0.0, 1.0)
    return 2.0 * x - 1.0


def _write_dictionary(t: np.ndarray, out: np.ndarray) -> None:
    """Write dictionary function k at t into out[k], for k = 0..DICTIONARY_SIZE-1.

    Each out[k] has t's shape; Legendre polynomials follow the three-term
    recurrence.
    """
    L, H = N_LEGENDRE, N_HARMONICS
    out[0] = 1.0
    out[1] = t
    for deg in range(2, L):
        out[deg] = ((2 * deg - 1) * t * out[deg - 1] - (deg - 1) * out[deg - 2]) / deg
    for h in range(1, H + 1):
        angle = np.pi * t * h
        np.sin(angle, out=out[L + h - 1, ...])  # "..." keeps a 0-d slot an array
        np.cos(angle, out=out[L + H + h - 1, ...])


def eval_dictionary(t) -> np.ndarray:
    """Evaluate all dictionary functions at t in [-1, 1].

    Returns a C-contiguous array of shape t.shape + (DICTIONARY_SIZE,), each
    function written in place into its slot of the last axis.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape + (DICTIONARY_SIZE,))
    _write_dictionary(t, np.moveaxis(out, -1, 0))
    return out


def eval_basis(k: int, t):
    """Evaluate the k-th dictionary function (1-based index) at t."""
    if not 1 <= k <= DICTIONARY_SIZE:
        raise ValueError(f"basis index {k} out of range 1..{DICTIONARY_SIZE}")
    scalar = np.isscalar(t)
    value = eval_dictionary(np.asarray(t, dtype=float))[..., k - 1]
    return float(value) if scalar else value


@dataclass(frozen=True)
class FeatureMatrix:
    """Cached basis evaluations, stored covariate-major and function-major.

    blocks is one C-contiguous array of shape (d, M, n): blocks[j] holds the
    M dictionary functions of covariate j, each one contiguous row over all
    n rows of data.  Scoring a covariate is then theta_j @ blocks[j], a
    product over M long rows rather than n rows of M.
    """

    blocks: np.ndarray

    def __post_init__(self):
        blocks = np.ascontiguousarray(self.blocks, dtype=float)
        if blocks.ndim != 3:
            raise ValueError(f"feature blocks must have shape (d, M, n), got {blocks.shape}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def d(self) -> int:
        return self.blocks.shape[0]

    @property
    def M(self) -> int:
        return self.blocks.shape[1]

    @property
    def n(self) -> int:
        return self.blocks.shape[2]


def build_features(X: np.ndarray) -> FeatureMatrix:
    """Evaluate the dictionary on every entry of X (shape (n, d))."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.size == 0:
        raise ValueError("X must be a non-empty 2-d array")
    bad = ~np.isfinite(X)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"non-finite feature at row {i}, column {j}")
    t = np.ascontiguousarray(rescale(X).T)
    blocks = np.empty((t.shape[0], DICTIONARY_SIZE, t.shape[1]))
    # each function fills its (d, n) slab in place: no (d, n, M) array is
    # built and transposed, so the features peak near their own size
    _write_dictionary(t, blocks.transpose(1, 0, 2))
    return FeatureMatrix(blocks=blocks)


class ModelMask:
    """Binary inclusion vector over covariates.

    Masks are immutable, so the active covariates and the model size are
    found once, here.
    """

    __slots__ = ("bits", "active", "size")

    def __init__(self, bits):
        bits = np.array(bits, dtype=bool)
        bits.setflags(write=False)
        active = np.flatnonzero(bits)
        active.setflags(write=False)
        self.bits = bits
        self.active = active
        self.size = active.size

    @classmethod
    def from_views(cls, bits: np.ndarray, active: np.ndarray) -> "ModelMask":
        """A mask over read-only bits and their ascending intp active indices,
        taken without a copy or a check: the caller guarantees both."""
        mask = cls.__new__(cls)
        mask.bits = bits
        mask.active = active
        mask.size = active.size
        return mask

    @classmethod
    def empty(cls, d: int) -> "ModelMask":
        return cls(np.zeros(d, dtype=bool))

    @classmethod
    def from_active(cls, d: int, active) -> "ModelMask":
        bits = np.zeros(d, dtype=bool)
        bits[list(active)] = True
        return cls(bits)

    @property
    def d(self) -> int:
        return self.bits.size

    def key(self) -> bytes:
        """The active indices' bytes, unique among masks over the same d."""
        return self.active.tobytes()

    def __eq__(self, other) -> bool:
        return isinstance(other, ModelMask) and np.array_equal(self.bits, other.bits)

    def __hash__(self) -> int:
        return hash((self.d, self.key()))

    def __repr__(self) -> str:
        return f"ModelMask(active={self.active.tolist()}, d={self.d})"


@dataclass(frozen=True)
class SparseCoef:
    """Coefficient vector restricted to the support of a model mask.

    values holds M coefficients per active covariate, in covariate order.
    """

    mask: ModelMask
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)

    def check(self, M: int) -> None:
        if self.values.size != self.mask.size * M:
            raise ValueError(
                f"coefficient length {self.values.size} != |m|_0 * M = {self.mask.size * M}"
            )

    def padded(self, M: int) -> np.ndarray:
        """Embed into the full d*M coefficient vector, zero outside the support."""
        self.check(M)
        full = np.zeros((self.mask.d, M))
        full[self.mask.active] = self.values.reshape(-1, M)
        return full.ravel()


def _additive_score(features: FeatureMatrix, covariates, values: np.ndarray) -> np.ndarray:
    """Sum of one GEMV per listed covariate over its contiguous feature block.

    values holds M coefficients per listed covariate, in list order.
    Gathering the covariates' columns instead would copy n * M doubles each.
    np.dot calls the same BLAS GEMV as the @ operator, with less dispatch.
    """
    blocks, coefs = features.blocks, values.reshape(-1, features.M)
    if not len(coefs):
        return np.zeros(features.n)
    out = np.dot(coefs[0], blocks[covariates[0]])
    for j, theta_j in zip(covariates[1:], coefs[1:]):
        out += np.dot(theta_j, blocks[j])
    return out


def score(coef: SparseCoef, features: FeatureMatrix) -> np.ndarray:
    """Scores of all rows under the sparse additive scoring function."""
    coef.check(features.M)
    if coef.mask.d != features.d:
        raise ValueError(f"mask over {coef.mask.d} covariates, features built for {features.d}")
    return _additive_score(features, coef.mask.active, coef.values)


def score_dense(theta: np.ndarray, features: FeatureMatrix) -> np.ndarray:
    """Scores under a dense d*M coefficient vector (e.g. the averaged estimator)."""
    theta = np.asarray(theta, dtype=float)
    if theta.size != features.d * features.M:
        raise ValueError(f"expected {features.d * features.M} coefficients, got {theta.size}")
    return _additive_score(features, range(features.d), theta)

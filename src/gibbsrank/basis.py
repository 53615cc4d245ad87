"""Fixed function dictionary and additive scoring functions.

The dictionary holds univariate functions evaluated on [-1, 1]: Legendre
polynomials (degrees 0..6 by default) followed by sine and cosine harmonics
(frequencies 1..3).  Covariates living in [0, 1] are affinely rescaled to
[-1, 1] before evaluation.  A scoring function is a sparse linear
combination of these functions applied coordinate-wise:

    s(x) = sum_j sum_k theta[j, k] * phi_k(rescale(x_j))

with j ranging over the active covariates of a model mask.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

_clamp_warned = False


@dataclass(frozen=True)
class BasisDictionary:
    """Univariate function dictionary: Legendre polynomials plus harmonics."""

    n_legendre: int = 7
    n_harmonics: int = 3

    @property
    def size(self) -> int:
        return self.n_legendre + 2 * self.n_harmonics

    def labels(self) -> list[str]:
        legs = [f"P{deg}" for deg in range(self.n_legendre)]
        sins = [f"sin{h}pi" for h in range(1, self.n_harmonics + 1)]
        coss = [f"cos{h}pi" for h in range(1, self.n_harmonics + 1)]
        return legs + sins + coss


DEFAULT_DICTIONARY = BasisDictionary()


def rescale(x):
    """Map [0, 1] to [-1, 1] via 2x - 1; values slightly outside are clamped."""
    global _clamp_warned
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        if not _clamp_warned:
            logger.warning("input outside [0, 1]; clamping (reported once)")
            _clamp_warned = True
        x = np.clip(x, 0.0, 1.0)
    return 2.0 * x - 1.0


def eval_dictionary(t, dictionary: BasisDictionary = DEFAULT_DICTIONARY) -> np.ndarray:
    """Evaluate all dictionary functions at t in [-1, 1].

    Returns a C-contiguous array of shape t.shape + (dictionary.size,), each
    function written in place into its slot of the last axis.  Legendre
    polynomials follow the three-term recurrence.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape + (dictionary.size,))
    L, H = dictionary.n_legendre, dictionary.n_harmonics
    out[..., 0] = 1.0
    if L >= 2:
        out[..., 1] = t
    for deg in range(2, L):
        out[..., deg] = (
            (2 * deg - 1) * t * out[..., deg - 1] - (deg - 1) * out[..., deg - 2]
        ) / deg
    for h in range(1, H + 1):
        angle = np.pi * t * h
        np.sin(angle, out=out[..., L + h - 1])
        np.cos(angle, out=out[..., L + H + h - 1])
    return out


def eval_basis(k: int, t, dictionary: BasisDictionary = DEFAULT_DICTIONARY):
    """Evaluate the k-th dictionary function (1-based index) at t."""
    if not 1 <= k <= dictionary.size:
        raise ValueError(f"basis index {k} out of range 1..{dictionary.size}")
    scalar = np.isscalar(t)
    value = eval_dictionary(np.asarray(t, dtype=float), dictionary)[..., k - 1]
    return float(value) if scalar else value


@dataclass(frozen=True)
class FeatureMatrix:
    """Cached basis evaluations, stored covariate-major.

    blocks is one C-contiguous array of shape (d, n, M): blocks[j] holds the
    M dictionary functions of covariate j on all n rows, so scoring a
    covariate reads one contiguous n x M block instead of a strided view.
    """

    blocks: np.ndarray

    def __post_init__(self):
        blocks = np.ascontiguousarray(self.blocks, dtype=float)
        if blocks.ndim != 3:
            raise ValueError(f"feature blocks must have shape (d, n, M), got {blocks.shape}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def d(self) -> int:
        return self.blocks.shape[0]

    @property
    def n(self) -> int:
        return self.blocks.shape[1]

    @property
    def M(self) -> int:
        return self.blocks.shape[2]

    def columns_for(self, mask: "ModelMask") -> np.ndarray:
        """Columns of the active covariates in the row-major (n, d * M) layout."""
        return (mask.active[:, None] * self.M + np.arange(self.M)).ravel()


def build_features(X: np.ndarray, dictionary: BasisDictionary = DEFAULT_DICTIONARY) -> FeatureMatrix:
    """Evaluate the dictionary on every entry of X (shape (n, d))."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.size == 0:
        raise ValueError("X must be a non-empty 2-d array")
    bad = ~np.isfinite(X)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"non-finite feature at row {i}, column {j}")
    # evaluated on the (d, n) transpose, the dictionary fills (d, n, M) blocks
    return FeatureMatrix(blocks=eval_dictionary(np.ascontiguousarray(rescale(X).T), dictionary))


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

    def with_covariate(self, j: int) -> "ModelMask":
        bits = self.bits.copy()
        bits[j] = True
        return ModelMask(bits)

    def without_covariate(self, j: int) -> "ModelMask":
        bits = self.bits.copy()
        bits[j] = False
        return ModelMask(bits)

    def key(self) -> bytes:
        return np.packbits(self.bits).tobytes()

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
    """
    out = np.zeros(features.n)
    for j, theta_j in zip(covariates, values.reshape(-1, features.M)):
        out += features.blocks[j] @ theta_j
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

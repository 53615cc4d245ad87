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


def build_features(X: np.ndarray, covariates=None) -> FeatureMatrix:
    """Evaluate the dictionary on the listed columns of X (shape (n, d)).

    covariates lists ascending column indices, and blocks[i] then holds
    column covariates[i]; None lists every column.  All of X is checked for
    non-finite values and counted for clamping, whichever columns are
    listed, so errors and warnings speak of X itself.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.size == 0:
        raise ValueError("X must be a non-empty 2-d array")
    bad = ~np.isfinite(X)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"non-finite feature at row {i}, column {j}")
    t = rescale(X).T
    if covariates is not None:
        covariates = np.asarray(covariates, dtype=np.intp)
        if (covariates.ndim != 1 or np.any(np.diff(covariates) <= 0)
                or np.any(covariates < 0) or np.any(covariates >= X.shape[1])):
            raise ValueError(f"covariates must be ascending columns of X, got {covariates}")
        t = t[covariates]
    t = np.ascontiguousarray(t)
    blocks = np.empty((t.shape[0], DICTIONARY_SIZE, t.shape[1]))
    # each function fills its (d, n) slab in place: no (d, n, M) array is
    # built and transposed, so the features peak near their own size
    _write_dictionary(t, blocks.transpose(1, 0, 2))
    return FeatureMatrix(blocks=blocks)


class ModelMask:
    """The active covariates of a model over d covariates.

    A mask is its active indices, ascending and read-only intp, stored once
    with d and the model size; the binary inclusion vector ``bits`` is
    derived from them on each access.  The constructor takes d and such an
    index array as they are, without a copy or a check, so a neighborhood's
    masks can be the rows of one index array; from_active checks and
    converts any list of indices.
    """

    __slots__ = ("d", "active", "size")

    def __init__(self, d: int, active: np.ndarray):
        self.d = d
        self.active = active
        self.size = active.size

    @classmethod
    def empty(cls, d: int) -> "ModelMask":
        return cls(int(d), _NO_COVARIATES)

    @classmethod
    def from_active(cls, d: int, active) -> "ModelMask":
        """The mask over d covariates whose active indices are listed, in any order.

        An index outside 0..d-1, or one listed twice, is a ValueError naming
        d and the index.
        """
        d = int(d)
        listed = np.asarray(list(active))
        if listed.size and (listed.ndim != 1 or listed.dtype.kind not in "iu"):
            raise ValueError(f"active indices must be a list of integers, got {listed.tolist()}")
        indices = sorted(listed.tolist())
        outside = [j for j in indices if not 0 <= j < d]
        if outside:
            raise ValueError(f"active index {outside[0]} outside 0..{d - 1} for d={d}")
        repeated = [j for j, following in zip(indices, indices[1:]) if j == following]
        if repeated:
            raise ValueError(f"active index {repeated[0]} listed twice for d={d}")
        indices = np.array(indices, dtype=np.intp)
        indices.setflags(write=False)
        return cls(d, indices)

    @property
    def bits(self) -> np.ndarray:
        """The read-only (d,) bool inclusion vector."""
        bits = np.zeros(self.d, dtype=bool)
        bits[self.active] = True
        bits.setflags(write=False)
        return bits

    def key(self) -> bytes:
        """The active indices' bytes, unique among masks over the same d."""
        return self.active.tobytes()

    def __eq__(self, other) -> bool:
        return (isinstance(other, ModelMask) and self.d == other.d
                and np.array_equal(self.active, other.active))

    def __hash__(self) -> int:
        return hash((self.d, self.key()))

    def __repr__(self) -> str:
        return f"ModelMask(active={self.active.tolist()}, d={self.d})"

    def __reduce__(self):  # through from_active: the indices unpickle read-only
        return type(self).from_active, (self.d, self.active.tolist())


_NO_COVARIATES = np.zeros(0, dtype=np.intp)
_NO_COVARIATES.setflags(write=False)


class SparseCoef:
    """Coefficient vector restricted to the support of a model mask.

    values holds M coefficients per active covariate, in covariate order, as
    float64; float64 values are kept as they are, without a copy.
    """

    __slots__ = ("mask", "values")

    def __init__(self, mask: ModelMask, values):
        self.mask = mask
        self.values = np.asarray(values, dtype=float)

    def check(self, M: int) -> None:
        if self.values.size != self.mask.size * M:
            raise ValueError(
                f"coefficient length {self.values.size} != |m|_0 * M = {self.mask.size * M}"
            )

    def __repr__(self) -> str:
        return f"SparseCoef(mask={self.mask!r}, values={self.values!r})"


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

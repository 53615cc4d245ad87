"""Reference implementations that the tests compare the package against,
and the helpers that more than one test module uses.

This is the one home of both: a test module imports from here and from the
package, never from another test module.

pair_risk and brute_pair_counts are the ranking oracles, brute-force
comparisons of every positive with every negative: pair_risk gives the risk
L_n, and brute_pair_counts the Mann-Whitney count and the tied pairs from
which pair_auc reads both AUC conventions.  random_instance draws the small tie-heavy
instances they are checked on.  log_proposal_density is the one-candidate form of the
proposal density that the sampler computes a whole neighborhood at a time;
padded is the dense d*M embedding of a sparse coefficient vector.  A model
is its ascending, read-only intp array of active indices: active builds one
from indices in any order and checks them, and bits is its (d,) bool
inclusion vector.  geometric_config is a GibbsConfig on the stated
geometric size prior, and FakeRng scripts the draws of one step.
dealt_splits is the one-index-at-a-time deal that data.make_splits must
match.  closed_form_target is the exact model distribution of the Gibbs
pseudo-posterior on a d=2, M=1 instance; it and the importance draws that
check it take their risks from pair_risk.
"""

import math

import numpy as np

from gibbsrank.basis import DICTIONARY_SIZE
from gibbsrank.data import DataError
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


def dealt_splits(n: int, k: int, seed: int, labels) -> tuple[np.ndarray, ...]:
    """Stratified k folds of 0..n-1, dealt one index at a time: each class
    (label > 0, then the rest) is permuted and dealt round-robin into k
    lists, continuing from the slot where the previous class stopped, and a
    fold that ends up with one class is refused."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if k > n:
        raise DataError(f"cannot split {n} rows into {k} folds")
    rng = np.random.default_rng(seed)
    labels = np.asarray(labels)
    buckets: list[list[int]] = [[] for _ in range(k)]
    slot = 0
    for cls in (labels > 0, labels <= 0):
        for i in rng.permutation(np.flatnonzero(cls)):
            buckets[slot % k].append(int(i))
            slot += 1
    folds = tuple(np.sort(np.array(b, dtype=int)) for b in buckets)
    for f in folds:
        fl = labels[f]
        if np.all(fl > 0) or np.all(fl <= 0):
            raise DataError("stratification impossible: a fold has a single class")
    return folds


def pair_risk(scores, labels) -> np.ndarray:
    """The ranking risk L_n of each row of scores (shape (..., n)) by direct
    comparison of every positive with every negative: the share of the
    n(n-1)/2 pairs that are discordant, each opposite-label tie costing 1/2."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n = labels.size
    pos = scores[..., labels > 0][..., :, None]
    neg = scores[..., labels <= 0][..., None, :]
    below = np.count_nonzero(pos < neg, axis=(-2, -1))
    tied = np.count_nonzero(pos == neg, axis=(-2, -1))
    return 2.0 * (below + 0.5 * tied) / (n * (n - 1))


def brute_pair_counts(scores, labels) -> tuple[float, int]:
    """The Mann-Whitney count u and the tied count of the (positive,
    negative) pairs: u counts each pair with the positive above as 1 and
    each tie as 1/2.  Both are exact half-integers, so the half AUC is
    u / (n_pos n_neg) and the strict AUC (u - tied / 2) / (n_pos n_neg)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pairs = [(a, b) for a in scores[labels > 0] for b in scores[labels <= 0]]
    tied = sum(a == b for a, b in pairs)
    return sum(a > b for a, b in pairs) + tied / 2, tied


def pair_auc(scores, labels, policy: str) -> float:
    """auc's value under either tie policy, read from brute_pair_counts."""
    u, tied = brute_pair_counts(scores, labels)
    labels = np.asarray(labels)
    pairs = np.count_nonzero(labels > 0) * np.count_nonzero(labels <= 0)
    return (u if policy == "half" else u - tied / 2) / pairs


def random_instance(rng) -> tuple[np.ndarray, np.ndarray]:
    """Scores and +-1 labels of 2 to 50 rows with both classes; the coarse
    integer scores 0..5 inject plenty of exact ties."""
    n = int(rng.integers(2, 51))
    scores = rng.integers(0, 6, size=n).astype(float)
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    if np.all(labels > 0) or np.all(labels <= 0):
        labels[0] = -labels[0]
    return scores, labels


class FakeRng:
    """Deterministic stand-in driving one scripted Metropolis-Hastings step:
    random() returns the listed uniforms in order and the proposal noise is
    zero."""

    def __init__(self, uniforms):
        self.uniforms = list(uniforms)

    def random(self, *args):
        return self.uniforms.pop(0)

    def standard_normal(self, size):
        return np.zeros(size)


def closed_form_target(X, y, size_log_weights, delta: float) -> np.ndarray:
    """Exact masses of the models (), (1,), (2,), (1, 2) under the Gibbs
    pseudo-posterior on d=2 covariates with one dictionary function each
    (M=1), the features being X's two columns as they are.

    A model of size k has prior mass exp(w_k) / C(2, k), spread uniformly
    over its ball, and its posterior mass is that times the ball average of
    exp(-delta * L_n(theta)).  With M=1 the scores are theta @ X.T, so L_n
    depends only on theta's direction:
    - the empty model scores every row 0, every opposite-label pair ties,
      and its mass is exp(w_0 - delta * L_n(0)), L_n(0) = n_pos n_neg / (n (n - 1));
    - model (j,) has exp(w_1) / 2 times the mean of exp(-delta L_n) over
      the scores +X[:, j] and -X[:, j];
    - model (1, 2) has exp(w_2) times the average of exp(-delta L_n) over
      the angle of theta.  L_n is constant between the angles at which
      some positive and some negative score the same, so the average is
      exact: each arc between consecutive such angles is weighted by its
      length and scored at its midpoint.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    w = np.asarray(size_log_weights, dtype=float)
    if X.shape != (y.size, 2) or w.shape != (3,):
        raise ValueError("closed_form_target covers d=2, M=1: X of shape (n, 2), 3 size weights")
    empty = w[0] - delta * pair_risk(np.zeros(y.size), y)
    signed = [np.outer([1.0, -1.0], x) for x in X.T]  # the scores +x_j and -x_j
    singles = [w[1] + math.log(0.5 * np.mean(np.exp(-delta * pair_risk(s, y)))) for s in signed]
    pair_gaps = (X[y > 0][:, None] - X[y <= 0][None]).reshape(-1, 2)
    normal = np.arctan2(pair_gaps[:, 1], pair_gaps[:, 0])
    cuts = np.unique(np.mod(np.concatenate([normal + 0.5 * math.pi, normal - 0.5 * math.pi]),
                            2.0 * math.pi))
    arcs = np.diff(np.append(cuts, cuts[0] + 2.0 * math.pi))
    mid = cuts + 0.5 * arcs
    directions = np.stack([np.cos(mid), np.sin(mid)], axis=1)
    arc_mean = arcs @ np.exp(-delta * pair_risk(directions @ X.T, y)) / (2.0 * math.pi)
    log_mass = np.array([empty, *singles, w[2] + math.log(arc_mean)])
    mass = np.exp(log_mass - log_mass.max())
    return mass / mass.sum()

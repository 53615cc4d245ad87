"""Pairwise ranking risk and AUC.

The empirical ranking risk of a score vector s over labels y in {-1, +1} is

    L_n(s) = 1/(n(n-1)) * sum_{i != j} 1{(y_i - y_j)(s_i - s_j) < 0},

i.e. twice the number of strictly discordant positive/negative pairs over
the number of ordered pairs.  The kernel sorts once and counts in O(n log n);
the O(n^2) double loop lives in the test suite as an oracle.

Everything the kernel derives from the labels alone (the positives as 0/1
integer weights, the rank vector 0..n-1 and the class counts) lives in a
PreparedLabels value.  The kernels accept it wherever they accept labels, and
convert raw labels to one at entry; a chain builds it once, since its labels
never change across the many score vectors it ranks.

Tie-free scores (in practice every scorer with an active covariate) take a
rank-sum path: the sorted positions of the positives, ranks @ weights[order],
add up to the number of instances below each positive, and subtracting the
n_pos(n_pos-1)/2 positive/positive pairs leaves the negatives ranked below a
positive.  With ties, runs of equal sorted scores form groups whose positive
counts come from one reduction over the sorted labels, and pairs are counted
group by group.  NaN scores have no rank and are rejected.
"""

from __future__ import annotations

import logging
import math

import numpy as np

logger = logging.getLogger(__name__)


class DegenerateDataError(ValueError):
    """Raised when a quantity is undefined (single-class labels, n < 2)."""


class PreparedLabels:
    """The label-derived arrays of the risk kernels, built once for labels
    that many score vectors are ranked against.

    weights holds 1 at the positives (label > 0) and 0 elsewhere, as intp;
    ranks is arange(n) as intp.  Both are read-only.
    """

    __slots__ = ("weights", "ranks", "n_pos", "n_neg")

    def __init__(self, labels):
        labels = np.asarray(labels)
        if labels.ndim != 1:
            raise ValueError("scores and labels must be 1-d arrays of equal length")
        weights = (labels > 0).astype(np.intp)
        ranks = np.arange(labels.size, dtype=np.intp)
        weights.setflags(write=False)
        ranks.setflags(write=False)
        self.weights = weights
        self.ranks = ranks
        self.n_pos = int(np.count_nonzero(weights))
        self.n_neg = labels.size - self.n_pos


def _pair_counts(scores, labels):
    """Exact pair counts between positive and negative instances.

    labels are raw labels or a PreparedLabels.  Returns (pos_below_neg,
    neg_below_pos, tied, n_pos, n_neg) where pos_below_neg counts pairs with
    the positive scored strictly below the negative, neg_below_pos the
    reverse, and tied the opposite-label pairs with equal scores.  A NaN
    score raises ValueError; +-inf are ordinary scores.
    """
    if not isinstance(labels, PreparedLabels):
        labels = PreparedLabels(labels)
    scores = np.asarray(scores, dtype=float)
    n, n_pos, n_neg = labels.ranks.size, labels.n_pos, labels.n_neg
    if scores.shape != (n,):
        raise ValueError("scores and labels must be 1-d arrays of equal length")
    order = scores.argsort()
    s = scores[order]
    if n and math.isnan(s[-1]):  # argsort puts NaNs last
        first = int(np.flatnonzero(np.isnan(scores))[0])
        raise ValueError(f"NaN score at index {first}")
    p = labels.weights[order]
    tied_next = s[1:] == s[:-1]
    if not np.count_nonzero(tied_next):
        neg_below_pos = int(labels.ranks @ p) - n_pos * (n_pos - 1) // 2
        return n_pos * n_neg - neg_below_pos, neg_below_pos, 0, n_pos, n_neg
    starts = np.flatnonzero(np.concatenate(([True], ~tied_next)))
    pos_g = np.add.reduceat(p, starts)
    neg_g = np.diff(np.append(starts, n)) - pos_g
    below_pos = np.cumsum(pos_g) - pos_g  # positives strictly below each group
    below_neg = np.cumsum(neg_g) - neg_g
    pos_below_neg = int(np.sum(neg_g * below_pos))
    neg_below_pos = int(np.sum(pos_g * below_neg))
    tied = int(np.sum(pos_g * neg_g))
    return pos_below_neg, neg_below_pos, tied, n_pos, n_neg


def empirical_rank_risk(scores, labels, tie_value: float = 0.0) -> float:
    """Empirical pairwise ranking risk with strict discordance by default.

    tie_value sets the cost of an opposite-label tie (0 reproduces the
    strict indicator; 0.5 gives half credit, the variant used inside the
    sampler where the all-zero scorer must not look perfect).
    """
    n = len(scores)
    if n < 2:
        raise DegenerateDataError("ranking risk needs at least two instances")
    pos_below_neg, _, tied, n_pos, n_neg = _pair_counts(scores, labels)
    if n_pos == 0 or n_neg == 0:
        logger.warning("single-class labels: ranking risk reported as 0")
        return 0.0
    return 2.0 * (pos_below_neg + tie_value * tied) / (n * (n - 1))


def auc(scores, labels, tie_policy: str = "half") -> float:
    """AUC: fraction of (negative, positive) pairs ranked in the right order.

    tie_policy "strict" counts ties as misordered (weight 0); "half" gives
    them half credit.
    """
    if tie_policy not in ("strict", "half"):
        raise ValueError(f"unknown tie policy {tie_policy!r}")
    _, neg_below_pos, tied, n_pos, n_neg = _pair_counts(scores, labels)
    if n_pos == 0 or n_neg == 0:
        raise DegenerateDataError("AUC undefined: labels contain a single class")
    credit = neg_below_pos + (0.5 * tied if tie_policy == "half" else 0.0)
    return credit / (n_pos * n_neg)

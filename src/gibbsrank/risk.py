"""Pairwise ranking risk and AUC.

The empirical ranking risk of a score vector s over labels y in {-1, +1} is
the U-statistic

    L_n(s) = 1/(n(n-1)) * sum_{i != j} 1{(y_i - y_j)(s_i - s_j) < 0},

twice the discordant positive/negative pairs over the ordered pairs, with
each opposite-label tie counted as half a discordance.  The kernel sorts
once and counts in O(n log n); the O(n^2) double loop lives in the test
suite as an oracle.

Everything the kernel derives from the labels alone (the positives as 0/1
weights, the rank vector 0..n-1 and the class counts) lives in a
PreparedLabels value, which refuses labels without both classes.  The
kernels accept it wherever they accept labels, and convert raw labels to one
at entry; a chain builds it once, since its labels never change across the
many score vectors it ranks.

One count drives the risk and both AUCs: u, the Mann-Whitney count of
positive/negative pairs with the positive scored above, each tie counting
1/2.  It is the positives' rank sum in ascending score order less the
n_pos(n_pos-1)/2 positive/positive pairs, where a run of equal scores takes
its midrank.  Tie-free scores (in practice every scorer with an active
covariate) are ranked 0..n-1 and summed with one dot,
ranks @ weights[order]; with ties the sorted weights are summed per run,
and only the strict AUC reads the second count, tied, the opposite-label
pairs inside a run.  Both are float64, which is exact: every term is an
integer or half-integer below n^2, far below 2^53.  NaN scores have no rank
and are rejected.
"""

from __future__ import annotations

import math

import numpy as np


class DegenerateDataError(ValueError):
    """Raised for labels without both classes, on which no ranking is defined."""


class PreparedLabels:
    """The label-derived arrays of the risk kernels, built once for labels
    that many score vectors are ranked against.

    weights holds 1.0 at the positives (label > 0) and 0.0 elsewhere, and
    ranks is arange(n), both float64 and read-only: the tie-free rank-sum
    dot and the per-run positive counts both read weights.  A NaN label,
    which belongs to neither class, raises ValueError naming its index, and
    labels without both classes, n < 2 included, raise DegenerateDataError.
    """

    __slots__ = ("weights", "ranks", "n_pos", "n_neg")

    def __init__(self, labels):
        labels = np.asarray(labels)
        if labels.ndim != 1:
            raise ValueError("scores and labels must be 1-d arrays of equal length")
        nan = np.flatnonzero(np.isnan(labels))
        if nan.size:
            raise ValueError(f"NaN label at index {nan[0]}")
        weights = (labels > 0).astype(float)
        ranks = np.arange(labels.size, dtype=float)
        for array in (weights, ranks):
            array.setflags(write=False)
        self.weights = weights
        self.ranks = ranks
        self.n_pos = int(np.count_nonzero(weights))
        self.n_neg = labels.size - self.n_pos
        if not (self.n_pos and self.n_neg):
            raise DegenerateDataError(f"labels contain a single class: {self.n_pos} positive, "
                                      f"{self.n_neg} negative")


def _pair_counts(scores, labels):
    """(u, tied, n_pos, n_neg): the half-tie Mann-Whitney count of
    positive/negative pairs with the positive scored above, and the
    opposite-label pairs with equal scores.

    labels are raw labels or a PreparedLabels.  A NaN score raises
    ValueError; +-inf are ordinary scores, and -0.0 ties +0.0.
    """
    if not isinstance(labels, PreparedLabels):
        labels = PreparedLabels(labels)
    scores = np.asarray(scores, dtype=float)
    n, n_pos, n_neg = labels.ranks.size, labels.n_pos, labels.n_neg
    if scores.shape != (n,):
        raise ValueError("scores and labels must be 1-d arrays of equal length")
    order = scores.argsort()
    s = scores[order]
    if math.isnan(s[-1]):  # argsort puts NaNs last
        first = int(np.flatnonzero(np.isnan(scores))[0])
        raise ValueError(f"NaN score at index {first}")
    tied_next = s[1:] == s[:-1]
    p = labels.weights[order]
    if not np.count_nonzero(tied_next):
        rank_sum, tied = labels.ranks @ p, 0.0
    else:
        starts = np.flatnonzero(np.concatenate(([True], ~tied_next)))
        sizes = np.diff(np.append(starts, n))
        pos_run = np.add.reduceat(p, starts)
        rank_sum = pos_run @ (starts + (sizes - 1) / 2)  # each run at its midrank
        tied = pos_run @ (sizes - pos_run)
    return float(rank_sum) - n_pos * (n_pos - 1) / 2, float(tied), n_pos, n_neg


def empirical_rank_risk(scores, labels) -> float:
    """Empirical pairwise ranking risk L_n, each opposite-label tie costing 1/2.

    The half cost gives the all-zero scorer of the empty model, whose pairs
    all tie, the chance-level risk n_pos n_neg / (n(n-1)) instead of a
    spuriously perfect 0.  For tie-free scores the value is the strict L_n.
    """
    u, _, n_pos, n_neg = _pair_counts(scores, labels)
    n = n_pos + n_neg
    return 2.0 * (n_pos * n_neg - u) / (n * (n - 1))


def auc(scores, labels, tie_policy: str = "half") -> float:
    """AUC: fraction of (negative, positive) pairs ranked in the right order.

    tie_policy "strict" counts ties as misordered (weight 0); "half" gives
    them half credit.
    """
    if tie_policy not in ("strict", "half"):
        raise ValueError(f"unknown tie policy {tie_policy!r}")
    u, tied, n_pos, n_neg = _pair_counts(scores, labels)
    return (u if tie_policy == "half" else u - tied / 2) / (n_pos * n_neg)

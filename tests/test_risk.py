"""Ranking risk and AUC against brute-force pair enumeration."""

import numpy as np
import pytest

from gibbsrank.risk import (
    DegenerateDataError,
    PreparedLabels,
    auc,
    empirical_rank_risk,
)


def brute_risk(scores, labels, tie_value=0.0):
    """O(n^2) oracle: average discordance over all ordered pairs."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n = len(scores)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            prod = (labels[i] - labels[j]) * (scores[i] - scores[j])
            if prod < 0:
                total += 1.0
            elif prod == 0 and labels[i] != labels[j]:
                total += tie_value
    return total / (n * (n - 1))


def brute_auc(scores, labels, tie_policy="half"):
    """O(n^2) oracle over all (positive, negative) pairs."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = np.flatnonzero(labels > 0)
    neg = np.flatnonzero(labels <= 0)
    credit = 0.0
    for i in pos:
        for j in neg:
            if scores[i] > scores[j]:
                credit += 1.0
            elif scores[i] == scores[j] and tie_policy == "half":
                credit += 0.5
    return credit / (len(pos) * len(neg))


def random_instance(rng):
    n = int(rng.integers(2, 51))
    # coarse integer scores inject plenty of exact ties
    scores = rng.integers(0, 6, size=n).astype(float)
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    if np.all(labels > 0) or np.all(labels <= 0):
        labels[0] = -labels[0]
    return scores, labels


def tie_free_instances(rng):
    """Continuous scores, which reach the kernel's tie-free path, from n=2 to ~200."""
    for n in [2, 2, 3, *rng.integers(4, 201, size=40)]:
        scores = rng.standard_normal(int(n))
        labels = np.where(rng.random(int(n)) < 0.5, 1.0, -1.0)
        labels[0], labels[-1] = 1.0, -1.0
        yield scores, labels


def test_risk_concordant_pair():
    assert empirical_rank_risk([1.0, 2.0], [-1.0, 1.0]) == 0.0


def test_risk_discordant_pair():
    assert empirical_rank_risk([2.0, 1.0], [-1.0, 1.0]) == 1.0


def test_risk_matches_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(200):
        scores, labels = random_instance(rng)
        for tie_value in (0.0, 0.5):
            assert empirical_rank_risk(scores, labels, tie_value) == pytest.approx(
                brute_risk(scores, labels, tie_value), abs=1e-15
            )


def test_risk_matches_brute_force_without_ties():
    rng = np.random.default_rng(43)
    for scores, labels in tie_free_instances(rng):
        assert np.unique(scores).size == scores.size
        for tie_value in (0.0, 0.5):
            assert empirical_rank_risk(scores, labels, tie_value) == pytest.approx(
                brute_risk(scores, labels, tie_value), abs=1e-15
            )


def test_all_tied_scores():
    labels = np.array([1.0, -1.0, -1.0, 1.0, 1.0])
    scores = np.full(5, 0.25)
    for tie_value in (0.0, 0.5):
        assert empirical_rank_risk(scores, labels, tie_value) == pytest.approx(
            brute_risk(scores, labels, tie_value), abs=1e-15
        )
    for policy in ("strict", "half"):
        assert auc(scores, labels, policy) == brute_auc(scores, labels, policy)


def test_nan_score_raises_with_its_index():
    for call in (auc, empirical_rank_risk):
        with pytest.raises(ValueError, match="NaN score at index 1"):
            call([0.1, np.nan, 0.3, np.nan], [1.0, -1.0, -1.0, 1.0])


def test_infinite_scores_are_ranked():
    scores = [-np.inf, 0.0, np.inf, np.inf]
    labels = [-1.0, 1.0, -1.0, 1.0]
    for policy in ("strict", "half"):
        assert auc(scores, labels, policy) == brute_auc(scores, labels, policy)


def test_risk_needs_two_instances():
    with pytest.raises(DegenerateDataError):
        empirical_rank_risk([1.0], [1.0])


def test_risk_single_class_is_zero():
    assert empirical_rank_risk([3.0, 1.0, 2.0], [1.0, 1.0, 1.0]) == 0.0


def test_auc_perfect_separation():
    scores = np.array([-1.0, 1.0, -1.0, 1.0])
    labels = scores.copy()
    assert auc(scores, labels, "strict") == 1.0
    assert auc(scores, labels, "half") == 1.0


def test_auc_constant_scores():
    labels = np.array([1.0, -1.0, 1.0, -1.0])
    scores = np.zeros(4)
    assert auc(scores, labels, "strict") == 0.0
    assert auc(scores, labels, "half") == 0.5


def test_auc_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(200):
        scores, labels = random_instance(rng)
        for policy in ("strict", "half"):
            assert auc(scores, labels, policy) == pytest.approx(
                brute_auc(scores, labels, policy), abs=1e-15
            )


def test_auc_matches_brute_force_without_ties():
    rng = np.random.default_rng(8)
    for scores, labels in tie_free_instances(rng):
        for policy in ("strict", "half"):
            assert auc(scores, labels, policy) == pytest.approx(
                brute_auc(scores, labels, policy), abs=1e-15
            )


def test_auc_rejects_unknown_policy():
    with pytest.raises(ValueError):
        auc([1.0, 2.0], [-1.0, 1.0], "lenient")


def test_auc_single_class_raises():
    with pytest.raises(DegenerateDataError):
        auc([1.0, 2.0], [1.0, 1.0])


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        empirical_rank_risk([1.0, 2.0, 3.0], [1.0, -1.0])


def test_prepared_labels_match_brute_force_across_score_vectors():
    # one prepared value ranks every score vector, as within a chain
    rng = np.random.default_rng(44)
    labels = np.where(rng.random(40) < 0.4, 1.0, -1.0)
    labels[:2] = 1.0, -1.0
    prepared = PreparedLabels(labels)
    weights, ranks = prepared.weights.copy(), prepared.ranks.copy()
    vectors = [rng.standard_normal(40) for _ in range(60)]
    vectors += [rng.integers(0, 4, size=40).astype(float) for _ in range(60)]
    vectors += [np.full(40, 0.25), np.full(40, -np.inf),
                np.where(rng.random(40) < 0.5, np.inf, -np.inf),
                np.concatenate([[np.inf, -np.inf], rng.standard_normal(38)])]
    assert any(np.unique(v).size == v.size for v in vectors)
    assert any(np.unique(v).size < v.size for v in vectors)
    for scores in vectors:
        for tie_value in (0.0, 0.5):
            got = empirical_rank_risk(scores, prepared, tie_value)
            assert got == empirical_rank_risk(scores, labels, tie_value)
            if np.all(np.isfinite(scores)):
                assert got == pytest.approx(brute_risk(scores, labels, tie_value), abs=1e-15)
            else:  # brute_risk subtracts scores, and inf - inf is NaN: compare them instead
                pos, neg = scores[labels > 0][:, None], scores[labels <= 0][None, :]
                pairs = np.sum(pos < neg) + tie_value * np.sum(pos == neg)
                assert got == pytest.approx(2.0 * pairs / (40 * 39), abs=1e-15)
        for policy in ("strict", "half"):
            got = auc(scores, prepared, policy)
            assert got == auc(scores, labels, policy)
            assert got == pytest.approx(brute_auc(scores, labels, policy), abs=1e-15)
    assert np.array_equal(prepared.weights, weights) and np.array_equal(prepared.ranks, ranks)
    assert (prepared.n_pos, prepared.n_neg) == (int(np.sum(labels > 0)), int(np.sum(labels <= 0)))


def test_prepared_labels_keep_every_check():
    labels = [1.0, -1.0, -1.0, 1.0]
    prepared = PreparedLabels(labels)
    for call in (auc, empirical_rank_risk):
        with pytest.raises(ValueError, match="NaN score at index 1"):
            call([0.1, np.nan, 0.3, np.nan], prepared)
        for scores in ([1.0, 2.0, 3.0], [[1.0, 2.0], [3.0, 4.0]]):
            with pytest.raises(ValueError) as raw:
                call(scores, labels)
            with pytest.raises(ValueError) as ready:
                call(scores, prepared)
            assert str(ready.value) == str(raw.value)
    with pytest.raises(ValueError, match="1-d arrays of equal length"):
        PreparedLabels([[1.0, -1.0], [1.0, -1.0]])
    one_class = [1.0, 1.0, 1.0]
    assert empirical_rank_risk([3.0, 1.0, 2.0], PreparedLabels(one_class)) == 0.0
    with pytest.raises(DegenerateDataError):
        auc([3.0, 1.0, 2.0], PreparedLabels(one_class))
    with pytest.raises(DegenerateDataError):
        empirical_rank_risk([1.0], PreparedLabels([1.0]))
    assert not prepared.weights.flags.writeable and not prepared.ranks.flags.writeable

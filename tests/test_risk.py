"""Ranking risk and AUC against brute-force pair enumeration."""

import numpy as np
import pytest

from gibbsrank.risk import (
    DegenerateDataError,
    PreparedLabels,
    _pair_counts,
    auc,
    empirical_rank_risk,
)
from oracles import brute_pair_counts, pair_auc, pair_risk, random_instance


def tie_free_instances(rng):
    """Continuous scores, which reach the kernel's tie-free path, from n=2 to ~200."""
    for n in [2, 2, 3, *rng.integers(4, 201, size=40)]:
        scores = rng.standard_normal(int(n))
        labels = np.where(rng.random(int(n)) < 0.5, 1.0, -1.0)
        labels[0], labels[-1] = 1.0, -1.0
        yield scores, labels


def test_risk_matches_brute_force_without_ties():
    rng = np.random.default_rng(43)
    for scores, labels in tie_free_instances(rng):
        assert np.unique(scores).size == scores.size
        # no opposite-label pair ties, so the half-cost risk is the strict L_n
        assert brute_pair_counts(scores, labels)[1] == 0
        assert empirical_rank_risk(scores, labels) == pytest.approx(
            pair_risk(scores, labels), abs=1e-15
        )


def test_all_tied_scores():
    labels = np.array([1.0, -1.0, -1.0, 1.0, 1.0])
    scores = np.full(5, 0.25)
    assert empirical_rank_risk(scores, labels) == pytest.approx(
        pair_risk(scores, labels), abs=1e-15
    )
    for policy in ("strict", "half"):
        assert auc(scores, labels, policy) == pair_auc(scores, labels, policy)


TIE_HEAVY = [
    ([0.0, 1.0, 1.0, 1.0, 2.0, 2.0], [1, -1, 1, -1, -1, 1]),  # runs of equal scores
    ([3.0] * 5, [1, -1, -1, 1, 1]),  # all tied: the empty model's scorer
    ([-np.inf, np.inf, -np.inf, np.inf, 0.0], [1, -1, -1, 1, 1]),  # tied infinities
    ([-0.0, 0.0], [1, -1]),  # -0.0 equals +0.0: a tie, whichever sign the positive has
    ([0.0, -0.0, 1.0], [1, -1, -1]),
]


@pytest.mark.parametrize("scores, labels", TIE_HEAVY)
def test_pair_counts_match_brute_force_on_ties(scores, labels):
    u, tied, n_pos, n_neg = _pair_counts(scores, labels)
    assert (u, tied) == brute_pair_counts(scores, labels)
    assert (n_pos, n_neg) == (sum(y > 0 for y in labels), sum(y <= 0 for y in labels))


def test_pair_counts_match_brute_force_on_random_ties():
    rng = np.random.default_rng(11)
    values = np.array([-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf])
    for _ in range(200):
        scores, labels = random_instance(rng)
        if rng.random() < 0.5:
            scores = values[scores.astype(int)]
        assert _pair_counts(scores, labels)[:2] == brute_pair_counts(scores, labels)


def test_nan_score_raises_with_its_index():
    for call in (auc, empirical_rank_risk):
        with pytest.raises(ValueError, match="NaN score at index 1"):
            call([0.1, np.nan, 0.3, np.nan], [1.0, -1.0, -1.0, 1.0])


def test_nan_label_raises_with_its_index():
    """A NaN label is in neither class: it used to be counted as a negative,
    so auc([.1, .2, .3, .4], [1, nan, -1, 1]) read 0.5."""
    for call in (auc, empirical_rank_risk):
        with pytest.raises(ValueError, match="^NaN label at index 1$"):
            call([0.1, 0.2, 0.3, 0.4], [1.0, np.nan, -1.0, np.nan])
    # refused before the class count, which would call [1, nan] two classes
    with pytest.raises(ValueError, match="^NaN label at index 1$"):
        PreparedLabels([1.0, np.nan])


def test_infinite_scores_are_ranked():
    scores = [-np.inf, 0.0, np.inf, np.inf]
    labels = [-1.0, 1.0, -1.0, 1.0]
    for policy in ("strict", "half"):
        assert auc(scores, labels, policy) == pair_auc(scores, labels, policy)
    # the two +inf scores, one per class, are a tie, not a NaN pair
    assert empirical_rank_risk(scores, labels) == pair_risk(scores, labels)
    assert pair_risk(scores, labels) == (2 * 1 + 2 * 0.5) / 12


def test_risk_single_class_raises():
    for labels in ([1.0, 1.0, 1.0], [-1.0, 0.0, -2.0]):
        with pytest.raises(DegenerateDataError, match="labels contain a single class"):
            empirical_rank_risk([3.0, 1.0, 2.0], labels)


def test_auc_matches_brute_force_without_ties():
    rng = np.random.default_rng(8)
    for scores, labels in tie_free_instances(rng):
        for policy in ("strict", "half"):
            assert auc(scores, labels, policy) == pytest.approx(
                pair_auc(scores, labels, policy), abs=1e-15
            )


def test_auc_rejects_unknown_policy():
    with pytest.raises(ValueError):
        auc([1.0, 2.0], [-1.0, 1.0], "lenient")


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
        got = empirical_rank_risk(scores, prepared)
        assert got == empirical_rank_risk(scores, labels)
        assert got == pytest.approx(pair_risk(scores, labels), abs=1e-15)
        for policy in ("strict", "half"):
            got = auc(scores, prepared, policy)
            assert got == auc(scores, labels, policy)
            assert got == pytest.approx(pair_auc(scores, labels, policy), abs=1e-15)
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
    for one_class in ([], [1.0], [-1.0], [1.0, 1.0, 1.0], [0.0, -1.0]):
        with pytest.raises(DegenerateDataError, match="labels contain a single class"):
            PreparedLabels(one_class)
    # the class check comes first, before the NaN and shape checks
    for call in (auc, empirical_rank_risk):
        for scores in ([np.nan, 1.0, 2.0], [1.0, 2.0]):
            with pytest.raises(DegenerateDataError):
                call(scores, [1.0, 1.0, 1.0])
    assert not prepared.weights.flags.writeable and not prepared.ranks.flags.writeable

"""Dictionary evaluation and sparse additive scoring."""

import logging
import tracemalloc

import numpy as np
import pytest

from gibbsrank.basis import (
    DICTIONARY_SIZE,
    N_HARMONICS,
    N_LEGENDRE,
    FeatureMatrix,
    SparseCoef,
    build_features,
    eval_basis,
    eval_dictionary,
    rescale,
    score,
    score_dense,
)
from oracles import active, padded


def test_default_dictionary_size():
    assert (N_LEGENDRE, N_HARMONICS, DICTIONARY_SIZE) == (7, 3, 13)


def test_rescale_midpoint_and_boundaries():
    assert rescale(0.5) == 0.0
    assert rescale(0.0) == -1.0
    assert rescale(1.0) == 1.0


def test_rescale_clamps_out_of_range():
    out = rescale(np.array([-0.1, 1.2]))
    assert np.array_equal(out, [-1.0, 1.0])


def test_rescale_warns_on_every_clamping_call(caplog):
    with caplog.at_level(logging.WARNING, logger="gibbsrank.basis"):
        rescale(np.array([0.2, 0.7]))
        assert caplog.records == []
        rescale(np.array([-0.1, 0.5, 1.2]))
        rescale(np.array([1.5]))
    assert [r.getMessage() for r in caplog.records] == [
        "2 input value(s) outside [0, 1]; clamping",
        "1 input value(s) outside [0, 1]; clamping",
    ]


def test_first_two_legendre_functions():
    assert eval_basis(1, 0.3) == 1.0
    assert eval_basis(2, 0.3) == pytest.approx(0.3, abs=1e-15)


def test_quadratic_legendre_matches_closed_form():
    t = np.linspace(-1.0, 1.0, 101)
    assert np.allclose(eval_basis(3, t), (3.0 * t**2 - 1.0) / 2.0, atol=1e-14)


def test_harmonics_at_known_angles():
    # indices 8..10 are sin(k pi t), 11..13 are cos(k pi t)
    assert eval_basis(8, 0.5) == pytest.approx(1.0, abs=1e-15)
    assert eval_basis(11, 1.0) == pytest.approx(-1.0, abs=1e-15)
    assert eval_basis(12, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_basis_index_out_of_range():
    with pytest.raises(ValueError):
        eval_basis(0, 0.0)
    with pytest.raises(ValueError):
        eval_basis(14, 0.0)


def test_feature_row_at_center():
    fm = build_features(np.array([[0.5]]))
    # t = 0: even Legendre degrees alternate, odd degrees and sines vanish
    expected = [1.0, 0.0, -0.5, 0.0, 3.0 / 8.0, 0.0, -5.0 / 16.0,
                0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    assert np.allclose(fm.blocks[0, :, 0], expected, atol=1e-14)


def test_identical_rows_give_identical_features():
    X = np.array([[0.3, 0.8], [0.3, 0.8]])
    fm = build_features(X)
    assert np.array_equal(fm.blocks[:, :, 0], fm.blocks[:, :, 1])


def test_dictionary_values_bounded():
    rng = np.random.default_rng(0)
    fm = build_features(rng.random((5, 3)))
    assert np.all(np.abs(fm.blocks) <= 1.0 + 1e-12)


def test_build_features_rejects_non_finite():
    X = np.array([[0.1, 0.2], [np.nan, 0.3]])
    with pytest.raises(ValueError, match="row 1, column 0"):
        build_features(X)


def test_build_features_rejects_bad_shape():
    with pytest.raises(ValueError):
        build_features(np.zeros(4))
    with pytest.raises(ValueError, match="shape"):
        FeatureMatrix(blocks=np.zeros((4, 2)))


def concatenated_dictionary(t):
    """The dictionary as a Legendre table concatenated with sin and cos arrays."""
    legendre = np.empty(t.shape + (N_LEGENDRE,))
    legendre[..., 0] = 1.0
    legendre[..., 1] = t
    for deg in range(2, N_LEGENDRE):
        legendre[..., deg] = (
            (2 * deg - 1) * t * legendre[..., deg - 1] - (deg - 1) * legendre[..., deg - 2]
        ) / deg
    angles = np.pi * t[..., None] * np.arange(1, N_HARMONICS + 1)
    return np.concatenate([legendre, np.sin(angles), np.cos(angles)], axis=-1)


@pytest.mark.parametrize("d", [1, 3, 100])
def test_build_features_is_covariate_major_and_exact(d):
    rng = np.random.default_rng(d)
    X = rng.random((57, d))
    fm = build_features(X)
    assert fm.blocks.shape == (d, 13, 57) and fm.blocks.flags.c_contiguous
    assert (fm.d, fm.M, fm.n) == (d, 13, 57)
    reference = eval_dictionary(rescale(X))  # (n, d, M)
    assert np.array_equal(reference, concatenated_dictionary(rescale(X)))
    assert np.array_equal(fm.blocks, reference.transpose(1, 2, 0))


@pytest.mark.parametrize("cols", [[], [4], [0, 3, 4, 9, 17, 18]])
def test_build_features_on_listed_columns_is_the_full_build_sliced(cols):
    X = np.random.default_rng(11).random((57, 19))
    X[::5, 3] = 1.3  # clamped values in a listed column
    fm = build_features(X, cols)
    assert fm.blocks.shape == (len(cols), 13, 57) and fm.blocks.flags.c_contiguous
    assert fm.blocks.tobytes() == build_features(X).blocks[cols].tobytes()


def test_build_features_checks_and_counts_all_of_x(caplog):
    X = np.random.default_rng(12).random((6, 5))
    X[0, 1], X[2, 1], X[4, 4] = -0.5, 1.5, 2.0  # three outside [0, 1], one in a listed column
    with caplog.at_level(logging.WARNING, logger="gibbsrank.basis"):
        build_features(X, [2, 4])
    assert [r.getMessage() for r in caplog.records] == [
        "3 input value(s) outside [0, 1]; clamping"]
    X[3, 1] = np.inf  # outside the listed columns
    for cols in ([2, 4], []):
        with pytest.raises(ValueError, match="non-finite feature at row 3, column 1"):
            build_features(X, cols)


@pytest.mark.parametrize("cols", [[2, 1], [1, 1], [-1, 2], [5], [[0, 1]]])
def test_build_features_refuses_columns_not_ascending_in_x(cols):
    with pytest.raises(ValueError, match="ascending columns"):
        build_features(np.zeros((3, 5)), cols)


def test_build_features_peaks_near_the_size_of_its_features():
    # each dictionary function fills its slab of the (d, M, n) array in place;
    # building (d, n, M) and transposing would peak at twice the features
    X = np.random.default_rng(7).random((2000, 100))
    tracemalloc.start()
    try:
        fm = build_features(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.35 * fm.blocks.nbytes


def test_score_empty_mask_is_zero():
    fm = build_features(np.random.default_rng(1).random((6, 3)))
    coef = SparseCoef(active(3, []), values=np.zeros(0))
    assert np.array_equal(score(coef, fm), np.zeros(6))


def test_score_constant_function():
    fm = build_features(np.random.default_rng(2).random((6, 3)))
    values = np.zeros(13)
    values[0] = 1.0  # weight 1 on the constant dictionary function
    coef = SparseCoef(active(3, [1]), values=values)
    assert np.allclose(score(coef, fm), 1.0, atol=1e-14)


def naive_score(theta_full, X):
    """Double-loop oracle for the additive scoring function."""
    n, d = X.shape
    M = DICTIONARY_SIZE
    out = np.zeros(n)
    for i in range(n):
        for j in range(d):
            t = 2.0 * X[i, j] - 1.0
            for k in range(M):
                out[i] += theta_full[j * M + k] * eval_basis(k + 1, t)
    return out


def test_score_matches_naive_evaluation():
    rng = np.random.default_rng(3)
    X = rng.random((7, 4))
    fm = build_features(X)
    values = rng.standard_normal(2 * 13)
    coef = SparseCoef(active(4, [0, 2]), values=values)
    expected = naive_score(padded(coef, 4, 13), X)
    assert np.allclose(score(coef, fm), expected, atol=1e-10)
    assert np.allclose(score_dense(padded(coef, 4, 13), fm), expected, atol=1e-10)


def row_major_features(X):
    """The (n, d * M) feature matrix, columns grouped by covariate."""
    return eval_dictionary(rescale(X)).reshape(X.shape[0], -1)


def test_score_matches_column_gather():
    """Scores are bit for bit the sum of theta_j @ blocks[j] over the active
    covariates, with each (M, n) block taken from the (n, d * M) columns, and
    agree with one product on the gathered columns."""
    rng = np.random.default_rng(5)
    cases = [(6, [2, 3]), (6, [0, 4]), (6, [1, 2, 5]), (6, range(6)), (1, [0])]
    cases += [(9, rng.choice(9, size=k, replace=False)) for k in range(1, 10)]
    cases += [(100, [2, 4]), (100, [0, 57, 99]), (100, rng.choice(100, size=30, replace=False))]
    for d, listed in cases:
        X = rng.random((40, d))
        fm = build_features(X)
        values = row_major_features(X)
        model = active(d, listed)
        coef = SparseCoef(model, values=rng.standard_normal(model.size * 13))
        per_block = np.zeros(40)
        for slot, j in enumerate(model):
            block = np.ascontiguousarray(values[:, j * 13 : (j + 1) * 13].T)
            per_block += coef.values[slot * 13 : (slot + 1) * 13] @ block
        assert np.array_equal(score(coef, fm), per_block)
        columns = (model[:, None] * 13 + np.arange(13)).ravel()
        expected = values[:, columns] @ coef.values
        assert np.allclose(score(coef, fm), expected, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("d", [1, 3, 100])
def test_score_dense_matches_row_major_product(d):
    rng = np.random.default_rng(10 + d)
    X = rng.random((50, d))
    theta = rng.standard_normal(d * 13)
    theta[: 13 * (d // 2)] = 0.0  # the averaged estimator is zero off its support
    expected = row_major_features(X) @ theta
    assert np.allclose(score_dense(theta, build_features(X)), expected, rtol=0.0, atol=1e-12)


def test_sparse_coef_length_check():
    coef = SparseCoef(active(3, [0]), values=np.zeros(5))
    with pytest.raises(ValueError):
        coef.check(13, 3)


def test_sparse_coef_padding_layout():
    values = np.arange(4, dtype=float)
    coef = SparseCoef(active(3, [0, 2]), values=values)
    full = padded(coef, 3, 2)
    assert np.array_equal(full, [0.0, 1.0, 0.0, 0.0, 2.0, 3.0])


def test_score_dimension_mismatch():
    fm = build_features(np.random.default_rng(4).random((3, 2)))
    # a model over 3 covariates naming the third, scored on 2
    coef = SparseCoef(active(3, [2]), values=np.zeros(13))
    with pytest.raises(ValueError):
        score(coef, fm)
    with pytest.raises(ValueError):
        score_dense(np.zeros(5), fm)


@pytest.mark.parametrize("index", [-1, 7])
def test_score_refuses_an_active_index_outside_the_features(index):
    """At d=5, index -1 would wrap to covariate 4 and index 7 would be a bare
    IndexError; both are a ValueError naming the index and d."""
    fm = build_features(np.random.default_rng(4).random((6, 5)))
    model = np.array([index], dtype=np.intp)
    coef = SparseCoef(model, values=np.ones(13))
    with pytest.raises(ValueError, match=f"active index {index} outside 0..4 for d=5"):
        score(coef, fm)

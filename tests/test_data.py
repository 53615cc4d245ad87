"""Synthetic generator, CSV round-trips, splits, and seed derivation."""

import re

import numpy as np
import pytest

from gibbsrank.data import (
    DataError,
    Dataset,
    derive_seed,
    eta_function,
    gen_synthetic,
    load_csv,
    make_splits,
    minmax_normalize,
    save_csv,
)


def test_eta_minimum_is_clamped():
    X = np.zeros((1, 5))
    assert eta_function(X)[0] == pytest.approx(1e-12, abs=0.0)


def test_eta_maximum_is_clamped():
    X = np.zeros((1, 5))
    X[0, 2] = 1.0   # covariate 3
    X[0, 4] = 0.5   # covariate 5: sin(pi/2) = 1, raw total 16
    assert eta_function(X)[0] == pytest.approx(1.0 - 1e-12, abs=0.0)


def test_eta_depends_only_on_signal_covariates():
    rng = np.random.default_rng(0)
    X = rng.random((10, 10))
    Y = rng.random((10, 10))
    Y[:, 2] = X[:, 2]
    Y[:, 4] = X[:, 4]
    assert np.array_equal(eta_function(X), eta_function(Y))


def test_gen_synthetic_shapes_and_ranges():
    data = gen_synthetic(50, d=10, seed=0)
    assert data.X.shape == (50, 10)
    assert np.all((0.0 <= data.X) & (data.X <= 1.0))
    assert set(np.unique(data.y)).issubset({-1.0, 1.0})
    assert data.eta.shape == (50,)
    assert data.n == 50 and data.d == 10


def test_gen_synthetic_rejects_small_d():
    with pytest.raises(ValueError):
        gen_synthetic(10, d=4)


def test_gen_synthetic_seed_types_agree():
    a = gen_synthetic(20, seed=3)
    b = gen_synthetic(20, seed=np.random.default_rng(3))
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.y, b.y)


def test_dataset_subset():
    data = gen_synthetic(10, seed=1)
    sub = data.subset([2, 5, 7])
    assert sub.n == 3
    assert np.array_equal(sub.X, data.X[[2, 5, 7]])


def test_csv_round_trip(tmp_path):
    data = gen_synthetic(30, d=6, seed=2)
    path = tmp_path / "data.csv"
    save_csv(data, path)
    loaded = load_csv(path, normalize=False)
    assert np.allclose(loaded.X, data.X, atol=1e-12)
    assert np.array_equal(loaded.y, data.y)
    assert np.allclose(loaded.eta, data.eta, atol=1e-12)


def test_minmax_normalization(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x1,label\n0,0\n5,1\n10,0\n")
    loaded = load_csv(path)
    assert np.array_equal(loaded.X[:, 0], [0.0, 0.5, 1.0])
    assert np.array_equal(loaded.y, [-1.0, 1.0, -1.0])


def test_constant_column_maps_to_half(caplog):
    X = np.array([[1.0, 2.0], [1.0, 4.0]])
    out = minmax_normalize(X)
    assert np.array_equal(out[:, 0], [0.5, 0.5])
    assert np.array_equal(out[:, 1], [0.0, 1.0])


def test_missing_rows_are_dropped(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("x1,label\n0.1,1\n,1\n0.9,0\n")
    loaded = load_csv(path)
    assert loaded.n == 2


def test_label_value_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,label\n0.1,0\n0.2,1\n0.3,2\n")
    with pytest.raises(DataError):
        load_csv(path)
    path.write_text("x1,label\n0.1,0\n0.2,1\n")
    with pytest.raises(DataError):
        load_csv(path, positive_label_value=7.0)


def test_empty_and_missing_column_errors(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("")
    with pytest.raises(DataError):
        load_csv(path)
    path.write_text("x1,y\n0.1,1\n")
    with pytest.raises(DataError):
        load_csv(path, label_column="label")


@pytest.mark.parametrize("rows, where", [
    ("0.1,0.2,1\n0.3,0\n", "data row 2 (line 3)"),
    ("0.1,0.2,1\n0.3,0.4,0,9\n", "data row 2 (line 3)"),
    ("0.1,0\n0.3,1\n", "data row 1 (line 2)"),
    ("0.1,0.2,1\n\n0.3,0\n", "data row 2 (line 4)"),  # a blank line is not a data row
])
def test_ragged_rows_are_rejected(tmp_path, rows, where):
    path = tmp_path / "r.csv"
    path.write_text("x1,x2,label\n" + rows)
    with pytest.raises(DataError, match=re.escape(f"ragged rows: {where} has")):
        load_csv(path)



def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "b.csv"
    path.write_text("x1,label\n0.1,1\n\n0.2,0\n\n")
    assert load_csv(path).n == 2


def test_kfold_partition():
    plan = make_splits(10, kind="kfold", k=5)
    assert plan.kind == "kfold"
    all_idx = np.sort(np.concatenate(plan.folds))
    assert np.array_equal(all_idx, np.arange(10))
    for a in range(5):
        for b in range(a + 1, 5):
            assert not set(plan.folds[a]) & set(plan.folds[b])


def test_split_determinism():
    a = make_splits(40, kind="kfold", k=4, seed=9)
    b = make_splits(40, kind="kfold", k=4, seed=9)
    for fa, fb in zip(a.folds, b.folds):
        assert np.array_equal(fa, fb)


def test_stratified_kfold_balances_positives():
    rng = np.random.default_rng(5)
    labels = np.array([1.0] * 60 + [-1.0] * 40)
    rng.shuffle(labels)
    plan = make_splits(100, kind="kfold", k=5, seed=1, labels=labels, stratified=True)
    for fold in plan.folds:
        n_pos = int(np.sum(labels[fold] > 0))
        assert abs(n_pos - 12) <= 1


def test_holdout_split():
    plan = make_splits(20, kind="holdout", ratio=0.5, seed=2)
    train, test = plan.folds
    assert train.size + test.size == 20
    assert not set(train) & set(test)


def test_stratified_holdout_split():
    labels = np.array([1.0] * 10 + [-1.0] * 10)
    plan = make_splits(20, kind="holdout", ratio=0.5, seed=3,
                       labels=labels, stratified=True)
    train, test = plan.folds
    assert int(np.sum(labels[train] > 0)) == 5
    assert int(np.sum(labels[test] > 0)) == 5


def test_split_validation_errors():
    with pytest.raises(ValueError):
        make_splits(10, kind="holdout", ratio=1.5)
    with pytest.raises(ValueError):
        make_splits(10, kind="kfold", k=1)
    with pytest.raises(ValueError):
        make_splits(10, kind="bootstrap")
    with pytest.raises(ValueError):
        make_splits(10, stratified=True)


def test_stratified_single_class_fold_raises():
    labels = np.array([1.0] * 9 + [-1.0])
    with pytest.raises(DataError):
        make_splits(10, kind="kfold", k=5, labels=labels, stratified=True)


def test_derive_seed_is_stable_and_distinct():
    a = derive_seed(0, "grid", 1.0, 0)
    b = derive_seed(0, "grid", 1.0, 0)
    c = derive_seed(0, "grid", 1.0, 1)
    assert a.entropy == b.entropy
    assert a.entropy != c.entropy
    x = np.random.default_rng(a).random(4)
    y = np.random.default_rng(b).random(4)
    assert np.array_equal(x, y)

"""Synthetic generator, CSV round-trips, splits, and seed derivation."""

import csv
import logging
import re
import tracemalloc

import numpy as np
import pytest

from gibbsrank import data
from gibbsrank.data import (
    DataError,
    Dataset,
    derive_seed,
    eta_function,
    gen_synthetic,
    load_csv,
    make_splits,
    map_to_unit,
    read_table,
    save_csv,
)
from oracles import dealt_splits


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
    with pytest.raises(ValueError,
                       match=r"^d must be at least 5: covariates 3 and 5 carry the signal$"):
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
    loaded = load_csv(path)
    assert np.allclose(loaded.X, data.X, atol=1e-12)
    assert np.array_equal(loaded.y, data.y)
    assert np.allclose(loaded.eta, data.eta, atol=1e-12)


def test_load_csv_reads_a_header_behind_a_byte_order_mark(tmp_path):
    """Spreadsheet exports put a UTF-8 byte-order mark before the first
    header cell; it is not part of that cell's name."""
    data = gen_synthetic(30, d=6, seed=2)
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    save_csv(data, plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    loaded, expected = load_csv(marked), load_csv(plain)
    assert np.array_equal(loaded.X, expected.X)
    assert np.array_equal(loaded.y, expected.y)
    labels_first = tmp_path / "labels_first.csv"  # the marked cell is the label column
    labels_first.write_bytes(b"\xef\xbb\xbflabel,x1\n1,0.2\n0,0.7\n")
    assert load_csv(labels_first).y.tolist() == [1.0, -1.0]


@pytest.mark.parametrize("with_eta", [True, False])
def test_save_csv_bytes_match_csv_writer(tmp_path, with_eta):
    data = gen_synthetic(25, d=7, seed=3)
    if not with_eta:
        data = Dataset(X=data.X, y=data.y)
    data.X[0, 0] = 0.0
    data.X[1, 1] = 1e-300
    path = tmp_path / "fast.csv"
    save_csv(data, path)
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(7)] + ["label"] + ["eta"] * with_eta)
        for i in range(data.n):
            row = [f"{v:.17g}" for v in data.X[i]] + [f"{int(data.y[i]):d}"]
            if with_eta:
                row.append(f"{data.eta[i]:.17g}")
            writer.writerow(row)
    assert path.read_bytes() == ref.read_bytes()


def test_save_csv_streams_its_rows(tmp_path):
    """save_csv formats and writes one row at a time: writing a 2000 x 100
    table peaks near 0.1 MB, where its lines held at once take about 4 MB
    and the table as Python floats about 7 MB."""
    data = gen_synthetic(2000, d=100, seed=0)
    tracemalloc.start()
    try:
        save_csv(data, tmp_path / "wide.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6, f"save_csv peaked at {peak / 1e6:.2f} MB"


def test_minmax_normalization(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x1,label\n0,0\n5,1\n10,0\n")
    loaded = load_csv(path)
    assert np.array_equal(map_to_unit(loaded, "t.csv").X[:, 0], [0.0, 0.5, 1.0])
    assert np.array_equal(loaded.y, [-1.0, 1.0, -1.0])


def test_map_to_unit_names_the_file_row_and_column_of_an_unplaceable_cell(tmp_path):
    # x2 spans more than the float range: hi - lo overflows and 1.7e308 maps
    # to inf / inf; the dropped row 2 still counts in the file's row numbers
    path = tmp_path / "wide.csv"
    path.write_text("x1,label,x2\n0.1,1,0\n,0,1\n0.2,0,-1.7e308\n0.3,1,1.7e308\n")
    loaded = load_csv(path)
    with pytest.raises(DataError) as err:
        map_to_unit(loaded, "wide.csv")
    assert str(err.value) == ("wide.csv: data row 4, column 'x2' holds 1.7e+308, which the "
                              "range [-1.7e+308, 1.7e+308] maps to nan; "
                              "mapped values must be finite")
    # a range that places every cell maps each to (x - lo) / (hi - lo)
    lo, hi = np.array([0.0, -1.7e308]), np.array([1.0, 0.0])
    mapped = map_to_unit(loaded.subset([0, 1]), "wide.csv", (lo, hi))
    assert np.array_equal(mapped.X, (loaded.X[:2] - lo) / (hi - lo))
    assert mapped.rows.tolist() == [1, 3]
    # a value far outside a narrow given range overflows too; synthetic rows
    # and columns are named as save_csv writes them
    narrow = (np.zeros(6), np.full(6, 1e-320))
    with pytest.raises(DataError, match=r"^draw: data row 1, column 'x1' holds "):
        map_to_unit(gen_synthetic(4, d=6, seed=0), "draw", narrow)


@pytest.mark.parametrize("with_eta", [True, False])
def test_load_csv_arrays_do_not_pin_the_parsed_table(tmp_path, with_eta):
    """Every array load_csv returns owns its data or views a buffer no larger
    than itself, so none keeps the whole (n, d + 2) table alive."""
    data = gen_synthetic(30, d=6, seed=4)
    path = tmp_path / "data.csv"
    save_csv(data if with_eta else Dataset(X=data.X, y=data.y), path)
    loaded = load_csv(path)
    arrays = {"X": loaded.X, "y": loaded.y, "eta": loaded.eta, "rows": loaded.rows}
    assert (arrays["eta"] is not None) == with_eta
    for name, a in arrays.items():
        if a is None:
            continue
        buffer = a
        while buffer.base is not None:
            buffer = buffer.base
        assert buffer.nbytes <= a.nbytes, name


def test_constant_column_maps_to_half(caplog):
    X = np.array([[1.0, 2.0], [1.0, 4.0]])
    with caplog.at_level(logging.WARNING, logger="gibbsrank.data"):
        out = map_to_unit(Dataset(X=X, y=np.array([1.0, -1.0])), "two rows").X
    assert np.array_equal(out[:, 0], [0.5, 0.5])
    assert np.array_equal(out[:, 1], [0.0, 1.0])
    assert [r.getMessage() for r in caplog.records] == [
        "constant feature columns [0] mapped to 0.5"]


def test_missing_rows_are_dropped(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("x1,label\n0.1,1\n,1\n0.9,0\n")
    loaded = load_csv(path)
    assert loaded.n == 2


def test_load_csv_cell_parsing(tmp_path, caplog):
    # float() reads a padded or exponent cell and 'nan'; an empty, blank or
    # non-numeric cell is missing, and a row with a missing cell is dropped
    path = tmp_path / "cells.csv"
    path.write_text("x1,x2,label\n"
                    " 0.5 ,1e-3,1\n"
                    ",0.2,0\n"
                    "  ,0.3,1\n"
                    "abc,0.4,0\n"
                    "nan,0.5,1\n"
                    "2, 0.5 ,0\n"
                    "1e-3,-4,1\n")
    with caplog.at_level("WARNING", logger="gibbsrank.data"):
        loaded = load_csv(path)
    assert loaded.X.tolist() == [[0.5, 1e-3], [2.0, 0.5], [1e-3, -4.0]]
    assert loaded.y.tolist() == [1.0, -1.0, 1.0]
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}: dropped 4 rows with missing values"]


@pytest.mark.parametrize("cell, shown", [
    ("inf", "inf"), ("-inf", "-inf"), (" -Infinity ", "-inf"), ("1e999", "inf"),
])
def test_load_csv_refuses_infinite_cells(tmp_path, cell, shown):
    # no min-max map places an infinite value, so the file is refused where
    # it is read; a missing cell before it still counts as a data row
    path = tmp_path / "inf.csv"
    path.write_text("x1,x2,label\n0.1,0.2,1\n,0.3,0\n0.4,0.5,1\n0.6," + cell + ",0\n")
    with pytest.raises(DataError) as err:
        load_csv(path)
    assert str(err.value) == (f"{path}: data row 4, column 'x2' holds {shown}; "
                              "cells must be finite or missing")
    path.write_text("x1,label\n0.1,1\n0.2," + cell + "\n")  # the label column too
    with pytest.raises(DataError, match=re.escape("data row 2, column 'label' holds")):
        load_csv(path)


def test_label_value_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,label\n0.1,0\n0.2,1\n0.3,2\n")
    with pytest.raises(DataError):
        load_csv(path)
    path.write_text("x1,label\n0.1,0\n0.2,1\n")
    with pytest.raises(DataError):
        load_csv(path, positive_label_value=7.0)


def test_label_column_of_many_values_is_refused_by_count_and_five_least(tmp_path):
    data = gen_synthetic(60, seed=0)
    path = tmp_path / "synth.csv"
    save_csv(data, path)
    with pytest.raises(DataError) as exc:
        load_csv(path, label_column="eta")
    least = np.unique(data.eta)[:5].tolist()
    message = str(exc.value)
    assert message == (f"{path}: labels must take exactly two values, "
                       f"got 60 distinct, the first 5: {least}")
    assert len(message) < len(str(path)) + 200  # not the 60 values


@pytest.mark.parametrize("header, column", [("label,x1,label", "label"), ("x1,x2 ,x2", "x2")])
def test_load_csv_refuses_a_column_named_twice(tmp_path, header, column):
    # a second label column would otherwise enter the model as a feature
    path = tmp_path / "twice.csv"
    path.write_text(f"{header}\n1,0.1,1\n0,0.2,0\n")
    with pytest.raises(DataError, match=re.escape(f"{path}: column {column!r} is named twice")):
        load_csv(path)


def test_read_table_closes_its_file_when_the_caller_raises_mid_file(tmp_path, monkeypatch):
    opened = []
    monkeypatch.setattr(data, "open", lambda *args, **kw: opened.append(open(*args, **kw))
                        or opened[-1], raising=False)
    path = tmp_path / "t.csv"
    path.write_text("x1,label\n0.1,1\n0.2,0\n")
    with pytest.raises(KeyError), read_table(path) as (header, rows):
        for _ in rows:
            assert not opened[0].closed
            raise KeyError
    assert opened[0].closed


def test_make_splits_refuses_a_nan_label():
    # such an index used to be left out of every fold
    with pytest.raises(DataError, match="^NaN label at index 2$"):
        make_splits([1.0, -1.0, np.nan, 1.0, -1.0, 1.0, -1.0], 2, 0)


def test_make_splits_matches_the_one_at_a_time_deal():
    """The same folds, values and dtype, as dealing each index in turn, and
    the same error for the same input, over random sizes, fold counts,
    seeds and class mixes (labels > 0 are positive)."""
    rng = np.random.default_rng(27)
    outcomes = set()
    for _ in range(400):
        n, k = int(rng.integers(0, 40)), int(rng.integers(1, 10))
        seed = int(rng.integers(2**32))
        negative, positive = [(-1.0, 1.0), (0.0, 1.0), (-3.0, 2.0)][rng.integers(3)]
        labels = np.where(rng.random(n) < rng.random(), positive, negative)
        try:
            want = dealt_splits(n, k, seed, labels)
        except ValueError as exc:  # DataError included
            with pytest.raises(ValueError) as refused:
                make_splits(labels, k, seed)
            assert (type(refused.value), str(refused.value)) == (type(exc), str(exc))
            outcomes.add(str(exc).split()[0])
            continue
        got = make_splits(labels, k, seed)
        assert len(got) == len(want) == k
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()
        outcomes.add("folds")
    assert outcomes == {"folds", "k", "cannot", "stratification"}


def test_derive_seed_is_stable_and_distinct():
    a = derive_seed(0, "grid", 1.0, 0)
    b = derive_seed(0, "grid", 1.0, 0)
    c = derive_seed(0, "grid", 1.0, 1)
    assert a.entropy == b.entropy
    assert a.entropy != c.entropy
    x = np.random.default_rng(a).random(4)
    y = np.random.default_rng(b).random(4)
    assert np.array_equal(x, y)

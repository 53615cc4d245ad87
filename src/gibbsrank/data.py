"""Datasets: synthetic generator, CSV input/output, splits, seeding.

The synthetic generator draws X uniformly on [0, 1]^d and labels from the
regression function

    eta(x) = (x_3 + 7 x_3^2 + 8 sin(pi x_5)) / 16,

so only covariates 3 and 5 (1-based) carry signal; the division by 16 maps
the analytic range [0, 16] into (0, 1).
"""

from __future__ import annotations

import csv
import itertools
import logging
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

logger = logging.getLogger(__name__)

ETA_CLAMP = 1e-12
SIGNAL_COVARIATES = (3, 5)  # 1-based


class DataError(ValueError):
    """Malformed or unusable input data."""


@dataclass(frozen=True)
class Dataset:
    X: np.ndarray                 # (n, d) covariates, on [0, 1] for a fit
    y: np.ndarray                 # (n,), labels in {-1, +1}
    eta: np.ndarray | None = None  # true regression values, synthetic only
    # a CSV's 1-based data row of each row and header name of each X column;
    # None names them 1..n and x1..xd, as save_csv writes them
    rows: np.ndarray | None = None
    columns: tuple[str, ...] | None = None

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(
            X=self.X[idx],
            y=self.y[idx],
            eta=None if self.eta is None else self.eta[idx],
            rows=None if self.rows is None else self.rows[idx],
            columns=self.columns,
        )


def eta_function(X: np.ndarray) -> np.ndarray:
    """True regression function on [0, 1]^d, renormalized into (0, 1)."""
    x3, x5 = (X[..., j - 1] for j in SIGNAL_COVARIATES)
    raw = x3 + 7.0 * x3**2 + 8.0 * np.sin(np.pi * x5)
    return np.clip(raw / 16.0, ETA_CLAMP, 1.0 - ETA_CLAMP)


def gen_synthetic(n: int, d: int = 10, seed=0) -> Dataset:
    """Draw n labeled points from the synthetic model.

    seed may be an int, a SeedSequence, or a Generator, which is drawn from
    as it stands.
    """
    if d < max(SIGNAL_COVARIATES):
        raise ValueError(f"d must be at least {max(SIGNAL_COVARIATES)}: covariates "
                         f"{' and '.join(map(str, SIGNAL_COVARIATES))} carry the signal")
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    eta = eta_function(X)
    y = np.where(eta > rng.random(n), 1.0, -1.0)
    return Dataset(X=X, y=y, eta=eta)


def write_csv(path, lines) -> None:
    """Every CSV output's one writer: each of lines (an iterable of str) ends
    in CRLF, the bytes csv.writer writes when no cell needs quoting, and no
    cell gibbsrank writes does."""
    with open(path, "w", newline="") as fh:
        for line in lines:
            fh.write(line + "\r\n")


def save_csv(dataset: Dataset, path) -> None:
    """Write features, label, and (when present) eta with full precision."""
    header = [f"x{j + 1}" for j in range(dataset.d)] + ["label"]
    fmt = ",".join(["{:.17g}"] * dataset.d) + ",{:d}"
    tails = [[int(v) for v in dataset.y.tolist()]]
    if dataset.eta is not None:
        header.append("eta")
        fmt += ",{:.17g}"
        tails.append(dataset.eta.tolist())
    # Row by row: the whole 2000 x 100 table as Python floats at once
    # would raise the writer's peak memory by about 7 MB.
    write_csv(path, itertools.chain([",".join(header)], (
        fmt.format(*x.tolist(), *tail) for x, *tail in zip(dataset.X, *tails))))


def _parse_cell(cell: str) -> float:
    """A cell's value; NaN for an empty or non-numeric cell."""
    try:
        return float(cell.strip())  # strip drops more than float() skips, e.g. \x1c-\x1f
    except ValueError:
        return np.nan


def refuse_one_class(data: Dataset, source: str, role: str) -> None:
    """DataError when a synthetic draw's labels are all one class: it has no AUC."""
    if np.all(data.y == data.y[0]):
        raise DataError(f"{source}: all {data.n} drawn labels are one class; raise --n-{role}")


@contextmanager
def read_table(path):
    """(header, rows) of a CSV with a header row: the stripped column names,
    and a generator of (data-row number, file line, cells) per data row, both
    1-based.  Every CSV input is read here, under one policy: utf-8-sig drops
    a spreadsheet's byte-order mark, blank lines are skipped, and a file that
    cannot be opened, a byte that is not UTF-8, an empty file, a column named
    twice, a ragged row and no data rows are DataErrors.  The file closes when
    the with block exits, also on a raise mid-file."""
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read {str(path)!r}: {exc.strerror}") from None

    def lines():  # decoded a chunk at a time, in the header read or in any row
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: byte 0x{exc.object[exc.start]:02x} is not UTF-8") from None

    with fh:
        reader = csv.reader(lines())
        try:
            header = [cell.strip() for cell in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if len(set(header)) < len(header):
            repeated = next(name for i, name in enumerate(header) if name in header[:i])
            raise DataError(f"{path}: column {repeated!r} is named twice in header {header}")

        def rows():
            i = 0
            for i, cells in enumerate(filter(None, reader), 1):  # csv yields [] for a blank line
                if len(cells) != len(header):
                    raise DataError(f"{path}: ragged rows: data row {i} (line {reader.line_num}) "
                                    f"has {len(cells)} cells, the header has {len(header)}")
                yield i, reader.line_num, cells
            if not i:
                raise DataError(f"{path}: no data rows")

        yield header, rows()


def load_csv(path, label_column: str = "label", positive_label_value: float = 1.0) -> Dataset:
    """Load a delimited numeric table with a header row.

    Features keep the file's values; a caller maps them into [0, 1] with
    map_to_unit, by the ranges it chooses.  Labels are mapped to +-1 by
    comparison with positive_label_value; rows with missing values are
    dropped with a count report.  An infinite cell (inf, -inf, 1e999) is
    refused with a DataError naming its data row and column: no [0, 1] map
    could place it.  An `eta` column, if present, is carried through
    untouched.  Every returned array owns its data or views a buffer of its
    own size, so none keeps the parsed table alive.
    """
    with read_table(path) as (header, rows):
        if label_column not in header:
            raise DataError(f"{path}: no label column {label_column!r} in header {header}")
        # Each row becomes floats as it is read, so no table of strings is
        # ever held: one float() pass, and a per-cell parse only for a row
        # with an empty or non-numeric cell.
        values = array("d")
        for n_rows, _, row in rows:  # rows refuses a table without any
            try:
                values.extend(list(map(float, row)))  # all of the row or none of it
            except ValueError:
                values.extend(map(_parse_cell, row))

    table = np.frombuffer(values, dtype=float).reshape(n_rows, len(header))
    infinite = np.isinf(table)
    if infinite.any():
        i, j = np.argwhere(infinite)[0]
        raise DataError(f"{path}: data row {i + 1}, column {header[j]!r} holds "
                        f"{table[i, j]}; cells must be finite or missing")
    keep = ~np.isnan(table).any(axis=1)
    dropped = int((~keep).sum())
    if dropped:
        logger.warning("%s: dropped %d rows with missing values", path, dropped)
    table = table[keep]
    if table.shape[0] == 0:
        raise DataError(f"{path}: all rows had missing values")

    label_idx = header.index(label_column)
    eta_idx = header.index("eta") if "eta" in header and label_column != "eta" else None
    feat_idx = [i for i in range(len(header)) if i not in (label_idx, eta_idx)]

    raw_labels = table[:, label_idx]
    values = np.unique(raw_labels)
    if values.size != 2:
        # a label column of floats may hold thousands of values: show the least five
        shown = values[:5].tolist()
        first = f", the first {len(shown)}" if values.size > len(shown) else ""
        raise DataError(f"{path}: labels must take exactly two values, "
                        f"got {values.size} distinct{first}: {shown}")
    if positive_label_value not in values:
        raise DataError(
            f"{path}: positive label {positive_label_value} not among values {values.tolist()}"
        )
    y = np.where(raw_labels == positive_label_value, 1.0, -1.0)

    eta = table[:, eta_idx].copy() if eta_idx is not None else None
    return Dataset(X=table[:, feat_idx], y=y, eta=eta, rows=np.flatnonzero(keep) + 1,
                   columns=tuple(header[i] for i in feat_idx))


def map_to_unit(data: Dataset, source: str, ranges=None) -> Dataset:
    """data with X min-max mapped into [0, 1] by ranges=(lo, hi), the
    per-column minima and maxima (X's own when None).

    A constant column (hi == lo) goes to 0.5, with a warning.  A cell the
    map sends to a non-finite value, as when a column spans more than the
    float range or lies that far outside the given range, is refused with a
    DataError naming source, the cell's data row and column.
    """
    lo, hi = (data.X.min(axis=0), data.X.max(axis=0)) if ranges is None else ranges
    with np.errstate(over="ignore", invalid="ignore"):
        span = hi - lo
        constant = span == 0
        X = (data.X - lo) / np.where(constant, 1.0, span)
    if np.any(constant):
        logger.warning("constant feature columns %s mapped to 0.5",
                       np.flatnonzero(constant).tolist())
    X[:, constant] = 0.5
    bad = ~np.isfinite(X)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        row = i + 1 if data.rows is None else data.rows[i]
        column = f"x{j + 1}" if data.columns is None else data.columns[j]
        raise DataError(f"{source}: data row {row}, column {column!r} holds {data.X[i, j]}, "
                        f"which the range [{lo[j]}, {hi[j]}] maps to {X[i, j]}; "
                        "mapped values must be finite")
    return replace(data, X=X)


def make_splits(labels, k: int, seed: int) -> tuple[np.ndarray, ...]:
    """Seeded stratified split of the indices of labels into k folds.

    Returns k disjoint sorted index arrays covering 0..n-1, n = labels.size.
    The positives (label > 0), then the rest, are each permuted and dealt
    round-robin as one sequence, so each fold's positive count is within
    one of the proportional share.  Every fold holds both classes, so each
    class needs at least k members.  A NaN label, in neither class, is
    refused naming its index.
    """
    labels = np.asarray(labels)
    if k < 2:
        raise ValueError("k must be at least 2")
    if k > labels.size:
        raise DataError(f"cannot split {labels.size} rows into {k} folds")
    nan = np.flatnonzero(np.isnan(labels))
    if nan.size:
        raise DataError(f"NaN label at index {nan[0]}")
    classes = (labels > 0, labels <= 0)
    if min(np.count_nonzero(c) for c in classes) < k:
        raise DataError("stratification impossible: a fold has a single class")
    rng = np.random.default_rng(seed)
    dealt = np.concatenate([rng.permutation(np.flatnonzero(c)) for c in classes])
    return tuple(np.sort(dealt[f::k]) for f in range(k))


def derive_seed(root_seed: int, *tags) -> np.random.SeedSequence:
    """Stable child seed from a root seed and an arbitrary tag path.

    Tags are stringified and hashed, so the same (root, tags) always yields
    the same stream regardless of what else was derived.
    """
    import hashlib

    digest = hashlib.sha256(("/".join(map(str, tags))).encode()).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.SeedSequence([int(root_seed), *words])

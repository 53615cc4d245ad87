"""Datasets: synthetic generator, CSV input/output, splits, seeding.

The synthetic generator draws X uniformly on [0, 1]^d and labels from the
regression function

    eta(x) = (x_3 + 7 x_3^2 + 8 sin(pi x_5)) / 16,

so only covariates 3 and 5 (1-based) carry signal; the division by 16 maps
the analytic range [0, 16] into (0, 1).
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

ETA_CLAMP = 1e-12
SIGNAL_COVARIATES = (3, 5)  # 1-based


class DataError(ValueError):
    """Malformed or unusable input data."""


@dataclass(frozen=True)
class Dataset:
    X: np.ndarray                 # (n, d), entries in [0, 1]
    y: np.ndarray                 # (n,), labels in {-1, +1}
    eta: np.ndarray | None = None  # true regression values, synthetic only
    source: str = "synthetic"

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
            source=self.source,
        )


def eta_function(X: np.ndarray) -> np.ndarray:
    """True regression function on [0, 1]^d, renormalized into (0, 1)."""
    x3 = X[..., 2]
    x5 = X[..., 4]
    raw = x3 + 7.0 * x3**2 + 8.0 * np.sin(np.pi * x5)
    return np.clip(raw / 16.0, ETA_CLAMP, 1.0 - ETA_CLAMP)


def gen_synthetic(n: int, d: int = 10, seed=0) -> Dataset:
    """Draw n labeled points from the synthetic model.

    seed may be an int, a SeedSequence, or a Generator.
    """
    if d < 5:
        raise ValueError("d must be at least 5: covariates 3 and 5 carry the signal")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    X = rng.random((n, d))
    eta = eta_function(X)
    y = np.where(eta > rng.random(n), 1.0, -1.0)
    return Dataset(X=X, y=y, eta=eta, source="synthetic")


def save_csv(dataset: Dataset, path) -> None:
    """Write features, label, and (when present) eta with full precision."""
    d = dataset.d
    header = [f"x{j + 1}" for j in range(d)] + ["label"]
    if dataset.eta is not None:
        header.append("eta")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(dataset.n):
            row = [f"{v:.17g}" for v in dataset.X[i]]
            row.append(f"{int(dataset.y[i]):d}")
            if dataset.eta is not None:
                row.append(f"{dataset.eta[i]:.17g}")
            writer.writerow(row)


def load_csv(path, label_column: str = "label", positive_label_value: float = 1.0,
             normalize: bool = True) -> Dataset:
    """Load a delimited numeric table with a header row.

    Features are min-max normalized per column into [0, 1] (constant columns
    map to 0.5); labels are mapped to +-1 by comparison with
    positive_label_value; rows with missing values are dropped with a count
    report.  An `eta` column, if present, is carried through untouched.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if label_column not in header:
            raise DataError(f"{path}: no column named {label_column!r} in header {header}")
        rows = []
        for row in reader:
            if not row:
                continue  # csv yields [] for a blank line
            if len(row) != len(header):
                raise DataError(f"{path}: ragged rows: data row {len(rows) + 1} (line "
                                f"{reader.line_num}) has {len(row)} cells, the header has "
                                f"{len(header)}")
            rows.append(row)
    if not rows:
        raise DataError(f"{path}: no data rows")

    def parse(cell):
        cell = cell.strip()
        if cell == "":
            return np.nan
        try:
            return float(cell)
        except ValueError:
            return np.nan

    table = np.array([[parse(c) for c in row] for row in rows])
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
        raise DataError(f"{path}: labels must take exactly two values, got {values.tolist()}")
    if positive_label_value not in values:
        raise DataError(
            f"{path}: positive label {positive_label_value} not among values {values.tolist()}"
        )
    y = np.where(raw_labels == positive_label_value, 1.0, -1.0)

    X = table[:, feat_idx]
    if normalize:
        X = minmax_normalize(X)
    eta = table[:, eta_idx] if eta_idx is not None else None
    return Dataset(X=X, y=y, eta=eta, source=str(path))


def minmax_normalize(X: np.ndarray) -> np.ndarray:
    """Per-column min-max map into [0, 1]; constant columns go to 0.5."""
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    span = hi - lo
    constant = span == 0
    if np.any(constant):
        logger.warning("constant feature columns %s mapped to 0.5",
                       np.flatnonzero(constant).tolist())
    span = np.where(constant, 1.0, span)
    out = (X - lo) / span
    out[:, constant] = 0.5
    return out


@dataclass(frozen=True)
class SplitPlan:
    """Either a holdout pair or k disjoint folds covering all indices."""

    folds: tuple  # tuple of index arrays; holdout stores (train, test)
    kind: str     # "holdout" or "kfold"
    seed: int


def make_splits(n: int, kind: str = "kfold", k: int = 5, ratio: float = 0.5,
                seed: int = 0, labels=None, stratified: bool = False) -> SplitPlan:
    """Seeded permutation split into k folds or a train/test holdout pair.

    With stratified=True (requires labels) each fold's positive count is
    within one of the proportional share.
    """
    if stratified and labels is None:
        raise ValueError("stratified splits need labels")
    rng = np.random.default_rng(seed)

    if kind == "holdout":
        if not 0.0 < ratio < 1.0:
            raise ValueError("holdout ratio must lie in (0, 1)")
        if stratified:
            labels = np.asarray(labels)
            train_parts, test_parts = [], []
            for cls in (labels > 0, labels <= 0):
                idx = rng.permutation(np.flatnonzero(cls))
                cut = int(round(ratio * idx.size))
                train_parts.append(idx[:cut])
                test_parts.append(idx[cut:])
            train = np.sort(np.concatenate(train_parts))
            test = np.sort(np.concatenate(test_parts))
        else:
            order = rng.permutation(n)
            cut = int(round(ratio * n))
            train, test = np.sort(order[:cut]), np.sort(order[cut:])
        if train.size == 0 or test.size == 0:
            raise ValueError("holdout split leaves an empty set")
        return SplitPlan(folds=(train, test), kind="holdout", seed=seed)

    if kind == "kfold":
        if k < 2 or k > n:
            raise ValueError("k must satisfy 2 <= k <= n")
        buckets: list[list[int]] = [[] for _ in range(k)]
        if stratified:
            labels = np.asarray(labels)
            slot = 0
            for cls in (labels > 0, labels <= 0):
                for i in rng.permutation(np.flatnonzero(cls)):
                    buckets[slot % k].append(int(i))
                    slot += 1
        else:
            for slot, i in enumerate(rng.permutation(n)):
                buckets[slot % k].append(int(i))
        folds = tuple(np.sort(np.array(b, dtype=int)) for b in buckets)
        if stratified:
            for f in folds:
                fl = labels[f]
                if np.all(fl > 0) or np.all(fl <= 0):
                    raise DataError("stratification impossible: a fold has a single class")
        return SplitPlan(folds=folds, kind="kfold", seed=seed)

    raise ValueError(f"unknown split kind {kind!r}")


def derive_seed(root_seed: int, *tags) -> np.random.SeedSequence:
    """Stable child seed from a root seed and an arbitrary tag path.

    Tags are stringified and hashed, so the same (root, tags) always yields
    the same stream regardless of what else was derived.
    """
    import hashlib

    digest = hashlib.sha256(("/".join(map(str, tags))).encode()).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.SeedSequence([int(root_seed) & 0xFFFFFFFF, *words])

"""Experiment harness: single fits, replicated (delta, sigma2) grids, CV.

Replications are seeded independently from a root seed through stable
hashing, so any grid cell rerun in isolation reproduces its row exactly and
the whole pipeline is deterministic byte-for-byte.

The `delta` values in experiment configs are on the scale of the published
grid; before entering the Gibbs exponent they are mapped to an internal
inverse temperature.  The default map (delta_scale="power") is the
calibrated delta_coeff * n_train * delta**delta_power; delta_scale="n"
multiplies by the training-set size only, and delta_scale="none" uses the
value verbatim.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import logging
import math
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from .basis import DEFAULT_DICTIONARY, build_features, score, score_dense
from .data import Dataset, derive_seed, gen_synthetic, make_splits
from .gibbs import GibbsConfig
from .risk import auc
from .sampler import SamplerConfig, run_chain

logger = logging.getLogger(__name__)

TABLE_DELTAS = (100.0, 10.0, 1.0, 0.1, 0.01)
TABLE_SIGMA2S = (1.0, 0.1, 0.01, 0.001)


@dataclass(frozen=True)
class ExperimentConfig:
    delta: float = 0.1
    sigma2: float = 0.001
    beta: float = 0.35
    iters: int = 1000
    burnin: int = 800
    reps: int = 20
    folds: int = 5
    seed: int = 0
    d: int = 10
    n_train: int = 1000
    n_test: int = 2000
    workers: int = 1
    delta_scale: str = "power"    # "power", "n", or "none"
    delta_coeff: float = 1.5
    delta_power: float = 0.70
    norm_mode: str = "kernel"
    ball_radius: float = 2.0
    ridge_lambda: float = 1.0
    move_prob: float = 0.4
    signal_covariates: tuple = (3, 5)  # 1-based

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if self.delta_scale not in ("power", "n", "none"):
            raise ValueError("delta_scale must be 'power', 'n', or 'none'")


def effective_delta(cfg: ExperimentConfig, n_train: int) -> float:
    """Map a grid-scale delta to the internal inverse temperature."""
    if cfg.delta_scale == "power":
        return cfg.delta_coeff * n_train * cfg.delta ** cfg.delta_power
    if cfg.delta_scale == "n":
        return cfg.delta * n_train
    return cfg.delta


def chain_configs(cfg: ExperimentConfig, n_train: int, d: int, seed: int = 0):
    gcfg = GibbsConfig(
        delta=effective_delta(cfg, n_train),
        d=d,
        beta=cfg.beta,
        ball_radius=cfg.ball_radius,
        norm_mode=cfg.norm_mode,
    )
    scfg = SamplerConfig(
        horizon=cfg.iters,
        burnin=cfg.burnin,
        sigma2=cfg.sigma2,
        move_prob=cfg.move_prob,
        seed=seed,
        ridge_lambda=cfg.ridge_lambda,
    )
    return gcfg, scfg


@dataclass
class FitResult:
    train_auc_averaged: float
    train_auc_randomized: float
    test_auc_averaged: float
    test_auc_randomized: float
    acceptance_rate: float
    selection_frequency: np.ndarray
    trace: object = None
    estimators: object = None

    def metrics(self) -> dict:
        return {
            "train_auc_averaged": self.train_auc_averaged,
            "train_auc_randomized": self.train_auc_randomized,
            "test_auc_averaged": self.test_auc_averaged,
            "test_auc_randomized": self.test_auc_randomized,
            "acceptance_rate": self.acceptance_rate,
            "selection_frequency": self.selection_frequency.tolist(),
        }


def fit_and_evaluate(train: Dataset, test: Dataset, cfg: ExperimentConfig,
                     rng: np.random.Generator | None = None,
                     keep_trace: bool = False) -> FitResult:
    """Train one chain and score both final estimators on train and test."""
    gcfg, scfg = chain_configs(cfg, train.n, train.d, seed=cfg.seed)
    features = build_features(train.X, DEFAULT_DICTIONARY)
    trace, estimators = run_chain(train, DEFAULT_DICTIONARY, gcfg, scfg,
                                  features=features, rng=rng)
    test_features = build_features(test.X, DEFAULT_DICTIONARY)
    return FitResult(
        train_auc_averaged=auc(score_dense(estimators.averaged, features), train.y),
        train_auc_randomized=auc(score(estimators.randomized, features), train.y),
        test_auc_averaged=auc(score_dense(estimators.averaged, test_features), test.y),
        test_auc_randomized=auc(score(estimators.randomized, test_features), test.y),
        acceptance_rate=trace.acceptance_rate,
        selection_frequency=trace.selection_frequency(),
        trace=trace if keep_trace else None,
        estimators=estimators,
    )


def _run_grid_replication(args) -> dict:
    cfg_dict, delta, sigma2, rep = args
    cfg = replace(ExperimentConfig(**cfg_dict), delta=delta, sigma2=sigma2)
    ss = derive_seed(cfg.seed, "grid", repr(delta), repr(sigma2), rep)
    data_rng, chain_rng = [np.random.default_rng(s) for s in ss.spawn(2)]
    train = gen_synthetic(cfg.n_train, cfg.d, seed=data_rng)
    test = gen_synthetic(cfg.n_test, cfg.d, seed=data_rng)
    result = fit_and_evaluate(train, test, cfg, rng=chain_rng)
    return result.metrics()


@dataclass
class GridResultRow:
    delta: float
    sigma2: float
    auc_averaged_mean: float
    auc_averaged_var: float
    auc_randomized_mean: float
    auc_randomized_var: float
    selection_frequency: np.ndarray  # per covariate, averaged over replications
    failures: int = 0

    def junk_frequency_sum(self, signal_covariates) -> float:
        signal = {j - 1 for j in signal_covariates}
        return float(sum(f for j, f in enumerate(self.selection_frequency) if j not in signal))


def _check_on_error(on_error: str) -> None:
    if on_error not in ("record", "raise"):
        raise ValueError("on_error must be 'record' or 'raise'")


def _queue(pool, cfg: ExperimentConfig, delta: float, sigma2: float) -> list[Future]:
    """Submit one cell's replications to pool, in replication order."""
    return [pool.submit(_run_grid_replication, (asdict(cfg), delta, sigma2, rep))
            for rep in range(cfg.reps)]


def run_grid_cell(cfg: ExperimentConfig, delta: float, sigma2: float,
                  on_error: str = "record", futures=None) -> GridResultRow:
    """Run all replications of one (delta, sigma2) cell and aggregate.

    With on_error="record" a failed replication is logged and counted in
    `failures`, and the cell aggregates the replications that succeeded; its
    row is NaN only when every replication failed.  on_error="raise"
    re-raises the first failure.

    futures, if given, holds the cell's replications already queued on a
    pool, in replication order (run_grid passes them); by default the cell
    runs its own, in a pool of its own when cfg.workers > 1.
    """
    _check_on_error(on_error)
    metrics = []
    with contextlib.ExitStack() as stack:
        if futures is None and cfg.workers > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=cfg.workers))
            futures = _queue(pool, cfg, delta, sigma2)
        if futures is None:
            results = [functools.partial(_run_grid_replication, (asdict(cfg), delta, sigma2, rep))
                       for rep in range(cfg.reps)]
        else:
            results = [future.result for future in futures]
        for rep, result in enumerate(results):
            try:
                metrics.append(result())
            except Exception:
                if on_error == "raise":
                    raise
                logger.exception("grid cell delta=%r sigma2=%r: replication %d failed",
                                 delta, sigma2, rep)
    failures = cfg.reps - len(metrics)
    if not metrics:
        return GridResultRow(
            delta=delta, sigma2=sigma2,
            auc_averaged_mean=math.nan, auc_averaged_var=math.nan,
            auc_randomized_mean=math.nan, auc_randomized_var=math.nan,
            selection_frequency=np.full(cfg.d, math.nan), failures=failures,
        )
    avg = np.array([m["test_auc_averaged"] for m in metrics])
    rand = np.array([m["test_auc_randomized"] for m in metrics])
    freq = np.mean([m["selection_frequency"] for m in metrics], axis=0)
    ddof = 1 if len(metrics) > 1 else 0
    return GridResultRow(
        delta=delta,
        sigma2=sigma2,
        auc_averaged_mean=float(avg.mean()),
        auc_averaged_var=float(avg.var(ddof=ddof)),
        auc_randomized_mean=float(rand.mean()),
        auc_randomized_var=float(rand.var(ddof=ddof)),
        selection_frequency=freq,
        failures=failures,
    )


def run_grid(cfg: ExperimentConfig, deltas=TABLE_DELTAS, sigma2s=TABLE_SIGMA2S,
             on_error: str = "record") -> list[GridResultRow]:
    """Sweep the (delta, sigma2) grid; failed replications are recorded, not fatal.

    With cfg.workers > 1 one process pool serves the whole grid: every
    (cell, replication) job is queued up front, so a worker that finishes
    early takes the next cell's job instead of idling at the end of a cell.
    A worker that dies breaks the pool: the cell being aggregated counts its
    lost replications as failures, as a cell's own pool would, and the cells
    after it are queued again on a fresh pool.
    """
    _check_on_error(on_error)
    cells = [(delta, sigma2) for delta in deltas for sigma2 in sigma2s]
    if cfg.workers <= 1:
        return [run_grid_cell(cfg, delta, sigma2, on_error) for delta, sigma2 in cells]
    rows = []
    while len(rows) < len(cells):
        pending = cells[len(rows):]
        pool = ProcessPoolExecutor(max_workers=cfg.workers)
        try:
            queued = [_queue(pool, cfg, delta, sigma2) for delta, sigma2 in pending]
            for (delta, sigma2), futures in zip(pending, queued):
                rows.append(run_grid_cell(cfg, delta, sigma2, on_error, futures))
                if any(isinstance(f.exception(), BrokenProcessPool) for f in futures):
                    break
        finally:
            # after a raise, an interrupt or a break, drop the jobs not yet started
            pool.shutdown(cancel_futures=True)
    return rows


def grid_to_csv(rows: list[GridResultRow], path, signal_covariates=(3, 5)) -> None:
    d = rows[0].selection_frequency.size if rows else 0
    header = ["delta", "sigma2", "auc_averaged_mean", "auc_averaged_var",
              "auc_randomized_mean", "auc_randomized_var"]
    header += [f"freq_{j + 1}" for j in range(d)]
    header += ["junk_frequency_sum", "failures"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            record = [repr(row.delta), repr(row.sigma2),
                      f"{row.auc_averaged_mean:.6f}", f"{row.auc_averaged_var:.6f}",
                      f"{row.auc_randomized_mean:.6f}", f"{row.auc_randomized_var:.6f}"]
            record += [f"{f:.6f}" for f in row.selection_frequency]
            record += [f"{row.junk_frequency_sum(signal_covariates):.6f}", str(row.failures)]
            writer.writerow(record)


@dataclass
class CvResult:
    fold_auc_averaged: list
    fold_auc_randomized: list

    def summary(self) -> dict:
        avg = np.array(self.fold_auc_averaged)
        rand = np.array(self.fold_auc_randomized)
        ddof = 1 if avg.size > 1 else 0
        return {
            "cv_auc_averaged_mean": float(avg.mean()),
            "cv_auc_averaged_var": float(avg.var(ddof=ddof)),
            "cv_auc_randomized_mean": float(rand.mean()),
            "cv_auc_randomized_var": float(rand.var(ddof=ddof)),
        }


def run_cv(dataset: Dataset, cfg: ExperimentConfig) -> CvResult:
    """Stratified k-fold cross-validation of both estimators."""
    plan = make_splits(dataset.n, kind="kfold", k=cfg.folds, seed=cfg.seed,
                       labels=dataset.y, stratified=True)
    fold_avg, fold_rand = [], []
    for i, test_idx in enumerate(plan.folds):
        train_idx = np.setdiff1d(np.arange(dataset.n), test_idx)
        train, test = dataset.subset(train_idx), dataset.subset(test_idx)
        chain_rng = np.random.default_rng(derive_seed(cfg.seed, "cv", i))
        result = fit_and_evaluate(train, test, cfg, rng=chain_rng)
        fold_avg.append(result.test_auc_averaged)
        fold_rand.append(result.test_auc_randomized)
    return CvResult(fold_auc_averaged=fold_avg, fold_auc_randomized=fold_rand)


def write_metadata(path, cfg: ExperimentConfig, extra: dict | None = None) -> None:
    """Config, seed, and version: everything needed to reproduce a run."""
    record = {"version": __version__, "config": asdict(cfg)}
    if extra:
        record.update(extra)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")

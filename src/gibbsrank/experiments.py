"""Experiment harness: single fits, replicated (delta, sigma2) grids, CV.

Replications are seeded independently from a root seed through stable
hashing, so any grid cell rerun in isolation reproduces its row exactly and
the whole pipeline is deterministic byte-for-byte.  Grid cells and CV folds
are batches of independent chains on one runner, _run_batches: with
cfg.workers > 1 on one process pool, otherwise in this process.  Outputs do
not depend on cfg.workers.

The `delta` values in experiment configs are on the scale of the published
grid; before entering the Gibbs exponent they are mapped to an internal
inverse temperature by the calibrated power map
DELTA_COEFF * n_train * delta**DELTA_POWER.  Every chain targets the one
normalised Gibbs density of GibbsConfig with the size prior
gibbs.tilted_size_log_weights at the run's sigma2,

    beta^(kM) * Vol_kM(2) * (2 pi sigma2)^(-kM/2)   for model size k,

rather than the default beta^(kM), with move probability sampler.MOVE_PROB,
the prior-ball radius that GibbsConfig defaults to and the ridge penalty
sampler.RIDGE_LAMBDA.  Run metadata records this prior as "size_prior".
"""

from __future__ import annotations

import csv
import json
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .basis import SparseCoef, build_features, score, score_dense
from .data import SIGNAL_COVARIATES, Dataset, derive_seed, gen_synthetic, make_splits
from .gibbs import GibbsConfig, prior_size_distribution, tilted_size_log_weights
from .risk import auc
from .sampler import ChainTrace, FinalEstimators, SamplerConfig, run_chain

logger = logging.getLogger(__name__)

TABLE_DELTAS = (100.0, 10.0, 1.0, 0.1, 0.01)
TABLE_SIGMA2S = (1.0, 0.1, 0.01, 0.001)
# Calibration of the grid-scale delta to the internal inverse temperature.
DELTA_COEFF = 1.5
DELTA_POWER = 0.70


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

    def __post_init__(self):
        for name, least in (("reps", 1), ("folds", 2), ("workers", 1), ("seed", 0),
                            ("n_train", 2), ("n_test", 2), ("d", max(SIGNAL_COVARIATES))):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}")
        # a seed is one unsigned 32-bit word, like derive_seed's tag words
        if self.seed >= 2**32:
            raise ValueError("seed must be below 2**32")
        # the power map of a delta <= 0 is complex or zero
        if not 0 < self.delta < math.inf:
            raise ValueError("delta must be positive and finite")
        chain_configs(self, 1, self.d)  # SamplerConfig's and GibbsConfig's checks


def effective_delta(cfg: ExperimentConfig, n_train: int) -> float:
    """Map a grid-scale delta to the internal inverse temperature."""
    return DELTA_COEFF * n_train * cfg.delta ** DELTA_POWER


def chain_configs(cfg: ExperimentConfig, n_train: int, d: int):
    # SamplerConfig first: its checks name sigma2 before the tilted weights take its log
    scfg = SamplerConfig(iters=cfg.iters, burnin=cfg.burnin, sigma2=cfg.sigma2)
    gcfg = GibbsConfig(delta=effective_delta(cfg, n_train), d=d, beta=cfg.beta)
    gcfg = replace(gcfg, size_log_weights=tilted_size_log_weights(gcfg, cfg.sigma2))
    return gcfg, scfg


def size_prior(cfg: ExperimentConfig, d: int) -> list[float]:
    """Distribution of the model size under the prior of cfg's chains on d covariates.

    It depends on beta and sigma2 only, not on delta or the sample size.
    """
    gcfg, _ = chain_configs(cfg, cfg.n_train, d)
    return prior_size_distribution(gcfg).tolist()


@dataclass
class FitResult:
    train_auc_averaged: float
    train_auc_randomized: float
    test_auc_averaged: float
    test_auc_randomized: float
    trace: ChainTrace
    estimators: FinalEstimators

    def metrics(self) -> dict:
        return {
            "train_auc_averaged": self.train_auc_averaged,
            "train_auc_randomized": self.train_auc_randomized,
            "test_auc_averaged": self.test_auc_averaged,
            "test_auc_randomized": self.test_auc_randomized,
            "acceptance_rate": self.trace.acceptance_rate,
            "selection_frequency": self.trace.selection_frequency().tolist(),
        }


def _estimator_aucs(estimators: FinalEstimators, features, labels) -> tuple[float, float]:
    """AUCs of the averaged and the randomized estimator on features."""
    return (auc(score_dense(estimators.averaged, features), labels),
            auc(score(estimators.randomized, features), labels))


def _on_support(estimators: FinalEstimators, d: int):
    """The ascending covariates where either estimator is nonzero, and both
    estimators restricted to them, with covariates renumbered by support slot."""
    averaged = estimators.averaged.reshape(d, -1)
    active = estimators.randomized.active
    # a bool mask, not np.union1d: that would import numpy.ma, about 1 MB
    used = averaged.any(axis=1)
    used[active] = True
    support = np.flatnonzero(used)
    slots = np.searchsorted(support, active)
    slots.setflags(write=False)
    return support, FinalEstimators(
        randomized=SparseCoef(slots, estimators.randomized.values),
        averaged=averaged[support].ravel())


def fit_and_evaluate(train: Dataset, test: Dataset, cfg: ExperimentConfig,
                     rng: np.random.Generator) -> FitResult:
    """Train one chain on rng and score both final estimators on train and test.

    The training features are released before the test features are built,
    so the two never coexist.  The test features cover only the estimators'
    support, the covariates with a nonzero averaged row or in the randomized
    model, and both estimators are restricted to it: every dropped term is an
    exact zero, so the test scores are those of the full estimators, and a
    fit peaks at its training features, not at a (d, M, n_test) tensor.
    """
    gcfg, scfg = chain_configs(cfg, train.n, train.d)
    features = build_features(train.X)
    trace, estimators = run_chain(features, train.y, gcfg, scfg, rng)
    train_aucs = _estimator_aucs(estimators, features, train.y)
    del features
    support, restricted = _on_support(estimators, train.d)
    test_aucs = _estimator_aucs(restricted, build_features(test.X, support), test.y)
    return FitResult(
        train_auc_averaged=train_aucs[0],
        train_auc_randomized=train_aucs[1],
        test_auc_averaged=test_aucs[0],
        test_auc_randomized=test_aucs[1],
        trace=trace,
        estimators=estimators,
    )


def _run_grid_replication(args) -> dict:
    cfg_dict, delta, sigma2, rep = args
    cfg = replace(ExperimentConfig(**cfg_dict), delta=delta, sigma2=sigma2)
    ss = derive_seed(cfg.seed, "grid", repr(delta), repr(sigma2), rep)
    data_rng, chain_rng = [np.random.default_rng(s) for s in ss.spawn(2)]
    train = gen_synthetic(cfg.n_train, cfg.d, seed=data_rng)
    test = gen_synthetic(cfg.n_test, cfg.d, seed=data_rng)
    result = fit_and_evaluate(train, test, cfg, chain_rng)
    return result.metrics()


def _run_cv_fold(args) -> dict:
    dataset, test_idx, cfg, fold = args
    train_idx = np.setdiff1d(np.arange(dataset.n), test_idx)
    chain_rng = np.random.default_rng(derive_seed(cfg.seed, "cv", fold))
    # only the metrics outlive the fold, not its trace
    return fit_and_evaluate(dataset.subset(train_idx), dataset.subset(test_idx),
                            cfg, chain_rng).metrics()


def _outcome(call, *args, on_error: str):
    try:
        return call(*args)
    except Exception as exc:
        if on_error == "raise":
            raise
        return exc


def _run_batches(fn, batches: list, workers: int, on_error: str) -> list[list]:
    """fn(job) for every job of every batch: per batch, each job's result or exception.

    With workers > 1 one process pool serves every batch: every job is
    queued up front, so a worker that finishes early takes the next batch's
    job instead of idling at the end of a batch.  A worker that dies breaks
    the pool: the batch being collected counts its lost jobs as failures,
    and the batches after it are queued again on a fresh pool.  Otherwise
    the jobs run in this process, in order.  With on_error="raise" the first
    failure, in job order, is raised instead of returned.
    """
    if on_error not in ("record", "raise"):
        raise ValueError("on_error must be 'record' or 'raise'")
    if workers <= 1:
        return [[_outcome(fn, job, on_error=on_error) for job in batch] for batch in batches]
    outcomes = []
    while len(outcomes) < len(batches):
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            queued = [[pool.submit(fn, job) for job in batch] for batch in batches[len(outcomes):]]
            for futures in queued:
                outcomes.append([_outcome(f.result, on_error=on_error) for f in futures])
                if any(isinstance(f.exception(), BrokenProcessPool) for f in futures):
                    break
        finally:
            # after a raise, an interrupt or a break, drop the jobs not yet started
            pool.shutdown(cancel_futures=True)
    return outcomes


def _mean_var(values) -> tuple[float, float]:
    """Mean and variance (ddof 1 from two values on) of values; NaN for none."""
    if not values:
        return math.nan, math.nan
    values = np.array(values)
    return float(values.mean()), float(values.var(ddof=1 if values.size > 1 else 0))


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

    def junk_frequency_sum(self, signal_covariates=SIGNAL_COVARIATES) -> float:
        """Summed selection frequency of the covariates outside signal_covariates (1-based)."""
        signal = {j - 1 for j in signal_covariates}
        return float(sum(f for j, f in enumerate(self.selection_frequency) if j not in signal))


def _grid_row(cfg: ExperimentConfig, delta: float, sigma2: float, outcomes: list) -> GridResultRow:
    metrics = []
    for rep, outcome in enumerate(outcomes):
        if isinstance(outcome, Exception):
            logger.error("grid cell delta=%r sigma2=%r: replication %d failed",
                         delta, sigma2, rep, exc_info=outcome)
        else:
            metrics.append(outcome)
    avg_mean, avg_var = _mean_var([m["test_auc_averaged"] for m in metrics])
    rand_mean, rand_var = _mean_var([m["test_auc_randomized"] for m in metrics])
    freq = (np.mean([m["selection_frequency"] for m in metrics], axis=0) if metrics
            else np.full(cfg.d, math.nan))
    return GridResultRow(
        delta=delta, sigma2=sigma2,
        auc_averaged_mean=avg_mean, auc_averaged_var=avg_var,
        auc_randomized_mean=rand_mean, auc_randomized_var=rand_var,
        selection_frequency=freq, failures=len(outcomes) - len(metrics),
    )


def run_grid_cell(cfg: ExperimentConfig, delta: float, sigma2: float,
                  on_error: str = "record") -> GridResultRow:
    """Run all replications of one (delta, sigma2) cell and aggregate: a one-cell run_grid."""
    return run_grid(cfg, (delta,), (sigma2,), on_error)[0]


def run_grid(cfg: ExperimentConfig, deltas=TABLE_DELTAS, sigma2s=TABLE_SIGMA2S,
             on_error: str = "record") -> list[GridResultRow]:
    """Sweep the (delta, sigma2) grid, one batch of cfg.reps replications per cell.

    With on_error="record" a failed replication is logged and counted in
    `failures`, and its row aggregates the replications that succeeded; the
    row is NaN only when every replication failed.  on_error="raise"
    re-raises the first failure.
    """
    cells = [(delta, sigma2) for delta in deltas for sigma2 in sigma2s]
    batches = [[(asdict(cfg), delta, sigma2, rep) for rep in range(cfg.reps)]
               for delta, sigma2 in cells]
    outcomes = _run_batches(_run_grid_replication, batches, cfg.workers, on_error)
    return [_grid_row(cfg, delta, sigma2, cell) for (delta, sigma2), cell in zip(cells, outcomes)]


def grid_to_csv(rows: list[GridResultRow], path) -> None:
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
            record += [f"{row.junk_frequency_sum():.6f}", str(row.failures)]
            writer.writerow(record)


@dataclass
class CvResult:
    fold_auc_averaged: list
    fold_auc_randomized: list

    def summary(self) -> dict:
        avg_mean, avg_var = _mean_var(self.fold_auc_averaged)
        rand_mean, rand_var = _mean_var(self.fold_auc_randomized)
        return {
            "cv_auc_averaged_mean": avg_mean,
            "cv_auc_averaged_var": avg_var,
            "cv_auc_randomized_mean": rand_mean,
            "cv_auc_randomized_var": rand_var,
        }


def run_cv(dataset: Dataset, cfg: ExperimentConfig) -> CvResult:
    """Stratified k-fold cross-validation of both estimators; a failed fold is raised."""
    folds = make_splits(dataset.n, cfg.folds, cfg.seed, dataset.y)
    jobs = [(dataset, test_idx, cfg, i) for i, test_idx in enumerate(folds)]
    (metrics,) = _run_batches(_run_cv_fold, [jobs], cfg.workers, "raise")
    return CvResult(fold_auc_averaged=[m["test_auc_averaged"] for m in metrics],
                    fold_auc_randomized=[m["test_auc_randomized"] for m in metrics])


def write_metadata(path, cfg: ExperimentConfig, extra: dict | None = None) -> None:
    """Config, seed, and version: everything needed to reproduce a run."""
    record = {"version": __version__, "config": asdict(cfg)}
    if extra:
        record.update(extra)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")

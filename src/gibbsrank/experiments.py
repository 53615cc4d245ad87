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
gibbs.tilted_size_log_weights at the run's beta and sigma2,

    beta^(kM) * Vol_kM(2) * (2 pi sigma2)^(-kM/2)   for model size k,

rather than the stated gibbs.geometric_size_log_weights beta^(kM), with
move probability sampler.MOVE_PROB, prior-ball radius gibbs.BALL_RADIUS and
ridge penalty sampler.RIDGE_LAMBDA.  Run metadata records this prior as
"size_prior".
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

import numpy as np

from .basis import SparseCoef, build_features, score, score_dense
from .data import (SIGNAL_COVARIATES, Dataset, derive_seed, gen_synthetic, make_splits,
                   refuse_one_class)
from .gibbs import GibbsConfig, prior_size_distribution, tilted_size_log_weights
from .risk import auc
from .sampler import ChainTrace, FinalEstimators, SamplerConfig, run_chain

logger = logging.getLogger(__name__)

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
        chain_configs(self, 1, self.d)  # SamplerConfig's, beta's and GibbsConfig's checks


def effective_delta(cfg: ExperimentConfig, n_train: int) -> float:
    """Map a grid-scale delta to the internal inverse temperature."""
    return DELTA_COEFF * n_train * cfg.delta ** DELTA_POWER


def chain_configs(cfg: ExperimentConfig, n_train: int, d: int):
    # SamplerConfig first: its checks name sigma2 before the tilted weights take its log
    scfg = SamplerConfig(iters=cfg.iters, burnin=cfg.burnin, sigma2=cfg.sigma2)
    gcfg = GibbsConfig(delta=effective_delta(cfg, n_train),
                       size_log_weights=tilted_size_log_weights(d, cfg.beta, cfg.sigma2))
    return gcfg, scfg


def size_prior(cfg: ExperimentConfig, d: int) -> list[float]:
    """Distribution of the model size under the prior of cfg's chains on d covariates.

    It depends on beta and sigma2 only, not on delta or the sample size.
    """
    gcfg, _ = chain_configs(cfg, cfg.n_train, d)
    return prior_size_distribution(gcfg).tolist()


@dataclass
class FitResult:
    # what metrics.json holds: {train,test}_auc_{averaged,randomized},
    # acceptance_rate and the per-covariate selection_frequency
    metrics: dict
    trace: ChainTrace
    estimators: FinalEstimators


def _estimator_aucs(estimators: FinalEstimators, features, labels, split: str) -> dict:
    """{split}_auc_averaged and {split}_auc_randomized: both estimators' AUCs on features."""
    return {f"{split}_auc_averaged": auc(score_dense(estimators.averaged, features), labels),
            f"{split}_auc_randomized": auc(score(estimators.randomized, features), labels)}


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
    metrics = _estimator_aucs(estimators, features, train.y, "train")
    del features
    support, restricted = _on_support(estimators, train.d)
    metrics.update(_estimator_aucs(restricted, build_features(test.X, support), test.y, "test"))
    metrics["acceptance_rate"] = trace.acceptance_rate
    metrics["selection_frequency"] = trace.selection_frequency().tolist()
    return FitResult(metrics, trace, estimators)


def _run_grid_replication(args) -> dict:
    cfg, rep = args  # cfg carries its cell's delta and sigma2
    ss = derive_seed(cfg.seed, "grid", repr(cfg.delta), repr(cfg.sigma2), rep)
    data_rng, chain_rng = [np.random.default_rng(s) for s in ss.spawn(2)]
    train = gen_synthetic(cfg.n_train, cfg.d, seed=data_rng)
    test = gen_synthetic(cfg.n_test, cfg.d, seed=data_rng)
    # a one-class draw has no AUC, so it fails before its chain
    refuse_one_class(train, "train draw", "train")
    refuse_one_class(test, "test draw", "test")
    return fit_and_evaluate(train, test, cfg, chain_rng).metrics


def _run_cv_fold(args) -> dict:
    dataset, test_idx, cfg, fold = args
    train_idx = np.setdiff1d(np.arange(dataset.n), test_idx)
    chain_rng = np.random.default_rng(derive_seed(cfg.seed, "cv", fold))
    # only the metrics outlive the fold, not its trace
    return fit_and_evaluate(dataset.subset(train_idx), dataset.subset(test_idx),
                            cfg, chain_rng).metrics


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


def auc_summary(metrics: list[dict]) -> dict:
    """auc_{averaged,randomized}_{mean,var}: the mean and variance (ddof 1
    from two fits on) of both test AUCs over fits' metrics; NaN for none."""
    summary = {}
    for estimator in ("averaged", "randomized"):
        values = np.array([m[f"test_auc_{estimator}"] for m in metrics])
        empty = values.size == 0
        summary[f"auc_{estimator}_mean"] = math.nan if empty else float(values.mean())
        summary[f"auc_{estimator}_var"] = (
            math.nan if empty else float(values.var(ddof=1 if values.size > 1 else 0)))
    return summary


def _grid_row(cfg: ExperimentConfig, delta: float, sigma2: float, outcomes: list) -> dict:
    """One cell's grid.csv row: delta, sigma2, auc_summary's keys, freq_1 ...
    freq_d (the mean selection frequency per covariate), junk_frequency_sum
    (summed over the covariates outside SIGNAL_COVARIATES) and failures."""
    metrics = []
    for rep, outcome in enumerate(outcomes):
        if isinstance(outcome, Exception):
            logger.error("grid cell delta=%r sigma2=%r: replication %d failed",
                         delta, sigma2, rep, exc_info=outcome)
        else:
            metrics.append(outcome)
    freq = (np.mean([m["selection_frequency"] for m in metrics], axis=0) if metrics
            else np.full(cfg.d, math.nan)).tolist()
    row = {"delta": delta, "sigma2": sigma2, **auc_summary(metrics)}
    row.update({f"freq_{j}": f for j, f in enumerate(freq, 1)})
    row["junk_frequency_sum"] = sum(f for j, f in enumerate(freq, 1) if j not in SIGNAL_COVARIATES)
    row["failures"] = len(outcomes) - len(metrics)
    return row


def run_grid_cell(cfg: ExperimentConfig, delta: float, sigma2: float) -> dict:
    """Run all replications of one (delta, sigma2) cell and aggregate: a one-cell run_grid."""
    return run_grid(cfg, (delta,), (sigma2,))[0]


def run_grid(cfg: ExperimentConfig, deltas, sigma2s) -> list[dict]:
    """Sweep the (delta, sigma2) grid, one batch of cfg.reps replications per cell.

    A failed replication is logged and counted in `failures`, and its row
    aggregates the replications that succeeded; the row is NaN only when
    every replication failed.
    """
    cells = [(delta, sigma2) for delta in deltas for sigma2 in sigma2s]
    batches = [[(replace(cfg, delta=delta, sigma2=sigma2), rep) for rep in range(cfg.reps)]
               for delta, sigma2 in cells]
    outcomes = _run_batches(_run_grid_replication, batches, cfg.workers, "record")
    return [_grid_row(cfg, delta, sigma2, cell) for (delta, sigma2), cell in zip(cells, outcomes)]


def run_cv(dataset: Dataset, cfg: ExperimentConfig) -> list[dict]:
    """Stratified k-fold cross-validation of both estimators: each fold's
    metrics, in fold order; a failed fold is raised."""
    folds = make_splits(dataset.y, cfg.folds, cfg.seed)
    jobs = [(dataset, test_idx, cfg, i) for i, test_idx in enumerate(folds)]
    (metrics,) = _run_batches(_run_cv_fold, [jobs], cfg.workers, "raise")
    return metrics


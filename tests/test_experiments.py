"""Experiment harness: temperature mapping, grid aggregation, CV."""

import os
from dataclasses import replace

import numpy as np
import pytest

from gibbsrank import experiments
from gibbsrank.basis import SparseCoef, build_features, score, score_dense
from gibbsrank.cli import grid_to_csv
from gibbsrank.data import gen_synthetic, save_csv, load_csv
from gibbsrank.gibbs import tilted_size_log_weights
from gibbsrank.risk import auc
from gibbsrank.sampler import FinalEstimators
from gibbsrank.experiments import (
    ExperimentConfig,
    auc_summary,
    chain_configs,
    effective_delta,
    fit_and_evaluate,
    run_cv,
    run_grid,
    run_grid_cell,
)
from oracles import active, bits

FAST = dict(iters=60, burnin=40, n_train=80, n_test=80, reps=1)
_real_replication = experiments._run_grid_replication


def frequencies(row: dict, d: int) -> np.ndarray:
    """A grid row's freq_1 ... freq_d."""
    return np.array([row[f"freq_{j}"] for j in range(1, d + 1)])


def _flaky_replication(args):
    # module level, so a pool worker can unpickle it
    if args[1] == 1:
        raise RuntimeError("replication 1 broke")
    return _real_replication(args)


def _failing_fold(args):
    raise RuntimeError(f"fold {args[3]} broke")


def _dying_replication(args):
    # replication 1 of the delta=1 cell kills its pool worker outright
    if args[0].delta == 1.0 and args[1] == 1:
        os._exit(1)
    return _real_replication(args)


@pytest.fixture
def pool_starts(monkeypatch):
    """One entry per process pool the experiments module starts."""
    starts = []

    class CountingPool(experiments.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
    return starts


def test_effective_delta_mappings():
    base = ExperimentConfig(delta=0.1)
    assert effective_delta(base, 1000) == 1.5 * 1000 * 0.1**0.70


def test_chain_configs_carry_settings():
    cfg = ExperimentConfig(sigma2=0.5, iters=123, burnin=45, beta=0.4)
    gcfg, scfg = chain_configs(cfg, n_train=200, d=7)
    assert gcfg.d == 7
    assert gcfg.delta == pytest.approx(effective_delta(cfg, 200))
    assert scfg.iters == 123
    assert scfg.burnin == 45
    assert scfg.sigma2 == 0.5
    # beta reaches the chain only through the size prior it builds
    assert gcfg.size_log_weights == tilted_size_log_weights(7, 0.4, cfg.sigma2)


@pytest.mark.parametrize("delta, sigma2, seed, support", [
    (1.0, 0.01, 2, [3, 9]),  # both estimators on two scattered covariates
    (0.1, 0.001, 0, [4, 9]),  # the randomized mask is [4], a strict subset
    (0.01, 1.0, 0, []),  # the null cell: the chain ends on the empty model
])
def test_test_features_cover_exactly_the_estimators_support(monkeypatch, delta, sigma2,
                                                            seed, support):
    cfg = ExperimentConfig(**FAST, delta=delta, sigma2=sigma2)
    train, test = gen_synthetic(80, seed=seed), gen_synthetic(80, seed=seed + 100)
    built = []

    def spy(X, covariates=None):
        built.append((X, covariates))
        return build_features(X, covariates)

    monkeypatch.setattr(experiments, "build_features", spy)
    result = fit_and_evaluate(train, test, cfg, np.random.default_rng(seed))
    est = result.estimators
    used = est.averaged.reshape(cfg.d, -1).any(axis=1) | bits(est.randomized.active, cfg.d)
    assert np.flatnonzero(used).tolist() == support
    assert [X is train.X for X, _ in built] == [True, False] and built[1][0] is test.X
    assert built[0][1] is None and list(built[1][1]) == support
    # the unrestricted estimators on every test column score exactly alike
    full = build_features(test.X)
    assert result.metrics["test_auc_averaged"] == auc(score_dense(est.averaged, full), test.y)
    assert result.metrics["test_auc_randomized"] == auc(score(est.randomized, full), test.y)


def test_estimators_on_their_support_score_bit_for_bit_alike():
    # covariate 3 is only in the randomized mask, 1 only in the averaged rows
    d, M = 8, 13
    rng = np.random.default_rng(9)
    averaged = np.zeros((d, M))
    averaged[[1, 6]] = rng.standard_normal((2, M))
    averaged[6, :5] = 0.0
    randomized = SparseCoef(active(d, [3, 6]),
                            values=rng.standard_normal(2 * M))
    full = FinalEstimators(randomized=randomized, averaged=averaged.ravel())
    support, restricted = experiments._on_support(full, d)
    assert support.tolist() == [1, 3, 6]
    assert restricted.randomized.active.tolist() == [1, 2]
    # a read-only model over the 3 support slots
    assert restricted.randomized.active.dtype == np.intp
    assert not restricted.randomized.active.flags.writeable
    restricted.randomized.check(M, 3)
    assert restricted.randomized.values.tobytes() == randomized.values.tobytes()
    assert restricted.averaged.tobytes() == averaged[[1, 3, 6]].tobytes()
    X = rng.random((50, d))
    every, some = build_features(X), build_features(X, support)
    assert (score_dense(restricted.averaged, some).tobytes()
            == score_dense(full.averaged, every).tobytes())
    assert (score(restricted.randomized, some).tobytes()
            == score(full.randomized, every).tobytes())


def test_single_replication_cell_has_zero_variance(tmp_path):
    cfg = ExperimentConfig(**FAST)
    row = run_grid_cell(cfg, delta=1.0, sigma2=0.01)
    assert row["auc_averaged_var"] == 0.0
    assert row["failures"] == 0
    out = tmp_path / "grid.csv"
    grid_to_csv([row], out)
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].split(",")[0] == "delta"


def test_failed_replication_is_counted_not_fatal(monkeypatch):
    from gibbsrank import experiments

    cfg = ExperimentConfig(**{**FAST, "reps": 3})
    real = experiments._run_grid_replication

    def flaky(args):
        if args[1] == 1:
            raise RuntimeError("replication 1 broke")
        return real(args)

    def broken(args):
        raise RuntimeError("every replication broke")

    monkeypatch.setattr(experiments, "_run_grid_replication", flaky)
    row = run_grid(cfg, deltas=(1.0,), sigma2s=(0.01,))[0]
    assert row["failures"] == 1
    cell = replace(cfg, delta=1.0, sigma2=0.01)
    survivors = [real((cell, rep))["test_auc_averaged"] for rep in (0, 2)]
    assert row["auc_averaged_mean"] == pytest.approx(np.mean(survivors), abs=1e-15)
    assert row["auc_averaged_var"] == pytest.approx(np.var(survivors, ddof=1), abs=1e-15)
    assert np.all(np.isfinite(frequencies(row, cfg.d)))

    monkeypatch.setattr(experiments, "_run_grid_replication", broken)
    row = run_grid_cell(cfg, 1.0, 0.01)
    assert row["failures"] == 3
    assert np.isnan(row["auc_averaged_mean"])
    assert np.all(np.isnan(frequencies(row, cfg.d)))


def test_pooled_grid_uses_one_pool_and_matches_isolated_cells(monkeypatch, pool_starts):
    cfg = ExperimentConfig(**{**FAST, "reps": 2, "workers": 2})
    rows = run_grid(cfg, deltas=(1.0, 0.1), sigma2s=(0.01,))
    assert len(pool_starts) == 1
    for row in rows:
        alone = run_grid_cell(replace(cfg, workers=1), row["delta"], row["sigma2"])
        assert list(row) == list(alone)
        for key, value in row.items():
            assert np.array_equal(value, alone[key]), key

    monkeypatch.setattr(experiments, "_run_grid_replication", _flaky_replication)
    rows = run_grid(cfg, deltas=(1.0, 0.1), sigma2s=(0.01,))
    assert [row["failures"] for row in rows] == [1, 1]
    assert all(np.isfinite(row["auc_averaged_mean"]) for row in rows)


def test_worker_death_costs_only_the_cell_being_aggregated(monkeypatch, pool_starts):
    cfg = ExperimentConfig(**{**FAST, "reps": 2, "workers": 2})
    monkeypatch.setattr(experiments, "_run_grid_replication", _dying_replication)
    rows = run_grid(cfg, deltas=(1.0, 0.1, 0.01), sigma2s=(0.01,))
    assert len(pool_starts) == 2  # the broken pool and the fresh one
    assert [(r["delta"], r["sigma2"]) for r in rows] == [(1.0, 0.01), (0.1, 0.01), (0.01, 0.01)]
    assert rows[0]["failures"] >= 1
    for row in rows[1:]:
        alone = run_grid_cell(replace(cfg, workers=1), row["delta"], row["sigma2"])
        assert row["failures"] == 0
        for key, value in row.items():
            assert np.array_equal(value, alone[key]), key


def test_junk_frequency_excludes_signal_covariates():
    cfg = ExperimentConfig(**FAST)
    row = run_grid_cell(cfg, delta=1.0, sigma2=0.01)
    total = float(frequencies(row, cfg.d).sum())
    signal = row["freq_3"] + row["freq_5"]
    assert row["junk_frequency_sum"] == pytest.approx(total - signal)


def test_cv_agrees_with_holdout_fit(tmp_path):
    """Internal consistency: mean CV AUC tracks a single holdout fit."""
    cfg = ExperimentConfig(iters=400, burnin=300, reps=1, folds=5,
                           n_train=1000, n_test=1000, seed=0)
    data = gen_synthetic(1000, seed=4)
    path = tmp_path / "cv.csv"
    save_csv(data, path)
    reloaded = load_csv(path)
    folds = run_cv(reloaded, cfg)
    summary = auc_summary(folds)
    holdout = fit_and_evaluate(gen_synthetic(1000, seed=5),
                               gen_synthetic(1000, seed=6), cfg, np.random.default_rng(cfg.seed))
    assert len(folds) == 5
    assert abs(summary["auc_averaged_mean"] - holdout.metrics["test_auc_averaged"]) <= 0.03


def test_pooled_cv_uses_one_pool_and_matches_in_process_folds(pool_starts):
    cfg = ExperimentConfig(**{**FAST, "folds": 3, "workers": 2})
    data = gen_synthetic(90, seed=2)
    pooled = run_cv(data, cfg)
    assert len(pool_starts) == 1
    alone = run_cv(data, replace(cfg, workers=1))
    assert len(pool_starts) == 1
    for key in ("test_auc_averaged", "test_auc_randomized"):
        assert [m[key] for m in pooled] == [m[key] for m in alone]


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_fold_is_raised(monkeypatch, workers):
    cfg = ExperimentConfig(**{**FAST, "folds": 2, "workers": workers})
    monkeypatch.setattr(experiments, "_run_cv_fold", _failing_fold)
    with pytest.raises(RuntimeError, match="fold 0 broke"):
        run_cv(gen_synthetic(40, seed=2), cfg)

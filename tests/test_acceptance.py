"""Acceptance suite: one pass/fail line per criterion.

Run with `pytest -v`; the [criterion N] lines below summarize the outcome of
each check at its stated tolerance.  The heavy replicated grid cells are
computed once and shared by criteria 3-5.
"""

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from gibbsrank.basis import SparseCoef, build_features, score
from gibbsrank.data import gen_synthetic
from gibbsrank.gibbs import (
    BALL_RADIUS,
    GibbsConfig,
    geometric_size_log_weights,
    log_ball_volume,
    log_binomial,
    log_gibbs,
    log_prior,
    prior_size_distribution,
)
from gibbsrank.experiments import ExperimentConfig, run_grid_cell
from gibbsrank.risk import auc, empirical_rank_risk
from gibbsrank.sampler import (
    BenchmarkCache,
    ChainState,
    SamplerConfig,
    mcmc_step,
    run_chain,
    select_index,
)
from oracles import FakeRng, active, log_proposal_density, pair_auc, pair_risk, random_instance


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def grid_cells():
    """The three replicated grid cells shared by criteria 3-5 (R=20 each),
    each on a two-worker pool: rows do not depend on the worker count."""
    cfg = ExperimentConfig(reps=20, workers=2)
    cells = {}
    for delta, sigma2 in [(0.1, 0.001), (1.0, 0.01), (0.01, 1.0)]:
        cells[(delta, sigma2)] = run_grid_cell(cfg, delta, sigma2)
    return cells


def test_criterion_1_exact_risk_kernels():
    rng = np.random.default_rng(2024)
    start = time.time()
    for _ in range(200):
        scores, labels = random_instance(rng)
        assert empirical_rank_risk(scores, labels) == pair_risk(scores, labels)
        for policy in ("strict", "half"):
            assert auc(scores, labels, policy) == pair_auc(scores, labels, policy)
    elapsed = time.time() - start
    report(1, elapsed < 5.0,
           f"200 random instances match the O(n^2) oracle exactly in {elapsed:.2f}s (< 5s)")


def test_criterion_2_oracle_auc():
    start = time.time()
    data = gen_synthetic(200000, seed=6)
    value = auc(data.eta, data.y)
    elapsed = time.time() - start
    ok = abs(value - 0.7387) <= 0.005 and elapsed < 10.0
    report(2, ok,
           f"Monte-Carlo oracle AUC {value:.4f} vs 0.7387 +- 0.005 in {elapsed:.2f}s (< 10s)")


def test_criterion_3_best_cell_auc(grid_cells):
    row = grid_cells[(0.1, 0.001)]
    ok = abs(row["auc_averaged_mean"] - 0.731) <= 0.02
    report(3, ok,
           f"cell delta=0.1 sigma2=0.001: mean test AUC {row['auc_averaged_mean']:.4f} "
           f"(var {row['auc_averaged_var']:.4f}) vs 0.731 +- 0.02 over R=20")


def test_criterion_4_variable_selection(grid_cells):
    row = grid_cells[(1.0, 0.01)]
    f3 = row["freq_3"]
    f5 = row["freq_5"]
    junk = row["junk_frequency_sum"]
    ok = f3 >= 0.99 and f5 >= 0.99 and junk <= 0.15
    report(4, ok,
           f"cell delta=1 sigma2=0.01: freq(x3)={f3:.4f}, freq(x5)={f5:.4f} (>= 0.99), "
           f"junk sum {junk:.4f} (<= 0.15)")


def test_criterion_5_ordering_property(grid_cells):
    good = grid_cells[(0.1, 0.001)]["auc_averaged_mean"]
    bad = grid_cells[(0.01, 1.0)]["auc_averaged_mean"]
    gap = good - bad
    report(5, gap >= 0.03,
           f"mean AUC {good:.4f} at (0.1, 0.001) vs {bad:.4f} at (0.01, 1): gap {gap:.4f} (>= 0.03)")


def test_criterion_6_prior_log_ratio_identity():
    d, M, beta = 20, 13, 0.5
    cfg = GibbsConfig(delta=1.0, size_log_weights=geometric_size_log_weights(d, beta, M), M=M)
    worst = 0.0
    for k in range(1, d):
        def coef(size):
            values = np.zeros(size * M)
            values[0] = 1.0
            return SparseCoef(active(d, range(size)), values=values)

        lhs = log_prior(coef(k + 1), cfg) - log_prior(coef(k), cfg)
        rhs = (M * math.log(beta)
               + log_binomial(d, k) - log_binomial(d, k + 1)
               - log_ball_volume((k + 1) * cfg.M, BALL_RADIUS)
               + log_ball_volume(k * cfg.M, BALL_RADIUS))
        worst = max(worst, abs(lhs - rhs))
    report(6, worst < 1e-10,
           f"size-ratio identity over all k < {d} (M={M}): max abs error {worst:.2e} (< 1e-10)")


def test_criterion_7a_selection_frequencies():
    chisquare = pytest.importorskip("scipy.stats", exc_type=ImportError).chisquare
    rng = np.random.default_rng(99)
    weights = np.array([1.0, 3.0, 0.5, 2.0])
    log_w = np.log(weights)
    n_draws = 100000
    counts = np.zeros(weights.size)
    for _ in range(n_draws):
        counts[select_index(rng, log_w)] += 1
    expected = weights / weights.sum() * n_draws
    _, pvalue = chisquare(counts, expected)
    report(7, pvalue > 0.001,
           f"(a) candidate selection chi-square p={pvalue:.4f} over 1e5 draws (> 0.001)")


def test_criterion_7b_self_proposal_acceptance():
    data = gen_synthetic(30, d=5, seed=5)
    fm = build_features(data.X)
    gcfg = GibbsConfig(delta=50.0, size_log_weights=geometric_size_log_weights(5, 0.5))
    scfg = SamplerConfig(iters=1000, burnin=800, sigma2=0.01)
    bench = BenchmarkCache(fm, data.y)
    model = active(5, [2])
    mean = bench.fit(model)
    theta = SparseCoef(model, values=mean.copy())
    r = empirical_rank_risk(score(theta, fm), data.y)
    state = ChainState(theta=theta, risk=r,
                       log_post=log_gibbs(theta, r, gcfg),
                       log_prop=log_proposal_density(mean, mean, scfg.sigma2))
    # stay move with zero proposal noise: the candidate equals the state, so
    # the ratio is exactly 1 and even a uniform draw of 1 - 1e-12 accepts
    new_state, rec = mcmc_step(state, data.y, gcfg, scfg, bench,
                               FakeRng([0.99, 0.5, 1.0 - 1e-12]))
    assert rec.move == "stay"
    assert np.array_equal(new_state.theta.values, mean)
    report(7, rec.accepted, "(b) self-proposal stay move accepted with ratio exactly 1")


def test_criterion_7c_prior_recovery_at_zero_temperature():
    gcfg = GibbsConfig(delta=1e-8, size_log_weights=geometric_size_log_weights(5, 0.85))
    target = prior_size_distribution(gcfg)
    counts = np.zeros(gcfg.d + 1)
    for seed in range(10):
        data = gen_synthetic(40, d=5, seed=seed)
        scfg = SamplerConfig(iters=3000, burnin=500, sigma2=0.5)
        trace, _ = run_chain(build_features(data.X), data.y, gcfg, scfg,
                             np.random.default_rng(seed))
        counts += np.bincount(trace.masks.sum(axis=1)[scfg.burnin:], minlength=gcfg.d + 1)
    empirical = counts / counts.sum()
    tv = 0.5 * float(np.abs(empirical - target).sum())
    report(7, tv < 0.1,
           f"(c) delta->0 model-size distribution within TV {tv:.4f} of the prior (< 0.1)")


# The sha256 of each file criterion 8's runs write, by run and file name.  A
# change that moves an output on purpose updates this table, and the pinned
# estimators.json copies, and says so in CHANGES.md.
PINNED_SHA256 = {
    "cv/cv.csv": "24cc927f9b17abbca968c715e99c7c2e5e77b0ff23d8bb836329995bcee626cb",
    "cv/cv_metadata.json": "4f4c79e955d309e980cc86c371b5e4f0b0b278d20d79ea4b560047f3f5509fd2",
    "fit/fit_metadata.json": "2680a369a224eebde38da1889f34bd036ab2a9295e8a2ecad8c4d992d42431fd",
    "fit/metrics.json": "71712e57d1db6dfe826478cf2976ce3bf6e23b9e8e69d5055c09f3cf1150051f",
    "fit/trace.csv": "72f39203172d064e6cee0c8304daa5b5e969f4f1ba42f50ebb11e91065adda10",
    "fit-burnin-0/fit_metadata.json":
        "193241ffec7d0d84fbe6387a7a51973f61ddc7546bfb5ce6c6a7c44451319ef7",
    "fit-burnin-0/metrics.json": "2c19d2b363ce001a45699e5c63a9e5d934abfcc6809b11a80267f0dfdc64bc9f",
    "fit-burnin-0/trace.csv": "72f39203172d064e6cee0c8304daa5b5e969f4f1ba42f50ebb11e91065adda10",
    "fit-d-100/fit_metadata.json":
        "0195cf009c44dcf8d406fa202299f582c4d5c113066db4ad92b26bf07452b275",
    "fit-d-100/metrics.json": "1d8f566f6695ccdc093ebe6e736afacd214d79348c25060b00a0c625ba8ea3ee",
    "fit-d-100/trace.csv": "f8e5e7b803baf33ce3ea463a18d622e451620e4dac28c8e5c7a2d0f18e246446",
    "grid/grid.csv": "4b4a96c84bbe23599aff9edab82f01892aa435c18e0f41117daf83bb1fd303fa",
    "grid/grid_metadata.json": "086dc08c3b25387382d630605d260fc120050692b654b9ba46802c672f1eff7f",
    "synth/synth_metadata.json": "6a9000350a162eb5a28e05f1f396544027231ab19aebf9f2ed2b91c17ade8b66",
    "synth/test.csv": "3bb7231332e4e4b91f7719976133af1f37eb149f08995e1b13c798bccebeb54b",
    "synth/train.csv": "610a4c2cdbf8b6c01364c97572c8e2c7cae45f8e6f33bf4ac15f280547d21b91",
}
# estimators.json carries ridge-solve coefficients, whose last bits follow the
# BLAS kernel, so each is compared by value with its copy here instead
PINNED_ESTIMATORS = Path(__file__).parent / "criterion_8"


def estimators_mismatch(got: dict, want: dict) -> str | None:
    """What sets two estimators.json records apart, or None if they name the
    same active covariates and every value lies within 1e-12 of the pinned
    record's largest |value|."""
    if got["randomized"]["active_covariates"] != want["randomized"]["active_covariates"]:
        return "the randomized estimator's active covariates differ"
    got_values, want_values = (np.array(r["randomized"]["values"] + r["averaged"])
                               for r in (got, want))
    if got_values.shape != want_values.shape or not np.array_equal(got_values == 0,
                                                                   want_values == 0):
        return "the values' count or zero pattern differs"
    worst = float(np.abs(got_values - want_values).max(initial=0.0))
    scale = float(np.abs(want_values).max(initial=0.0))
    return None if worst <= 1e-12 * scale else f"a value differs by {worst:.3g} (scale {scale:.3g})"


def test_criterion_8_bitwise_determinism(tmp_path):
    """Every file written by one synth, three fits (at the base settings, at
    burn-in 0, and at d=100, whose add neighbourhoods hold about 98
    candidates), a two-cell grid and a 2-fold cv matches its pinned sha256
    or, for estimators.json, its pinned values and the JSON writer's layout.
    This is tier-1's one happy-path run of synth, fit, grid and cv."""
    from gibbsrank.cli import main

    data = ["--seed", "5", "--n-train", "200", "--n-test", "200"]
    base = [*data, "--iters", "150", "--burnin", "100"]
    for run, argv in {
        "synth": ["synth", *data],
        "fit": ["fit", *base],
        "fit-burnin-0": ["fit", *base, "--burnin", "0"],
        "fit-d-100": ["fit", *base, "--d", "100"],
        "grid": ["grid", *base, "--reps", "2", "--deltas", "1", "--sigma2s", "0.01,0.1"],
        "cv": ["cv", "--data", str(tmp_path / "synth" / "train.csv"), "--folds", "2",
               "--seed", "5", "--iters", "150", "--burnin", "100"],
    }.items():
        assert main([*argv, "--out", str(tmp_path / run)]) == 0

    written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
                     if p.is_file())
    pinned_estimators = sorted(p.relative_to(PINNED_ESTIMATORS).as_posix()
                               for p in PINNED_ESTIMATORS.rglob("estimators.json"))
    assert written == sorted([*PINNED_SHA256, *pinned_estimators])
    mismatches = []
    for name in written:
        raw = (tmp_path / name).read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        if name in PINNED_SHA256:
            problem = None if digest == PINNED_SHA256[name] else "its sha256 differs"
        elif raw != (json.dumps(json.loads(raw), indent=2, sort_keys=True) + "\n").encode():
            problem = "it is not laid out by the JSON writer (indent 2, keys sorted, a newline)"
        else:
            problem = estimators_mismatch(json.loads(raw),
                                          json.loads((PINNED_ESTIMATORS / name).read_text()))
        if problem:
            mismatches.append(f"{name} (new sha256 {digest}): {problem}")
    report(8, not mismatches,
           f"{len(written)} output files of synth, 3 fits, grid and cv match the pinned table"
           if not mismatches else "outputs moved: " + "; ".join(mismatches))

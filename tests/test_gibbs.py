"""Prior and pseudo-posterior log-densities, checked against log-gamma identities."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import gammaln

from gibbsrank.basis import SparseCoef, build_features
from gibbsrank.data import gen_synthetic
from gibbsrank.gibbs import (
    GibbsConfig,
    log_ball_volume,
    log_binomial,
    log_gibbs,
    log_prior,
    prior_size_distribution,
    tilted_size_log_weights,
)
from gibbsrank.sampler import SamplerConfig, run_chain
from oracles import active as active_indices


def unit_coef(d, active, M, norm=1.0):
    """Coefficient vector of the given norm supported on `active`."""
    values = np.zeros(len(active) * M)
    values[0] = norm
    return SparseCoef(active_indices(d, active), values=values)


def test_config_validation():
    with pytest.raises(ValueError):
        GibbsConfig(delta=0.0, d=5, beta=0.5)
    with pytest.raises(ValueError):
        GibbsConfig(delta=1.0, d=5, beta=1.0)
    with pytest.raises(ValueError):
        GibbsConfig(delta=1.0, d=5, beta=0.5, ball_radius=-1.0)
    with pytest.raises(ValueError, match="d \\+ 1 = 6 entries"):
        GibbsConfig(delta=1.0, d=5, beta=0.5, size_log_weights=(0.0,) * 5)
    with pytest.raises(ValueError):
        GibbsConfig(delta=1.0, d=5, beta=0.5, size_log_weights=(0.0,) * 7)
    with pytest.raises(TypeError):  # ExperimentConfig.beta is the one default
        GibbsConfig(delta=1.0, d=5)


def test_ball_volume_closed_forms():
    # dimension 1: interval of length 2r; dimension 2: pi r^2; dimension 3: 4/3 pi r^3
    r = 2.0
    assert log_ball_volume(0, r) == 0.0
    assert log_ball_volume(1, r) == pytest.approx(math.log(2 * r), abs=1e-12)
    assert log_ball_volume(2, r) == pytest.approx(math.log(math.pi * r**2), abs=1e-12)
    assert log_ball_volume(3, r) == pytest.approx(math.log(4.0 / 3.0 * math.pi * r**3), abs=1e-12)


def test_log_binomial_exact_small_values():
    assert log_binomial(5, 2) == pytest.approx(math.log(10), abs=1e-12)
    assert log_binomial(20, 0) == pytest.approx(0.0, abs=1e-12)


def test_empty_model_log_prior_is_zero():
    cfg = GibbsConfig(delta=1.0, d=5, beta=0.5)
    theta = SparseCoef(active_indices(5, []), values=np.zeros(0))
    assert log_prior(theta, cfg) == 0.0


def test_outside_ball_is_minus_infinity():
    cfg = GibbsConfig(delta=1.0, d=5, beta=0.5, ball_radius=2.0)
    theta = unit_coef(5, [0], cfg.M, norm=2.5)
    assert log_prior(theta, cfg) == -math.inf


def test_dimension_mismatch_raises():
    cfg = GibbsConfig(delta=1.0, d=5, beta=0.5)
    theta = unit_coef(6, [5], cfg.M)  # a model over 6 covariates naming the sixth
    with pytest.raises(ValueError):
        log_prior(theta, cfg)


@pytest.mark.parametrize("prior", ["default", "tilted"])
def test_log_prior_size_ratio_identity(prior):
    """Moving from model size k to k+1 changes the log prior by
    w[k+1] - w[k] + log C(d,k) - log C(d,k+1) minus the ball-volume increment."""
    d, M = 20, 13
    cfg = GibbsConfig(delta=1.0, d=d, beta=0.37, M=M)
    if prior == "tilted":
        cfg = replace(cfg, size_log_weights=tilted_size_log_weights(cfg, 0.01))
    w = cfg.size_log_weights
    for k in range(1, d):
        lo = log_prior(unit_coef(d, list(range(k)), M), cfg)
        hi = log_prior(unit_coef(d, list(range(k + 1)), M), cfg)
        expected = (
            w[k + 1] - w[k]
            + log_binomial(d, k)
            - log_binomial(d, k + 1)
            - log_ball_volume(cfg.ball_dim(k + 1), cfg.ball_radius)
            + log_ball_volume(cfg.ball_dim(k), cfg.ball_radius)
        )
        assert hi - lo == pytest.approx(expected, abs=1e-10)


def test_log_prior_reads_the_closed_form_size_term_bit_for_bit():
    """log_prior's size term is -log C(d, k) + w[k] - log Vol_kM(R), the same
    double for every k, whether w is the default, the tilted vector or one
    put in by dataclasses.replace; the ball test and the empty model stay."""
    d = 12
    default = GibbsConfig(delta=1.0, d=d, beta=0.37)
    tilted = replace(default, size_log_weights=tilted_size_log_weights(default, 0.01))
    custom = np.random.default_rng(3).standard_normal(d + 1) * 40.0
    replaced = replace(tilted, size_log_weights=tuple(custom))
    wider = replace(replaced, ball_radius=3.5)
    for cfg in (default, tilted, replaced, wider):
        w = cfg.size_log_weights
        for k in range(d + 1):
            theta = (SparseCoef(active_indices(d, []), values=np.zeros(0)) if k == 0
                     else unit_coef(d, list(range(k)), cfg.M))
            expected = (-log_binomial(d, k) + w[k]
                        - log_ball_volume(cfg.ball_dim(k), cfg.ball_radius))
            assert log_prior(theta, cfg) == expected
        outside = unit_coef(d, [0, 4], cfg.M, norm=cfg.ball_radius * 1.01)
        assert log_prior(outside, cfg) == -math.inf
    assert replaced.size_log_weights == tuple(custom)
    for cfg in (default, tilted):
        assert log_prior(SparseCoef(active_indices(d, []), values=np.zeros(0)), cfg) == 0.0


def test_ball_dim():
    assert GibbsConfig(delta=1.0, d=5, beta=0.5).ball_dim(3) == 39
    assert GibbsConfig(delta=1.0, d=5, beta=0.5, M=4).ball_dim(3) == 12


def test_chain_samples_its_size_prior_vector():
    """At delta -> 0 a chain samples model sizes with the mass its size
    prior vector states: here the experiments' tilted vector
    beta^(kM) Vol_kM(2) (2 pi sigma2)^(-kM/2), far from the geometric
    beta^(kM), in the setup of acceptance criterion 7c."""
    sigma2 = 0.3
    geometric = GibbsConfig(delta=1e-8, d=5, beta=0.8)
    gcfg = replace(geometric, size_log_weights=tilted_size_log_weights(geometric, sigma2))
    dims = np.arange(gcfg.d + 1) * gcfg.M
    closed_form = (dims * (math.log(gcfg.beta) + 0.5 * math.log(math.pi) + math.log(2.0)
                           - 0.5 * math.log(2 * math.pi * sigma2))
                   - gammaln(0.5 * dims + 1.0))
    assert np.allclose(gcfg.size_log_weights, closed_form, rtol=0.0, atol=1e-10)
    counts = np.zeros(gcfg.d + 1)
    for seed in range(10):
        data = gen_synthetic(40, d=5, seed=seed)
        scfg = SamplerConfig(iters=3000, burnin=500, sigma2=sigma2)
        trace, _ = run_chain(build_features(data.X), data.y, gcfg, scfg,
                             np.random.default_rng(seed))
        counts += np.bincount(trace.model_sizes[scfg.burnin:], minlength=gcfg.d + 1)
    empirical = counts / counts.sum()
    tv_vector = 0.5 * float(np.abs(empirical - prior_size_distribution(gcfg)).sum())
    tv_geometric = 0.5 * float(np.abs(empirical - prior_size_distribution(geometric)).sum())
    assert tv_vector < 0.1
    assert tv_geometric > 0.5


@pytest.mark.parametrize("index", [-1, 7])
def test_log_prior_refuses_an_active_index_outside_the_config(index):
    """At d=5, index -1 was taken as a size-1 model and index 7 was accepted
    too; both are a ValueError naming the index and d."""
    cfg = GibbsConfig(delta=1.0, d=5, beta=0.5)
    theta = SparseCoef(np.array([index], dtype=np.intp), values=np.ones(cfg.M))
    with pytest.raises(ValueError, match=f"active index {index} outside 0..4 for d=5"):
        log_prior(theta, cfg)


def test_log_gibbs_zero_risk_equals_prior():
    cfg = GibbsConfig(delta=4.0, d=5, beta=0.5)
    theta = unit_coef(5, [1], cfg.M)
    assert log_gibbs(theta, 0.0, cfg) == log_prior(theta, cfg)


def test_log_gibbs_outside_ball():
    cfg = GibbsConfig(delta=4.0, d=5, beta=0.5)
    theta = unit_coef(5, [1], cfg.M, norm=3.0)
    assert log_gibbs(theta, 0.1, cfg) == -math.inf


def test_log_gibbs_risk_difference():
    cfg = GibbsConfig(delta=10.0, d=5, beta=0.5)
    theta = unit_coef(5, [1], cfg.M)
    diff = log_gibbs(theta, 0.2, cfg) - log_gibbs(theta, 0.3, cfg)
    assert diff == pytest.approx(1.0, abs=1e-12)


def test_prior_size_distribution_matches_direct_sum():
    cfg = GibbsConfig(delta=1.0, d=6, beta=0.8, M=3)
    dist = prior_size_distribution(cfg)
    # direct computation: the C(d,k) masks of size k each carry
    # C(d,k)^(-1) beta^(kM), so size k has unnormalized mass beta^(kM)
    raw = np.array([cfg.beta ** (k * cfg.M) for k in range(cfg.d + 1)])
    assert np.allclose(dist, raw / raw.sum(), atol=1e-14)
    assert dist.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(dist) < 0)


def test_large_delta_stays_finite():
    cfg = GibbsConfig(delta=1e7, d=5, beta=0.5)
    theta = unit_coef(5, [0], cfg.M)
    value = log_gibbs(theta, 0.4, cfg)
    assert math.isfinite(value)


def test_gammaln_consistency_of_volume():
    # independent identity: V_d(r) = pi^(d/2) r^d / Gamma(d/2 + 1)
    for dim in (5, 13, 26):
        direct = 0.5 * dim * math.log(math.pi) + dim * math.log(2.0) - gammaln(dim / 2 + 1)
        assert log_ball_volume(dim, 2.0) == pytest.approx(direct, abs=1e-12)


def test_log_binomial_matches_gammaln_oracle():
    # the package computes with math.lgamma; scipy's gammaln is the oracle
    try:
        for d in range(1, 1001):
            k = np.arange(d + 1)
            oracle = gammaln(d + 1) - gammaln(k + 1) - gammaln(d - k + 1)
            got = np.array([log_binomial(d, int(j)) for j in k])
            assert np.max(np.abs(got - oracle)) <= 1e-10, d
    finally:
        log_binomial.cache_clear()  # half a million entries no other test needs


def test_log_ball_volume_matches_gammaln_oracle():
    dims = np.arange(1, 13001)
    oracle = 0.5 * dims * math.log(math.pi) + dims * math.log(2.0) - gammaln(0.5 * dims + 1.0)
    try:
        got = np.array([log_ball_volume(int(dim), 2.0) for dim in dims])
    finally:
        log_ball_volume.cache_clear()
    assert np.max(np.abs(got - oracle)) <= 1e-10

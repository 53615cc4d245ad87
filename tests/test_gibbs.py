"""Prior and pseudo-posterior log-densities, checked against log-gamma identities."""

import math

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
    tilted_size_log_weights,
)
from gibbsrank.sampler import SamplerConfig, run_chain
from oracles import active as active_indices, closed_form_target, geometric_config, pair_risk


def unit_coef(d, active, M, norm=1.0):
    """Coefficient vector of the given norm supported on `active`."""
    values = np.zeros(len(active) * M)
    values[0] = norm
    return SparseCoef(active_indices(d, active), values=values)


def test_config_validation():
    with pytest.raises(ValueError, match="^delta must be positive$"):
        geometric_config(delta=0.0, d=5, beta=0.5)
    with pytest.raises(ValueError, match="^size_log_weights needs an entry for size 0$"):
        GibbsConfig(delta=1.0, size_log_weights=())
    with pytest.raises(TypeError):  # the size vector states the prior; it has no default
        GibbsConfig(delta=1.0)
    # d is the vector's length minus one, and M only scales the ball's dimension
    cfg = GibbsConfig(delta=1.0, size_log_weights=(0.0,) * 6, M=3)
    assert (cfg.d, cfg.M) == (5, 3)


def test_config_refuses_a_plus_inf_delta():
    """delta = +inf used to pass, and its chain never moved: the initial log
    posterior was -inf and every candidate's weight -inf or NaN."""
    with pytest.raises(ValueError, match=r"^delta is \+inf; the Gibbs posterior needs a finite delta$"):
        GibbsConfig(delta=math.inf, size_log_weights=(0.0,) * 6)


@pytest.mark.parametrize("beta", [0.0, 1.0, 1.5, -0.5, math.nan])
def test_both_size_prior_builders_refuse_a_beta_outside_the_unit_interval(beta):
    with pytest.raises(ValueError, match=r"^beta must lie in \(0, 1\)$"):
        geometric_size_log_weights(5, beta)
    with pytest.raises(ValueError, match=r"^beta must lie in \(0, 1\)$"):
        tilted_size_log_weights(5, beta, 0.01)


@pytest.mark.parametrize("k", [0, 1, 5])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_config_refuses_a_nan_or_plus_inf_size_weight_naming_its_size(k, bad):
    """A NaN or +inf log mass used to pass: at d = 5 with entry 1 set so, a
    50-iteration chain stayed at the empty model throughout, with no error
    or warning.  -inf (size k has no mass) stays allowed for k > 0."""
    weights = list(geometric_size_log_weights(5, 0.5))
    weights[k] = bad
    with pytest.raises(ValueError, match=rf"^size_log_weights\[{k}\] is {bad}; "
                                         r"a log mass is finite or -inf$"):
        GibbsConfig(delta=1.0, size_log_weights=tuple(weights))
    if k:  # size 0 must keep its mass
        weights[k] = -math.inf
        assert GibbsConfig(delta=1.0, size_log_weights=tuple(weights)).size_log_weights[k] == -math.inf


@pytest.mark.parametrize("weights", [
    (-math.inf,) + geometric_size_log_weights(5, 0.5)[1:],
    (-math.inf,) * 6,
], ids=["entry-0", "all"])
def test_config_refuses_a_size_prior_without_mass_at_size_0(weights):
    """Every chain starts at the empty model.  With entry 0 at -inf, at d = 5,
    beta = 0.5, delta = 10 and chain seed 0, the chain stopped at iteration 2
    on a non-finite acceptance ratio; with every entry -inf it stayed at size
    0 for 50 iterations without an error, and prior_size_distribution was
    NaN."""
    with pytest.raises(ValueError, match=r"^size_log_weights\[0\] is -inf; "
                                         r"every chain starts at size k = 0$"):
        GibbsConfig(delta=10.0, size_log_weights=weights)


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


def test_log_prior_reads_the_closed_form_size_term_bit_for_bit():
    """log_prior's size term is -log C(d, k) + w[k] - log Vol_kM(R), the same
    double for every k, whether w is the geometric, the tilted or an
    arbitrary vector; the ball test and the empty model stay."""
    d = 12
    geometric = geometric_config(delta=1.0, d=d, beta=0.37)
    tilted = GibbsConfig(delta=1.0, size_log_weights=tilted_size_log_weights(d, 0.37, 0.01))
    custom = np.random.default_rng(3).standard_normal(d + 1) * 40.0
    arbitrary = GibbsConfig(delta=1.0, size_log_weights=custom)
    for cfg in (geometric, tilted, arbitrary):
        w = cfg.size_log_weights
        for k in range(d + 1):
            theta = (SparseCoef(active_indices(d, []), values=np.zeros(0)) if k == 0
                     else unit_coef(d, list(range(k)), cfg.M))
            expected = (-log_binomial(d, k) + w[k]
                        - log_ball_volume(k * cfg.M, BALL_RADIUS))
            assert log_prior(theta, cfg) == expected
        outside = unit_coef(d, [0, 4], cfg.M, norm=BALL_RADIUS * 1.01)
        assert log_prior(outside, cfg) == -math.inf
    assert arbitrary.size_log_weights == tuple(custom)
    for cfg in (geometric, tilted):
        assert log_prior(SparseCoef(active_indices(d, []), values=np.zeros(0)), cfg) == 0.0


def test_chain_samples_its_size_prior_vector():
    """At delta -> 0 a chain samples model sizes with the mass its size
    prior vector states: here the experiments' tilted vector
    beta^(kM) Vol_kM(2) (2 pi sigma2)^(-kM/2), far from the geometric
    beta^(kM), in the setup of acceptance criterion 7c."""
    gammaln = pytest.importorskip("scipy.special", exc_type=ImportError).gammaln
    sigma2, beta = 0.3, 0.8
    geometric = geometric_config(delta=1e-8, d=5, beta=beta)
    gcfg = GibbsConfig(delta=1e-8, size_log_weights=tilted_size_log_weights(5, beta, sigma2))
    dims = np.arange(gcfg.d + 1) * gcfg.M
    closed_form = (dims * (math.log(beta) + 0.5 * math.log(math.pi) + math.log(2.0)
                           - 0.5 * math.log(2 * math.pi * sigma2))
                   - gammaln(0.5 * dims + 1.0))
    assert np.allclose(gcfg.size_log_weights, closed_form, rtol=0.0, atol=1e-10)
    counts = np.zeros(gcfg.d + 1)
    for seed in range(10):
        data = gen_synthetic(40, d=5, seed=seed)
        scfg = SamplerConfig(iters=3000, burnin=500, sigma2=sigma2)
        trace, _ = run_chain(build_features(data.X), data.y, gcfg, scfg,
                             np.random.default_rng(seed))
        counts += np.bincount(trace.masks.sum(axis=1)[scfg.burnin:], minlength=gcfg.d + 1)
    empirical = counts / counts.sum()
    tv_vector = 0.5 * float(np.abs(empirical - prior_size_distribution(gcfg)).sum())
    tv_geometric = 0.5 * float(np.abs(empirical - prior_size_distribution(geometric)).sum())
    assert tv_vector < 0.1
    assert tv_geometric > 0.5


def target_instance():
    """The d=2, M=1 instance of the target check: 20 rows, 10 of each class."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((20, 2))
    y = np.sign(X[:, 0] + 0.5 * X[:, 1] + 0.8 * rng.standard_normal(20))
    return X, y


def test_closed_form_target_on_the_d2_instance():
    X, y = target_instance()
    # the empty model's all-zero scorer ties every opposite-label pair
    assert pair_risk(np.zeros(20), y) == 10 * 10 / (20 * 19)
    target = closed_form_target(X, y, geometric_size_log_weights(2, 0.5, M=1), delta=20.0)
    assert np.array_equal(np.round(target, 3), [0.034, 0.435, 0.257, 0.273])


def test_closed_form_target_matches_importance_draws_from_the_prior():
    """Draws from the prior, each weighted by exp(-delta L_n), estimate the
    target's model masses; the oracle must lie within four delta-method
    standard errors of each estimate, summed as a TV distance."""
    X, y = target_instance()
    size_log_weights, delta = geometric_size_log_weights(2, 0.5, M=1), 20.0
    target = closed_form_target(X, y, size_log_weights, delta)
    rng = np.random.default_rng(11)
    draws = 200_000
    p_size = np.exp(size_log_weights) / np.sum(np.exp(size_log_weights))
    size = rng.choice(3, size=draws, p=p_size)
    # models (), (1,), (2,), (1, 2); a size-1 draw takes either covariate
    model = np.where(size == 1, 1 + rng.integers(0, 2, size=draws), np.where(size == 2, 3, 0))
    on = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=bool)[model]
    # uniform on the model's ball: a uniform direction at radius R u^(1/k)
    direction = rng.standard_normal((draws, 2)) * on
    norm = np.where(on.any(axis=1), np.hypot(direction[:, 0], direction[:, 1]), 1.0)
    radius = BALL_RADIUS * rng.random(draws) ** (1.0 / np.maximum(size, 1))
    theta = direction * (radius / norm)[:, None]
    weights = np.concatenate([np.exp(-delta * pair_risk(chunk @ X.T, y))
                              for chunk in np.array_split(theta, 8)])
    estimate = np.bincount(model, weights=weights, minlength=4) / weights.sum()
    member = model[:, None] == np.arange(4)
    se = np.sqrt(np.sum((weights[:, None] * (member - estimate)) ** 2, axis=0)) / weights.sum()
    bound = 0.5 * float(np.sum(4.0 * se))
    assert bound < 0.02  # tight enough to tell exp(w_0 - delta L_n(0)) from exp(w_0 - delta / 2)
    assert 0.5 * float(np.abs(estimate - target).sum()) < bound


@pytest.mark.parametrize("listed, index", [([3, -1], -1), ([7, 1], 7)])
def test_score_and_log_prior_bound_every_index_of_an_unsorted_model(listed, index):
    """A public SparseCoef need not be ascending: at d=5, [3, -1] once scored
    as [3, 4] because only the first and last index were bounded."""
    cfg = geometric_config(delta=1.0, d=5, beta=0.5)
    theta = SparseCoef(np.array(listed, dtype=np.intp), values=np.ones(2 * cfg.M))
    features = build_features(np.random.default_rng(4).random((6, 5)))
    message = f"active index {index} outside 0..4 for d=5"
    with pytest.raises(ValueError, match=message):
        score(theta, features)
    with pytest.raises(ValueError, match=message):
        log_prior(theta, cfg)


def test_log_gibbs_zero_risk_equals_prior():
    cfg = geometric_config(delta=4.0, d=5, beta=0.5)
    theta = unit_coef(5, [1], cfg.M)
    assert log_gibbs(theta, 0.0, cfg) == log_prior(theta, cfg)


def test_log_gibbs_outside_ball():
    cfg = geometric_config(delta=4.0, d=5, beta=0.5)
    theta = unit_coef(5, [1], cfg.M, norm=3.0)
    assert log_gibbs(theta, 0.1, cfg) == -math.inf


def test_log_gibbs_risk_difference():
    cfg = geometric_config(delta=10.0, d=5, beta=0.5)
    theta = unit_coef(5, [1], cfg.M)
    diff = log_gibbs(theta, 0.2, cfg) - log_gibbs(theta, 0.3, cfg)
    assert diff == pytest.approx(1.0, abs=1e-12)


def test_prior_size_distribution_matches_direct_sum():
    beta = 0.8
    cfg = geometric_config(delta=1.0, d=6, beta=beta, M=3)
    dist = prior_size_distribution(cfg)
    # direct computation: the C(d,k) masks of size k each carry
    # C(d,k)^(-1) beta^(kM), so size k has unnormalized mass beta^(kM)
    raw = np.array([beta ** (k * cfg.M) for k in range(cfg.d + 1)])
    assert np.allclose(dist, raw / raw.sum(), atol=1e-14)
    assert dist.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(dist) < 0)


def test_large_delta_stays_finite():
    cfg = geometric_config(delta=1e7, d=5, beta=0.5)
    theta = unit_coef(5, [0], cfg.M)
    value = log_gibbs(theta, 0.4, cfg)
    assert math.isfinite(value)


def test_log_binomial_matches_gammaln_oracle():
    gammaln = pytest.importorskip("scipy.special", exc_type=ImportError).gammaln
    # the package computes with math.lgamma; scipy's gammaln is the oracle
    for d in range(1, 1001):
        k = np.arange(d + 1)
        oracle = gammaln(d + 1) - gammaln(k + 1) - gammaln(d - k + 1)
        got = np.array([log_binomial(d, int(j)) for j in k])
        assert np.max(np.abs(got - oracle)) <= 1e-10, d


def test_log_ball_volume_matches_gammaln_oracle():
    gammaln = pytest.importorskip("scipy.special", exc_type=ImportError).gammaln
    dims = np.arange(1, 13001)
    oracle = 0.5 * dims * math.log(math.pi) + dims * math.log(2.0) - gammaln(0.5 * dims + 1.0)
    got = np.array([log_ball_volume(int(dim), 2.0) for dim in dims])
    assert np.max(np.abs(got - oracle)) <= 1e-10

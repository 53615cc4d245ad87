"""Benchmark fits, neighborhood proposals, and the Metropolis-Hastings step."""

import math

import numpy as np
import pytest

from gibbsrank.basis import (
    BasisDictionary,
    FeatureMatrix,
    ModelMask,
    SparseCoef,
    build_features,
    score,
)
from gibbsrank.data import gen_synthetic
from gibbsrank.gibbs import GibbsConfig, log_gibbs
from gibbsrank.sampler import (
    BenchmarkCache,
    ChainState,
    SamplerConfig,
    benchmark_estimator,
    chain_risk,
    initial_state,
    log_proposal_density,
    mcmc_step,
    propose_neighborhood,
    run_chain,
    select_index,
    trace_to_csv,
)


class FakeRng:
    """Deterministic stand-in driving one scripted Metropolis-Hastings step."""

    def __init__(self, uniforms, choice=0):
        self.uniforms = list(uniforms)
        self.choice_value = choice

    def random(self, *args):
        return self.uniforms.pop(0)

    def standard_normal(self, size):
        return np.zeros(size)

    def choice(self, n, p=None):
        return self.choice_value


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(horizon=1)
    with pytest.raises(ValueError):
        SamplerConfig(burnin=1000, horizon=1000)
    with pytest.raises(ValueError):
        SamplerConfig(sigma2=0.0)
    with pytest.raises(ValueError):
        SamplerConfig(move_prob=0.6)
    assert SamplerConfig(move_prob=0.25).stay_prob == pytest.approx(0.5)


def test_benchmark_orthonormal_design():
    # orthonormal columns and y equal to one of them: least squares puts
    # weight 1 there and ~0 elsewhere, up to the ridge perturbation
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((8, 4)))
    fm = FeatureMatrix(blocks=Q[None])
    y = Q[:, 1]
    coef = benchmark_estimator(ModelMask.from_active(1, [0]), fm, y, ridge_lambda=1e-6)
    expected = np.array([0.0, 1.0, 0.0, 0.0])
    assert np.allclose(coef.values, expected, atol=1e-5)


def test_benchmark_cache_returns_identical_result():
    data = gen_synthetic(25, d=5, seed=1)
    fm = build_features(data.X)
    cache = BenchmarkCache(fm, data.y, ridge_lambda=1.0, ball_radius=2.0)
    mask = ModelMask.from_active(5, [0, 3])
    first = cache.fit(mask)
    second = cache.fit(mask)
    assert first is second


def test_benchmark_matches_independent_solve():
    small = BasisDictionary(n_legendre=2, n_harmonics=1)
    rng = np.random.default_rng(2)
    X = rng.random((20, 1))
    fm = build_features(X, small)
    y = np.where(rng.random(20) < 0.5, 1.0, -1.0)
    lam = 0.1
    coef = benchmark_estimator(ModelMask.from_active(1, [0]), fm, y, ridge_lambda=lam)
    Phi = fm.blocks[0]
    direct = np.linalg.inv(Phi.T @ Phi + lam * np.eye(4)) @ (Phi.T @ y)
    assert np.allclose(coef.values, direct, atol=1e-10)


def test_benchmark_shrinks_into_ball():
    # a nearly collinear design with a tiny ridge produces a huge fit,
    # which must be pulled back inside the prior ball
    rng = np.random.default_rng(3)
    base = rng.standard_normal(15)
    Phi = np.column_stack([base, base + 1e-8 * rng.standard_normal(15)])
    fm = FeatureMatrix(blocks=Phi[None])
    y = rng.standard_normal(15)
    coef = benchmark_estimator(ModelMask.from_active(1, [0]), fm, y,
                               ridge_lambda=1e-12, ball_radius=2.0)
    assert np.linalg.norm(coef.values) <= 2.0


def test_benchmark_rejects_empty_mask():
    fm = FeatureMatrix(blocks=np.zeros((1, 4, 2)))
    with pytest.raises(ValueError):
        benchmark_estimator(ModelMask.empty(1), fm, np.ones(4))


def test_add_neighborhood_enumeration():
    current = ModelMask.from_active(10, [1, 4, 7])
    move, masks = propose_neighborhood(current, FakeRng([0.1]), SamplerConfig())
    assert move == "add"
    assert len(masks) == 7
    for m in masks:
        assert m.size == 4
        assert set(current.active).issubset(set(m.active))


def test_remove_neighborhood_enumeration():
    current = ModelMask.from_active(6, [0, 5])
    move, masks = propose_neighborhood(current, FakeRng([0.3]), SamplerConfig())
    assert move == "remove"
    assert {m.active.tolist()[0] for m in masks} == {0, 5}


def test_add_at_full_model_falls_back_to_stay():
    current = ModelMask.from_active(3, [0, 1, 2])
    move, masks = propose_neighborhood(current, FakeRng([0.1]), SamplerConfig())
    assert move == "stay"
    assert masks == [current]


def test_remove_at_empty_model_falls_back_to_stay():
    current = ModelMask.empty(3)
    move, masks = propose_neighborhood(current, FakeRng([0.3]), SamplerConfig())
    assert move == "stay"
    assert masks == [current]


def test_select_index_matches_weights():
    rng = np.random.default_rng(4)
    log_w = np.array([0.0, math.log(3.0)])
    counts = np.zeros(2)
    n_draws = 20000
    for _ in range(n_draws):
        counts[select_index(rng, log_w)] += 1
    assert counts[1] / n_draws == pytest.approx(0.75, abs=0.02)


def test_log_proposal_density_conventions():
    gcfg_kernel = GibbsConfig(delta=1.0, d=2, M=2, norm_mode="kernel")
    gcfg_coeff = GibbsConfig(delta=1.0, d=2, M=2, norm_mode="coefficient")
    values = np.array([1.0, 2.0])
    mean = np.array([0.5, 2.5])
    sigma2 = 0.2
    quad = -0.5 / sigma2 * 0.5
    assert log_proposal_density(values, mean, gcfg_kernel, sigma2) == pytest.approx(quad)
    norm = -0.5 * 2 * math.log(2 * math.pi * sigma2)
    assert log_proposal_density(values, mean, gcfg_coeff, sigma2) == pytest.approx(quad + norm)
    assert log_proposal_density(np.zeros(0), np.zeros(0), gcfg_coeff, sigma2) == 0.0


def test_self_proposal_is_always_accepted():
    """A stay candidate identical to the current state has ratio exactly 1."""
    data = gen_synthetic(30, d=5, seed=5)
    fm = build_features(data.X)
    gcfg = GibbsConfig(delta=50.0, d=5, norm_mode="kernel")
    scfg = SamplerConfig(sigma2=0.01)
    bench = BenchmarkCache(fm, data.y, scfg.ridge_lambda, gcfg.ball_radius)
    mask = ModelMask.from_active(5, [2])
    mean = bench.fit(mask)
    theta = SparseCoef(mask=mask, values=mean.copy())
    r = chain_risk(score(theta, fm), data.y)
    state = ChainState(
        theta=theta,
        risk=r,
        log_post=log_gibbs(theta, r, gcfg),
        log_prop=log_proposal_density(mean, mean, gcfg, scfg.sigma2),
    )
    # scripted rng: stay move, zero proposal noise, acceptance uniform ~ 1
    rng = FakeRng([0.99, 1.0 - 1e-12])
    new_state, rec = mcmc_step(state, fm, data.y, gcfg, scfg, bench, rng)
    assert rec.accepted
    assert rec.move == "stay"
    assert np.array_equal(new_state.theta.values, mean)


def test_all_candidates_outside_ball_are_rejected():
    data = gen_synthetic(30, d=5, seed=6)
    fm = build_features(data.X)
    # prior ball so small that every non-empty candidate falls outside
    gcfg = GibbsConfig(delta=1.0, d=5, ball_radius=1e-9)
    scfg = SamplerConfig(sigma2=0.01)
    bench = BenchmarkCache(fm, data.y, scfg.ridge_lambda, 2.0)
    state = initial_state(fm, data.y, gcfg)
    rng = FakeRng([0.1])  # add move; no acceptance draw is reached
    new_state, rec = mcmc_step(state, fm, data.y, gcfg, scfg, bench, rng)
    assert not rec.accepted
    assert new_state is state


def test_initial_state_is_empty_model():
    data = gen_synthetic(20, d=5, seed=7)
    fm = build_features(data.X)
    gcfg = GibbsConfig(delta=1.0, d=5)
    state = initial_state(fm, data.y, gcfg)
    assert state.theta.mask.size == 0
    # with half-credit ties the all-zero scorer sits at chance level
    assert state.risk > 0.0


def test_run_chain_is_deterministic():
    data = gen_synthetic(60, d=5, seed=8)
    gcfg = GibbsConfig(delta=100.0, d=5, norm_mode="kernel")
    scfg = SamplerConfig(horizon=80, burnin=40, sigma2=0.01, seed=11)
    trace_a, est_a = run_chain(data, gcfg=gcfg, scfg=scfg)
    trace_b, est_b = run_chain(data, gcfg=gcfg, scfg=scfg)
    assert np.array_equal(trace_a.thetas, trace_b.thetas)
    assert np.array_equal(trace_a.masks, trace_b.masks)
    assert np.array_equal(trace_a.risks, trace_b.risks)
    assert trace_a.moves == trace_b.moves
    assert np.array_equal(est_a.averaged, est_b.averaged)
    assert np.array_equal(est_a.randomized.values, est_b.randomized.values)


def test_run_chain_smoke_two_iterations(tmp_path):
    data = gen_synthetic(20, d=5, seed=9)
    gcfg = GibbsConfig(delta=1.0, d=5)
    scfg = SamplerConfig(horizon=2, burnin=0)
    trace, estimators = run_chain(data, gcfg=gcfg, scfg=scfg)
    assert trace.horizon == 2
    assert estimators.averaged.shape == (5 * 13,)
    out = tmp_path / "trace.csv"
    trace_to_csv(trace, out)
    lines = out.read_text().splitlines()
    assert len(lines) == 3  # header + 2 iterations
    assert lines[0].startswith("t,model_size")


def test_trace_summaries():
    data = gen_synthetic(40, d=5, seed=10)
    gcfg = GibbsConfig(delta=200.0, d=5, norm_mode="kernel")
    scfg = SamplerConfig(horizon=60, burnin=30, sigma2=0.01, seed=3)
    trace, _ = run_chain(data, gcfg=gcfg, scfg=scfg)
    freq = trace.selection_frequency()
    assert freq.shape == (5,)
    assert np.all((0.0 <= freq) & (freq <= 1.0))
    assert 0.0 <= trace.acceptance_rate <= 1.0
    assert np.array_equal(trace.model_sizes, trace.masks.sum(axis=1))


def test_run_chain_requires_configs():
    data = gen_synthetic(20, d=5, seed=11)
    with pytest.raises(ValueError):
        run_chain(data)

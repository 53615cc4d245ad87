"""Benchmark fits, neighborhood proposals, and the Metropolis-Hastings step."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gibbsrank.basis import (
    FeatureMatrix,
    ModelMask,
    SparseCoef,
    build_features,
    score,
)
from gibbsrank.data import gen_synthetic
from gibbsrank.gibbs import GibbsConfig, log_gibbs, log_prior, tilted_size_log_weights
from gibbsrank.risk import PreparedLabels
from gibbsrank.sampler import (
    RIDGE_LAMBDA,
    BenchmarkCache,
    ChainState,
    SamplerConfig,
    StepRecord,
    chain_risk,
    initial_state,
    log_proposal_density,
    mcmc_step,
    propose_neighborhood,
    run_chain,
    select_index,
    trace_to_csv,
)


def tilted_config(delta, d, sigma2=0.01):
    """A GibbsConfig with the experiments' size prior at proposal variance sigma2."""
    gcfg = GibbsConfig(delta=delta, d=d)
    return replace(gcfg, size_log_weights=tilted_size_log_weights(gcfg, sigma2))


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


def test_benchmark_orthonormal_design():
    # orthonormal columns and y equal to one of them: least squares puts
    # weight 1 there and ~0 elsewhere, up to the ridge perturbation
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((8, 4)))
    fm = FeatureMatrix(blocks=Q.T[None])
    y = Q[:, 1]
    values = BenchmarkCache(fm, y, ridge_lambda=1e-6, ball_radius=2.0).fit(ModelMask.from_active(1, [0]))
    expected = np.array([0.0, 1.0, 0.0, 0.0])
    assert np.allclose(values, expected, atol=1e-5)


def test_benchmark_cache_returns_identical_result():
    data = gen_synthetic(25, d=5, seed=1)
    fm = build_features(data.X)
    cache = BenchmarkCache(fm, data.y, ridge_lambda=1.0, ball_radius=2.0)
    mask = ModelMask.from_active(5, [0, 3])
    first = cache.fit(mask)
    second = cache.fit(mask)
    assert first is second


def test_benchmark_matches_independent_solve():
    rng = np.random.default_rng(2)
    X = rng.random((20, 1))
    # four of the dictionary's functions: P0, P1, sin(pi t) and cos(pi t)
    fm = FeatureMatrix(blocks=build_features(X).blocks[:, [0, 1, 7, 10]])
    y = np.where(rng.random(20) < 0.5, 1.0, -1.0)
    lam = 0.1
    values = BenchmarkCache(fm, y, ridge_lambda=lam, ball_radius=2.0).fit(ModelMask.from_active(1, [0]))
    Phi = fm.blocks[0].T
    direct = np.linalg.inv(Phi.T @ Phi + lam * np.eye(4)) @ (Phi.T @ y)
    assert np.allclose(values, direct, atol=1e-10)


def test_benchmark_assembles_blocks_of_a_non_adjacent_mask():
    # the off-diagonal blocks of {0, 2, 3} and their transposes land where the
    # gathered columns put them, with the ridge on the diagonal only
    rng = np.random.default_rng(4)
    X = rng.random((30, 4))
    fm = build_features(X)
    y = np.where(rng.random(30) < 0.5, 1.0, -1.0)
    lam = 0.3
    cache = BenchmarkCache(fm, y, ridge_lambda=lam, ball_radius=1e6)
    values = cache.fit(ModelMask.from_active(4, [0, 2, 3]))
    Phi = np.hstack([fm.blocks[j].T for j in (0, 2, 3)])
    direct = np.linalg.solve(Phi.T @ Phi + lam * np.eye(Phi.shape[1]), Phi.T @ y)
    assert np.allclose(values, direct, rtol=0.0, atol=1e-10)


def test_benchmark_memory_grows_with_visited_pairs_not_d_squared():
    # a dense (d * M)^2 Gram at d=300 would be 122 MB; three covariates need
    # six 13 x 13 blocks
    fm = build_features(np.random.default_rng(5).random((20, 300)))
    y = np.where(np.arange(20) % 2 == 0, 1.0, -1.0)
    tracemalloc.start()
    try:
        cache = BenchmarkCache(fm, y, ridge_lambda=1.0, ball_radius=2.0)
        cache.fit(ModelMask.from_active(300, [7, 150, 299]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_benchmark_shrinks_into_ball():
    # a nearly collinear design with a tiny ridge produces a huge fit,
    # which must be pulled back inside the prior ball
    rng = np.random.default_rng(3)
    base = rng.standard_normal(15)
    Phi = np.column_stack([base, base + 1e-8 * rng.standard_normal(15)])
    fm = FeatureMatrix(blocks=Phi.T[None])
    y = rng.standard_normal(15)
    values = BenchmarkCache(fm, y, ridge_lambda=1e-12, ball_radius=2.0).fit(ModelMask.from_active(1, [0]))
    assert np.linalg.norm(values) <= 2.0


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


def independent_neighborhood(current, move):
    """The masks of a neighborhood built one by one from their active lists."""
    d, active = current.d, current.active.tolist()
    if move == "add":
        return [ModelMask.from_active(d, sorted(active + [j])) for j in range(d) if j not in active]
    return [ModelMask.from_active(d, [i for i in active if i != j]) for j in active]


@pytest.mark.parametrize("move,u", [("add", 0.1), ("remove", 0.3)])
@pytest.mark.parametrize("size", [0, 1, 2, 6, 7])
def test_neighborhood_masks_match_independently_built_masks(move, u, size):
    d = 7
    current = ModelMask.from_active(d, np.random.default_rng(size).permutation(d)[:size])
    got_move, masks = propose_neighborhood(current, FakeRng([u]), SamplerConfig())
    if (move, size) in {("add", d), ("remove", 0)}:  # an empty neighborhood stays
        assert got_move == "stay"
        assert len(masks) == 1 and masks[0] is current
        return
    expected = independent_neighborhood(current, move)
    assert got_move == move
    assert len(masks) == len(expected) == (d - size if move == "add" else size)
    for mask, want in zip(masks, expected):  # in the order of the flipped covariate
        assert mask.bits.dtype == bool and mask.bits.tobytes() == want.bits.tobytes()
        assert mask.active.dtype == want.active.dtype
        assert mask.active.tolist() == want.active.tolist()
        assert mask.size == want.size == size + (1 if move == "add" else -1)
        assert mask.d == d
        assert mask.key() == want.key()
        assert hash(mask) == hash(want)
        assert mask == want
        assert not mask.bits.flags.writeable and not mask.active.flags.writeable
        with pytest.raises(ValueError):
            mask.bits[0] = not mask.bits[0]
    assert len({mask.key() for mask in masks}) == len(masks)
    assert current == ModelMask.from_active(d, current.active)  # the current mask is untouched


def test_select_index_matches_weights():
    rng = np.random.default_rng(4)
    log_w = np.array([0.0, math.log(3.0)])
    counts = np.zeros(2)
    n_draws = 20000
    for _ in range(n_draws):
        counts[select_index(rng, log_w)] += 1
    assert counts[1] / n_draws == pytest.approx(0.75, abs=0.02)


def test_log_proposal_density_conventions():
    gcfg = GibbsConfig(delta=1.0, d=2, M=2)
    values = np.array([1.0, 2.0])
    mean = np.array([0.5, 2.5])
    sigma2 = 0.2
    quad = -0.5 / sigma2 * 0.5
    norm = -0.5 * 2 * math.log(2 * math.pi * sigma2)
    assert log_proposal_density(values, mean, gcfg, sigma2) == pytest.approx(quad + norm)
    assert log_proposal_density(np.zeros(0), np.zeros(0), gcfg, sigma2) == 0.0


def test_self_proposal_is_always_accepted():
    """A stay candidate identical to the current state has ratio exactly 1."""
    data = gen_synthetic(30, d=5, seed=5)
    fm = build_features(data.X)
    gcfg = GibbsConfig(delta=50.0, d=5)
    scfg = SamplerConfig(sigma2=0.01)
    bench = BenchmarkCache(fm, data.y, RIDGE_LAMBDA, gcfg.ball_radius)
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
    bench = BenchmarkCache(fm, data.y, RIDGE_LAMBDA, 2.0)
    state = initial_state(fm, data.y, gcfg)
    rng = FakeRng([0.1])  # add move; no acceptance draw is reached
    new_state, rec = mcmc_step(state, fm, data.y, gcfg, scfg, bench, rng)
    assert not rec.accepted
    assert new_state is state


def per_candidate_step(state, features, labels, gcfg, scfg, bench, rng):
    """The step with its neighborhood built mask by mask, one standard_normal
    call and one log_proposal_density call per candidate, and raw labels: the
    reference mcmc_step must match bit for bit."""
    u = rng.random()
    move = "add" if u < scfg.move_prob else "remove" if u < 2 * scfg.move_prob else "stay"
    current = state.theta.mask
    masks = independent_neighborhood(current, move) if move != "stay" else []
    if not masks:
        move, masks = "stay", [current]
    sd = math.sqrt(scfg.sigma2)
    cands = []
    log_w = np.empty(len(masks))
    for i, mask in enumerate(masks):
        mean = bench.fit(mask)
        values = np.zeros(0) if mask.size == 0 else mean + sd * rng.standard_normal(mean.size)
        theta = SparseCoef(mask=mask, values=values)
        lp = log_prior(theta, gcfg)
        if lp == -math.inf:
            cands.append((theta, math.nan, -math.inf, math.nan))
            log_w[i] = -math.inf
            continue
        r = chain_risk(score(theta, features), labels)
        lg = -gcfg.delta * r + lp
        lq = log_proposal_density(values, mean, gcfg, scfg.sigma2)
        cands.append((theta, r, lg, lq))
        log_w[i] = lg - lq
    if not np.any(np.isfinite(log_w)):
        return state, StepRecord(move=move, accepted=False)
    theta, r, lg, lq = cands[select_index(rng, log_w)]
    log_alpha = lg + state.log_prop - state.log_post - lq
    if math.log(rng.random()) < min(0.0, log_alpha):
        return ChainState(theta=theta, risk=r, log_post=lg, log_prop=lq), StepRecord(move, True)
    return state, StepRecord(move=move, accepted=False)


@pytest.mark.parametrize("seed", [0, 1])
def test_batched_neighborhood_draw_matches_per_candidate_draws(seed):
    data = gen_synthetic(80, d=12, seed=seed)
    fm = build_features(data.X)
    gcfg = tilted_config(delta=100.0, d=12)
    scfg = SamplerConfig(sigma2=0.01)
    bench = BenchmarkCache(fm, data.y, RIDGE_LAMBDA, gcfg.ball_radius)
    oracle_bench = BenchmarkCache(fm, data.y, RIDGE_LAMBDA, gcfg.ball_radius)
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    prepared = PreparedLabels(data.y)
    state = oracle = initial_state(fm, data.y, gcfg)
    seen = set()
    for _ in range(300):
        state, rec = mcmc_step(state, fm, prepared, gcfg, scfg, bench, rng)
        oracle, oracle_rec = per_candidate_step(oracle, fm, data.y, gcfg, scfg, oracle_bench,
                                                oracle_rng)
        assert (rec.move, rec.accepted) == (oracle_rec.move, oracle_rec.accepted)
        assert state.theta.mask == oracle.theta.mask
        assert state.theta.values.tobytes() == oracle.theta.values.tobytes()
        assert (state.risk, state.log_post, state.log_prop) == (
            oracle.risk, oracle.log_post, oracle.log_prop)
        seen.add((rec.move, rec.accepted, state.theta.mask.size))
    assert rng.random() == oracle_rng.random()  # the streams end in step
    for move in ("add", "remove", "stay"):
        assert (move, True) in {(m, a) for m, a, _ in seen}
    assert {size for *_, size in seen} >= {0, 1, 2}


@pytest.mark.parametrize("seed", [2, 3])
def test_run_chain_matches_the_per_candidate_chain(seed):
    data = gen_synthetic(80, d=9, seed=seed)
    fm = build_features(data.X)
    gcfg = tilted_config(delta=100.0, d=9)
    scfg = SamplerConfig(horizon=200, burnin=120, sigma2=0.01)
    trace, est = run_chain(fm, data.y, gcfg, scfg, np.random.default_rng(seed))

    rng = np.random.default_rng(seed)
    bench = BenchmarkCache(fm, data.y, RIDGE_LAMBDA, gcfg.ball_radius)
    state = initial_state(fm, data.y, gcfg)
    masks = np.zeros((scfg.horizon, fm.d), dtype=bool)
    risks = np.zeros(scfg.horizon)
    risks[0] = state.risk
    thetas = np.zeros((scfg.horizon - scfg.burnin, fm.d * fm.M))
    for t in range(1, scfg.horizon):
        state, _ = per_candidate_step(state, fm, data.y, gcfg, scfg, bench, rng)
        masks[t], risks[t] = state.theta.mask.bits, state.risk
        if t >= scfg.burnin:
            thetas[t - scfg.burnin] = state.theta.padded(fm.M)

    assert trace.masks.tobytes() == masks.tobytes()
    assert trace.risks.tobytes() == risks.tobytes()
    assert trace.thetas.tobytes() == thetas.tobytes()
    assert est.averaged.tobytes() == thetas.mean(axis=0).tobytes()
    assert est.randomized.values.tobytes() == state.theta.values.tobytes()
    assert len({m.tobytes() for m in masks}) > 2  # the chain moves


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
    gcfg = tilted_config(delta=100.0, d=5)
    scfg = SamplerConfig(horizon=80, burnin=40, sigma2=0.01)
    fm = build_features(data.X)
    trace_a, est_a = run_chain(fm, data.y, gcfg, scfg, np.random.default_rng(11))
    trace_b, est_b = run_chain(fm, data.y, gcfg, scfg, np.random.default_rng(11))
    assert np.array_equal(trace_a.thetas, trace_b.thetas)
    assert np.array_equal(trace_a.masks, trace_b.masks)
    assert np.array_equal(trace_a.risks, trace_b.risks)
    assert trace_a.moves == trace_b.moves
    assert np.array_equal(est_a.averaged, est_b.averaged)
    assert np.array_equal(est_a.randomized.values, est_b.randomized.values)


@pytest.mark.parametrize("burnin", [5, 0])
def test_run_chain_keeps_post_burnin_thetas(burnin):
    data = gen_synthetic(60, d=5, seed=8)
    gcfg = tilted_config(delta=100.0, d=5)
    scfg = SamplerConfig(horizon=80, burnin=burnin, sigma2=0.01)
    trace, est = run_chain(build_features(data.X), data.y, gcfg, scfg, np.random.default_rng(11))
    assert trace.thetas.shape == (80 - burnin, 5 * 13)
    assert np.array_equal(est.averaged, trace.thetas.mean(axis=0))
    # row i is iteration burnin + i (at burnin 0, the empty initial state):
    # its support is that iteration's mask
    support = (trace.thetas.reshape(-1, 5, 13) != 0).any(axis=2)
    assert np.array_equal(support, trace.masks[burnin:])
    assert len({m.tobytes() for m in trace.masks[burnin:]}) > 1  # the mask moves


def test_run_chain_smoke_two_iterations(tmp_path):
    data = gen_synthetic(20, d=5, seed=9)
    gcfg = GibbsConfig(delta=1.0, d=5)
    scfg = SamplerConfig(horizon=2, burnin=0)
    trace, estimators = run_chain(build_features(data.X), data.y, gcfg, scfg,
                                  np.random.default_rng(0))
    assert trace.horizon == 2
    assert estimators.averaged.shape == (5 * 13,)
    out = tmp_path / "trace.csv"
    trace_to_csv(trace, out)
    lines = out.read_text().splitlines()
    assert len(lines) == 3  # header + 2 iterations
    assert lines[0].startswith("t,model_size")


def test_trace_summaries():
    data = gen_synthetic(40, d=5, seed=10)
    gcfg = tilted_config(delta=200.0, d=5)
    scfg = SamplerConfig(horizon=60, burnin=30, sigma2=0.01)
    trace, _ = run_chain(build_features(data.X), data.y, gcfg, scfg, np.random.default_rng(3))
    freq = trace.selection_frequency()
    assert freq.shape == (5,)
    assert np.all((0.0 <= freq) & (freq <= 1.0))
    assert 0.0 <= trace.acceptance_rate <= 1.0
    assert np.array_equal(trace.model_sizes, trace.masks.sum(axis=1))

"""Benchmark fits, neighborhood proposals, and the Metropolis-Hastings step."""

import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gibbsrank.basis import (
    FeatureMatrix,
    SparseCoef,
    build_features,
    score,
)
from gibbsrank.data import gen_synthetic
from gibbsrank.gibbs import GibbsConfig, log_gibbs, log_prior, tilted_size_log_weights
from gibbsrank.risk import PreparedLabels
from gibbsrank.sampler import (
    MOVE_PROB,
    RIDGE_LAMBDA,
    BenchmarkCache,
    ChainState,
    SamplerConfig,
    StepRecord,
    chain_risk,
    initial_state,
    mcmc_step,
    propose_neighborhood,
    run_chain,
    select_index,
    trace_to_csv,
)
from oracles import active, bits, log_proposal_density, padded


# the settings of a single step: mcmc_step reads only sigma2
STEP_CFG = SamplerConfig(iters=1000, burnin=800, sigma2=0.01)


def tilted_config(delta, d, sigma2=0.01):
    """A GibbsConfig with the experiments' size prior at proposal variance sigma2."""
    gcfg = GibbsConfig(delta=delta, d=d, beta=0.5)
    return replace(gcfg, size_log_weights=tilted_size_log_weights(gcfg, sigma2))


class FakeRng:
    """Deterministic stand-in driving one scripted Metropolis-Hastings step."""

    def __init__(self, uniforms):
        self.uniforms = list(uniforms)

    def random(self, *args):
        return self.uniforms.pop(0)

    def standard_normal(self, size):
        return np.zeros(size)


def test_sampler_config_validation():
    with pytest.raises(ValueError, match="iters must be at least 2"):
        SamplerConfig(iters=1, burnin=0, sigma2=0.01)
    with pytest.raises(ValueError, match="burnin must satisfy 0 <= burnin < iters"):
        SamplerConfig(iters=1000, burnin=1000, sigma2=0.01)
    with pytest.raises(ValueError, match="sigma2 must be positive and finite"):
        SamplerConfig(iters=1000, burnin=800, sigma2=0.0)
    with pytest.raises(TypeError):  # ExperimentConfig holds the only defaults
        SamplerConfig(sigma2=0.01)


def test_benchmark_orthonormal_design():
    # orthonormal columns and y equal to one of them: least squares puts
    # weight 1 there and ~0 elsewhere, up to the ridge perturbation
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((8, 4)))
    fm = FeatureMatrix(blocks=Q.T[None])
    y = Q[:, 1]
    values = BenchmarkCache(fm, y, ridge_lambda=1e-6, ball_radius=2.0).fit(active(1, [0]))
    expected = np.array([0.0, 1.0, 0.0, 0.0])
    assert np.allclose(values, expected, atol=1e-5)


def test_benchmark_cache_returns_identical_result():
    data = gen_synthetic(25, d=5, seed=1)
    fm = build_features(data.X)
    cache = BenchmarkCache(fm, data.y, ridge_lambda=1.0, ball_radius=2.0)
    model = active(5, [0, 3])
    first = cache.fit(model)
    second = cache.fit(model)
    assert first is second


def test_benchmark_matches_independent_solve():
    rng = np.random.default_rng(2)
    X = rng.random((20, 1))
    # four of the dictionary's functions: P0, P1, sin(pi t) and cos(pi t)
    fm = FeatureMatrix(blocks=build_features(X).blocks[:, [0, 1, 7, 10]])
    y = np.where(rng.random(20) < 0.5, 1.0, -1.0)
    lam = 0.1
    values = BenchmarkCache(fm, y, ridge_lambda=lam, ball_radius=2.0).fit(active(1, [0]))
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
    values = cache.fit(active(4, [0, 2, 3]))
    Phi = np.hstack([fm.blocks[j].T for j in (0, 2, 3)])
    direct = np.linalg.solve(Phi.T @ Phi + lam * np.eye(Phi.shape[1]), Phi.T @ y)
    assert np.allclose(values, direct, rtol=0.0, atol=1e-10)


def assembled_fit(features, labels, ridge_lambda, ball_radius, model):
    """A ridge fit solved from its Gram assembled block by block: pair (i, j)
    of the model is blocks[i] @ blocks[j].T, mirrored below the diagonal."""
    blocks, M, listed = features.blocks, features.M, model.tolist()
    k = len(listed)
    G = np.empty((k * M, k * M))
    for a, i in enumerate(listed):
        for b in range(a, k):
            block = blocks[i] @ blocks[listed[b]].T
            G[a * M:(a + 1) * M, b * M:(b + 1) * M] = block
            if b > a:
                G[b * M:(b + 1) * M, a * M:(a + 1) * M] = block.T
    G.flat[::k * M + 1] += ridge_lambda
    xty = blocks @ np.asarray(labels, dtype=float)
    values = np.linalg.solve(G, xty[listed].ravel())
    norm = float(np.linalg.norm(values))
    if norm > ball_radius:
        values *= ball_radius * (1.0 - 1e-9) / norm
    return values


@pytest.mark.parametrize("n", [80, 1000])
def test_benchmark_fit_equals_the_blockwise_assembled_solve(n):
    """The batched Gram product gives the bits of the per-pair assembly, for
    every model size up to 6 and for masks with gaps between covariates."""
    rng = np.random.default_rng(n)
    d = 20
    fm = build_features(rng.random((n, d)))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    cache = BenchmarkCache(fm, y, RIDGE_LAMBDA, 2.0)
    actives = [np.sort(rng.choice(d, size=k, replace=False)) for k in range(1, 7) for _ in range(6)]
    # no two covariates adjacent, the last mask spanning both ends
    actives += [[0, 2], [1, 5, 9], [0, 4, 11, 19], [3, 6, 10, 14, 17], [0, 3, 7, 11, 15, 19]]
    for listed in actives:
        model = active(d, listed)
        want = assembled_fit(fm, y, RIDGE_LAMBDA, 2.0, model)
        assert cache.fit(model).tobytes() == want.tobytes()


def test_benchmark_memory_grows_with_visited_masks_not_d_squared():
    # a dense (d * M)^2 Gram at d=300 would be 122 MB; a three-covariate fit
    # forms one 39 x 39 Gram and keeps only its 39 values
    fm = build_features(np.random.default_rng(5).random((20, 300)))
    y = np.where(np.arange(20) % 2 == 0, 1.0, -1.0)
    tracemalloc.start()
    try:
        cache = BenchmarkCache(fm, y, ridge_lambda=1.0, ball_radius=2.0)
        cache.fit(active(300, [7, 150, 299]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_benchmark_cache_retains_only_its_fits():
    """The 299 two-covariate masks {0, j} share covariate 0 but no pair: the
    heap the cache retains stays within 3x the bytes of the fits it holds.
    Keeping each fit's per-pair Gram blocks would add 599 blocks of 13 x 13
    doubles, 0.8 MB, against 62 KB of fits."""
    d = 300
    fm = build_features(np.random.default_rng(6).random((20, d)))
    y = np.where(np.arange(20) % 2 == 0, 1.0, -1.0)
    models = [active(d, [0, j]) for j in range(1, d)]
    tracemalloc.start()
    try:
        cache = BenchmarkCache(fm, y, ridge_lambda=1.0, ball_radius=2.0)
        before = tracemalloc.get_traced_memory()[0]
        fits = [cache.fit(model) for model in models]
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    held = sum(values.nbytes for values in fits)
    assert held == (d - 1) * 2 * fm.M * 8
    assert grown < 3 * held


def test_benchmark_shrinks_into_ball():
    # a nearly collinear design with a tiny ridge produces a huge fit,
    # which must be pulled back inside the prior ball
    rng = np.random.default_rng(3)
    base = rng.standard_normal(15)
    Phi = np.column_stack([base, base + 1e-8 * rng.standard_normal(15)])
    fm = FeatureMatrix(blocks=Phi.T[None])
    y = rng.standard_normal(15)
    values = BenchmarkCache(fm, y, ridge_lambda=1e-12, ball_radius=2.0).fit(active(1, [0]))
    assert np.linalg.norm(values) <= 2.0


def test_add_neighborhood_enumeration():
    current = active(10, [1, 4, 7])
    move, rows = propose_neighborhood(current, 10, FakeRng([0.1]))
    assert move == "add"
    assert len(rows) == 7
    for row in rows:
        assert row.size == 4
        assert set(current).issubset(set(row))


def test_remove_neighborhood_enumeration():
    current = active(6, [0, 5])
    move, rows = propose_neighborhood(current, 6, FakeRng([0.5]))
    assert move == "remove"
    assert {row.tolist()[0] for row in rows} == {0, 5}


def test_add_at_full_model_falls_back_to_stay():
    current = active(3, [0, 1, 2])
    move, rows = propose_neighborhood(current, 3, FakeRng([0.1]))
    assert move == "stay"
    assert rows.tolist() == [current.tolist()]


def test_remove_at_empty_model_falls_back_to_stay():
    current = active(3, [])
    move, rows = propose_neighborhood(current, 3, FakeRng([0.5]))
    assert move == "stay"
    assert rows.tolist() == [current.tolist()]


def independent_neighborhood(current, d, move):
    """The models of a neighborhood built one by one from their active lists."""
    listed = current.tolist()
    if move == "add":
        return [active(d, sorted(listed + [j])) for j in range(d) if j not in listed]
    return [active(d, [i for i in listed if i != j]) for j in listed]


@pytest.mark.parametrize("move,u", [("add", 0.1), ("remove", 0.5)])
@pytest.mark.parametrize("size", [0, 1, 2, 6, 7])
def test_neighborhood_masks_match_independently_built_masks(move, u, size):
    d = 7
    listed = np.random.default_rng(size).permutation(d)[:size]
    current = active(d, listed)
    got_move, rows = propose_neighborhood(current, d, FakeRng([u]))
    if (move, size) in {("add", d), ("remove", 0)}:  # an empty neighborhood stays
        assert got_move == "stay"
        assert len(rows) == 1 and rows.base is current  # the current model itself
        return
    expected = independent_neighborhood(current, d, move)
    assert got_move == move
    assert len(rows) == len(expected) == (d - size if move == "add" else size)
    for row, want in zip(rows, expected):  # in the order of the flipped covariate
        assert bits(row, d).tobytes() == bits(want, d).tobytes()
        assert row.dtype == want.dtype
        assert row.tolist() == want.tolist()
        assert row.size == want.size == size + (1 if move == "add" else -1)
        assert np.all((0 <= row) & (row < d))
        assert row.tobytes() == want.tobytes()  # the ridge cache's key
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[...] = 0
    assert len({row.tobytes() for row in rows}) == len(rows)
    assert current.tolist() == sorted(listed)  # the current model is untouched


def test_every_neighborhood_up_to_d6_matches_independently_built_masks():
    """Every model over d <= 6 covariates: free covariates below, between
    and above the active ones, and adjacent active ones."""
    for d in range(1, 7):
        for listed in itertools.chain.from_iterable(
                itertools.combinations(range(d), k) for k in range(d + 1)):
            current = active(d, listed)
            for move, u in (("add", 0.1), ("remove", 0.5)):
                got_move, rows = propose_neighborhood(current, d, FakeRng([u]))
                expected = independent_neighborhood(current, d, move)
                if not expected:
                    assert got_move == "stay" and rows.tolist() == [current.tolist()]
                    continue
                assert got_move == move and rows.tolist() == [e.tolist() for e in expected]
                assert all(not row.flags.writeable for row in rows)


def test_large_add_neighborhood_peaks_at_its_index_array():
    """An add neighborhood at d=4000 and |m|=2 is 3998 rows of one (K, 3)
    index array, 96 KB, and no object per row: it peaks far below the 16 MB
    of a (K, d) bool matrix."""
    d = 4000
    current = active(d, [17, 2500])
    tracemalloc.start()
    try:
        move, rows = propose_neighborhood(current, d, FakeRng([0.1]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert move == "add" and len(rows) == d - 2
    assert peak < 2_000_000
    for row, want in zip(rows, independent_neighborhood(current, d, "add")):
        assert row.tolist() == want.tolist()


def test_select_index_matches_weights():
    rng = np.random.default_rng(4)
    log_w = np.array([0.0, math.log(3.0)])
    counts = np.zeros(2)
    n_draws = 20000
    for _ in range(n_draws):
        counts[select_index(rng, log_w)] += 1
    assert counts[1] / n_draws == pytest.approx(0.75, abs=0.02)


def generator_at(u, seed):
    """An SFC64 generator whose next random() is exactly u, a multiple of
    2**-53 in [0, 1): SFC64's next output is the sum of state words 0, 1 and
    3, and random() keeps its top 53 bits."""
    bits = np.random.SFC64(seed)
    state = bits.state
    state["state"]["state"][[0, 1, 3]] = np.array([int(u * 2.0**53) << 11, 0, 0], np.uint64)
    bits.state = state
    return np.random.Generator(bits)


def choice_oracle(rng, log_w):
    p = np.exp(log_w - log_w.max())
    p /= p.sum()
    return int(rng.choice(log_w.size, p=p))


def test_select_index_matches_generator_choice_on_a_twin_stream():
    """select_index draws what Generator.choice draws for the same p, from
    the same one uniform: the same index and the same next draw.  Besides a
    random uniform, each vector is drawn at uniforms on its cdf's breakpoints
    and at the largest uniform below 1, where a left-sided search or an
    unnormalised cdf would pick another index."""
    cases = np.random.default_rng(31)
    on_breakpoint = short_sum = 0
    for i in range(2400):
        K = (1, 2, 3, 4, 9, 40, 120)[i % 7]
        # log weights of scale up to 1000: weights spread over many orders of magnitude
        log_w = 10.0 ** cases.integers(-2, 4) * cases.standard_normal(K)
        if i % 3 == 1:
            log_w[cases.random(K) < 0.4] = -math.inf
        elif i % 3 == 2:
            log_w[np.arange(K) != cases.integers(K)] = -math.inf  # one finite weight
        if np.all(log_w == -math.inf):
            log_w[cases.integers(K)] = 0.0
        p = np.exp(log_w - log_w.max())
        p /= p.sum()
        short_sum += p.cumsum()[-1] < 1.0
        cdf = p.cumsum() / p.cumsum()[-1]
        grid = [math.floor(c * 2.0**53) / 2.0**53 for c in cdf[:-1]]
        uniforms = [None, 1.0 - 2.0**-53]
        uniforms += [grid[j] + step for j in cases.choice(K - 1, size=min(K - 1, 2), replace=False)
                     for step in (0.0, 2.0**-53) if grid[j] + step < 1.0]
        for u in uniforms:
            if u is None:
                rng, twin = np.random.default_rng(i), np.random.default_rng(i)
            else:
                rng, twin = generator_at(u, i), generator_at(u, i)
                on_breakpoint += u in cdf[:-1]
            assert select_index(rng, log_w) == choice_oracle(twin, log_w)
            assert rng.random() == twin.random()
    assert on_breakpoint > 100 and short_sum > 100  # both edges were reached


def test_log_proposal_density_conventions():
    gcfg = GibbsConfig(delta=1.0, d=2, beta=0.5, M=2)
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
    gcfg = GibbsConfig(delta=50.0, d=5, beta=0.5)
    scfg = STEP_CFG
    bench = BenchmarkCache(fm, data.y, RIDGE_LAMBDA, gcfg.ball_radius)
    model = active(5, [2])
    mean = bench.fit(model)
    theta = SparseCoef(model, values=mean.copy())
    r = chain_risk(score(theta, fm), data.y)
    state = ChainState(
        theta=theta,
        risk=r,
        log_post=log_gibbs(theta, r, gcfg),
        log_prop=log_proposal_density(mean, mean, gcfg, scfg.sigma2),
    )
    # scripted rng: stay move, zero proposal noise, selection uniform,
    # acceptance uniform ~ 1
    rng = FakeRng([0.99, 0.5, 1.0 - 1e-12])
    new_state, rec = mcmc_step(state, fm, data.y, gcfg, scfg, bench, rng)
    assert rec.accepted
    assert rec.move == "stay"
    assert np.array_equal(new_state.theta.values, mean)


def test_all_candidates_outside_ball_are_rejected():
    data = gen_synthetic(30, d=5, seed=6)
    fm = build_features(data.X)
    # prior ball so small that every non-empty candidate falls outside
    gcfg = GibbsConfig(delta=1.0, d=5, beta=0.5, ball_radius=1e-9)
    scfg = STEP_CFG
    bench = BenchmarkCache(fm, data.y, RIDGE_LAMBDA, 2.0)
    state = initial_state(fm, data.y, gcfg)
    rng = FakeRng([0.1])  # add move; no acceptance draw is reached
    new_state, rec = mcmc_step(state, fm, data.y, gcfg, scfg, bench, rng)
    assert not rec.accepted
    assert new_state is state


def per_candidate_step(state, features, labels, gcfg, scfg, bench, rng):
    """The step with its neighborhood built model by model, one
    standard_normal call and one log_proposal_density call per candidate,
    and raw labels: the reference mcmc_step must match bit for bit."""
    u = rng.random()
    move = "add" if u < MOVE_PROB else "remove" if u < 2 * MOVE_PROB else "stay"
    current = state.theta.active
    models = independent_neighborhood(current, features.d, move) if move != "stay" else []
    if not models:
        move, models = "stay", [current]
    sd = math.sqrt(scfg.sigma2)
    cands = []
    log_w = np.empty(len(models))
    for i, model in enumerate(models):
        mean = bench.fit(model)
        values = np.zeros(0) if model.size == 0 else mean + sd * rng.standard_normal(mean.size)
        theta = SparseCoef(model, values=values)
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
    # at delta 100 the seed-1 chain accepts no remove: from step 127 on it
    # holds one size-6 state for at least 20,000 steps.  At 50 both chains
    # accept every move kind within 300 steps
    gcfg = tilted_config(delta=50.0, d=12)
    scfg = STEP_CFG
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
        assert state.theta.active.tobytes() == oracle.theta.active.tobytes()
        assert state.theta.values.tobytes() == oracle.theta.values.tobytes()
        assert (state.risk, state.log_post, state.log_prop) == (
            oracle.risk, oracle.log_post, oracle.log_prop)
        seen.add((rec.move, rec.accepted, state.theta.active.size))
    assert rng.random() == oracle_rng.random()  # the streams end in step
    for move in ("add", "remove", "stay"):
        assert (move, True) in {(m, a) for m, a, _ in seen}
    assert {size for *_, size in seen} >= {0, 1, 2}


def per_iteration_rows(trace):
    """Row of trace.thetas that each post-burn-in iteration reads."""
    return np.concatenate(([0], np.cumsum(trace.accepted[trace.burnin + 1:])))


@pytest.mark.parametrize("seed", [2, 3])
def test_run_chain_matches_the_per_candidate_chain(seed):
    data = gen_synthetic(80, d=9, seed=seed)
    fm = build_features(data.X)
    gcfg = tilted_config(delta=100.0, d=9)
    scfg = SamplerConfig(iters=200, burnin=120, sigma2=0.01)
    trace, est = run_chain(fm, data.y, gcfg, scfg, np.random.default_rng(seed))

    rng = np.random.default_rng(seed)
    bench = BenchmarkCache(fm, data.y, RIDGE_LAMBDA, gcfg.ball_radius)
    state = initial_state(fm, data.y, gcfg)
    masks = np.zeros((scfg.iters, fm.d), dtype=bool)
    risks = np.zeros(scfg.iters)
    risks[0] = state.risk
    thetas = np.zeros((scfg.iters - scfg.burnin, fm.d * fm.M))
    for t in range(1, scfg.iters):
        state, _ = per_candidate_step(state, fm, data.y, gcfg, scfg, bench, rng)
        masks[t], risks[t] = bits(state.theta.active, fm.d), state.risk
        if t >= scfg.burnin:
            thetas[t - scfg.burnin] = padded(state.theta, fm.d, fm.M)

    assert trace.masks.tobytes() == masks.tobytes()
    assert trace.risks.tobytes() == risks.tobytes()
    assert trace.thetas.shape[0] == 1 + trace.accepted[scfg.burnin + 1:].sum()
    assert trace.thetas[per_iteration_rows(trace)].tobytes() == thetas.tobytes()
    assert est.averaged.tobytes() == thetas.mean(axis=0).tobytes()
    assert est.randomized.values.tobytes() == state.theta.values.tobytes()
    assert len({m.tobytes() for m in masks}) > 2  # the chain moves


def test_initial_state_is_empty_model():
    data = gen_synthetic(20, d=5, seed=7)
    fm = build_features(data.X)
    gcfg = GibbsConfig(delta=1.0, d=5, beta=0.5)
    state = initial_state(fm, data.y, gcfg)
    assert state.theta.active.size == 0
    # with half-credit ties the all-zero scorer sits at chance level
    assert state.risk > 0.0


def test_run_chain_is_deterministic():
    data = gen_synthetic(60, d=5, seed=8)
    gcfg = tilted_config(delta=100.0, d=5)
    scfg = SamplerConfig(iters=80, burnin=40, sigma2=0.01)
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
    scfg = SamplerConfig(iters=80, burnin=burnin, sigma2=0.01)
    fm = build_features(data.X)
    trace, est = run_chain(fm, data.y, gcfg, scfg, np.random.default_rng(11))

    # the dense per-iteration rows, from the per-candidate chain on the same stream
    rng = np.random.default_rng(11)
    bench = BenchmarkCache(fm, data.y, RIDGE_LAMBDA, gcfg.ball_radius)
    state = initial_state(fm, data.y, gcfg)
    dense = np.zeros((80 - burnin, 5 * 13))  # row 0 is the initial state at burnin 0
    for t in range(1, 80):
        state, _ = per_candidate_step(state, fm, data.y, gcfg, scfg, bench, rng)
        if t >= burnin:
            dense[t - burnin] = padded(state.theta, fm.d, fm.M)

    n_states = 1 + trace.accepted[burnin + 1:].sum()
    assert trace.thetas.shape == (n_states, 5 * 13)
    assert n_states < 80 - burnin  # some steps are rejected: fewer rows than iterations
    expanded = trace.thetas[per_iteration_rows(trace)]
    assert expanded.tobytes() == dense.tobytes()
    assert est.averaged.tobytes() == dense.mean(axis=0).tobytes()
    # row i of the expansion is iteration burnin + i (at burnin 0, the empty
    # initial state): its support is that iteration's mask
    support = (expanded.reshape(-1, 5, 13) != 0).any(axis=2)
    assert np.array_equal(support, trace.masks[burnin:])
    assert len({m.tobytes() for m in trace.masks[burnin:]}) > 1  # the mask moves


def test_run_chain_heap_does_not_grow_with_the_horizon():
    """Ten times the iterations, at most 1 MB more heap, the ridge-fit cache
    included: it keeps one fit per visited mask (k * M doubles) and no Gram
    blocks.  Kept per iteration, the post-burn-in coefficients alone would
    add 1350 rows of d * M doubles (5.6 MB)."""
    data = gen_synthetic(80, d=40, seed=0)
    fm = build_features(data.X)
    gcfg = tilted_config(delta=100.0, d=40)
    peaks = []
    for iters in (300, 3000):
        scfg = SamplerConfig(iters=iters, burnin=iters // 2, sigma2=0.01)
        tracemalloc.start()
        try:
            run_chain(fm, data.y, gcfg, scfg, np.random.default_rng(0))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1_000_000


def test_run_chain_smoke_two_iterations(tmp_path):
    data = gen_synthetic(20, d=5, seed=9)
    gcfg = GibbsConfig(delta=1.0, d=5, beta=0.5)
    scfg = SamplerConfig(iters=2, burnin=0, sigma2=0.01)
    trace, estimators = run_chain(build_features(data.X), data.y, gcfg, scfg,
                                  np.random.default_rng(0))
    assert trace.iters == 2
    assert estimators.averaged.shape == (5 * 13,)
    out = tmp_path / "trace.csv"
    trace_to_csv(trace, out)
    lines = out.read_text().splitlines()
    assert len(lines) == 3  # header + 2 iterations
    assert lines[0].startswith("t,model_size")


def test_trace_summaries():
    data = gen_synthetic(40, d=5, seed=10)
    gcfg = tilted_config(delta=200.0, d=5)
    scfg = SamplerConfig(iters=60, burnin=30, sigma2=0.01)
    trace, _ = run_chain(build_features(data.X), data.y, gcfg, scfg, np.random.default_rng(3))
    freq = trace.selection_frequency()
    assert freq.shape == (5,)
    assert np.all((0.0 <= freq) & (freq <= 1.0))
    assert 0.0 <= trace.acceptance_rate <= 1.0
    assert np.array_equal(trace.model_sizes, trace.masks.sum(axis=1))

"""Benchmark fits, neighborhood proposals, and the Metropolis-Hastings step."""

import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gibbsrank import sampler
from gibbsrank.basis import (
    FeatureMatrix,
    SparseCoef,
    build_features,
    score,
)
from gibbsrank.cli import trace_to_csv
from gibbsrank.data import gen_synthetic
from gibbsrank.gibbs import BALL_RADIUS, GibbsConfig, log_prior, tilted_size_log_weights
from gibbsrank.risk import DegenerateDataError, PreparedLabels, empirical_rank_risk
from gibbsrank.sampler import (
    MOVE_PROB,
    RIDGE_LAMBDA,
    BenchmarkCache,
    ChainError,
    ChainState,
    SamplerConfig,
    StepRecord,
    initial_state,
    mcmc_step,
    propose_neighborhood,
    run_chain,
    select_index,
)
from oracles import FakeRng, active, bits, geometric_config, log_proposal_density, padded


# the settings of a single step: mcmc_step reads only sigma2
STEP_CFG = SamplerConfig(iters=1000, burnin=800, sigma2=0.01)


def tilted_config(delta, d, sigma2=0.01):
    """A GibbsConfig with the experiments' size prior at proposal variance sigma2."""
    return GibbsConfig(delta=delta, size_log_weights=tilted_size_log_weights(d, 0.5, sigma2))


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
    # orthonormal columns and y equal to one of them: the ridge solve
    # (Q^T Q + lambda I)^-1 Q^T y puts weight 1 / (1 + lambda) there and 0 elsewhere
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((8, 4)))
    fm = FeatureMatrix(blocks=Q.T[None])
    y = Q[:, 1]
    values = BenchmarkCache(fm, y).fit(active(1, [0]))
    expected = np.array([0.0, 1.0 / (1.0 + RIDGE_LAMBDA), 0.0, 0.0])
    assert np.allclose(values, expected, atol=1e-5)


def test_benchmark_cache_returns_identical_result():
    data = gen_synthetic(25, d=5, seed=1)
    fm = build_features(data.X)
    cache = BenchmarkCache(fm, data.y)
    model = active(5, [0, 3])
    first = cache.fit(model)
    second = cache.fit(model)
    assert first is second


def assembled_fit(features, labels, model):
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
    G.flat[::k * M + 1] += RIDGE_LAMBDA
    xty = blocks @ np.asarray(labels, dtype=float)
    values = np.linalg.solve(G, xty[listed].ravel())
    norm = float(np.linalg.norm(values))
    if norm > BALL_RADIUS:
        values *= BALL_RADIUS * (1.0 - 1e-9) / norm
    return values


@pytest.mark.parametrize("n", [80, 1000])
def test_benchmark_fit_equals_the_blockwise_assembled_solve(n):
    """The batched Gram product gives the bits of the per-pair assembly, for
    every model size up to 6 and for masks with gaps between covariates."""
    rng = np.random.default_rng(n)
    d = 20
    fm = build_features(rng.random((n, d)))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    cache = BenchmarkCache(fm, y)
    actives = [np.sort(rng.choice(d, size=k, replace=False)) for k in range(1, 7) for _ in range(6)]
    # no two covariates adjacent, the last mask spanning both ends
    actives += [[0, 2], [1, 5, 9], [0, 4, 11, 19], [3, 6, 10, 14, 17], [0, 3, 7, 11, 15, 19]]
    for listed in actives:
        model = active(d, listed)
        want = assembled_fit(fm, y, model)
        assert cache.fit(model).tobytes() == want.tobytes()


def test_benchmark_memory_grows_with_visited_masks_not_d_squared():
    # a dense (d * M)^2 Gram at d=300 would be 122 MB; a three-covariate fit
    # forms one 39 x 39 Gram and keeps only its 39 values
    fm = build_features(np.random.default_rng(5).random((20, 300)))
    y = np.where(np.arange(20) % 2 == 0, 1.0, -1.0)
    tracemalloc.start()
    try:
        cache = BenchmarkCache(fm, y)
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
        cache = BenchmarkCache(fm, y)
        before = tracemalloc.get_traced_memory()[0]
        fits = [cache.fit(model) for model in models]
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    held = sum(values.nbytes for values in fits)
    assert held == (d - 1) * 2 * fm.M * 8
    assert grown < 3 * held


def test_benchmark_shrinks_into_ball():
    # labels scaled up so far that the ridge fit lands far outside the prior
    # ball, which must pull it back inside along the same direction
    rng = np.random.default_rng(3)
    base = rng.standard_normal(15)
    Phi = np.column_stack([base, base + 1e-8 * rng.standard_normal(15)])
    fm = FeatureMatrix(blocks=Phi.T[None])
    y = 1e4 * rng.standard_normal(15)
    values = BenchmarkCache(fm, y).fit(active(1, [0]))
    direct = np.linalg.solve(Phi.T @ Phi + RIDGE_LAMBDA * np.eye(2), Phi.T @ y)
    assert np.linalg.norm(direct) > 10 * BALL_RADIUS
    assert np.linalg.norm(values) <= BALL_RADIUS
    assert np.allclose(values, direct * (BALL_RADIUS * (1.0 - 1e-9) / np.linalg.norm(direct)),
                       rtol=1e-12, atol=0.0)


def independent_neighborhood(current, d, move):
    """The models of a neighborhood built one by one from their active lists."""
    listed = current.tolist()
    if move == "add":
        return [active(d, sorted(listed + [j])) for j in range(d) if j not in listed]
    return [active(d, [i for i in listed if i != j]) for j in listed]


@pytest.mark.parametrize("move,u", [("add", 0.1), ("remove", 0.5)])
@pytest.mark.parametrize("size", [pytest.param(size, id=f"d100-{size}")
                                  for size in (0, 1, 2, 50, 99, 100)])
def test_neighborhood_masks_match_independently_built_masks(move, u, size):
    d = 100
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


def test_large_remove_neighborhood_peaks_at_its_index_array():
    """A remove neighborhood at d=4000 and |m|=1000 is one (1000, 999) index
    array, 8 MB: its k x k diagonal mask and that mask's complement, 1 MB
    each, are its only other allocations."""
    d = 4000
    current = active(d, np.random.default_rng(0).permutation(d)[:1000])
    tracemalloc.start()
    try:
        move, rows = propose_neighborhood(current, d, FakeRng([0.5]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert move == "remove" and rows.shape == (1000, 999)
    assert peak < 1.5 * rows.nbytes
    for row, want in zip(rows, independent_neighborhood(current, d, "remove")):
        assert row.tolist() == want.tolist()


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
    values = np.array([1.0, 2.0])
    mean = np.array([0.5, 2.5])
    sigma2 = 0.2
    quad = -0.5 / sigma2 * 0.5
    norm = -0.5 * 2 * math.log(2 * math.pi * sigma2)
    assert log_proposal_density(values, mean, sigma2) == pytest.approx(quad + norm)
    assert log_proposal_density(np.zeros(0), np.zeros(0), sigma2) == 0.0


class FarRng(FakeRng):
    """A FakeRng whose proposal noise is 1000 standard deviations per coordinate."""

    def standard_normal(self, size):
        return np.full(size, 1e3)


def test_all_candidates_outside_ball_are_rejected():
    data = gen_synthetic(30, d=5, seed=6)
    fm = build_features(data.X)
    gcfg = geometric_config(delta=1.0, d=5, beta=0.5)
    scfg = STEP_CFG
    bench = BenchmarkCache(fm, data.y)
    state = initial_state(fm, data.y, gcfg)
    # add move, and noise so large (norm 100 * sqrt(13)) that every candidate
    # falls outside the prior ball; no selection or acceptance draw is reached
    rng = FarRng([0.1])
    new_state, rec = mcmc_step(state, data.y, gcfg, scfg, bench, rng)
    assert not rec.accepted
    assert new_state is state


@pytest.mark.parametrize("seed", range(5))
def test_a_state_of_zero_posterior_density_is_a_chain_error(seed):
    """From a state whose log posterior is -inf any finite candidate's
    acceptance ratio is +inf, which the step refuses rather than accepts."""
    data = gen_synthetic(30, d=5, seed=seed)
    fm = build_features(data.X)
    gcfg = tilted_config(delta=10.0, d=5)
    bench = BenchmarkCache(fm, data.y)
    state = replace(initial_state(fm, data.y, gcfg), log_post=-math.inf)
    with pytest.raises(ChainError, match=r"^non-finite acceptance ratio for move (add|stay)$"):
        mcmc_step(state, data.y, gcfg, STEP_CFG, bench, np.random.default_rng(seed))


def test_run_chain_names_the_iteration_of_a_chain_error(monkeypatch):
    data = gen_synthetic(30, d=5, seed=9)
    steps = []

    def failing_step(*args):
        steps.append(len(steps) + 1)
        if len(steps) == 3:
            raise ChainError("non-finite acceptance ratio for move add")
        return mcmc_step(*args)

    monkeypatch.setattr(sampler, "mcmc_step", failing_step)
    with pytest.raises(ChainError) as err:
        run_chain(build_features(data.X), data.y, tilted_config(delta=10.0, d=5), STEP_CFG,
                  np.random.default_rng(0))
    assert str(err.value) == "iteration 3: non-finite acceptance ratio for move add"
    assert str(err.value.__cause__) == "non-finite acceptance ratio for move add"


@pytest.mark.parametrize("d, M", [(20, 13), (8, 13), (10, 5)])
def test_run_chain_refuses_a_prior_for_another_shape(d, M):
    # a larger d would run the chain on the wrong C(d, k) size prior, a
    # smaller one would stop mid-run on an index outside 0..d-1
    data = gen_synthetic(30, d=10, seed=3)
    gcfg = geometric_config(delta=10.0, d=d, beta=0.5, M=M)
    message = rf"^prior has \(d, M\) = \({d}, {M}\) but the features have \(d, M\) = \(10, 13\)$"
    with pytest.raises(ValueError, match=message):
        run_chain(build_features(data.X), data.y, gcfg, STEP_CFG, np.random.default_rng(0))


def test_run_chain_refuses_one_class_labels_before_its_first_step(monkeypatch):
    """One-class labels used to run the chain to its end with every risk
    0.0; they are refused where the labels are prepared, before any step
    or draw."""
    data = gen_synthetic(30, d=5, seed=9)
    steps = []

    def counted_step(*args):
        steps.append(args)
        return mcmc_step(*args)

    monkeypatch.setattr(sampler, "mcmc_step", counted_step)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for y, counts in ((np.ones(data.n), "30 positive, 0 negative"),
                      (-np.ones(data.n), "0 positive, 30 negative")):
        with pytest.raises(DegenerateDataError,
                           match=f"^labels contain a single class: {counts}$"):
            run_chain(build_features(data.X), y, tilted_config(delta=10.0, d=5),
                      SamplerConfig(iters=20, burnin=10, sigma2=0.01), rng)
    assert steps == []
    assert rng.bit_generator.state == state
    for labels in ([], [1.0], [1.0, 1.0, 1.0]):
        with pytest.raises(DegenerateDataError):
            PreparedLabels(labels)


def test_run_chain_refuses_a_nan_label_before_its_first_step(monkeypatch):
    """A NaN label used to reach the ridge fits and stop the chain on a
    NaN score at index 0; it is refused by its own index where the labels
    are prepared."""
    data = gen_synthetic(30, d=5, seed=9)
    y = data.y.copy()
    y[[7, 12]] = np.nan
    steps = []
    monkeypatch.setattr(sampler, "mcmc_step", lambda *args: steps.append(args))
    with pytest.raises(ValueError, match="^NaN label at index 7$"):
        run_chain(build_features(data.X), y, tilted_config(delta=10.0, d=5),
                  SamplerConfig(iters=20, burnin=10, sigma2=0.01), np.random.default_rng(0))
    assert steps == []


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
        r = empirical_rank_risk(score(theta, features), labels)
        lg = -gcfg.delta * r + lp
        lq = log_proposal_density(values, mean, scfg.sigma2)
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
    bench = BenchmarkCache(fm, data.y)
    oracle_bench = BenchmarkCache(fm, data.y)
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    prepared = PreparedLabels(data.y)
    state = oracle = initial_state(fm, data.y, gcfg)
    seen = set()
    for _ in range(300):
        state, rec = mcmc_step(state, prepared, gcfg, scfg, bench, rng)
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
    bench = BenchmarkCache(fm, data.y)
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


@pytest.mark.parametrize("burnin", [5, 0])
def test_run_chain_keeps_post_burnin_thetas(burnin):
    data = gen_synthetic(60, d=5, seed=8)
    gcfg = tilted_config(delta=100.0, d=5)
    scfg = SamplerConfig(iters=80, burnin=burnin, sigma2=0.01)
    fm = build_features(data.X)
    trace, est = run_chain(fm, data.y, gcfg, scfg, np.random.default_rng(11))

    # the dense per-iteration rows, from the per-candidate chain on the same stream
    rng = np.random.default_rng(11)
    bench = BenchmarkCache(fm, data.y)
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


def test_run_chain_holds_its_post_burnin_rows_once():
    """The chain's heap peaks less than 0.75 of the trace's coefficient
    rows above what it still holds on return: the post-burn-in states are
    kept as (k, M) blocks and padded into one array after the loop.  Kept as
    padded rows and then copied into the trace, they peaked 1.24 times
    those rows above it."""
    data = gen_synthetic(80, d=40, seed=0)
    fm = build_features(data.X)
    gcfg = GibbsConfig(delta=10.0, size_log_weights=tilted_size_log_weights(40, 0.35, 0.01))
    tracemalloc.start()
    try:
        trace, _ = run_chain(fm, data.y, gcfg, SamplerConfig(1000, 500, 0.01),
                             np.random.default_rng(0))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.thetas.shape == (298, 40 * 13)  # 298 post-burn-in states
    assert peak - held < 0.75 * trace.thetas.nbytes


def test_run_chain_smoke_two_iterations(tmp_path):
    data = gen_synthetic(20, d=5, seed=9)
    gcfg = geometric_config(delta=1.0, d=5, beta=0.5)
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

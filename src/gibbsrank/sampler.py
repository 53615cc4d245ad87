"""Transdimensional Metropolis-Hastings over (model, coefficients).

A model is its active covariates, an ascending read-only intp index array.
Each step selects a move (add / remove / stay a covariate), draws one
candidate coefficient vector per model in the corresponding neighborhood
from a Gaussian centered on that model's ridge benchmark fit, picks one
candidate with probability proportional to posterior/proposal, and accepts
it through a Metropolis-Hastings ratio.  The run yields the last state
(randomized estimator) and the post-burn-in average of the zero-padded
iterates (averaged estimator).  The coefficients are kept once per
post-burn-in state, not once per iteration, and the average is a running
sum over the iterations of those rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import FeatureMatrix, SparseCoef, score
from .gibbs import GibbsConfig, log_gibbs, log_prior
from .risk import PreparedLabels, empirical_rank_risk

MOVE_ADD = "add"
MOVE_REMOVE = "remove"
MOVE_STAY = "stay"

# Opposite-label ties cost 1/2 inside the sampler, so the all-zero scorer of
# the empty model carries the chance-level risk instead of a spuriously
# perfect one.
SAMPLER_TIE_VALUE = 0.5


class ChainError(RuntimeError):
    """Numerical fault inside the chain, annotated with the iteration index."""


# The dictionary is near-collinear (the harmonics are almost polynomial), so
# a vanishing ridge blows the benchmark fits far outside the prior ball and
# the radial shrink then buries the signal under the proposal noise.  An O(1)
# ridge keeps fits interior at essentially the same risk.
RIDGE_LAMBDA = 1.0

MOVE_PROB = 0.4  # P(add) = P(remove); P(stay) = 1 - 2 * MOVE_PROB


@dataclass(frozen=True)
class SamplerConfig:
    """Chain length, burn-in and proposal variance; the ridge is RIDGE_LAMBDA
    and the move probability MOVE_PROB."""

    iters: int
    burnin: int
    sigma2: float

    def __post_init__(self):
        if self.iters < 2:
            raise ValueError("iters must be at least 2")
        if not 0 <= self.burnin < self.iters:
            raise ValueError("burnin must satisfy 0 <= burnin < iters")
        if not 0 < self.sigma2 < math.inf:
            raise ValueError("sigma2 must be positive and finite")


class BenchmarkCache:
    """Per-model ridge least-squares fits, computed on first use and kept by
    the bytes of the model's active indices.

    A miss forms the model's kM x kM Gram in one batched matmul over its k
    feature blocks, one BLAS product blocks[i] @ blocks[j].T per covariate
    pair, and keeps only the k * M fitted values, so memory grows with the
    models the chain visits, never with (d * M)^2.  Fits with norm above the
    prior ball radius are radially shrunk just inside it so proposals
    centered on them can land in the support.
    """

    def __init__(self, features: FeatureMatrix, labels, ridge_lambda: float, ball_radius: float):
        y = np.asarray(labels, dtype=float)
        self.features = features
        self.ridge_lambda = ridge_lambda
        self.ball_radius = ball_radius
        self.xty = features.blocks @ y  # X^T y as (d, M): row j is blocks[j] @ y
        self._cache: dict[bytes, np.ndarray] = {}

    def fit(self, active: np.ndarray) -> np.ndarray:
        if active.size == 0:
            return np.zeros(0)
        key = active.tobytes()
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        A = self.features.blocks[active]  # (k, M, n)
        kM = A.shape[0] * A.shape[1]
        # (k, k, M, M) pair products, laid out as the (kM, kM) Gram
        G = np.matmul(A[:, None], A[None].swapaxes(2, 3)).transpose(0, 2, 1, 3).reshape(kM, kM)
        G.flat[::kM + 1] += self.ridge_lambda
        try:
            values = np.linalg.solve(G, self.xty[active].ravel())
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                f"singular ridge system for active covariates {active.tolist()}"
            ) from exc
        norm = float(np.linalg.norm(values))
        if norm > self.ball_radius:
            values *= self.ball_radius * (1.0 - 1e-9) / norm
        values.setflags(write=False)
        self._cache[key] = values
        return values


def propose_neighborhood(active: np.ndarray, d: int,
                         rng: np.random.Generator) -> tuple[str, np.ndarray]:
    """Sample a move and enumerate the corresponding neighborhood.

    active is the current model's ascending indices among d covariates.
    The K models of the neighborhood are the rows of one read-only
    (K, k +- 1) index array.  An add neighborhood is active with each free
    covariate inserted in sorted position, listed by added covariate
    ascending; a remove neighborhood is active with each entry dropped in
    turn, listed by removed covariate ascending.  Empty neighborhoods (add
    at the full model, remove at the empty model) fall back to a stay move,
    whose one row is active itself.
    """
    u = rng.random()
    if u < MOVE_PROB:
        move = MOVE_ADD
    elif u < 2 * MOVE_PROB:
        move = MOVE_REMOVE
    else:
        move = MOVE_STAY
    k = active.size
    if move == MOVE_ADD and k < d:
        # the free covariates lo..hi-1 between active[p - 1] and active[p]
        # are a block of rows, each inserted at column p.  Slice writes
        # only: a sort or a broadcast fancy index would page in about
        # 0.2 MB more of numpy's kernels for every chain process
        rows = np.empty((d - k, k + 1), dtype=np.intp)
        rows[:, 1:] = active
        start = lo = 0
        for p, hi in enumerate(active.tolist() + [d]):
            end = start + hi - lo
            rows[start:end, :p] = active[:p]
            rows[start:end, p] = np.arange(lo, hi)
            start, lo = end, hi + 1
    elif move == MOVE_REMOVE and k:
        rows = np.empty((k, k - 1), dtype=np.intp)
        rows[:] = active[1:]
        for i in range(1, k):  # row i keeps active[:i] and skips entry i
            rows[i, :i] = active[:i]
    else:
        return MOVE_STAY, active[None]
    rows.setflags(write=False)
    return move, rows


def select_index(rng: np.random.Generator, log_weights: np.ndarray) -> int:
    """Draw an index with probability proportional to exp(log_weights).

    At least one weight must be finite; shifting by the maximum keeps exp
    from overflowing.  The draw is Generator.choice's own for given p (the
    normalised cumulative sum searched at one uniform) without its per-call
    validation of p: the same index from the same one double of the stream.
    """
    p = np.exp(log_weights - log_weights.max())
    p /= p.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


@dataclass
class ChainState:
    theta: SparseCoef
    risk: float
    log_post: float
    log_prop: float  # proposal density of theta under its own model's benchmark


@dataclass
class StepRecord:
    move: str
    accepted: bool


def chain_risk(scores, labels) -> float:
    """Empirical ranking risk as used by the chain (ties at half credit).

    labels are raw labels or, within a chain, their PreparedLabels.
    """
    return empirical_rank_risk(scores, labels, tie_value=SAMPLER_TIE_VALUE)


def initial_state(features: FeatureMatrix, labels, gcfg: GibbsConfig) -> ChainState:
    """Chain start: the empty model with theta = 0."""
    empty = np.zeros(0, dtype=np.intp)
    empty.setflags(write=False)
    theta = SparseCoef(empty, np.zeros(0))
    r = chain_risk(np.zeros(features.n), labels)
    return ChainState(theta=theta, risk=r, log_post=log_gibbs(theta, r, gcfg), log_prop=0.0)


def _log_proposal_rows(values: np.ndarray, means: np.ndarray, cfg: GibbsConfig,
                       sigma2: float) -> np.ndarray:
    """Normalised log density of each row of values under the Gaussian
    proposal centred on the same row of means.

    The rows share one model size, whose cfg.ball_dim is the density's
    dimension, so one subtraction, one square, one row reduction and one
    constant give every row's density.  Rows of width 0, the empty model's
    point proposal, have log density 0.
    """
    resid = values - means
    np.square(resid, out=resid)
    quad = -np.add.reduce(resid, axis=1) / (2.0 * sigma2)
    dim = cfg.ball_dim(values.shape[1] // cfg.M)
    return quad - 0.5 * dim * math.log(2.0 * math.pi * sigma2)


def mcmc_step(state: ChainState, features: FeatureMatrix, labels,
              gcfg: GibbsConfig, scfg: SamplerConfig,
              bench: BenchmarkCache, rng: np.random.Generator) -> tuple[ChainState, StepRecord]:
    """One transdimensional Metropolis-Hastings transition.

    Every model of a neighborhood has the same size, so one standard_normal
    call of shape (K, k * M) draws the noise of all K candidates: the same
    numbers, in the same order, as one call per candidate, and nothing at
    all for the empty model (k = 0).  Each candidate is a row view of that
    draw, taken as a SparseCoef without a copy.
    """
    move, rows = propose_neighborhood(state.theta.active, features.d, rng)
    means = np.array([bench.fit(active) for active in rows])  # (K, k * M)
    values = means + math.sqrt(scfg.sigma2) * rng.standard_normal(means.shape)
    log_q = _log_proposal_rows(values, means, gcfg, scfg.sigma2).tolist()

    thetas = [SparseCoef(active, row) for active, row in zip(rows, values)]
    risks = [math.nan] * len(thetas)
    log_posts = [-math.inf] * len(thetas)
    log_w = np.empty(len(thetas))
    for i, theta in enumerate(thetas):
        lp = log_prior(theta, gcfg)
        if lp == -math.inf:
            log_w[i] = -math.inf
            continue
        risks[i] = r = chain_risk(score(theta, features), labels)
        log_posts[i] = lg = -gcfg.delta * r + lp
        log_w[i] = lg - log_q[i]

    if not np.isfinite(log_w).any():
        # every candidate fell outside the prior ball
        return state, StepRecord(move=move, accepted=False)

    idx = select_index(rng, log_w)
    lg, lq = log_posts[idx], log_q[idx]
    log_alpha = lg + state.log_prop - state.log_post - lq
    if not math.isfinite(log_alpha) and log_alpha != -math.inf:
        raise ChainError(f"non-finite acceptance ratio for move {move}")
    if math.log(rng.random()) < min(0.0, log_alpha):
        new = ChainState(theta=thetas[idx], risk=risks[idx], log_post=lg, log_prop=lq)
        return new, StepRecord(move=move, accepted=True)
    return state, StepRecord(move=move, accepted=False)


@dataclass
class ChainTrace:
    """Per-iteration record of the chain plus summary statistics.

    Masks, risks, acceptances and moves cover all T iterations.  The
    coefficients are kept once per post-burn-in state, zero-padded: row 0 is
    the state at iteration burnin (the empty initial state when burnin is
    0) and each accepted post-burn-in step adds one row, so iteration
    burnin + i is row concatenate(([0], cumsum(accepted[burnin + 1:])))[i].
    """

    masks: np.ndarray       # (T, d) bool
    thetas: np.ndarray      # (1 + accepted post-burn-in steps, d * M) zero-padded
    risks: np.ndarray       # (T,)
    accepted: np.ndarray    # (T,) bool; first row is the initial state
    moves: list[str]
    burnin: int

    @property
    def iters(self) -> int:
        return self.masks.shape[0]

    @property
    def acceptance_rate(self) -> float:
        return float(self.accepted[1:].mean())

    @property
    def model_sizes(self) -> np.ndarray:
        return self.masks.sum(axis=1)

    def selection_frequency(self) -> np.ndarray:
        """Fraction of post-burn-in iterations in which each covariate is active."""
        return self.masks[self.burnin:].mean(axis=0)


@dataclass(frozen=True)
class FinalEstimators:
    randomized: SparseCoef
    averaged: np.ndarray  # dense d * M vector


def run_chain(features: FeatureMatrix, labels, gcfg: GibbsConfig, scfg: SamplerConfig,
              rng: np.random.Generator) -> tuple[ChainTrace, FinalEstimators]:
    """Run one chain on a feature matrix and return its trace and final estimators.

    labels are the +-1 labels of the feature rows; the chain is deterministic
    given the state of rng.  The risk kernel's label arrays are prepared once
    here and shared by every candidate of every step.

    The averaged estimator adds each post-burn-in iteration's row to a zero
    vector in iteration order and divides by T - burnin: bit for bit the
    mean over axis 0 of the (T - burnin, d * M) per-iteration rows, which
    numpy also sums row by row from zero.
    """
    bench = BenchmarkCache(features, labels, RIDGE_LAMBDA, gcfg.ball_radius)
    prepared = PreparedLabels(labels)

    T, d, M, burnin = scfg.iters, features.d, features.M, scfg.burnin
    masks = np.zeros((T, d), dtype=bool)
    risks = np.zeros(T)
    accepted = np.zeros(T, dtype=bool)
    moves = ["init"]

    state = initial_state(features, prepared, gcfg)
    risks[0] = state.risk
    # (iteration entered, owned values) of each post-burn-in state; a state's
    # values are a row of its step's (K, k * M) draw, so they are copied
    kept = [(0, state.theta.values)] if burnin == 0 else []
    for t in range(1, T):
        try:
            state, rec = mcmc_step(state, features, prepared, gcfg, scfg, bench, rng)
        except ChainError as exc:
            raise ChainError(f"iteration {t}: {exc}") from exc
        if rec.accepted:
            masks[t, state.theta.active] = True
        else:  # the state stays, and so does its model
            masks[t] = masks[t - 1]
        if t == burnin or (t > burnin and rec.accepted):
            kept.append((t, state.theta.values.copy()))
        risks[t] = state.risk
        accepted[t] = rec.accepted
        moves.append(rec.move)

    thetas = np.zeros((len(kept), d * M))
    for row, (t, values) in zip(thetas, kept):
        row.reshape(d, M)[masks[t]] = values.reshape(-1, M)
    total = np.zeros(d * M)
    for i in np.concatenate(([0], np.cumsum(accepted[burnin + 1:]))).tolist():
        total += thetas[i]

    trace = ChainTrace(masks=masks, thetas=thetas, risks=risks, accepted=accepted,
                       moves=moves, burnin=burnin)
    estimators = FinalEstimators(
        randomized=SparseCoef(state.theta.active, state.theta.values.copy()),
        averaged=total / (T - burnin),
    )
    return trace, estimators


def trace_to_csv(trace: ChainTrace, path) -> None:
    """One row per iteration: t, model size, active covariates, risk, accepted, move."""
    with open(path, "w") as fh:
        fh.write("t,model_size,active,risk,accepted,move\n")
        for t in range(trace.iters):
            active = ";".join(str(j + 1) for j in np.flatnonzero(trace.masks[t]))
            fh.write(f"{t},{int(trace.masks[t].sum())},{active},"
                     f"{trace.risks[t]:.17g},{int(trace.accepted[t])},{trace.moves[t]}\n")

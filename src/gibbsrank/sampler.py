"""Transdimensional Metropolis-Hastings over (model mask, coefficients).

Each step selects a move (add / remove / stay a covariate), draws one
candidate coefficient vector per mask in the corresponding neighborhood
from a Gaussian centered on that mask's ridge benchmark fit, picks one
candidate with probability proportional to posterior/proposal, and accepts
it through a Metropolis-Hastings ratio.  The run yields the last state
(randomized estimator) and the post-burn-in average of the zero-padded
iterates (averaged estimator); only the post-burn-in iterates are kept.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .basis import FeatureMatrix, ModelMask, SparseCoef, score
from .gibbs import GibbsConfig, log_gibbs, log_prior
from .risk import PreparedLabels, empirical_rank_risk

logger = logging.getLogger(__name__)

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


@dataclass(frozen=True)
class SamplerConfig:
    """Chain length, burn-in, proposal variance and move probability.

    run_chain takes the random stream; the benchmark fits' ridge is RIDGE_LAMBDA.
    """

    horizon: int = 1000
    burnin: int = 800
    sigma2: float = 0.01
    move_prob: float = 0.25  # P(add) = P(remove); P(stay) = 1 - 2 * move_prob

    def __post_init__(self):
        if self.horizon < 2:
            raise ValueError("horizon must be at least 2")
        if not 0 <= self.burnin < self.horizon:
            raise ValueError("burnin must satisfy 0 <= burnin < horizon")
        if not 0 < self.sigma2 < math.inf:
            raise ValueError("sigma2 must be positive and finite")
        if not 0 < self.move_prob <= 0.5:
            raise ValueError("move_prob must lie in (0, 0.5]")


class BenchmarkCache:
    """Per-mask ridge least-squares fits, solved from per-pair Gram blocks.

    The M x M Gram block of a covariate pair, blocks[i] @ blocks[j].T, is
    computed the first time a fit needs it and kept, so memory grows with the
    covariate pairs the chain visits rather than with (d * M)^2.  Fits with
    norm above the prior ball radius are radially shrunk just inside it so
    proposals centered on them can land in the support.
    """

    def __init__(self, features: FeatureMatrix, labels, ridge_lambda: float, ball_radius: float):
        y = np.asarray(labels, dtype=float)
        self.features = features
        self.ridge_lambda = ridge_lambda
        self.ball_radius = ball_radius
        self.xty = features.blocks @ y  # X^T y as (d, M): row j is blocks[j] @ y
        self._blocks: dict[tuple[int, int], np.ndarray] = {}  # (i, j) with i <= j
        self._cache: dict[bytes, np.ndarray] = {}

    def _gram_block(self, i: int, j: int) -> np.ndarray:
        block = self._blocks.get((i, j))
        if block is None:
            blocks = self.features.blocks
            block = self._blocks[i, j] = blocks[i] @ blocks[j].T
        return block

    def fit(self, mask: ModelMask) -> np.ndarray:
        if mask.size == 0:
            return np.zeros(0)
        key = mask.key()
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        M, active = self.features.M, mask.active.tolist()
        G = np.empty((mask.size * M, mask.size * M))
        for a, i in enumerate(active):
            for b in range(a, mask.size):
                block = self._gram_block(i, active[b])
                G[a * M:(a + 1) * M, b * M:(b + 1) * M] = block
                if b > a:
                    G[b * M:(b + 1) * M, a * M:(a + 1) * M] = block.T
        G.flat[::G.shape[0] + 1] += self.ridge_lambda
        try:
            values = np.linalg.solve(G, self.xty[active].ravel())
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                f"singular ridge system for mask {mask.active.tolist()}"
            ) from exc
        norm = float(np.linalg.norm(values))
        if norm > self.ball_radius:
            values *= self.ball_radius * (1.0 - 1e-9) / norm
        values.setflags(write=False)
        self._cache[key] = values
        return values


def propose_neighborhood(current: ModelMask, rng: np.random.Generator,
                         scfg: SamplerConfig) -> tuple[str, list[ModelMask]]:
    """Sample a move and enumerate the corresponding neighborhood.

    An add neighborhood lists its masks by added covariate ascending, a
    remove neighborhood by removed covariate ascending.  The K masks are row
    views of one read-only (K, d) bool array and one (K, k +- 1) array of
    active indices, built from current.active and the flipped covariates.
    Empty neighborhoods (add at the full model, remove at the empty model)
    fall back to a stay move.
    """
    u = rng.random()
    if u < scfg.move_prob:
        move = MOVE_ADD
    elif u < 2 * scfg.move_prob:
        move = MOVE_REMOVE
    else:
        move = MOVE_STAY
    active, k = current.active, current.size
    if move == MOVE_ADD and k < current.d:
        flips = np.flatnonzero(~current.bits)
        # row i is active with flips[i] inserted at slot pos[i]; the padding
        # keeps slot k in range, and the inserted slot is then overwritten.
        # Sorting each row of active plus flips[i] is faster at small K, but
        # numpy's integer sort raised a chain's peak RSS by about 0.2 MB.
        pos = np.searchsorted(active, flips)
        slot = np.arange(k + 1)
        rows = np.append(active, 0)[slot - (slot > pos[:, None])]
        rows[np.arange(flips.size), pos] = flips
    elif move == MOVE_REMOVE and k:
        flips = active
        # row i is active without its slot i
        slot = np.arange(k - 1)
        rows = active[slot + (slot >= np.arange(k)[:, None])]
    else:
        return MOVE_STAY, [current]
    bits = np.repeat(current.bits[None], flips.size, axis=0)
    bits[np.arange(flips.size), flips] = move == MOVE_ADD  # set by add, cleared by remove
    bits.setflags(write=False)
    rows.setflags(write=False)
    return move, [ModelMask.from_views(b, a) for b, a in zip(bits, rows)]


def log_proposal_density(values: np.ndarray, mean: np.ndarray, cfg: GibbsConfig,
                         sigma2: float) -> float:
    """Normalised log density of the benchmark-centered Gaussian proposal.

    Its dimension is cfg.ball_dim of the model size, that of the full
    coefficient vector.  The empty model's point proposal has log density 0
    by convention.
    """
    if values.size == 0:
        return 0.0
    resid = values - mean
    np.square(resid, out=resid)
    quad = -float(np.add.reduce(resid)) / (2.0 * sigma2)
    dim = cfg.ball_dim(values.size // cfg.M)
    return quad - 0.5 * dim * math.log(2.0 * math.pi * sigma2)


def select_index(rng: np.random.Generator, log_weights: np.ndarray) -> int:
    """Draw an index with probability proportional to exp(log_weights).

    At least one weight must be finite; shifting by the maximum keeps exp
    from overflowing.
    """
    p = np.exp(log_weights - log_weights.max())
    p /= p.sum()
    return int(rng.choice(log_weights.size, p=p))


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
    theta = SparseCoef(mask=ModelMask.empty(features.d), values=np.zeros(0))
    r = chain_risk(np.zeros(features.n), labels)
    return ChainState(theta=theta, risk=r, log_post=log_gibbs(theta, r, gcfg), log_prop=0.0)


def _log_proposal_rows(values: np.ndarray, means: np.ndarray, cfg: GibbsConfig,
                       sigma2: float) -> np.ndarray:
    """log_proposal_density of each row of values about the same row of means.

    The rows share one model size, so one subtraction, one square, one row
    reduction and one constant give every row's density, bit for bit what a
    log_proposal_density call per row gives.
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

    Every mask of a neighborhood has the same size, so one standard_normal
    call of shape (K, k * M) draws the noise of all K candidates: the same
    numbers, in the same order, as one call per candidate.
    """
    move, masks = propose_neighborhood(state.theta.mask, rng, scfg)
    means = np.array([bench.fit(mask) for mask in masks])  # (K, k * M)
    if means.shape[1]:
        values = means + math.sqrt(scfg.sigma2) * rng.standard_normal(means.shape)
        log_q = _log_proposal_rows(values, means, gcfg, scfg.sigma2).tolist()
    else:  # the empty model's point proposal draws nothing and has log density 0
        values, log_q = means, [0.0] * len(masks)

    cands: list[tuple[SparseCoef, float, float, float]] = []
    log_w = []
    for mask, row, lq in zip(masks, values, log_q):
        theta = SparseCoef(mask=mask, values=row)
        lp = log_prior(theta, gcfg)
        if lp == -math.inf:
            cands.append((theta, math.nan, -math.inf, math.nan))
            log_w.append(-math.inf)
            continue
        r = chain_risk(score(theta, features), labels)
        lg = -gcfg.delta * r + lp
        cands.append((theta, r, lg, lq))
        log_w.append(lg - lq)

    log_w = np.array(log_w)
    if not np.any(np.isfinite(log_w)):
        # every candidate fell outside the prior ball
        return state, StepRecord(move=move, accepted=False)

    idx = select_index(rng, log_w)
    theta, r, lg, lq = cands[idx]
    log_alpha = lg + state.log_prop - state.log_post - lq
    if not math.isfinite(log_alpha) and log_alpha != -math.inf:
        raise ChainError(f"non-finite acceptance ratio for move {move}")
    if math.log(rng.random()) < min(0.0, log_alpha):
        return ChainState(theta=theta, risk=r, log_post=lg, log_prop=lq), StepRecord(move=move, accepted=True)
    return state, StepRecord(move=move, accepted=False)


@dataclass
class ChainTrace:
    """Per-iteration record of the chain plus summary statistics.

    Masks, risks, acceptances and moves cover all T iterations.  The
    coefficients are kept only after burn-in, the rows the averaged
    estimator uses: thetas[i] is iteration burnin + i, so the trace holds
    (T - burnin) * d * M doubles rather than T * d * M.
    """

    masks: np.ndarray       # (T, d) bool
    thetas: np.ndarray      # (T - burnin, d * M) zero-padded post-burn-in coefficients
    risks: np.ndarray       # (T,)
    accepted: np.ndarray    # (T,) bool; first row is the initial state
    moves: list[str]
    burnin: int

    @property
    def horizon(self) -> int:
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
    """
    bench = BenchmarkCache(features, labels, RIDGE_LAMBDA, gcfg.ball_radius)
    prepared = PreparedLabels(labels)

    T, d, M, burnin = scfg.horizon, features.d, features.M, scfg.burnin
    masks = np.zeros((T, d), dtype=bool)
    thetas = np.zeros((T - burnin, d * M))  # row 0 is the initial state when burnin == 0
    risks = np.zeros(T)
    accepted = np.zeros(T, dtype=bool)
    moves = ["init"]

    state = initial_state(features, prepared, gcfg)
    risks[0] = state.risk
    for t in range(1, T):
        try:
            state, rec = mcmc_step(state, features, prepared, gcfg, scfg, bench, rng)
        except ChainError as exc:
            raise ChainError(f"iteration {t}: {exc}") from exc
        masks[t] = state.theta.mask.bits
        if t >= burnin:
            thetas[t - burnin] = state.theta.padded(M)
        risks[t] = state.risk
        accepted[t] = rec.accepted
        moves.append(rec.move)

    trace = ChainTrace(masks=masks, thetas=thetas, risks=risks, accepted=accepted,
                       moves=moves, burnin=burnin)
    estimators = FinalEstimators(
        randomized=SparseCoef(mask=ModelMask(masks[-1]), values=state.theta.values.copy()),
        averaged=thetas.mean(axis=0),
    )
    return trace, estimators


def trace_to_csv(trace: ChainTrace, path) -> None:
    """One row per iteration: t, model size, active covariates, risk, accepted, move."""
    with open(path, "w") as fh:
        fh.write("t,model_size,active,risk,accepted,move\n")
        for t in range(trace.horizon):
            active = ";".join(str(j + 1) for j in np.flatnonzero(trace.masks[t]))
            fh.write(f"{t},{int(trace.masks[t].sum())},{active},"
                     f"{trace.risks[t]:.17g},{int(trace.accepted[t])},{trace.moves[t]}\n")

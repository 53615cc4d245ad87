"""Transdimensional Metropolis-Hastings over (model mask, coefficients).

Each step selects a move (add / remove / stay a covariate), draws one
candidate coefficient vector per mask in the corresponding neighborhood
from a Gaussian centered on that mask's ridge benchmark fit, picks one
candidate with probability proportional to posterior/proposal, and accepts
it through a Metropolis-Hastings ratio.  The run yields the last state
(randomized estimator) and the post-burn-in average of the zero-padded
iterates (averaged estimator).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisDictionary, DEFAULT_DICTIONARY, FeatureMatrix, ModelMask, SparseCoef, build_features, score
from .gibbs import GibbsConfig, log_gibbs, log_prior
from .risk import empirical_rank_risk

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


@dataclass(frozen=True)
class SamplerConfig:
    horizon: int = 1000
    burnin: int = 800
    sigma2: float = 0.01
    move_prob: float = 0.25  # P(add) = P(remove); P(stay) = 1 - 2 * move_prob
    seed: int = 0
    # The dictionary is near-collinear (the harmonics are almost polynomial),
    # so a vanishing ridge blows the benchmark fits far outside the prior
    # ball and the radial shrink then buries the signal under the proposal
    # noise.  An O(1) ridge keeps fits interior at essentially the same risk.
    ridge_lambda: float = 1.0

    def __post_init__(self):
        if self.horizon < 2:
            raise ValueError("horizon must be at least 2")
        if not 0 <= self.burnin < self.horizon:
            raise ValueError("burnin must satisfy 0 <= burnin < horizon")
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be positive")
        if not 0 < self.move_prob <= 0.5:
            raise ValueError("move_prob must lie in (0, 0.5]")

    @property
    def stay_prob(self) -> float:
        return 1.0 - 2.0 * self.move_prob


class BenchmarkCache:
    """Per-mask ridge least-squares fits, solved from precomputed Gram blocks.

    Fits with norm above the prior ball radius are radially shrunk just
    inside it so proposals centered on them can land in the support.
    """

    def __init__(self, features: FeatureMatrix, labels, ridge_lambda: float, ball_radius: float):
        y = np.asarray(labels, dtype=float)
        self.features = features
        self.ridge_lambda = ridge_lambda
        self.ball_radius = ball_radius
        # A transient row-major (n, d * M) copy, freed on return, gives the
        # Gram and X^T y the same BLAS calls, and so the same bits, as a
        # row-major feature matrix would.
        X = features.blocks.transpose(1, 0, 2).reshape(features.n, -1)
        self.gram = X.T @ X
        self.xty = X.T @ y
        self._cache: dict[bytes, np.ndarray] = {}

    def fit(self, mask: ModelMask) -> np.ndarray:
        if mask.size == 0:
            return np.zeros(0)
        key = mask.key()
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        cols = self.features.columns_for(mask)
        G = self.gram[np.ix_(cols, cols)] + self.ridge_lambda * np.eye(cols.size)
        try:
            values = np.linalg.solve(G, self.xty[cols])
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


def benchmark_estimator(mask: ModelMask, features: FeatureMatrix, labels,
                        ridge_lambda: float = 1e-6, ball_radius: float = 2.0,
                        cache: BenchmarkCache | None = None) -> SparseCoef:
    """Ridge fit of the +-1 labels on the restricted feature columns."""
    if mask.size == 0:
        raise ValueError("benchmark estimator needs a non-empty mask")
    if cache is None:
        cache = BenchmarkCache(features, labels, ridge_lambda, ball_radius)
    return SparseCoef(mask=mask, values=cache.fit(mask))


def propose_neighborhood(current: ModelMask, rng: np.random.Generator,
                         scfg: SamplerConfig) -> tuple[str, list[ModelMask]]:
    """Sample a move and enumerate the corresponding neighborhood.

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
    if move == MOVE_ADD:
        absent = np.flatnonzero(~current.bits)
        if absent.size:
            return MOVE_ADD, [current.with_covariate(j) for j in absent]
    elif move == MOVE_REMOVE:
        if current.size:
            return MOVE_REMOVE, [current.without_covariate(j) for j in current.active]
    return MOVE_STAY, [current]


def log_proposal_density(values: np.ndarray, mean: np.ndarray, cfg: GibbsConfig,
                         sigma2: float) -> float:
    """Log density of the benchmark-centered Gaussian proposal.

    The normalization constant follows cfg.norm_mode; the quadratic term
    always uses the full coefficient vector.  The empty model's point
    proposal has log density 0 by convention.
    """
    if values.size == 0:
        return 0.0
    resid = values - mean
    np.square(resid, out=resid)
    quad = -float(np.add.reduce(resid)) / (2.0 * sigma2)
    if cfg.norm_mode == "kernel":
        return quad
    n_active = values.size // cfg.M
    dim = cfg.ball_dim(n_active)
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
    """Empirical ranking risk as used by the chain (ties at half credit)."""
    return empirical_rank_risk(scores, labels, tie_value=SAMPLER_TIE_VALUE)


def initial_state(features: FeatureMatrix, labels, gcfg: GibbsConfig) -> ChainState:
    """Chain start: the empty model with theta = 0."""
    theta = SparseCoef(mask=ModelMask.empty(features.d), values=np.zeros(0))
    r = chain_risk(np.zeros(features.n), labels)
    return ChainState(theta=theta, risk=r, log_post=log_gibbs(theta, r, gcfg), log_prop=0.0)


def mcmc_step(state: ChainState, features: FeatureMatrix, labels,
              gcfg: GibbsConfig, scfg: SamplerConfig,
              bench: BenchmarkCache, rng: np.random.Generator) -> tuple[ChainState, StepRecord]:
    """One transdimensional Metropolis-Hastings transition."""
    move, masks = propose_neighborhood(state.theta.mask, rng, scfg)
    sd = math.sqrt(scfg.sigma2)

    cands: list[tuple[SparseCoef, float, float, float]] = []
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
    """Per-iteration record of the chain plus summary statistics."""

    masks: np.ndarray       # (T, d) bool
    thetas: np.ndarray      # (T, d * M) zero-padded coefficients
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


def run_chain(dataset, dictionary: BasisDictionary = DEFAULT_DICTIONARY,
              gcfg: GibbsConfig | None = None, scfg: SamplerConfig | None = None,
              features: FeatureMatrix | None = None,
              rng: np.random.Generator | None = None) -> tuple[ChainTrace, FinalEstimators]:
    """Run one chain on a dataset and return its trace and final estimators.

    Deterministic given the seed in scfg (an explicit rng overrides it).
    """
    if gcfg is None or scfg is None:
        raise ValueError("gcfg and scfg are required")
    if features is None:
        features = build_features(dataset.X, dictionary)
    labels = dataset.y
    if rng is None:
        rng = np.random.default_rng(scfg.seed)
    bench = BenchmarkCache(features, labels, scfg.ridge_lambda, gcfg.ball_radius)

    T, d, M = scfg.horizon, features.d, features.M
    masks = np.zeros((T, d), dtype=bool)
    thetas = np.zeros((T, d * M))
    risks = np.zeros(T)
    accepted = np.zeros(T, dtype=bool)
    moves = ["init"]

    state = initial_state(features, labels, gcfg)
    risks[0] = state.risk
    for t in range(1, T):
        try:
            state, rec = mcmc_step(state, features, labels, gcfg, scfg, bench, rng)
        except ChainError as exc:
            raise ChainError(f"iteration {t}: {exc}") from exc
        masks[t] = state.theta.mask.bits
        thetas[t] = state.theta.padded(M)
        risks[t] = state.risk
        accepted[t] = rec.accepted
        moves.append(rec.move)

    trace = ChainTrace(masks=masks, thetas=thetas, risks=risks, accepted=accepted,
                       moves=moves, burnin=scfg.burnin)
    estimators = FinalEstimators(
        randomized=SparseCoef(mask=ModelMask(masks[-1]), values=state.theta.values.copy()),
        averaged=thetas[scfg.burnin:].mean(axis=0),
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

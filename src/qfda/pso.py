"""Particle-swarm search over per-frequency quantization level counts.

Positions are continuous vectors in R^64; a position is snapped to an
admissible integer level vector only when its cost is evaluated.  The cost
of a level vector m is

    cost(m) = -f_Q(m) + gamma * rbar(m)

where f_Q is the Fisher criterion of the quantized subspace and rbar the
average entropy rate.  A search caches its costs by snapped vector, so a
swarm round costs at most one evaluation per distinct snapped position.
Beneath that, the cost context memoizes each solve for the whole run,
keyed by (lambda, m bytes): f_Q, rbar and the subspace do not depend on
gamma, so every search that shares the context (every grid cell) solves a
(lambda, m) once and only weights rbar by its own gamma.

New vectors are scored in first-appearance order by one map per round: a
thread pool opened once per search, or the calling thread when threads=1.
Costs are reduced by particle index, so results do not depend on scheduling.
"""

import concurrent.futures
from dataclasses import dataclass, field

import numpy as np

from .blockdct import SpectrumSet
from .discriminant import Subspace, criterion, quantized_scatters, solve_subspace
from .errors import NumericError, OptimizationError
from .quantizer import BoundVector, LevelVector, QuantizerSpec, project_levels, quantize
from .rate import FrequencyDensity, rate

# Clerc-Kennedy constriction coefficients (IEEE TEC 2002): inertia, and the
# one acceleration shared by the cognitive and social terms
INERTIA = 0.7298
ACCELERATION = 1.49618


@dataclass(frozen=True)
class PsoConfig:
    gamma: float
    lam: float
    particles: int = 5
    iterations: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.particles < 1 or self.iterations < 1:
            raise ValueError("need at least one particle and one iteration")


@dataclass(frozen=True)
class CostContext:
    """Everything a cost evaluation needs besides the level vector.

    memo maps (lambda, m bytes) to the gamma-free result of that solve,
    (f_Q, rbar, subspace), or to None where it raised NumericError; it
    keeps one p x d' subspace per entry.  It is not an init field, so
    dataclasses.replace starts an empty one and no entry outlives the
    spectra, bounds or epsilon it was solved with.  Entries are written
    without a lock: fresh keys within a round are distinct, so no two
    threads solve the same key, and if they did they would store the same
    bits.
    """

    spectra: SpectrumSet        # centered training spectra
    bounds: BoundVector
    density: FrequencyDensity
    epsilon: float
    subspace_dim: int
    memo: dict = field(init=False, default_factory=dict, compare=False, repr=False)


@dataclass(frozen=True)
class CostBreakdown:
    criterion: float
    rate: float
    total: float
    # the solved subspace, so callers never solve the same m again; not saved
    subspace: Subspace | None = field(default=None, compare=False, repr=False)


def _solve(spec: QuantizerSpec, ctx: CostContext, lam: float):
    """(f_Q, rbar, subspace) of one quantizer, or None when the solve breaks down."""
    quantized = quantize(ctx.spectra, spec)
    try:
        pair = quantized_scatters(ctx.spectra, quantized, lam)
        sub = solve_subspace(pair, ctx.subspace_dim, ctx.epsilon)
        f_q = criterion(pair, sub)
    except NumericError:
        return None
    return f_q, rate(ctx.density, spec).average, sub


def evaluate_cost(m: np.ndarray, ctx: CostContext, gamma: float, lam: float) -> CostBreakdown:
    """Cost of one admissible level vector; +inf when the solve breaks down.

    The solve is looked up in ctx.memo first, so a (lambda, m) already
    scored in this context, at any gamma, is not solved again.
    """
    spec = QuantizerSpec(bounds=ctx.bounds, levels=LevelVector(m=m))
    key = (lam, spec.levels.m.tobytes())
    if key not in ctx.memo:
        ctx.memo[key] = _solve(spec, ctx, lam)
    solved = ctx.memo[key]
    if solved is None:
        return CostBreakdown(criterion=np.nan, rate=np.nan, total=np.inf)
    f_q, rbar, sub = solved
    return CostBreakdown(criterion=f_q, rate=rbar, total=-f_q + gamma * rbar, subspace=sub)


@dataclass
class PsoResult:
    best: LevelVector
    breakdown: CostBreakdown
    history: np.ndarray         # best cost after each evaluation round
    trace: list = field(default_factory=list)  # (round, particle, cost, best)
    evaluations: int = 0


def run_pso(ctx: CostContext, config: PsoConfig, threads: int = 1) -> PsoResult:
    """Minimize the quantizer cost with a global-best swarm.

    The first evaluation round scores the initial positions, so a run with
    iterations=1 reports the best initial particle.  Ties go to the particle
    with the smaller index, and the best-cost history never increases.
    """
    rng = np.random.default_rng(config.seed)
    ell = ctx.bounds.ell.astype(np.float64)
    n, dims = config.particles, ell.size
    positions = rng.uniform(2.0, ell, size=(n, dims))
    velocities = np.zeros((n, dims))
    cache: dict = {}

    pbest_x = positions.copy()
    pbest_cost = np.full(n, np.inf)
    gbest_x = positions[0].copy()
    gbest_key = None
    gbest_cost = np.inf
    history = np.empty(config.iterations)
    trace = []

    def score(key):
        return evaluate_cost(np.frombuffer(key, dtype=np.int64), ctx, config.gamma, config.lam)

    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        # threads == 1 stays on the calling thread: a pool worker would add ~5 MB of peak RSS
        evaluate = map if threads == 1 else pool.map
        for round_idx in range(config.iterations):
            if round_idx > 0:
                r1 = rng.random((n, dims))
                r2 = rng.random((n, dims))
                velocities = (
                    INERTIA * velocities
                    + ACCELERATION * r1 * (pbest_x - positions)
                    + ACCELERATION * r2 * (gbest_x - positions)
                )
                positions = positions + velocities
            keys = [project_levels(x, ctx.bounds).m.tobytes() for x in positions]
            fresh = list(dict.fromkeys(k for k in keys if k not in cache))
            cache.update(zip(fresh, evaluate(score, fresh)))
            for i in range(n):
                total = cache[keys[i]].total
                if total < pbest_cost[i]:
                    pbest_cost[i] = total
                    pbest_x[i] = positions[i]
                if total < gbest_cost:
                    gbest_cost = total
                    gbest_x = positions[i].copy()
                    gbest_key = keys[i]
                trace.append((round_idx + 1, i, total, gbest_cost))
            history[round_idx] = gbest_cost

    if gbest_key is None or not np.isfinite(gbest_cost):
        raise OptimizationError("every cost evaluation failed")
    best_m = np.frombuffer(gbest_key, dtype=np.int64).copy()
    return PsoResult(
        best=LevelVector(m=best_m),
        breakdown=cache[gbest_key],
        history=history,
        trace=trace,
        evaluations=len(cache),
    )

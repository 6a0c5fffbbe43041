"""Particle-swarm search over per-frequency quantization level counts.

Positions are continuous vectors in R^64; a position is snapped to an
admissible integer level vector only when its cost is evaluated.  The cost
of a level vector m is

    cost(m) = -f_Q(m) + gamma * rbar(m)

where f_Q is the Fisher criterion of the quantized subspace and rbar the
average entropy rate.  Evaluations are cached by snapped vector, so a
swarm round costs at most one eigensolve per distinct snapped position.

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
    """Everything a cost evaluation needs besides the level vector."""

    spectra: SpectrumSet        # centered training spectra
    bounds: BoundVector
    density: FrequencyDensity
    epsilon: float
    subspace_dim: int


@dataclass(frozen=True)
class CostBreakdown:
    criterion: float
    rate: float
    total: float
    # the solved subspace, so callers never solve the same m again; not saved
    subspace: Subspace | None = field(default=None, compare=False, repr=False)


def evaluate_cost(m: np.ndarray, ctx: CostContext, gamma: float, lam: float) -> CostBreakdown:
    """Cost of one admissible level vector; +inf when the solve breaks down."""
    spec = QuantizerSpec(bounds=ctx.bounds, levels=LevelVector(m=m))
    quantized = quantize(ctx.spectra, spec)
    try:
        pair = quantized_scatters(ctx.spectra, quantized, lam)
        sub = solve_subspace(pair, ctx.subspace_dim, ctx.epsilon)
        f_q = criterion(pair, sub)
    except NumericError:
        return CostBreakdown(criterion=np.nan, rate=np.nan, total=np.inf)
    rbar = rate(ctx.density, spec).average
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

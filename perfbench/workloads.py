"""Workload definitions, importable before numpy loads.

The launcher reads blas_threads from here to set the BLAS thread variables
of every process it starts; the worker builds the experiment config.
"""

from dataclasses import dataclass

# Seeds 1-10 were used while the run budgets below were chosen; this one was
# not, so a later claim can be checked on data no tuning has seen.
HELD_OUT_SEED = 7919


@dataclass(frozen=True)
class Workload:
    images: int            # images generated by tests/helpers.two_class_images
    threads: int           # the config's swarm thread pool size
    blas_threads: int
    gamma_grid: tuple
    lambda_grid: tuple
    particles: int
    iterations: int


# 200 images split 120/40/40 is the acceptance fixture: n << d' = 1024.
# 3400 images make the 2000-sample train cap bind (n > d'), with 680 val and
# 680 test images for k-NN.  With one iteration of two particles each cell
# makes exactly two fresh evaluations, both in one round, so on the pool
# every evaluation runs beside another one.
WORKLOADS = {
    # Single-threaded baseline: eigensolve and rate dominate each evaluation.
    "undersampled": Workload(
        images=200, threads=1, blas_threads=1,
        gamma_grid=(0.1, 1.0), lambda_grid=(0.5, 2.0), particles=2, iterations=1),
    # Same data and budget on the swarm's thread pool: shows serialization.
    "pool": Workload(
        images=200, threads=2, blas_threads=1,
        gamma_grid=(0.1, 1.0), lambda_grid=(0.5, 2.0), particles=2, iterations=1),
    # Run by hand only: every run fails the val-error ordering check (see
    # README, Findings), and k-NN over 2000 train images makes a run ~60 s.
    "oversampled": Workload(
        images=3400, threads=1, blas_threads=2,
        gamma_grid=(0.1,), lambda_grid=(0.5,), particles=3, iterations=2),
    # The smallest run that goes through every stage, for test_smoke.py.
    "smoke": Workload(
        images=200, threads=1, blas_threads=1,
        gamma_grid=(0.1,), lambda_grid=(0.5,), particles=2, iterations=1),
}

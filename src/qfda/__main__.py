"""The `qfda` console script and `python -m qfda`.

BLAS libraries read their thread count once, when numpy or scipy first
loads them.  A run's parallelism comes from the swarm pool (`threads`);
BLAS worker pools beside it only slow a run down, so this entry sets each
variable below to 1 where it is unset, before anything imports numpy.  A
value already in the environment is kept.  Code that imports qfda as a
library sets these itself, before importing numpy.
"""

import os
import sys

# OpenBLAS, OpenMP builds, MKL, BLIS and Apple's Accelerate (vecLib)
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                         "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def main() -> int:
    for name in BLAS_THREAD_VARIABLES:
        os.environ.setdefault(name, "1")
    from .cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())

"""Discriminant subspace learning for uniformly quantized block-DCT images."""

from .blockdct import (
    BlockLayout,
    SpectrumSet,
    forward_dct,
    frequency_view,
    inverse_dct,
    load_spectra,
    save_spectra,
)
from .config import ExperimentConfig, load_config
from .dataset import (
    CenteredImageSet,
    RawImageSet,
    SplitSpec,
    center,
    load_idx,
    load_pgm_dir,
    resample,
    select_classes,
    split_indices,
    subset,
)
from .discriminant import (
    Projection,
    ScatterPair,
    Subspace,
    criterion,
    plain_scatters,
    project,
    quantized_scatters,
    solve_subspace,
)
from .errors import (
    ConsistencyError,
    DataError,
    FormatError,
    NumericError,
    OptimizationError,
    QfdaError,
    SizeError,
    SplitError,
)
from .experiment import (
    EvalReport,
    evaluate_subspace,
    export_eigenfaces,
    export_quantized_images,
    knn_error,
    prepare,
    run_baseline_fda,
    run_experiment,
    run_grid,
)
from .modelio import ModelBundle, load_model, save_model
from .pso import CostBreakdown, CostContext, PsoConfig, PsoResult, evaluate_cost, run_pso
from .quantizer import (
    BoundVector,
    LevelVector,
    QuantizerSpec,
    bootstrap_indices,
    estimate_bounds,
    project_levels,
    quantize,
    quantize_values,
    staircase_params,
)
from .rate import FrequencyDensity, RateReport, fit_density, interval_partition, rate

__version__ = "0.1.0"

"""Randomized Hadamard transform sketches.

Ensembles of Hadamard transforms with Gaussian diagonals, the random Fourier
feature map they induce, a distance-estimation structure robust to adaptive
queries, and the concentration experiments backing all of it.
"""

from .distance import (
    DEFAULT_ALPHA,
    DistanceEstimator,
    QueryDetails,
    QueryParams,
    adaptive_stress,
    build_estimator,
    default_block_count,
    default_sample_count,
    insert,
    psi,
    quantile,
    query,
    stress_round_seed,
)
from .ensemble import (
    Embedding,
    RhtEnsemble,
    build_ensemble,
    distortion_check,
    embed,
    embed_batch,
    load_ensemble,
    save_ensemble_header,
)
from .features import (
    FourierFeatureMap,
    approx_kernel,
    build_feature_map,
    default_feature_blocks,
    features,
    kerdec_decompose,
    kernel_error_sweep,
)
from .gaussian import (
    ScalarFunctional,
    abs_functional,
    cosine_functional,
    gauss_hermite_expectation,
    gaussian_expectation,
    identity_functional,
    quadrature_drift,
    rbf_kernel,
    std_normal_cdf,
    std_normal_pdf,
    truncated_abs_functional,
)
from .hadamard import (
    HadamardDim,
    fwht_in_place,
    hadamard_sign_matrix,
    naive_hadamard_apply,
    next_pow2,
)
from .lab import (
    basis_max_experiment,
    default_t_grid,
    ecdf_deviation,
    gaussian_baseline_max,
    lipschitz_deviation,
    test_vector_suite,
)
from .report import DeviationReport

__version__ = "0.1.0"

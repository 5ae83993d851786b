"""Tests for direct-sum structure in dense F2 tensors.

A function on [n1] x ... x [nd] is a direct sum when it is the XOR of
per-axis functions; in +/-1 notation that is exactly a rank-1 tensor.  This
package provides randomized constant-query tests for the property, exact
exhaustive oracles at desk scale, decoders, generalized direct-product
agreement tests, the multipartite skeleton spectrum, and a Monte-Carlo
harness with CSV sweeps.
"""

from .core import (
    BinaryTensor,
    CubePoint,
    DirectSum,
    MaskMismatchError,
    Point,
    Shape,
    ShapeMismatchError,
    TensorFormatError,
    delta,
    distance,
    flip,
    materialize,
    reindex,
    splice,
    tensor_from_text,
    tensor_to_text,
)
from .testers import (
    ALL_TEST_KINDS,
    BLR,
    CONJECTURED,
    SHAPKA,
    SIC_CUBE,
    SIC_SUBSETS,
    TENSOR_TEST_KINDS,
    BlrRandomness,
    ConjecturedRandomness,
    ShapkaRandomness,
    SicCubeRandomness,
    SicSubsetsRandomness,
    TrialOutcome,
    blr_affinity_trial,
    blr_table,
    conjectured_trial,
    run_trial,
    sample_randomness,
    shapka_trial,
    sic_cube_trial,
    sic_subsets_trial,
)
from .oracles import (
    DEFAULT_BUDGET,
    AffineWitness,
    BudgetExceededError,
    ExactRejection,
    NearestResult,
    best_anchor_decode,
    exact_blr_rejection,
    exact_rejection,
    exact_rejections,
    exhaustive_soundness,
    is_direct_sum,
    local_view_decode,
    nearest_affine,
    nearest_direct_sum,
    nearest_distances,
)
from .agreement import (
    DEFAULT_ALPHA,
    AgreementRandomness,
    DPFormatError,
    DPFunction,
    DPShape,
    PluralityDecode,
    alpha_pair_distribution,
    bridge_pair_distribution,
    corrupt_entries,
    default_intersection_size,
    direct_product,
    dp_agreement_trial,
    dp_from_text,
    dp_plurality_decode,
    dp_to_text,
    exact_alpha_rejection,
    exact_fixed_t_rejection,
    random_direct_product,
    sample_alpha_randomness,
    sample_bridge_pair,
    sample_fixed_t_randomness,
    sic_to_dp_bridge,
    two_step_alpha_pair_distribution,
)
from .spectral import (
    SPECTRUM_CSV_HEADER,
    SkeletonGraph,
    SpectrumReport,
    build_skeleton,
    quotient_spectrum,
    spectrum_csv_row,
    verify_spectrum,
)
from .harness import (
    CSV_HEADER,
    DEFAULT_SWEEP_CONFIG,
    GENERATOR_KINDS,
    GeneratorSpec,
    RejectionEstimate,
    SweepConfig,
    SweepConfigError,
    SweepRow,
    estimate_rejection,
    generate,
    parse_sweep_config,
    rng_for,
    run_sweep,
    sweep_csv,
    wilson_interval,
    worker_count,
)

__version__ = "0.1.0"

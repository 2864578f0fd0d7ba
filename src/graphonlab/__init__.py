"""graphonlab: step graphons, GCN embeddings, walk spectra, two-model tests."""

__version__ = "0.1.0"

from .errors import (
    Disconnected,
    EmptyGraph,
    EmptyInput,
    GraphonLabError,
    GraphTooLarge,
    HypothesisViolated,
    InvalidModel,
    IsolatedVertex,
    NonFinite,
    NotMixed,
    OutOfRange,
    ParseError,
    ShapeMismatch,
    TooManyBlocks,
    UnmatchableWeights,
)
from .gcn import (
    Activation,
    GCNConfig,
    classify_activation,
    embedding_vector,
    fast_linear_embedding,
    forward,
    graph_embedding,
    linearization_gap,
    perturb,
)
from .graphon import (
    DegreeProfile,
    FamilySpec,
    SBMParams,
    SignedStepKernel,
    StepGraphon,
    cut_distance_blocks,
    cut_norm_step,
    degree_function,
    delta_distance,
    family_generate,
    family_validity_range,
    normalized_degree_profile,
    total_degree,
)
from .sampling import (
    CoupledPair,
    SampledGraph,
    empirical_degree_profile,
    load_edge_list,
    sample_coupled,
    sample_graph,
)
from .seeding import derive_seed, make_rng, splitmix64
from .spectral import (
    CheegerReport,
    MixingReport,
    RWChain,
    bottleneck_ratio,
    cheeger_check,
    mixing_time,
    power_limit_gap,
    rw_transition_matrix,
    spectral_gap,
    stationary,
)
from .testing import (
    DistanceStats,
    ErrorBounds,
    ExperimentReport,
    TVResult,
    TrialOutcome,
    clopper_pearson,
    embedding_distance_experiment,
    error_not_below_floor,
    error_probability_floor,
    expected_sorted_profile,
    fit_decay_exponent,
    lecam_error_lower,
    monte_carlo_error,
    nearest_profile_test,
    tv_perturbed,
)

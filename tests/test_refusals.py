"""Each library constructor and entry point refuses input outside its
documented contract with its own exception type and message."""

import numpy as np
import pytest

from graphonlab import (
    CoupledPair,
    DegreeProfile,
    ErrorBounds,
    GCNConfig,
    InvalidModel,
    ParseError,
    RWChain,
    SampledGraph,
    SBMParams,
    ShapeMismatch,
    SignedStepKernel,
    StepGraphon,
    TrialOutcome,
    clopper_pearson,
    derive_seed,
    embedding_distance_experiment,
    error_not_below_floor,
    error_probability_floor,
    linearization_gap,
    load_edge_list,
    make_rng,
    mixing_time,
    monte_carlo_error,
    nearest_profile_test,
    perturb,
    sample_coupled,
    sample_graph,
    tv_perturbed,
)

from helpers import SBM_BASE, path_graph

W = SBM_BASE.to_step_graphon()
FLIP = [[0.0, 1.0], [1.0, 0.0]]


def positioned(x):
    return SampledGraph(np.zeros((2, 2), dtype=np.uint8), latent_positions=x)


def outcome(label):
    return TrialOutcome(
        true_label=label, decision=0, embedding_distance=0.0, seed=0,
        small_coord_frac=0.0, conditional_tv=0.0, f32_bounds=(None, None),
        walk_steps=(1, 1),
    )


# (id, call, exception type, a fragment of its message)
REFUSALS = [
    ("step-graphon-2d-weights",
     lambda: StepGraphon([[0.5, 0.5]], [[0.5]]), InvalidModel, "1-D"),
    ("step-graphon-density-shape",
     lambda: StepGraphon([0.5, 0.5], [[0.5]]), InvalidModel, "must be 2x2"),
    ("step-graphon-zero-weight",
     lambda: StepGraphon([0.0, 1.0], np.full((2, 2), 0.5)), InvalidModel,
     "strictly positive"),
    ("sbm-k1", lambda: SBMParams(1.0, 0.5, 0.5, 0.5), InvalidModel, "k1 must be"),
    ("sbm-density", lambda: SBMParams(0.5, 0.0, 0.5, 0.5), InvalidModel, "p1 must be"),
    ("profile-shape", lambda: DegreeProfile([0.5, 0.5], [1.0]), InvalidModel,
     "congruent"),
    ("profile-weights", lambda: DegreeProfile([0.5, 0.4], [1.0, 1.0]), InvalidModel,
     "sum to 1"),
    ("profile-negative", lambda: DegreeProfile([0.5, 0.5], [-1.0, 1.0]), InvalidModel,
     "nonnegative"),
    ("kernel-shape", lambda: SignedStepKernel([0.5, 0.5], [[1.0]]), InvalidModel,
     "square"),
    ("kernel-weights", lambda: SignedStepKernel([0.0, 1.0], np.zeros((2, 2))),
     InvalidModel, "sum to 1"),
    ("kernel-asymmetric", lambda: SignedStepKernel([0.5, 0.5], [[0.0, 1.0], [0.0, 0.0]]),
     InvalidModel, "symmetric"),
    ("graph-not-square", lambda: SampledGraph(np.zeros((2, 3), dtype=np.uint8)),
     InvalidModel, "square"),
    ("graph-positions-length",
     lambda: SampledGraph(np.zeros((3, 3), dtype=np.uint8), latent_positions=[0.1, 0.2]),
     InvalidModel, "length must equal n"),
    ("pair-without-positions", lambda: CoupledPair(path_graph(3), path_graph(3)),
     InvalidModel, "carry latent positions"),
    ("pair-other-positions",
     lambda: CoupledPair(positioned([0.1, 0.2]), positioned([0.1, 0.3])),
     InvalidModel, "share latent positions"),
    ("sample-graph-n1", lambda: sample_graph(W, 1, 0), InvalidModel, "n >= 2"),
    # seeds are 64-bit: -1, 2^64 + 5 and 5.0 used to run the streams of
    # 2^64 - 1, 5 and 5
    ("sample-graph-seed-negative", lambda: sample_graph(W, 30, -1), InvalidModel,
     "seed must be an integer in"),
    ("sample-graph-seed-2^64", lambda: sample_graph(W, 30, 2**64 + 5), InvalidModel,
     "seed must be an integer in"),
    ("sample-coupled-seed-float", lambda: sample_coupled(W, W, 30, 5.0), InvalidModel,
     "seed must be an integer in"),
    ("make-rng-seed-bool", lambda: make_rng(True), InvalidModel,
     "seed must be an integer in"),
    ("derive-seed-index", lambda: derive_seed(1, -1), InvalidModel,
     "index must be an integer in"),
    ("sample-coupled-n1", lambda: sample_coupled(W, W, 1, 0), InvalidModel, "n >= 2"),
    ("edge-list-negative-id", lambda: load_edge_list("0 1\n-1 2\n"), ParseError,
     "nonnegative"),
    ("chain-shapes", lambda: RWChain(np.eye(2), [1.0]), InvalidModel, "square"),
    ("chain-pi", lambda: RWChain(FLIP, [0.0, 1.0]), InvalidModel, "pi must be positive"),
    ("mixing-eps", lambda: mixing_time(RWChain(FLIP, [0.5, 0.5]), 0.0, 10),
     InvalidModel, "eps > 0"),
    ("tv-eps", lambda: tv_perturbed([0.0], [0.0], 0.0), InvalidModel,
     "eps_res must be positive"),
    ("tv-eps-nan", lambda: tv_perturbed([0.1, 0.2], [0.1, 0.3], np.nan), InvalidModel,
     "eps_res must be positive"),
    # 2 * 1e308 overflows: the noise's full width is not finite
    ("tv-eps-width", lambda: tv_perturbed([0.0], [0.0], 1e308), InvalidModel,
     "2\\*eps_res finite"),
    ("perturb-eps-nan", lambda: perturb(np.zeros(2), np.nan, 1), InvalidModel,
     "eps_res must be positive"),
    ("perturb-eps-inf", lambda: perturb(np.zeros(2), np.inf, 1), InvalidModel,
     "2\\*eps_res finite"),
    ("error-eps-nan",
     lambda: monte_carlo_error(W, W, 10, GCNConfig(depth=2), np.nan, 2, 0),
     InvalidModel, "eps_res must be positive"),
    ("error-trials",
     lambda: monte_carlo_error(W, W, 10, GCNConfig(depth=2), 0.1, 0, 0),
     InvalidModel, "trials must be >= 1"),
    ("floor-eps", lambda: error_probability_floor(0.1, 0.0, 10), InvalidModel,
     "eps_res must be positive"),
    ("floor-eps-nan", lambda: error_probability_floor(0.1, np.nan, 10), InvalidModel,
     "eps_res must be positive"),
    ("floor-n", lambda: error_probability_floor(0.1, 0.1, 0), InvalidModel, "n >= 1"),
    ("floor-delta", lambda: error_probability_floor(-0.1, 0.1, 10), InvalidModel,
     "delta must be nonnegative"),
    ("floor-delta-nan", lambda: error_probability_floor(np.nan, 0.1, 10), InvalidModel,
     "delta must be nonnegative"),
    ("tv-nan-coordinate", lambda: tv_perturbed([np.nan, 0.2], [0.1, 0.3], 0.1),
     InvalidModel, "m0 must be finite"),
    ("perturb-nan-coordinate", lambda: perturb(np.array([np.nan, 0.1]), 0.1, 1),
     InvalidModel, "embedding must be finite"),
    # a string coordinate used to escape as numpy's bare ValueError
    ("perturb-string-coordinate", lambda: perturb(["a", 1.0], 0.1, 1), InvalidModel,
     "embedding must be numbers"),
    # binom.cdf(3, 10, NaN) is NaN, and NaN >= 0.05 used to read as "below the floor"
    ("floor-test-nan", lambda: error_not_below_floor(3, 10, np.nan), InvalidModel,
     "floor must be a number"),
    ("bounds-lecam", lambda: ErrorBounds(0.6, 0.1, 0.1), InvalidModel,
     "lecam_lower"),
    ("bounds-formula", lambda: ErrorBounds(0.1, -0.1, -0.1),
     InvalidModel, "formula_floor"),
    ("outcome-label", lambda: outcome(2), InvalidModel, "binary"),
    ("profile-test-length", lambda: nearest_profile_test(np.zeros(3), W, W, 4),
     ShapeMismatch, "3 coordinates, expected 4"),
    # d0 <= d1 is False for NaN: without the check this decides model 1
    ("profile-test-nan", lambda: nearest_profile_test([np.nan, 0.1, 0.2, 0.3], W, W, 4),
     InvalidModel, "embedding must be finite"),
    ("clopper-pearson-k", lambda: clopper_pearson(3, 2), InvalidModel, "k <= n"),
    ("clopper-pearson-n", lambda: clopper_pearson(0, 0), InvalidModel, "n >= 1"),
    ("distance-trials",
     lambda: embedding_distance_experiment(W, W, 10, GCNConfig(depth=2), 0, 0),
     InvalidModel, "trials must be >= 1"),
    ("gcn-depth", lambda: GCNConfig(depth=0), InvalidModel, "depth must be"),
    ("gcn-depth-bool", lambda: GCNConfig(depth=True), InvalidModel, "depth must be"),
    ("gcn-depth-float", lambda: GCNConfig(depth=2.5), InvalidModel, "depth must be"),
    # 4 * isqrt(4) = 8
    ("linearization-depth",
     lambda: linearization_gap(path_graph(4), GCNConfig(depth=8, activation="tanh")),
     InvalidModel, "well below sqrt"),
]


@pytest.mark.parametrize("call, exc, fragment", [r[1:] for r in REFUSALS],
                         ids=[r[0] for r in REFUSALS])
def test_refused_with_its_exception(call, exc, fragment):
    with pytest.raises(exc, match=fragment) as info:
        call()
    assert type(info.value) is exc

import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from graphonlab import (
    FamilySpec,
    InvalidModel,
    OutOfRange,
    SBMParams,
    SignedStepKernel,
    StepGraphon,
    TooManyBlocks,
    UnmatchableWeights,
    cut_distance_blocks,
    cut_norm_step,
    degree_function,
    delta_distance,
    family_generate,
    family_validity_range,
    normalized_degree_profile,
    total_degree,
)
from graphonlab.graphon import family_binding_constraints, parse_model_spec

from helpers import SBM_BASE, SBM_SEPARATED, random_step_graphon


def transport_delta(w0, w1):
    """Independent oracle: optimal-transport LP between the two normalized
    degree value distributions (min E|X - Y| over couplings)."""
    p0 = normalized_degree_profile(w0)
    p1 = normalized_degree_profile(w1)
    a, u = p0.weights, p0.values
    b, v = p1.weights, p1.values
    k0, k1 = len(a), len(b)
    cost = np.abs(u[:, None] - v[None, :]).ravel()
    # marginals: sum_j gamma_ij = a_i ; sum_i gamma_ij = b_j
    A_eq = []
    for i in range(k0):
        row = np.zeros(k0 * k1)
        row[i * k1 : (i + 1) * k1] = 1.0
        A_eq.append(row)
    for j in range(k1):
        row = np.zeros(k0 * k1)
        row[j::k1] = 1.0
        A_eq.append(row)
    b_eq = np.concatenate([a, b])
    res = linprog(cost, A_eq=np.array(A_eq), b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.success
    return res.fun


def brute_force_cut_norm(kernel):
    """Oracle: enumerate every (S, T) block-subset pair."""
    k = kernel.n_blocks
    mass = kernel.values * np.outer(kernel.block_weights, kernel.block_weights)
    best = 0.0
    for s_bits in itertools.product((0, 1), repeat=k):
        for t_bits in itertools.product((0, 1), repeat=k):
            s = np.array(s_bits, dtype=float)
            t = np.array(t_bits, dtype=float)
            best = max(best, abs(s @ mass @ t))
    return best


class TestStepGraphon:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvalidModel):
            StepGraphon([0.5, 0.4], [[0.5, 0.5], [0.5, 0.5]])

    def test_rejects_asymmetric_densities(self):
        with pytest.raises(InvalidModel):
            StepGraphon([0.5, 0.5], [[0.5, 0.1], [0.2, 0.5]])

    def test_rejects_zero_density(self):
        with pytest.raises(InvalidModel):
            StepGraphon([1.0], [[0.0]])

    @pytest.mark.parametrize(
        "weights, densities, field",
        [
            ([0.5, 0.5], [[0.5, None], [None, 0.5]], "densities"),
            ([0.5, 0.5], [[0.5, float("nan")], [float("nan"), 0.5]], "densities"),
            (["a", 0.5], [[0.5, 0.5], [0.5, 0.5]], "block_weights"),
        ],
        ids=["null-density", "nan-density", "string-weight"],
    )
    def test_malformed_field_is_named(self, weights, densities, field):
        with pytest.raises(InvalidModel, match=field):
            StepGraphon(weights, densities)

    @pytest.mark.parametrize("field", ["k1", "p1", "p2", "q"])
    def test_sbm_non_numeric_field_is_named(self, field):
        values = {"k1": 0.5, "p1": 0.6, "p2": 0.4, "q": 0.2, field: "0.3"}
        with pytest.raises(InvalidModel, match=field):
            SBMParams(**values)

    def test_parse_model_spec_both_forms(self):
        w1 = parse_model_spec({"weights": [0.5, 0.5], "densities": [[0.6, 0.2], [0.2, 0.4]]})
        w2 = parse_model_spec({"k1": 0.5, "p1": 0.6, "p2": 0.4, "q": 0.2})
        np.testing.assert_allclose(w1.densities, w2.densities)

    @pytest.mark.parametrize("spec, named", [
        ({"k1": 0.5, "p1": 0.6, "p2": 0.4, "q": 0.2, "qq": 3}, "'qq'"),
        ({"weights": [1.0], "densities": [[0.5]], "k1": 0.5}, "'k1'"),
        ({"weights": [1.0]}, "'densities'"),
        ({"k1": 0.5, "p1": 0.6, "q": 0.2}, "'p2'"),
    ], ids=["extra-key", "both-forms", "missing-densities", "missing-p2"])
    def test_parse_model_spec_names_a_wrong_key(self, spec, named):
        with pytest.raises(InvalidModel, match=named):
            parse_model_spec(spec)


class TestDegreeFunctionals:
    def test_degree_function_base_sbm(self):
        prof = degree_function(SBM_BASE.to_step_graphon())
        np.testing.assert_allclose(prof.values, [0.4, 0.3])
        np.testing.assert_allclose(prof.weights, [0.5, 0.5])

    def test_degree_function_constant(self):
        prof = degree_function(StepGraphon([1.0], [[0.37]]))
        np.testing.assert_allclose(prof.values, [0.37])

    def test_degree_function_separated_sbm(self):
        prof = degree_function(SBM_SEPARATED.to_step_graphon())
        np.testing.assert_allclose(prof.values, [0.375, 0.325])

    def test_total_degree_base(self):
        assert total_degree(SBM_BASE.to_step_graphon()) == pytest.approx(0.35)

    def test_total_degree_constant(self):
        assert total_degree(StepGraphon([1.0], [[0.37]])) == pytest.approx(0.37)

    def test_total_degree_separated(self):
        assert total_degree(SBM_SEPARATED.to_step_graphon()) == pytest.approx(0.35)


class TestDeltaDistance:
    def test_reference_pair_value(self):
        d = delta_distance(
            SBM_BASE.to_step_graphon(), SBM_SEPARATED.to_step_graphon()
        )
        assert d == pytest.approx(1.0 / 14.0, abs=1e-12)

    def test_self_distance_zero(self):
        w = SBM_BASE.to_step_graphon()
        assert delta_distance(w, w) == 0.0

    def test_family_pairs_have_zero_delta(self):
        w0 = SBM_BASE.to_step_graphon()
        w1 = family_generate(FamilySpec(SBM_BASE, 0.05)).to_step_graphon()
        assert delta_distance(w0, w1) <= 1e-12

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            a = random_step_graphon(rng)
            b = random_step_graphon(rng)
            d_ab = delta_distance(a, b)
            d_ba = delta_distance(b, a)
            assert d_ab >= 0.0
            assert d_ab == pytest.approx(d_ba, abs=1e-12)

    def test_block_relabeling_invariance(self):
        rng = np.random.default_rng(55)
        for _ in range(15):
            a = random_step_graphon(rng, max_blocks=5)
            b = random_step_graphon(rng, max_blocks=5)
            perm = rng.permutation(a.n_blocks)
            relabeled = StepGraphon(
                a.block_weights[perm], a.densities[np.ix_(perm, perm)]
            )
            assert delta_distance(relabeled, b) == pytest.approx(
                delta_distance(a, b), abs=1e-12
            )

    def test_matches_transport_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            a = random_step_graphon(rng)
            b = random_step_graphon(rng)
            assert delta_distance(a, b) == pytest.approx(
                transport_delta(a, b), abs=1e-9
            )


class TestFamily:
    def test_generate_reference_point(self):
        point = family_generate(FamilySpec(SBM_BASE, 0.05))
        assert (point.p1, point.p2, point.q) == pytest.approx((0.7, 0.5, 0.1))

    def test_tau_zero_is_base(self):
        point = family_generate(FamilySpec(SBM_BASE, 0.0))
        assert (point.p1, point.p2, point.q) == (SBM_BASE.p1, SBM_BASE.p2, SBM_BASE.q)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            family_generate(FamilySpec(SBM_BASE, 0.5))

    def test_validity_range_reference_base(self):
        lo, hi = family_validity_range(SBM_BASE)
        # six inequalities: lower binds at p2 > 0 (tau = -k2^2 p2 / k1),
        # upper binds at q > 0 (tau = k2 q)
        assert lo == pytest.approx(-0.2)
        assert hi == pytest.approx(0.1)
        binding = family_binding_constraints(SBM_BASE)
        assert binding == {"lower": "p2 > 0", "upper": "q > 0"}

    def test_validity_range_saturated_density(self):
        base = SBMParams(0.5, 1.0, 0.4, 0.2)
        _, hi = family_validity_range(base)
        assert hi == 0.0

    def test_validity_range_hand_solved_quarter(self):
        base = SBMParams(0.25, 0.6, 0.4, 0.2)
        lo, hi = family_validity_range(base)
        k1, k2 = 0.25, 0.75
        assert lo == pytest.approx(max(-k1 * 0.6, -(k2**2) * 0.4 / k1, -k2 * 0.8))
        assert hi == pytest.approx(min(k1 * 0.4, (k2**2) * 0.6 / k1, k2 * 0.2))

    def test_endpoints_behave_with_generate(self):
        lo, hi = family_validity_range(SBM_BASE)
        # upper end binds at q > 0, a strict constraint: the endpoint fails
        with pytest.raises(OutOfRange):
            family_generate(FamilySpec(SBM_BASE, hi))
        family_generate(FamilySpec(SBM_BASE, hi - 1e-9))

    def test_degree_profiles_preserved_componentwise(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            k1 = rng.uniform(0.2, 0.8)
            base = SBMParams(
                k1,
                rng.uniform(0.2, 0.9),
                rng.uniform(0.2, 0.9),
                rng.uniform(0.2, 0.9),
            )
            lo, hi = family_validity_range(base)
            tau = rng.uniform(lo * 0.9, hi * 0.9)
            try:
                point = family_generate(FamilySpec(base, tau))
            except OutOfRange:
                continue
            prof0 = normalized_degree_profile(base.to_step_graphon())
            prof1 = normalized_degree_profile(point.to_step_graphon())
            np.testing.assert_allclose(prof0.values, prof1.values, atol=1e-12)
            assert total_degree(base.to_step_graphon()) == pytest.approx(
                total_degree(point.to_step_graphon()), abs=1e-12
            )


class TestCutNorm:
    def test_zero_kernel(self):
        z = SignedStepKernel([0.5, 0.5], np.zeros((2, 2)))
        assert cut_norm_step(z) == 0.0

    def test_constant_kernel(self):
        z = SignedStepKernel([1.0], [[-0.42]])
        assert cut_norm_step(z) == pytest.approx(0.42)

    def test_reference_difference_matches_brute_force(self):
        w0 = SBM_BASE.to_step_graphon()
        w1 = SBMParams(0.5, 0.7, 0.5, 0.1).to_step_graphon()
        diff = SignedStepKernel(w0.block_weights, w0.densities - w1.densities)
        assert cut_norm_step(diff) == pytest.approx(brute_force_cut_norm(diff))

    def test_random_kernels_match_brute_force(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            k = int(rng.integers(1, 5))
            raw = rng.random(k) + 0.1
            vals = rng.uniform(-1, 1, size=(k, k))
            kernel = SignedStepKernel(raw / raw.sum(), (vals + vals.T) / 2)
            assert cut_norm_step(kernel) == pytest.approx(
                brute_force_cut_norm(kernel), abs=1e-12
            )

    def test_sign_symmetry_and_l1_bound(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            k = int(rng.integers(1, 6))
            raw = rng.random(k) + 0.1
            vals = rng.uniform(-1, 1, size=(k, k))
            kernel = SignedStepKernel(raw / raw.sum(), (vals + vals.T) / 2)
            flipped = SignedStepKernel(kernel.block_weights, -kernel.values)
            assert cut_norm_step(kernel) == pytest.approx(cut_norm_step(flipped))
            w = kernel.block_weights
            l1_mass = np.abs(kernel.values * np.outer(w, w)).sum()
            assert cut_norm_step(kernel) <= l1_mass + 1e-12

    def test_block_limit(self):
        k = 17
        w = np.full(k, 1.0 / k)
        with pytest.raises(TooManyBlocks):
            cut_norm_step(SignedStepKernel(w, np.zeros((k, k))))


class TestCutDistance:
    def test_relabeling_gives_zero(self):
        dens = np.array([[0.6, 0.3, 0.2], [0.3, 0.5, 0.4], [0.2, 0.4, 0.7]])
        w = StepGraphon([0.25, 0.25, 0.5], dens)
        perm = [1, 0, 2]
        relabeled = StepGraphon(w.block_weights[perm], dens[np.ix_(perm, perm)])
        assert cut_distance_blocks(w, relabeled) == pytest.approx(0.0, abs=1e-12)

    def test_family_pair_strictly_positive(self):
        w0 = SBM_BASE.to_step_graphon()
        w1 = family_generate(FamilySpec(SBM_BASE, 0.05)).to_step_graphon()
        d = cut_distance_blocks(w0, w1)
        assert d == pytest.approx(0.025)

    def test_disjoint_density_ranges_lower_bound(self):
        w0 = StepGraphon([0.5, 0.5], np.full((2, 2), 0.8))
        w1 = StepGraphon([0.5, 0.5], np.full((2, 2), 0.3))
        # every permutation leaves a constant-0.5 difference kernel
        assert cut_distance_blocks(w0, w1) == pytest.approx(0.5)

    def test_permutation_limit(self):
        # 9 equal blocks: 9! = 362880 permutations, above the 8! limit
        w = StepGraphon(np.full(9, 1.0 / 9), np.full((9, 9), 0.5))
        with pytest.raises(TooManyBlocks, match="permutations"):
            cut_distance_blocks(w, w)

    def test_unmatchable_weights(self):
        w0 = StepGraphon([0.3, 0.7], np.full((2, 2), 0.5))
        w1 = StepGraphon([0.4, 0.6], np.full((2, 2), 0.5))
        with pytest.raises(UnmatchableWeights):
            cut_distance_blocks(w0, w1)

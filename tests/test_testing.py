import threading
import tracemalloc

import numpy as np
import pytest

from graphonlab import (
    Activation,
    FamilySpec,
    GCNConfig,
    HypothesisViolated,
    InvalidModel,
    ShapeMismatch,
    clopper_pearson,
    embedding_distance_experiment,
    error_not_below_floor,
    error_probability_floor,
    expected_sorted_profile,
    family_generate,
    fit_decay_exponent,
    lecam_error_lower,
    monte_carlo_error,
    nearest_profile_test,
    tv_perturbed,
)
from graphonlab import sampling, testing
from graphonlab.gcn import one_blas_thread, perturb
from graphonlab.seeding import derive_seed, make_rng

from helpers import SBM_BASE, SBM_SEPARATED


def monte_carlo_tv(m0, m1, eps, n_samples, seed):
    """Oracle: TV between uniform cubes by sampling from the first law."""
    rng = np.random.default_rng(seed)
    m0 = np.asarray(m0, dtype=float).ravel()
    m1 = np.asarray(m1, dtype=float).ravel()
    x = m0 + rng.uniform(-eps, eps, size=(n_samples, m0.size))
    outside = (np.abs(x - m1) > eps).any(axis=1)
    return outside.mean()


class TestTVPerturbed:
    def test_equal_matrices(self):
        m = np.array([[0.1, 0.2], [0.3, 0.4]])
        res = tv_perturbed(m, m, 0.05)
        assert res.tv == 0.0
        assert res.clipped_dims == 0
        assert res.log_overlap == 0.0

    def test_clipped_coordinate_forces_one(self):
        res = tv_perturbed([0.0, 0.0], [0.0, 1.0], 0.5)
        assert res.tv == 1.0
        assert res.clipped_dims == 1

    def test_scalar_half_overlap(self):
        res = tv_perturbed([0.0], [1.0], 1.0)
        assert res.tv == 0.5

    def test_consistency_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m0 = rng.normal(size=4)
            m1 = m0 + rng.uniform(-0.02, 0.02, size=4)
            res = tv_perturbed(m0, m1, 0.05)
            if res.clipped_dims == 0:
                assert res.tv == pytest.approx(1 - np.exp(res.log_overlap), abs=1e-12)

    def test_symmetry_and_monotone_in_eps(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m0 = rng.normal(size=5)
            m1 = m0 + rng.uniform(-0.1, 0.1, size=5)
            a = tv_perturbed(m0, m1, 0.2).tv
            b = tv_perturbed(m1, m0, 0.2).tv
            assert a == pytest.approx(b, abs=1e-15)
            wider = tv_perturbed(m0, m1, 0.4).tv
            assert wider <= a + 1e-15

    def test_against_monte_carlo_oracle(self):
        rng = np.random.default_rng(11)
        for i in range(5):
            m0 = rng.normal(size=3) * 0.1
            m1 = m0 + rng.uniform(-0.08, 0.08, size=3)
            exact = tv_perturbed(m0, m1, 0.05).tv
            estimate = monte_carlo_tv(m0, m1, 0.05, 200_000, seed=i)
            assert abs(exact - estimate) < 0.01

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            tv_perturbed(np.zeros(3), np.zeros(4), 0.1)

    def test_underflow_safe_reporting(self):
        # thousands of coordinates, each shaving a bit of overlap
        m0 = np.zeros(5000)
        m1 = np.full(5000, 0.09)
        res = tv_perturbed(m0, m1, 0.05)
        assert res.tv == 1.0 or res.tv > 0.999999
        assert np.isfinite(res.log_overlap) or res.clipped_dims > 0


class TestFloors:
    def test_lecam_endpoints(self):
        assert lecam_error_lower(0.0) == 0.5
        assert lecam_error_lower(1.0) == 0.0
        assert lecam_error_lower(0.8) == pytest.approx(0.1)

    def test_lecam_domain(self):
        with pytest.raises(InvalidModel):
            lecam_error_lower(1.5)

    def test_zero_delta_formula(self):
        n = 100
        eps = 10.0 / n
        assert error_probability_floor(0.0, eps, n) == pytest.approx(np.exp(-0.1))

    def test_positive_delta_formula(self):
        n = 50
        delta = 0.2
        eps = delta / n
        assert error_probability_floor(delta, eps, n) == pytest.approx(0.5**n)

    def test_hypothesis_boundary(self):
        n = 50
        delta = 0.2
        with pytest.raises(HypothesisViolated):
            error_probability_floor(delta, delta / (2 * n), n)

    def test_const_c_scales_zero_regime(self):
        n = 100
        eps = 1.0 / n
        assert error_probability_floor(0.0, eps, n, const_c=2.0) == pytest.approx(
            np.exp(-2.0)
        )

    def test_floor_consistency_helper(self):
        # 50 errors in 100 trials is not significantly below a floor of 0.4
        assert error_not_below_floor(50, 100, 0.4)
        # but 5 errors in 400 trials is significantly below 0.4
        assert not error_not_below_floor(5, 400, 0.4)
        assert error_not_below_floor(0, 10, 0.0)


class TestClopperPearson:
    def test_edge_cases(self):
        lo, hi = clopper_pearson(0, 20)
        assert lo == 0.0 and 0 < hi < 0.25
        lo, hi = clopper_pearson(20, 20)
        assert hi == 1.0 and lo > 0.75

    def test_coverage_shape(self):
        lo, hi = clopper_pearson(10, 20)
        assert lo < 0.5 < hi


class TestNearestProfile:
    def test_exact_profile_decides_zero(self):
        w0 = SBM_BASE.to_step_graphon()
        w1 = SBM_SEPARATED.to_step_graphon()
        n = 100
        h = expected_sorted_profile(w0, n)
        assert nearest_profile_test(h, w0, w1, n) == 0

    def test_role_swap_flips_decision(self):
        w0 = SBM_BASE.to_step_graphon()
        w1 = SBM_SEPARATED.to_step_graphon()
        n = 100
        h = expected_sorted_profile(w1, n)
        assert nearest_profile_test(h, w0, w1, n) == 1
        assert nearest_profile_test(h, w1, w0, n) == 0

    def test_permutation_invariance(self):
        w0 = SBM_BASE.to_step_graphon()
        w1 = SBM_SEPARATED.to_step_graphon()
        n = 60
        rng = np.random.default_rng(8)
        h = expected_sorted_profile(w0, n) + rng.normal(0, 1e-4, n)
        d1 = nearest_profile_test(h, w0, w1, n)
        d2 = nearest_profile_test(h[rng.permutation(n)], w0, w1, n)
        assert d1 == d2

    def test_given_profiles_decide_alike(self):
        w0 = SBM_BASE.to_step_graphon()
        w1 = SBM_SEPARATED.to_step_graphon()
        n = 60
        profiles = expected_sorted_profile(w0, n), expected_sorted_profile(w1, n)
        rng = np.random.default_rng(9)
        mid = (profiles[0] + profiles[1]) / 2
        for _ in range(20):
            h = mid + rng.normal(0, 1e-4, n)
            assert nearest_profile_test(h, w0, w1, n, profiles=profiles) == (
                nearest_profile_test(h, w0, w1, n)
            )

    def test_tie_breaks_toward_zero(self):
        w = SBM_BASE.to_step_graphon()
        n = 40
        h = expected_sorted_profile(w, n)
        assert nearest_profile_test(h, w, w, n) == 0

    def test_profile_structure(self):
        w = SBM_BASE.to_step_graphon()
        n = 10
        prof = expected_sorted_profile(w, n)
        assert prof.shape == (n,)
        assert (np.diff(prof) <= 1e-15).all()
        # block values: d_i/(n D) with d = (.4,.3), D = .35
        np.testing.assert_allclose(prof[:5], 0.4 / (n * 0.35))
        np.testing.assert_allclose(prof[5:], 0.3 / (n * 0.35))


class TestMonteCarlo:
    def test_same_model_is_chance_level(self):
        w = SBM_BASE.to_step_graphon()
        cfg = GCNConfig(depth=8)
        report = monte_carlo_error(w, w, 40, cfg, eps_res=0.01, trials=200, seed=5)
        assert report.ci_low <= 0.5 <= report.ci_high
        assert report.trials == 200
        assert len(report.outcomes) == 200

    def test_separated_pair_beats_chance(self):
        w0 = SBM_BASE.to_step_graphon()
        w1 = SBM_SEPARATED.to_step_graphon()
        n = 200
        cfg = GCNConfig(depth=32)
        delta = 1.0 / 14.0
        report = monte_carlo_error(
            w0, w1, n, cfg, eps_res=delta / (4 * n), trials=60, seed=9
        )
        assert report.error_rate <= 0.15
        assert report.bounds.regime == "delta_positive"

    def test_deterministic_replay(self):
        w0 = SBM_BASE.to_step_graphon()
        w1 = SBM_SEPARATED.to_step_graphon()
        cfg = GCNConfig(depth=6)
        a = monte_carlo_error(w0, w1, 30, cfg, 0.01, trials=25, seed=77)
        b = monte_carlo_error(w0, w1, 30, cfg, 0.01, trials=25, seed=77)
        assert a == b

    def test_records_the_float32_certificate(self):
        w0, w1 = SBM_BASE.to_step_graphon(), SBM_SEPARATED.to_step_graphon()
        n, trials, seed, eps = 60, 3, 31, 0.01
        cfg = GCNConfig(depth=7)
        report = monte_carlo_error(w0, w1, n, cfg, eps, trials, seed)
        with one_blas_thread():
            bounds = [
                testing.graph_embedding(g, cfg, testing.F32_ERROR_SHARE * eps)[1]
                for pair in (testing.sample_coupled(w0, w1, n, derive_seed(seed, i))
                             for i in range(trials))
                for g in (pair.g0, pair.g1)
            ]
        assert report.f32_bound_max == max(bounds) and report.f64_fallbacks == 0
        # noise so small that the skip rule sends every graph to float64
        report = monte_carlo_error(w0, w1, n, cfg, 1e-6, trials, seed)
        assert report.f32_bound_max is None and report.f64_fallbacks == 2 * trials
        # the dense path records nothing
        tanh = GCNConfig(depth=7, activation="tanh")
        report = monte_carlo_error(w0, w1, n, tanh, eps, trials, seed)
        assert report.f32_bound_max is None and report.f64_fallbacks is None

    def test_profiles_built_once_per_call(self, monkeypatch):
        w0, w1 = SBM_BASE.to_step_graphon(), SBM_SEPARATED.to_step_graphon()
        calls = []
        real = testing.expected_sorted_profile

        def counted(w, n):
            calls.append((w, n))
            return real(w, n)

        monkeypatch.setattr(testing, "expected_sorted_profile", counted)
        monte_carlo_error(w0, w1, 30, GCNConfig(depth=4), 0.01, trials=5, seed=3)
        assert calls == [(w0, 30), (w1, 30)]

    def test_rejects_bad_args(self):
        w = SBM_BASE.to_step_graphon()
        with pytest.raises(InvalidModel):
            monte_carlo_error(w, w, 40, GCNConfig(depth=3), 0.05, trials=0, seed=2)
        with pytest.raises(InvalidModel):
            monte_carlo_error(w, w, 40, GCNConfig(depth=3), -0.05, trials=2, seed=2)


class TestDistanceExperiment:
    def test_same_model_shared_randomness_is_zero(self):
        w = SBM_BASE.to_step_graphon()
        stats = embedding_distance_experiment(
            w, w, 40, GCNConfig(depth=6), trials=10, seed=4, share_edge_randomness=True
        )
        assert stats.median == 0.0
        assert stats.p95 == 0.0

    def test_family_pair_small_distance_regime(self):
        w0 = SBM_BASE.to_step_graphon()
        w1 = family_generate(FamilySpec(SBM_BASE, 0.05)).to_step_graphon()
        stats = embedding_distance_experiment(
            w0, w1, 150, GCNConfig(depth=30), trials=20, seed=6
        )
        assert stats.regime == "delta_zero"
        assert stats.delta <= 1e-12

    def test_separated_pair_regime_and_envelope(self):
        w0 = SBM_BASE.to_step_graphon()
        w1 = SBM_SEPARATED.to_step_graphon()
        stats = embedding_distance_experiment(
            w0, w1, 150, GCNConfig(depth=30), trials=20, seed=6
        )
        assert stats.regime == "delta_positive"
        assert stats.envelope == pytest.approx(
            (1 / 14) / 150 * (1 + 1 / np.sqrt(150))
        )

    def test_rejects_sigmoid(self):
        w = SBM_BASE.to_step_graphon()
        with pytest.raises(InvalidModel):
            embedding_distance_experiment(
                w, w, 30, GCNConfig(depth=3, activation=Activation("sigmoid")),
                trials=2, seed=1,
            )

    def test_fit_decay_exponent(self):
        n = np.array([100, 200, 400])
        values = 3.0 * n.astype(float) ** -1.5
        assert fit_decay_exponent(n, values) == pytest.approx(-1.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "n, values",
        [([40, 60], [0.0, 0.0]), ([40, 60], [0.0, 0.2]), ([40, 40], [0.1, 0.2]),
         ([40], [0.1])],
        ids=["zero-stats", "one-zero-stat", "one-size-twice", "one-size"],
    )
    def test_fit_decay_exponent_undefined_is_nan_without_warning(self, n, values):
        assert np.isnan(fit_decay_exponent(n, values))


def serial_trials(w0, w1, n, cfg, eps_res, trials, seed, share, limit=None):
    """Reference: each seed's pair sampled and embedded one after another,
    under the float32 error limit ``limit`` (None: the float64 path)."""
    rows = []
    for i in range(trials):
        s = derive_seed(seed, i)
        pair = testing.sample_coupled(w0, w1, n, s, share_edge_randomness=share)
        with one_blas_thread():
            h0 = testing.graph_embedding(pair.g0, cfg, limit)
            h1 = testing.graph_embedding(pair.g1, cfg, limit)
        if limit is not None:
            (h0, _), (h1, _) = h0, h1
        label = int(make_rng(derive_seed(s, testing._STREAM_COIN)).integers(0, 2))
        observed = h1 if label else h0
        noisy = perturb(observed, eps_res, derive_seed(s, testing._STREAM_NOISE))
        diff = np.abs(h0 - h1)
        rows.append({
            "seed": s,
            "label": label,
            "decision": nearest_profile_test(noisy, w0, w1, n),
            "distance": float(diff.max()),
            "small": float((diff <= testing.COORD_TOL_CONST / n**2).mean()),
            "tv": tv_perturbed(h0, h1, eps_res).tv,
        })
    return rows


class TestOverlappedTrials:
    """Each harness fills and embeds a pair's second graph on a worker thread;
    nothing else changes."""

    W0, W1 = SBM_BASE.to_step_graphon(), SBM_SEPARATED.to_step_graphon()

    @pytest.mark.parametrize("activation", ["identity", "tanh"])
    def test_equals_serial_reference(self, activation):
        n, trials, seed, eps = 60, 5, 31, 0.01
        cfg = GCNConfig(depth=7, activation=activation)
        limit = testing.F32_ERROR_SHARE * eps  # as monte_carlo_error sets it
        ref = serial_trials(self.W0, self.W1, n, cfg, eps, trials, seed, False, limit)
        report = monte_carlo_error(self.W0, self.W1, n, cfg, eps, trials, seed)
        assert [(t.seed, t.true_label, t.decision, t.embedding_distance)
                for t in report.outcomes] == [
            (r["seed"], r["label"], r["decision"], r["distance"]) for r in ref
        ]
        assert report.mean_conditional_tv == float(np.mean([r["tv"] for r in ref]))
        for share in (False, True):
            ref = serial_trials(self.W0, self.W1, n, cfg, eps, trials, seed, share)
            stats = embedding_distance_experiment(
                self.W0, self.W1, n, cfg, trials, seed, share_edge_randomness=share
            )
            assert stats.distances == tuple(r["distance"] for r in ref)
            assert stats.frac_small_coords == float(np.mean([r["small"] for r in ref]))
        # the error harness on shared edges, as the experiment command runs it
        ref = serial_trials(self.W0, self.W1, n, cfg, eps, trials, seed, True, limit)
        report = monte_carlo_error(
            self.W0, self.W1, n, cfg, eps, trials, seed, share_edge_randomness=True
        )
        assert [(t.seed, t.true_label, t.decision, t.embedding_distance)
                for t in report.outcomes] == [
            (r["seed"], r["label"], r["decision"], r["distance"]) for r in ref
        ]
        assert report.mean_conditional_tv == float(np.mean([r["tv"] for r in ref]))
        assert float(np.mean(report.small_coord_fracs)) == float(
            np.mean([r["small"] for r in ref])
        )

    def harnesses(self, cfg=GCNConfig(depth=5)):
        return {
            "error": lambda: monte_carlo_error(self.W0, self.W1, 40, cfg, 0.01, 6, 8),
            "distance": lambda: embedding_distance_experiment(
                self.W0, self.W1, 40, cfg, 6, 8
            ),
        }

    @pytest.mark.parametrize("harness", ["error", "distance"])
    def test_sampler_error_is_raised_and_cleaned_up(
        self, monkeypatch, blas_threads, harness
    ):
        third = derive_seed(8, 2)
        sampled = []
        real = testing.sample_coupled

        def failing(w0, w1, n, seed, **kwargs):
            sampled.append(seed)
            if seed == third:
                raise RuntimeError("third pair")
            return real(w0, w1, n, seed, **kwargs)

        monkeypatch.setattr(testing, "sample_coupled", failing)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="third pair"):
            self.harnesses()[harness]()
        assert threading.active_count() == threads
        assert blas_threads() == 2
        assert sampled == [derive_seed(8, i) for i in range(3)]

    @pytest.mark.parametrize("harness", ["error", "distance"])
    def test_worker_fill_error_is_raised_and_cleaned_up(
        self, monkeypatch, blas_threads, harness
    ):
        caller = threading.get_ident()
        real = sampling._fill_edges

        def fill(n, targets, rng):
            if threading.get_ident() != caller:
                raise RuntimeError("second graph")
            return real(n, targets, rng)

        monkeypatch.setattr(sampling, "_fill_edges", fill)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="second graph"):
            self.harnesses()[harness]()
        assert threading.active_count() == threads
        assert blas_threads() == 2

    def test_vector_loop_peak_memory(self):
        # tracemalloc's peak over the loop, in n x n float64 arrays, under the
        # error harness's limit at eps = delta/(4n): the two float32 walk
        # matrices of a pair embedding at once (1/2 each), the pair's two
        # uint8 adjacencies (1/8 each) and the filler's scratch
        n, cfg = 600, GCNConfig(depth=39)  # ceil(6 ln 600)
        limit = testing.F32_ERROR_SHARE * (1 / 14) / (4 * n)
        testing._each_trial(self.W0, self.W1, 40, cfg, 3, 1, False, lambda *_: None)
        tracemalloc.start()
        try:
            testing._each_trial(
                self.W0, self.W1, n, cfg, 3, 3, False, lambda *_: None, limit=limit
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.4 * n * n * 8

    @pytest.mark.parametrize("harness", ["error", "distance"])
    def test_trial_error_wins_over_the_pair_sampled_ahead(self, monkeypatch, harness):
        # serially, trial 1's embedding fails before pair 2 is ever sampled
        second, third = derive_seed(8, 1), derive_seed(8, 2)
        real_sample, real_embed = testing.sample_coupled, testing.graph_embedding

        def sample(w0, w1, n, seed, **kwargs):
            if seed == third:
                raise RuntimeError("sampling")
            return real_sample(w0, w1, n, seed, **kwargs)

        def embed(g, cfg, limit=None):
            if g.seed == second:
                raise ValueError("embedding")
            return real_embed(g, cfg, limit)

        monkeypatch.setattr(testing, "sample_coupled", sample)
        monkeypatch.setattr(testing, "graph_embedding", embed)
        threads = threading.active_count()
        with pytest.raises(ValueError, match="embedding"):
            self.harnesses()[harness]()
        assert threading.active_count() == threads

    @pytest.mark.parametrize("harness", ["error", "distance"])
    def test_one_worker_thread_per_harness(self, monkeypatch, harness):
        run = self.harnesses(GCNConfig(depth=3, activation="tanh"))[harness]
        real_embed = testing.graph_embedding
        counts = []

        def embed(g, cfg, limit=None):
            counts.append(threading.active_count())
            return real_embed(g, cfg, limit)

        monkeypatch.setattr(testing, "graph_embedding", embed)
        threads = threading.active_count()
        run()
        assert len(counts) == 12 and max(counts) == threads + 1
        assert threading.active_count() == threads

import math
import threading
import tracemalloc
import types
import warnings
from fractions import Fraction

import numpy as np
import pytest

from graphonlab import (
    Activation,
    GCNConfig,
    InvalidModel,
    IsolatedVertex,
    NonFinite,
    SampledGraph,
    SBMParams,
    classify_activation,
    embedding_vector,
    fast_linear_embedding,
    forward,
    graph_embedding,
    linearization_gap,
    perturb,
    rw_transition_matrix,
    sample_coupled,
    sample_graph,
)
from graphonlab import gcn, testing
from graphonlab.gcn import ACTIVATION_KINDS, _layer, one_blas_thread
from graphonlab.seeding import derive_seed

from helpers import SBM_BASE, SBM_SEPARATED, graph_from_edges, path_graph


class TestActivation:
    def test_closed_forms(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        np.testing.assert_allclose(Activation("identity")(x), x)
        np.testing.assert_allclose(Activation("relu")(x), np.maximum(x, 0))
        np.testing.assert_allclose(Activation("sigmoid")(x), 1 / (1 + np.exp(-x)))
        np.testing.assert_allclose(Activation("tanh")(x), np.tanh(x))
        np.testing.assert_allclose(Activation("swish")(x), x / (1 + np.exp(-x)))
        np.testing.assert_allclose(
            Activation("selu")(x), np.where(x > 0, x, np.expm1(np.minimum(x, 0)))
        )

    @pytest.mark.parametrize("kind", ACTIVATION_KINDS)
    def test_out_gives_the_allocating_bytes(self, kind):
        rng = np.random.default_rng(1707)
        x = rng.normal(scale=4.0, size=(30, 40))
        x[::5, ::7] = np.resize([0.0, -0.0, 700.0, -700.0, 1e-300, -1e-300], (6, 6))
        act = Activation(kind)
        ref = act(x.copy())
        fresh = np.empty_like(x)
        assert act(x, out=fresh) is fresh
        in_place = x.copy()
        assert act(in_place, out=in_place) is in_place
        for y in (fresh, in_place):
            assert y.tobytes() == ref.tobytes()

    def test_unknown_kind(self):
        with pytest.raises(InvalidModel):
            Activation("gelu")

    def test_classification_table(self):
        assert classify_activation(Activation("identity")).label == "nice"
        for kind in ("tanh", "swish", "selu"):
            assert classify_activation(Activation(kind)).label == "expanded-nice"
        relu = classify_activation(Activation("relu"))
        assert relu.label == "not-nice" and "C^2" in relu.violated_clause
        sigmoid = classify_activation(Activation("sigmoid"))
        assert sigmoid.label == "not-nice"
        assert "1/2" in sigmoid.violated_clause
        # the recorded clause is consistent with evaluation
        assert Activation("sigmoid")(0.0) == pytest.approx(0.5)


class TestForward:
    def test_identity_one_layer_is_rw_matrix(self):
        g = path_graph(3)
        cfg = GCNConfig(depth=1)
        np.testing.assert_allclose(forward(g, cfg), rw_transition_matrix(g))

    def test_relu_matches_identity_on_nonnegative(self):
        # and selu, which is x for x > 0 and expm1(0) = 0 at 0
        for n in (30, 300):
            g = sample_graph(SBM_BASE.to_step_graphon(), n, seed=1)
            ident = forward(g, GCNConfig(depth=4)).tobytes()
            for kind in ("relu", "selu"):
                assert forward(g, GCNConfig(depth=4, activation=kind)).tobytes() == ident

    def test_identity_depth_t_equals_matrix_power(self):
        g = path_graph(3)
        np.testing.assert_allclose(
            forward(g, GCNConfig(depth=3)),
            np.linalg.matrix_power(rw_transition_matrix(g), 3),
            atol=1e-15,
        )

    def test_numpy_integer_depth(self):
        g = path_graph(3)
        m = forward(g, GCNConfig(depth=np.int64(3)))
        assert m.tobytes() == forward(g, GCNConfig(depth=3)).tobytes()

    def test_oracle_equivalence_random_graphs(self):
        for i in range(4):
            g = sample_graph(SBM_BASE.to_step_graphon(), 40, seed=derive_seed(9, i))
            P = rw_transition_matrix(g)
            for t in (1, 5, 10):
                np.testing.assert_allclose(
                    forward(g, GCNConfig(depth=t)),
                    np.linalg.matrix_power(P, t),
                    atol=1e-12,
                )

    def test_row_sums_preserved_under_identity(self):
        g = sample_graph(SBM_BASE.to_step_graphon(), 50, seed=3)
        m = forward(g, GCNConfig(depth=7))
        np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-10)

    def test_nonfinite_detection(self):
        ahat = rw_transition_matrix(path_graph(3))
        m = np.eye(3)
        m[1, 2] = np.inf
        # 0 * inf is NaN in A_hat @ M, which the layer reports as NonFinite
        # and as nothing else
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite):
                _layer(ahat, m, Activation("identity"), np.empty_like(ahat))

    @pytest.mark.parametrize("kind", ACTIVATION_KINDS)
    def test_same_bytes_as_a_plain_loop(self, kind):
        act = Activation(kind)
        for i in range(2):
            g = sample_graph(SBM_BASE.to_step_graphon(), 300, seed=derive_seed(31, i))
            ahat = rw_transition_matrix(g)
            ref = act(ahat)
            for _ in range(5):
                ref = act(ahat @ ref)
            assert forward(g, GCNConfig(depth=6, activation=act)).tobytes() == ref.tobytes()

    # tracemalloc's peak over one pass at n = 400, in n x n float64 arrays:
    # A_hat, M and the layer's output buffer, plus isfinite's bool mask (1/8);
    # swish also holds 1 + e^-x, selu e^min(x, 0) - 1 and its x > 0 mask
    @pytest.mark.parametrize(
        "kind, arrays",
        [("identity", 3.25), ("relu", 3.25), ("tanh", 3.25), ("sigmoid", 3.25),
         ("swish", 4.25), ("selu", 4.25)],
    )
    def test_peak_memory(self, kind, arrays):
        n = 400
        g = sample_graph(SBM_BASE.to_step_graphon(), n, seed=4)
        cfg = GCNConfig(depth=5, activation=kind)
        tracemalloc.start()
        try:
            forward(g, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= arrays * n * n * 8


class TestEmbeddingVector:
    def test_identity_matrix(self):
        np.testing.assert_allclose(embedding_vector(np.eye(4)), [0.25] * 4)

    def test_row_constant_matrix_returns_the_row(self):
        pi = np.array([0.5, 0.3, 0.2])
        np.testing.assert_allclose(embedding_vector(np.tile(pi, (3, 1))), pi)

    def test_path_three_column_means(self):
        g = path_graph(3)
        np.testing.assert_allclose(
            embedding_vector(forward(g, GCNConfig(depth=1))), [1 / 6, 2 / 3, 1 / 6]
        )

    def test_fast_path_matches_full_forward(self):
        for i in range(3):
            g = sample_graph(SBM_BASE.to_step_graphon(), 35, seed=derive_seed(14, i))
            for depth in (1, 4, 9):
                full = embedding_vector(forward(g, GCNConfig(depth=depth)))
                fast = fast_linear_embedding(g, depth)
                np.testing.assert_allclose(fast, full, atol=1e-13)

    def test_graph_embedding_dispatch(self):
        g = sample_graph(SBM_BASE.to_step_graphon(), 25, seed=5)
        assert GCNConfig(depth=2).activation.is_linear_on_nonnegative
        assert Activation("relu").is_linear_on_nonnegative
        assert Activation("selu").is_linear_on_nonnegative
        assert not Activation("tanh").is_linear_on_nonnegative
        np.testing.assert_allclose(
            graph_embedding(g, GCNConfig(depth=3)),
            embedding_vector(forward(g, GCNConfig(depth=3))),
            atol=1e-13,
        )


W0, W1 = SBM_BASE.to_step_graphon(), SBM_SEPARATED.to_step_graphon()


def _embed_trials(cfg, n=40, trials=2, seed=17):
    """Each trial's (h0, h1) as the harnesses' trial loop hands them over."""
    return testing._each_trial(
        W0, W1, n, cfg, seed, trials, False, lambda h0, h1, _: (h0, h1)
    )


def _serial_embeddings(cfg, n=40, trials=2, seed=17):
    return [
        (graph_embedding(pair.g0, cfg), graph_embedding(pair.g1, cfg))
        for pair in (sample_coupled(W0, W1, n, derive_seed(seed, i))
                     for i in range(trials))
    ]


def _spy(monkeypatch, blas_threads=None, failing=None):
    """Record (graph index in its pair, thread, BLAS thread count) per
    embedding; the embedding of graph ``failing`` raises NonFinite."""
    pairs, seen = [], []
    real_sample = testing.sample_coupled

    def sample(*args, **kwargs):
        pairs.append(real_sample(*args, **kwargs))
        return pairs[-1]

    def embed(g, cfg, limit=None):
        index = 0 if any(g is p.g0 for p in pairs) else 1
        seen.append((index, threading.get_ident(), blas_threads and blas_threads()))
        if index == failing:
            raise NonFinite("non-finite value produced in forward pass")
        return graph_embedding(g, cfg, limit)

    monkeypatch.setattr(testing, "sample_coupled", sample)
    monkeypatch.setattr(testing, "graph_embedding", embed)
    return seen


class TestEmbedPair:
    """How a harness embeds each coupled pair (``testing._each_trial``): the
    caller embeds the first graph while the harness's one worker thread
    embeds the second, both on one OpenBLAS thread (``gcn.one_blas_thread``),
    on the vector and the dense path alike; without numpy's OpenBLAS both
    graphs embed on the caller."""

    @pytest.mark.parametrize("kind", ["tanh", "swish"])
    def test_bitwise_equal_to_sequential_under_the_pin(self, blas_threads, kind):
        cfg = GCNConfig(depth=35, activation=kind)  # ceil(6 ln 300)
        out = _embed_trials(cfg, n=300)
        with one_blas_thread() as pinned:
            assert pinned
            ref = _serial_embeddings(cfg, n=300)
        for (h0, h1), (r0, r1) in zip(out, ref, strict=True):
            assert h0.tobytes() == r0.tobytes()
            assert h1.tobytes() == r1.tobytes()

    def test_thread_count_pinned_then_restored(self, blas_threads, monkeypatch):
        seen = _spy(monkeypatch, blas_threads)
        _embed_trials(GCNConfig(depth=3, activation="tanh"))
        caller = threading.get_ident()
        assert sorted(index for index, _, _ in seen) == [0, 0, 1, 1]
        assert {count for _, _, count in seen} == {1}
        assert {t for index, t, _ in seen if index == 0} == {caller}
        assert caller not in {t for index, t, _ in seen if index == 1}
        assert blas_threads() == 2

    @pytest.mark.parametrize("failing", [0, 1])
    def test_restored_when_a_pass_raises(self, blas_threads, monkeypatch, failing):
        _spy(monkeypatch, failing=failing)
        threads = threading.active_count()
        with pytest.raises(NonFinite):
            _embed_trials(GCNConfig(depth=3, activation="tanh"))
        assert blas_threads() == 2
        assert threading.active_count() == threads

    @pytest.mark.parametrize("kind", ACTIVATION_KINDS)
    def test_second_graph_embeds_on_the_worker(self, blas_threads, monkeypatch, kind):
        cfg = GCNConfig(depth=5, activation=kind)
        seen = _spy(monkeypatch, blas_threads)
        out = _embed_trials(cfg)
        caller = threading.get_ident()
        assert sorted(index for index, _, _ in seen) == [0, 0, 1, 1]
        assert {(index, t == caller, count) for index, t, count in seen} == {
            (0, True, 1), (1, False, 1)
        }
        monkeypatch.undo()
        with one_blas_thread() as pinned:
            assert pinned
            ref = _serial_embeddings(cfg)
        for (h0, h1), (r0, r1) in zip(out, ref, strict=True):
            assert h0.tobytes() == r0.tobytes()
            assert h1.tobytes() == r1.tobytes()

    def test_sequential_without_the_library(self, monkeypatch):
        cfg = GCNConfig(depth=3, activation="tanh")
        monkeypatch.setattr(gcn, "_numpy_openblas", lambda: None)
        seen = _spy(monkeypatch)
        out = _embed_trials(cfg)
        caller = threading.get_ident()
        assert seen == [(0, caller, None), (1, caller, None)] * 2
        monkeypatch.undo()
        for (h0, h1), (r0, r1) in zip(out, _serial_embeddings(cfg), strict=True):
            assert h0.tobytes() == r0.tobytes()
            assert h1.tobytes() == r1.tobytes()


def _float64_walk(g, depth):
    """The float64 vector iteration, written out as it was before the float32
    path existed."""
    ahat = rw_transition_matrix(g)
    h = np.full(g.n, 1.0 / g.n)
    for _ in range(depth):
        h = h @ ahat
    return h


def _walk_spy(monkeypatch):
    """Record the arguments of every float32 walk; float64 walks run unrecorded."""
    runs = []
    real = gcn._steps

    def spy(*args):
        if args[3] is np.float32:
            runs.append(args)
        return real(*args)

    monkeypatch.setattr(gcn, "_steps", spy)
    return runs


def _stationary(g):
    deg = g.degrees()
    return deg / deg.sum()


class TestWalk32:
    """The identity/ReLU vector path in float32 under its certificate, and
    the float64 path wherever the certificate fails."""

    @pytest.mark.parametrize("n", [250, 1000])
    @pytest.mark.parametrize("kind", ["identity", "relu"])
    def test_error_within_the_certified_bound(self, n, kind):
        depth = math.ceil(6 * math.log(n))
        limit = testing.F32_ERROR_SHARE * (1 / 14) / (4 * n)  # eps = delta/(4n)
        g = sample_graph(W0, n, seed=derive_seed(22, n))
        h32, bound, steps = graph_embedding(g, GCNConfig(depth, kind), limit)
        h64 = _float64_walk(g, depth)
        assert 0 < bound <= limit
        # the stationary law, certified a few steps in
        assert steps < depth and h32.tobytes() == _stationary(g).tobytes()
        # the float64 path's own bound: the same argument with u = 2^-53
        rel64 = math.expm1(depth * (n + 2) * math.log1p(2.0**-53))
        bound64 = rel64 / (1 - rel64) * h64.max()
        assert (np.abs(h32 - h64) <= bound + bound64).all()

    def test_step_zero_reads_no_matrix(self, monkeypatch):
        # at eps = 10/n the certificate closes on h_0 = 1/n and the degrees
        # alone: no float32 adjacency is ever made
        n, depth = 1000, 42
        g = sample_graph(W0, n, seed=4)
        runs = _walk_spy(monkeypatch)
        tracemalloc.start()
        try:
            h, bound, steps = fast_linear_embedding(g, depth, testing.F32_ERROR_SHARE * 10 / n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(runs) == 1 and steps == 0 and bound is not None
        assert h.tobytes() == _stationary(g).tobytes()
        assert peak < 8 * n * 8  # a few length-n vectors; the matrix is 4 n^2 bytes

    def test_failed_check_falls_back_after_freeing_float32(self, monkeypatch):
        # no certificate's bound is 0: the float32 walk runs to K, then the
        # float64 walk runs
        n, depth = 300, 35
        g = sample_graph(W0, n, seed=4)
        runs = _walk_spy(monkeypatch)
        peaks = []
        for run in (lambda: fast_linear_embedding(g, depth),
                    lambda: fast_linear_embedding(g, depth, 0.0)):
            tracemalloc.start()
            try:
                out = run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        h, bound, steps = out
        assert len(runs) == 1 and bound is None and steps == depth
        assert h.tobytes() == fast_linear_embedding(g, depth).tobytes()
        # the float32 matrix is gone before the float64 one is built: at most
        # a few length-n vectors above the float64 walk's peak
        assert peaks[1] <= peaks[0] + 4 * n * 8

    def test_relative_error_counts_the_rounding_of_h0(self):
        rel0 = gcn.f32_relative_error(250, 0)
        assert rel0 == math.expm1(math.log1p(2.0**-24)) > 0
        for n in (3, 40, 250, 1000, 2000):
            h0 = Fraction(float(np.float32(1) / np.float32(n)))
            assert abs(h0 - Fraction(1, n)) <= Fraction(gcn.f32_relative_error(n, 0)) / n
            assert gcn.f32_relative_error(n, 1) > rel0

    def test_isolated_vertex_is_refused_on_both_paths(self):
        g = graph_from_edges(3, [(0, 1)])
        for limit in (None, 1.0):
            with pytest.raises(IsolatedVertex, match="vertex 2"):
                fast_linear_embedding(g, 3, limit)


# the experiment_tanh benchmark pair: delta = 0 against W0
MATCHED = SBMParams(0.5, 0.7, 0.5, 0.1).to_step_graphon()


def _dense(g, cfg):
    """The dense float64 forward pass's embedding: a call without a limit."""
    return embedding_vector(forward(g, cfg))


def _k_step_walk(g, depth, dtype):
    """The walk in dtype written out as K steps, with no early exit."""
    r = dtype(1.0) / gcn.positive_degrees(g).astype(dtype)
    a = g.adjacency.astype(dtype)
    h = np.full(g.n, dtype(1.0) / dtype(g.n), dtype=dtype)
    for _ in range(depth):
        h = (h * r) @ a
    return h


class TestWalkExit:
    """The walk stops at its first exact repeat, with the bytes of all K
    steps, in float32 and in float64."""

    # at n = 500 this BASE graph's walk repeats at step 28 in float32 and at
    # step 48 in float64; MATCHED's float32 walks did not repeat within
    # K = ceil(6 ln n) = 38 on any seed tried, nor this one's float64 walk
    # within 100
    @pytest.mark.parametrize("model, repeats, dtype, depth", [
        pytest.param("base", True, np.float32, 38, id="base-True"),
        pytest.param("matched", False, np.float32, 38, id="matched-False"),
        pytest.param("base", True, np.float64, 100, id="float64-base-True"),
        pytest.param("matched", False, np.float64, 100, id="float64-matched-False"),
    ])
    def test_exit_gives_the_k_step_bytes(self, model, repeats, dtype, depth):
        n = 500
        g = sample_graph(W0 if model == "base" else MATCHED, n, seed=2)
        expected = _k_step_walk(g, depth, dtype)
        products = []

        class Counted(np.ndarray):
            """An adjacency, and its float copy, that count their products."""

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    products.append(1)
                inputs = [x.view(np.ndarray) if isinstance(x, Counted) else x
                          for x in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

        counted = types.SimpleNamespace(n=n, adjacency=g.adjacency.view(Counted))
        deg = gcn.positive_degrees(g)
        if dtype is np.float64:
            got = gcn._walk(counted, depth, deg)
        else:  # the certificate's walk: the last vector of _steps
            *_, got = gcn._steps(counted, depth, deg, dtype)
        assert type(got) is np.ndarray and got.dtype == dtype
        assert got.tobytes() == expected.tobytes()
        if repeats:
            assert len(products) < depth
        else:
            assert len(products) == depth


class TestForward32:
    """The tanh and swish embeddings under a limit: the float32 walk scaled
    into the per-graph bracket around it, and the dense float64 pass wherever
    the certificate fails or no bracket exists."""

    @pytest.mark.parametrize("n", [250, 500])
    @pytest.mark.parametrize("model", ["base", "matched"])
    def test_error_within_the_certified_bound(self, n, model):
        depth = math.ceil(6 * math.log(n))
        limit = testing.F32_ERROR_SHARE * 10 / n  # eps = 10/n
        for kind in ("tanh", "swish"):
            cfg = GCNConfig(depth, kind)
            for i in range(3):
                g = sample_graph(W0 if model == "base" else MATCHED, n,
                                 seed=derive_seed(25, i))
                h, bound, _ = graph_embedding(g, cfg, limit)
                assert 0 < bound <= limit
                assert (np.abs(h - _dense(g, cfg)) <= bound).all()
                # a scalar multiple of the identity's float32 walk
                ratio = h / fast_linear_embedding(g, depth, limit)[0]
                assert ratio.max() - ratio.min() <= 2.0**-51 * ratio.max()

    def test_without_a_limit_is_the_float64_forward(self, monkeypatch):
        g = sample_graph(W0, 300, seed=4)
        runs = _walk_spy(monkeypatch)
        for kind in ("tanh", "swish"):
            cfg = GCNConfig(35, kind)
            assert graph_embedding(g, cfg).tobytes() == _dense(g, cfg).tobytes()
        assert runs == []

    def test_step_zero_reads_no_matrix(self, monkeypatch):
        # at eps = 10/n the certificate closes on h_0 = 1/n and the degrees
        # alone, and tanh returns the stationary law scaled into its bracket
        n, depth = 500, 38
        g = sample_graph(MATCHED, n, seed=4)
        cfg = GCNConfig(depth, "tanh")
        lo, hi = gcn._bracket(cfg.activation, int(g.degrees().min()), depth)
        runs = _walk_spy(monkeypatch)
        tracemalloc.start()
        try:
            h, bound, steps = graph_embedding(g, cfg, testing.F32_ERROR_SHARE * 10 / n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(runs) == 1 and steps == 0 and bound is not None
        assert h.tobytes() == ((lo + hi) / 2 * _stationary(g)).tobytes()
        assert peak < 8 * n * 8  # a few length-n vectors; the matrix is 4 n^2 bytes

    def test_limit_below_the_bound_falls_back(self, monkeypatch):
        # every bound holds the bracket's half-width times pi_max max f_t,
        # and max f_t >= 1: above half pi_min
        g = sample_graph(W0, 300, seed=4)
        runs = _walk_spy(monkeypatch)
        for kind in ("tanh", "swish"):
            cfg = GCNConfig(35, kind)
            lo, hi = gcn._bracket(cfg.activation, int(g.degrees().min()), 35)
            limit = 0.99 * (hi - lo) / 2 * _stationary(g).min()
            h, bound, steps = graph_embedding(g, cfg, limit)
            assert bound is None and steps == 35
            assert h.tobytes() == _dense(g, cfg).tobytes()
        assert len(runs) == 2  # each call ran the walk first

    def test_degree_one_vertex_falls_back(self):
        # c = 1 - 1/3 at a pendant vertex: the bracket [(2/3)^K, 1] spans
        # about half the walk's own size, against a limit of eps/4 at eps = 1/n
        n, depth = 250, 34
        g = sample_graph(W0, n, seed=4)
        adj = np.pad(g.adjacency, ((0, 1), (0, 1)))
        adj[0, n] = adj[n, 0] = 1
        pendant = SampledGraph(adj, source="fixture")
        cfg = GCNConfig(depth, "tanh")
        limit = testing.F32_ERROR_SHARE / n
        assert graph_embedding(g, cfg, limit)[1] is not None
        h, bound, _ = graph_embedding(pendant, cfg, limit)
        assert bound is None and h.tobytes() == _dense(pendant, cfg).tobytes()

    def test_isolated_vertex_is_refused_on_both_paths(self):
        g = graph_from_edges(3, [(0, 1)])
        for kind in ("tanh", "swish"):
            for limit in (None, 1.0):
                with pytest.raises(IsolatedVertex, match="vertex 2"):
                    graph_embedding(g, GCNConfig(3, kind), limit)

    def test_peak_memory(self):
        # tracemalloc's peak over one certified tanh embedding at n = 400:
        # the walk's float32 0/1 matrix (1/2 a float64 array) and a few vectors
        n = 400
        g = sample_graph(SBM_BASE.to_step_graphon(), n, seed=4)
        cfg = GCNConfig(depth=5, activation="tanh")
        tracemalloc.start()
        try:
            _, bound, _ = graph_embedding(g, cfg, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bound is not None
        assert peak < 0.55 * n * n * 8

    def test_sigmoid_ignores_the_limit(self, monkeypatch):
        # sigmoid 0 = 1/2: no bracket around the walk
        g = sample_graph(W0, 40, seed=4)
        cfg = GCNConfig(depth=5, activation="sigmoid")
        runs = _walk_spy(monkeypatch)
        h, bound, _ = graph_embedding(g, cfg, 1.0)
        assert bound is None and runs == []
        assert h.tobytes() == graph_embedding(g, cfg).tobytes()


def _bipartite(a, b, seed):
    """A random bipartite graph, edge density 1/2 between sides of a and b
    vertices: its walk alternates between the sides and never mixes."""
    rng = np.random.default_rng(seed)
    adj = np.zeros((a + b, a + b), dtype=np.uint8)
    adj[:a, a:] = rng.random((a, b)) < 0.5
    adj[a:, :a] = adj[:a, a:].T
    return SampledGraph(adj, source="fixture")


class TestCertificate:
    """The stationary law pi = deg/sum(deg), certified by the walk's density
    bracket pi [min f_t, max f_t] a few steps in, and the call without a
    limit where the bracket never closes."""

    @pytest.mark.parametrize("graph", ["sampled", "bipartite"])
    def test_density_bracket_never_widens(self, graph):
        depth = 34
        g = sample_graph(W0, 250, seed=7) if graph == "sampled" else _bipartite(20, 40, 7)
        deg = g.degrees()
        tops, bottoms = [], []
        for h in gcn._steps(g, depth, deg, np.float64):
            f = h / (deg / deg.sum())
            tops.append(f.max())
            bottoms.append(f.min())
        # float64 rounding only: f is about 1
        assert (np.diff(tops) <= 1e-12).all() and (np.diff(bottoms) >= -1e-12).all()
        assert max(bottoms) <= 1 + 1e-12 and min(tops) >= 1 - 1e-12
        if graph == "bipartite":
            assert len(tops) == depth + 1 and tops[-1] - bottoms[-1] > 0.5
        else:
            assert tops[-1] - bottoms[-1] < 1e-12

    @pytest.mark.parametrize("model", ["base", "matched", "hub"])
    def test_step_zero_bound_is_the_density_bracket(self, model):
        # h_0 = 1/n: f_0 = 1/(n pi), and the bound is pi_max times the
        # farther end of [min f_0, max f_0] from 1, up to the rounding terms;
        # a vertex joined to all others puts min f_0 farther from 1
        n = 250
        g = sample_graph(W0 if model == "base" else MATCHED, n, seed=3)
        if model == "hub":
            adj = g.adjacency.copy()
            adj[0, 1:] = adj[1:, 0] = 1
            g = SampledGraph(adj, source="fixture")
        pi = _stationary(g)
        h, bound, steps = fast_linear_embedding(g, 34, 1.0)
        f0 = 1 / (n * pi)
        assert steps == 0
        assert bound == pytest.approx(pi.max() * max(f0.max() - 1, 1 - f0.min()), rel=1e-5)

    def test_bipartite_falls_back_to_float64_after_one_walk(self, monkeypatch):
        n, depth = 60, 25
        g = _bipartite(20, 40, 7)
        runs = _walk_spy(monkeypatch)
        # pi's bound stays about pi_max / 3 at every step
        h, bound, steps = fast_linear_embedding(g, depth, 1e-3 / n)
        assert steps == depth and bound is None
        assert h.tobytes() == fast_linear_embedding(g, depth).tobytes()
        assert len(runs) == 1

    @pytest.mark.parametrize("n", [40, 250, 1000])
    @pytest.mark.parametrize("deep", [True, False])
    def test_k_step_result_within_the_bound(self, n, deep):
        # at depth 2 the walk is far from pi: at eps = delta/(4n) no
        # certificate closes, and at 10/n the bound must cover the gap
        depth = math.ceil(6 * math.log(n)) if deep else 2
        rel64 = math.expm1(depth * (n + 2) * math.log1p(2.0**-53))
        for i in range(3):
            g = sample_graph(W0, n, seed=derive_seed(32, i))
            h64 = _float64_walk(g, depth)
            bound64 = rel64 / (1 - rel64) * h64.max()
            for eps in ((1 / 14) / (4 * n), 10 / n):
                for kind in ("identity", "relu", "selu", "tanh", "swish"):
                    cfg = GCNConfig(depth, kind)
                    h, bound, steps = graph_embedding(g, cfg, testing.F32_ERROR_SHARE * eps)
                    if not deep and eps < 1 / n:
                        assert bound is None and steps == depth
                    if bound is None:
                        assert h.tobytes() == graph_embedding(g, cfg).tobytes()
                        continue
                    # the K-layer embedding lies in [lo, hi] times the walk
                    lo, hi = gcn._bracket(cfg.activation, int(g.degrees().min()), depth)
                    for c in (lo, hi):
                        assert (np.abs(h - c * h64) <= bound + c * bound64).all()
                    if kind in ("tanh", "swish") and n <= 250:
                        assert (np.abs(h - _dense(g, cfg)) <= bound).all()

    def test_n2000_is_certified_without_a_fallback(self):
        n = 2000
        depth = math.ceil(6 * math.log(n))
        g = sample_graph(W0, n, seed=derive_seed(32, n))
        limit = testing.F32_ERROR_SHARE * (1 / 14) / (4 * n)  # eps = delta/(4n)
        h, bound, steps = fast_linear_embedding(g, depth, limit)
        assert bound <= limit and steps < depth
        assert h.tobytes() == _stationary(g).tobytes()
        h64 = fast_linear_embedding(g, depth)
        rel64 = math.expm1(depth * (n + 2) * math.log1p(2.0**-53))
        assert (np.abs(h - h64) <= bound + rel64 / (1 - rel64) * h64.max()).all()


class TestPerturb:
    def test_infinity_ball(self):
        h = np.linspace(0, 1, 50)
        for i in range(10):
            out = perturb(h, 0.01, seed=derive_seed(2, i))
            assert np.abs(out - h).max() <= 0.01

    def test_deterministic(self):
        h = np.zeros(10)
        np.testing.assert_array_equal(perturb(h, 0.5, seed=7), perturb(h, 0.5, seed=7))

    def test_small_eps_limit(self):
        h = np.ones(20)
        out = perturb(h, 1e-12, seed=1)
        np.testing.assert_allclose(out, h, atol=1e-11)

    def test_requires_positive_eps(self):
        with pytest.raises(InvalidModel):
            perturb(np.ones(3), 0.0, seed=1)

    def test_mean_concentrates_at_zero(self):
        # mean of 1e5 uniforms on [-eps, eps]: sd = eps/sqrt(3e5)
        eps = 0.2
        noise = perturb(np.zeros(100_000), eps, seed=12345)
        bound = 3.0 * eps / np.sqrt(3.0 * 100_000)
        assert abs(noise.mean()) <= bound


class TestLinearizationGap:
    def test_identity_activation_zero_gap(self):
        g = sample_graph(SBM_BASE.to_step_graphon(), 40, seed=2)
        gap, bound = linearization_gap(g, GCNConfig(depth=5))
        assert gap == 0.0
        assert bound >= 0.0

    def test_tanh_gap_within_bound(self):
        g = sample_graph(SBM_BASE.to_step_graphon(), 200, seed=6)
        cfg = GCNConfig(depth=10, activation=Activation("tanh"))
        gap, bound = linearization_gap(g, cfg)
        assert 0.0 < gap <= bound

    def test_gap_shrinks_with_n(self):
        gaps = []
        for n in (100, 200, 400):
            g = sample_graph(SBM_BASE.to_step_graphon(), n, seed=77)
            cfg = GCNConfig(depth=8, activation=Activation("tanh"))
            gaps.append(linearization_gap(g, cfg)[0])
        assert gaps[0] > gaps[1] > gaps[2]

    def test_rejects_non_smooth_activation(self):
        g = path_graph(3)
        with pytest.raises(InvalidModel):
            linearization_gap(g, GCNConfig(depth=1, activation=Activation("relu")))

    def test_rejects_swish_slope_mismatch(self):
        g = path_graph(3)
        with pytest.raises(InvalidModel):
            linearization_gap(g, GCNConfig(depth=1, activation=Activation("swish")))

    # tracemalloc's peak at n = 400, in n x n float64 arrays: A_hat and each
    # pass's M and buffer, plus isfinite's bool mask (1/8)
    def test_peak_memory(self):
        n = 400
        g = sample_graph(SBM_BASE.to_step_graphon(), n, seed=4)
        tracemalloc.start()
        try:
            linearization_gap(g, GCNConfig(depth=5, activation="tanh"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.25 * n * n * 8

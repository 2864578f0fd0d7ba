import tracemalloc

import numpy as np
import pytest

from graphonlab import (
    Disconnected,
    GraphTooLarge,
    InvalidModel,
    IsolatedVertex,
    NotMixed,
    RWChain,
    SampledGraph,
    StepGraphon,
    bottleneck_ratio,
    cheeger_check,
    mixing_time,
    power_limit_gap,
    rw_transition_matrix,
    sample_graph,
    spectral_gap,
    stationary,
)
from graphonlab.seeding import derive_seed
from graphonlab.spectral import _TV_BLOCK, worst_row_tv

from helpers import (
    SBM_BASE,
    barbell_graph,
    complete_graph,
    cycle_graph,
    graph_from_edges,
    path_graph,
    star_graph,
)


def enumerate_walk_distribution(adj, start, t):
    """Oracle: exact t-step distribution by explicit path enumeration."""
    n = adj.shape[0]
    deg = adj.sum(axis=1)
    dist = {(start,): 1.0}
    for _ in range(t):
        new = {}
        for path, p in dist.items():
            v = path[-1]
            for w in range(n):
                if adj[v, w]:
                    new_path = path + (w,)
                    new[new_path] = new.get(new_path, 0.0) + p / deg[v]
        dist = new
    out = np.zeros(n)
    for path, p in dist.items():
        out[path[-1]] += p
    return out


def power_iteration_second_eigenvalue(chain, iters=4000):
    """Oracle: dominant |eigenvalue| of the deflated symmetric conjugate."""
    s = np.sqrt(chain.pi)
    S = (s[:, None] * chain.P) / s[None, :]
    S = (S + S.T) / 2.0
    u = s / np.linalg.norm(s)
    B = S - np.outer(u, u)
    rng = np.random.default_rng(0)
    v = rng.normal(size=chain.n)
    v -= (v @ u) * u
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = B @ v
        norm = np.linalg.norm(w)
        if norm < 1e-14:
            return 0.0
        v = w / norm
        lam = float(v @ (B @ v))
    return abs(lam)


class TestRWMatrix:
    def test_complete_graph(self):
        P = rw_transition_matrix(complete_graph(4))
        expected = (np.ones((4, 4)) - np.eye(4)) / 3.0
        np.testing.assert_allclose(P, expected)

    def test_path_three(self):
        P = rw_transition_matrix(path_graph(3))
        np.testing.assert_allclose(
            P, [[0, 1, 0], [0.5, 0, 0.5], [0, 1, 0]]
        )

    def test_isolated_vertex(self):
        adj = np.zeros((3, 3), dtype=np.uint8)
        adj[0, 1] = adj[1, 0] = 1
        with pytest.raises(IsolatedVertex) as err:
            rw_transition_matrix(SampledGraph(adj))
        assert err.value.vertex == 2

    def test_rows_sum_to_one(self):
        g = sample_graph(SBM_BASE.to_step_graphon(), 60, seed=2)
        P = rw_transition_matrix(g)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("n", [10, 60, 301])
    def test_bit_identical_to_float_division(self, n):
        g = sample_graph(SBM_BASE.to_step_graphon(), n, seed=n)
        for graph in (g, star_graph(5), path_graph(4)):
            deg = graph.degrees()
            expected = graph.adjacency.astype(float) / deg[:, None]
            assert np.array_equal(rw_transition_matrix(graph), expected)


class TestStationary:
    def test_complete_uniform(self):
        np.testing.assert_allclose(stationary(complete_graph(4)), [0.25] * 4)

    def test_path_three(self):
        np.testing.assert_allclose(stationary(path_graph(3)), [0.25, 0.5, 0.25])

    def test_star(self):
        np.testing.assert_allclose(
            stationary(star_graph(3)), [0.5, 1 / 6, 1 / 6, 1 / 6]
        )

    def test_disconnected(self):
        adj = np.zeros((4, 4), dtype=np.uint8)
        adj[0, 1] = adj[1, 0] = 1
        adj[2, 3] = adj[3, 2] = 1
        with pytest.raises(Disconnected):
            stationary(SampledGraph(adj))

    def test_fixed_point_on_samples(self):
        for i in range(8):
            g = sample_graph(SBM_BASE.to_step_graphon(), 50, seed=derive_seed(4, i))
            chain = RWChain.from_graph(g)
            np.testing.assert_allclose(chain.pi @ chain.P, chain.pi, atol=1e-10)


class TestMixingTime:
    def test_complete_graph_one_step(self):
        chain = RWChain.from_graph(complete_graph(4))
        report = mixing_time(chain, 0.3, 50)
        # one step lands at distance 1/n from uniform
        assert report.t_mix == 1

    def test_single_edge_never_mixes(self):
        chain = RWChain.from_graph(path_graph(2))
        with pytest.raises(NotMixed) as err:
            mixing_time(chain, 0.1, 30)
        assert err.value.t_max == 30
        assert len(err.value.trace) == 31

    def test_eps_at_least_one_gives_zero(self):
        chain = RWChain.from_graph(complete_graph(5))
        assert mixing_time(chain, 1.0, 10).t_mix == 0

    def test_sbm_sample_mixes_logarithmically(self):
        n = 300
        slopes = []
        for i in range(5):
            g = sample_graph(SBM_BASE.to_step_graphon(), n, seed=derive_seed(6, i))
            chain = RWChain.from_graph(g)
            report = mixing_time(chain, 1.0 / n**2, 200)
            slopes.append(report.fitted_slope)
        assert np.median(slopes) <= 6.0

    def test_monotone_in_eps(self):
        g = sample_graph(SBM_BASE.to_step_graphon(), 100, seed=21)
        chain = RWChain.from_graph(g)
        previous = None
        for eps in (0.2, 0.05, 0.01, 1e-4):
            t = mixing_time(chain, eps, 200).t_mix
            if previous is not None:
                assert t >= previous
            previous = t

    def test_trace_is_nonincreasing_for_lazy(self):
        g = sample_graph(SBM_BASE.to_step_graphon(), 60, seed=33)
        chain = RWChain.from_graph(g).lazy()
        report = mixing_time(chain, 1e-6, 300)
        tvs = [tv for _, tv in report.worst_row_tv_trace]
        assert all(b <= a + 1e-12 for a, b in zip(tvs, tvs[1:]))


class TestPowerLimitGap:
    def test_complete_graph_geometric_decay(self):
        chain = RWChain.from_graph(complete_graph(4))
        # eigenvalue -1/3: gap decays like 3^{-t}, prefactor 3/4 at t=1
        for t in (1, 3, 5):
            gap = power_limit_gap(chain, t)
            assert gap == pytest.approx(0.75 * (1.0 / 3.0) ** t, rel=1e-9)

    def test_t_zero_formula(self):
        g = star_graph(3)
        chain = RWChain.from_graph(g)
        assert power_limit_gap(chain, 0) == pytest.approx(1.0 - chain.pi.min())

    def test_matches_path_enumeration(self):
        for g in (path_graph(3), cycle_graph(5), star_graph(3)):
            chain = RWChain.from_graph(g)
            for t in (2, 3):
                expected = max(
                    np.abs(enumerate_walk_distribution(g.adjacency, v, t) - chain.pi).max()
                    for v in range(g.n)
                )
                assert power_limit_gap(chain, t) == pytest.approx(expected, abs=1e-12)

    def test_negative_t_refused(self):
        with pytest.raises(InvalidModel):
            power_limit_gap(RWChain.from_graph(star_graph(3)), -1)

    def test_gap_bound_at_mixing_time(self):
        # at t = t_mix(eps) the limit gap is at most 2 eps
        rng = np.random.default_rng(64)
        for _ in range(6):
            n = int(rng.integers(20, 60))
            g = sample_graph(SBM_BASE.to_step_graphon(), n, seed=int(rng.integers(1 << 30)))
            chain = RWChain.from_graph(g)
            for eps in (0.1, 0.01):
                report = mixing_time(chain, eps, 300)
                assert power_limit_gap(chain, report.t_mix) <= 2 * eps + 1e-12

    def test_nonincreasing_in_t_for_lazy(self):
        g = sample_graph(SBM_BASE.to_step_graphon(), 40, seed=17)
        chain = RWChain.from_graph(g).lazy()
        gaps = [power_limit_gap(chain, t) for t in range(0, 12)]
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))


class TestBottleneck:
    def test_complete_four(self):
        assert bottleneck_ratio(complete_graph(4)) == pytest.approx(2 / 3)

    def test_barbell(self):
        assert bottleneck_ratio(barbell_graph()) == pytest.approx(1 / 13)

    def test_complete_six_closed_form(self):
        # half the vertices: boundary (n/2)^2, volume (n/2)(n-1)
        assert bottleneck_ratio(complete_graph(6)) == pytest.approx(9 / 15)

    def test_cycle_four(self):
        assert bottleneck_ratio(cycle_graph(4)) == pytest.approx(0.5)

    def test_disconnected_error(self):
        adj = np.zeros((4, 4), dtype=np.uint8)
        adj[0, 1] = adj[1, 0] = 1
        adj[2, 3] = adj[3, 2] = 1
        with pytest.raises(Disconnected):
            bottleneck_ratio(SampledGraph(adj))

    def test_too_large(self):
        with pytest.raises(GraphTooLarge, match="n <= 20"):
            bottleneck_ratio(complete_graph(21))

    def test_exhaustive_matches_slow_reference(self):
        import itertools

        rng = np.random.default_rng(8)
        for _ in range(5):
            n = 8
            a = (rng.random((n, n)) < 0.5).astype(np.uint8)
            a = np.triu(a, 1)
            a = a + a.T
            g = SampledGraph(a)
            from graphonlab.spectral import is_connected

            if not is_connected(g):
                continue
            deg = g.degrees()
            best = np.inf
            for r in range(1, n):
                for subset in itertools.combinations(range(n), r):
                    mask = np.zeros(n, dtype=bool)
                    mask[list(subset)] = True
                    vol = deg[mask].sum()
                    if vol == 0 or vol > deg.sum() / 2:
                        continue
                    inside = a[np.ix_(mask, mask)].sum()
                    best = min(best, (vol - inside) / vol)
            assert bottleneck_ratio(g) == pytest.approx(best)


class TestSpectralGap:
    def test_complete_four(self):
        chain = RWChain.from_graph(complete_graph(4))
        assert spectral_gap(chain) == pytest.approx(2 / 3)

    def test_single_edge_periodic(self):
        chain = RWChain.from_graph(path_graph(2))
        assert spectral_gap(chain) == pytest.approx(0.0, abs=1e-12)

    def test_matches_power_iteration(self):
        g = sample_graph(SBM_BASE.to_step_graphon(), 70, seed=12)
        chain = RWChain.from_graph(g)
        lam = power_iteration_second_eigenvalue(chain)
        assert spectral_gap(chain) == pytest.approx(1.0 - lam, abs=1e-6)

    def test_lazy_shifts_spectrum(self):
        chain = RWChain.from_graph(cycle_graph(4))
        assert spectral_gap(chain) == pytest.approx(0.0, abs=1e-12)
        assert spectral_gap(chain.lazy()) == pytest.approx(0.5)


class TestCheeger:
    def test_complete_four(self):
        report = cheeger_check(complete_graph(4))
        assert report.phi == pytest.approx(2 / 3)
        assert report.gap == pytest.approx(2 / 3)
        assert report.holds

    def test_barbell(self):
        report = cheeger_check(barbell_graph())
        assert report.phi == pytest.approx(1 / 13)
        assert report.holds

    def test_cycle_four_lazy_hand_computation(self):
        report = cheeger_check(cycle_graph(4), lazy=True)
        assert report.phi == pytest.approx(0.25)
        assert report.gap == pytest.approx(0.5)
        assert report.upper == pytest.approx(0.5)
        assert report.holds

    def test_cycle_six_lazy(self):
        report = cheeger_check(cycle_graph(6), lazy=True)
        assert report.phi == pytest.approx(1 / 6)
        assert report.gap == pytest.approx(0.25)
        assert report.holds

    def test_sandwich_is_about_one_minus_lambda_two(self):
        # K_{3,3} plus an edge inside one side: not bipartite, but lambda_n is
        # near -1, so the absolute gap falls below phi^2/2 while the sandwich
        # holds for gamma = 1 - lambda_2
        edges = [(i, j) for i in range(3) for j in range(3, 6)] + [(0, 1)]
        report = cheeger_check(graph_from_edges(6, edges))
        assert report.phi == pytest.approx(5 / 9)
        assert report.gap == pytest.approx(0.1517576378, abs=1e-9)
        assert report.gap < report.lower
        assert report.gamma == pytest.approx(0.9017576378, abs=1e-9)
        assert report.holds

    def test_too_large(self):
        g = sample_graph(SBM_BASE.to_step_graphon(), 30, seed=3)
        with pytest.raises(GraphTooLarge):
            cheeger_check(g)

    def test_sandwich_on_random_samples(self):
        # bipartite samples (possible at tiny n) are checked on their lazy
        # chain, mirroring the C6 fixture; everything else runs as-is
        from graphonlab.spectral import is_bipartite, is_connected

        rng = np.random.default_rng(2718)
        count = 0
        while count < 30:
            n = int(rng.integers(5, 13))
            w = StepGraphon([0.5, 0.5], np.array([[0.7, 0.35], [0.35, 0.6]]))
            g = sample_graph(w, n, seed=int(rng.integers(1 << 30)))
            if not is_connected(g):
                continue
            count += 1
            report = cheeger_check(g, lazy=is_bipartite(g))
            assert report.holds


class TestRWChainValidation:
    @pytest.mark.parametrize(
        "P, pi",
        [
            (np.full((2, 2), np.nan), [0.5, 0.5]),
            ([[0.5, 0.5], [0.5, 0.5]], [np.nan, 0.5]),
            ([[np.inf, 0.5], [0.5, 0.5]], [0.5, 0.5]),
        ],
        ids=["nan_in_P", "nan_in_pi", "inf_in_P"],
    )
    def test_rejects_non_finite(self, P, pi):
        with pytest.raises(InvalidModel, match="finite"):
            RWChain(np.array(P), np.array(pi))

    def test_rejects_negative_entries(self):
        # rows sum to 1 and pi is a fixed point, but P is not stochastic
        with pytest.raises(InvalidModel, match="nonnegative"):
            RWChain(np.array([[2.0, -1.0], [-1.0, 2.0]]), np.array([0.5, 0.5]))

    def test_rejects_bad_rows(self):
        with pytest.raises(InvalidModel):
            RWChain(np.array([[0.5, 0.4], [0.5, 0.5]]), np.array([0.5, 0.5]))

    def test_rejects_non_fixed_point(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(InvalidModel):
            RWChain(P, np.array([0.9, 0.1]))


# The walk kernels before they moved to a fixed working set, kept verbatim as
# the oracle: the buffered versions must reproduce them bit for bit.
def reference_worst_row_tv(Pt, pi):
    return float(0.5 * np.abs(Pt - pi).sum(axis=1).max())


def reference_mixing_trace(chain, eps, t_max):
    """(t_hit or None, trace) from the fresh-array P^t loop, I @ P included."""
    P = chain.P
    pi = chain.pi
    Pt = np.eye(chain.n)
    trace = []
    t_hit = None
    for t in range(t_max + 1):
        tv = reference_worst_row_tv(Pt, pi)
        trace.append((t, tv))
        if tv <= eps:
            t_hit = t
            break
        if t < t_max:
            Pt = Pt @ P
    return t_hit, trace


def reference_spectral_gap(chain, eigvalsh=np.linalg.eigvalsh):
    s = np.sqrt(chain.pi)
    S = (s[:, None] * chain.P) / s[None, :]
    if np.abs(S - S.T).max() > 1e-8:
        raise InvalidModel("chain is not reversible; symmetric conjugate failed")
    S = (S + S.T) / 2.0
    vals = eigvalsh(S)
    if vals.size < 2:
        return 1.0
    return float(max(0.0, 1.0 - np.abs(vals[:-1]).max()))


def sbm_chain(n, seed):
    return RWChain.from_graph(sample_graph(SBM_BASE.to_step_graphon(), n, seed=seed))


class TestWalkKernelsMatchReference:
    def assert_mixing_matches(self, chain, eps, t_max):
        t_hit, trace = reference_mixing_trace(chain, eps, t_max)
        report = mixing_time(chain, eps, t_max)
        assert report.t_mix == t_hit
        assert report.worst_row_tv_trace == tuple(trace)
        assert report.gap == reference_spectral_gap(chain)

    @pytest.mark.parametrize("n", [30, 57, 300])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_sbm_mixing_bit_identical(self, n, seed):
        self.assert_mixing_matches(sbm_chain(n, seed), 1.0 / n**2, 300)

    def test_lazy_mixing_bit_identical(self):
        self.assert_mixing_matches(sbm_chain(60, 33).lazy(), 1e-6, 300)

    def test_complete_graph_mixing_bit_identical(self):
        self.assert_mixing_matches(RWChain.from_graph(complete_graph(6)), 0.01, 50)

    def test_not_mixed_trace_bit_identical(self):
        chain = RWChain.from_graph(path_graph(2))
        t_hit, trace = reference_mixing_trace(chain, 0.1, 30)
        assert t_hit is None
        with pytest.raises(NotMixed) as err:
            mixing_time(chain, 0.1, 30)
        assert err.value.trace == trace

    def test_spectral_gap_keeps_reversibility_check(self):
        # directed 3-cycle: uniform pi is a fixed point, but not reversible
        P = np.roll(np.eye(3), 1, axis=1)
        chain = RWChain(P, np.full(3, 1 / 3))
        with pytest.raises(InvalidModel, match="reversible"):
            spectral_gap(chain)

    @pytest.mark.parametrize("lazy", [False, True])
    @pytest.mark.parametrize("n", [57, 300])
    def test_spectral_gap_matches_scipy_eigh(self, n, lazy):
        from scipy.linalg import eigh

        chain = sbm_chain(n, 4)
        if lazy:
            chain = chain.lazy()
        expected = reference_spectral_gap(
            chain, lambda S: eigh(S, eigvals_only=True)
        )
        assert abs(spectral_gap(chain) - expected) <= 1e-12

    @pytest.mark.parametrize(
        "shape",
        [
            (1, 1),
            (5, 7),
            (_TV_BLOCK // 300, 300),
            (_TV_BLOCK // 300 + 1, 300),
            (3, 70_000),
        ],
        ids=["1x1", "5x7", "one-block", "block-plus-row", "wider-than-block"],
    )
    def test_worst_row_tv_bit_identical(self, shape):
        rng = np.random.default_rng(shape[0] * 100_003 + shape[1])
        Pt = rng.random(shape)
        Pt[-1] += 1.0  # the worst row sits in the last, possibly partial, block
        pi = rng.random(shape[1])
        assert worst_row_tv(Pt, pi) == reference_worst_row_tv(Pt, pi)


class TestWalkKernelMemory:
    """Peak traced allocation stays within the documented working sets."""

    n = 300

    def peak_over_n2(self, fn):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - base) / (self.n * self.n * 8)

    def test_mixing_time_peak(self):
        chain = sbm_chain(self.n, 3)
        eps = 1.0 / self.n**2
        assert self.peak_over_n2(lambda: mixing_time(chain, eps, 300)) <= 3.0

    def test_spectral_gap_peak(self):
        chain = sbm_chain(self.n, 3)
        assert self.peak_over_n2(lambda: spectral_gap(chain)) <= 2.25

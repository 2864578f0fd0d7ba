import hashlib
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from graphonlab import (
    EmptyGraph,
    EmptyInput,
    GraphTooLarge,
    InvalidModel,
    ParseError,
    SampledGraph,
    StepGraphon,
    empirical_degree_profile,
    load_edge_list,
    sample_coupled,
    sample_graph,
)
from graphonlab import sampling
from graphonlab.graphon import MIN_DENSITY, block_index
from graphonlab.sampling import (
    _STREAM_EDGES_0,
    _STREAM_EDGES_1,
    _positions_and_blocks,
)
from graphonlab.seeding import derive_seed, make_rng, splitmix64

from helpers import (
    SBM_BASE,
    SBM_SEPARATED,
    complete_graph,
    path_graph,
    save_edge_list,
    star_graph,
)

THREE_BLOCK = StepGraphon(
    [0.15, 0.6, 0.25],
    [[0.9, 0.1, 0.45], [0.1, 0.3, 0.7], [0.45, 0.7, 0.05]],
)
# the extreme densities a StepGraphon allows: MIN_DENSITY, whose limit
# ceil(p 2^32) = 4,295 passes few uniforms, and 1, which every uniform passes
EXTREMES = np.array([[1.0, MIN_DENSITY, 0.5], [MIN_DENSITY, 1.0, 0.25],
                     [0.5, 0.25, MIN_DENSITY]])


# Reference oracle: per-row loops over the edge stream as defined. Output
# word w of a key's Philox gives the uniforms w mod 2^32, then w >> 32; the
# pairs take them in row-major upper-triangle order, and {i, j} is an edge iff
# u < ceil(p 2^32), compared in int64. The sampler's one row-range filler must
# reproduce them bit for bit, over any split of the rows.
def reference_uniforms(key, count):
    words = make_rng(key).bit_generator.random_raw(-(-count // 2))
    halves = np.stack([words % 2**32, words >> 32], axis=1)
    return halves.ravel()[:count].astype(np.int64)


def reference_limits(densities):
    return np.ceil(np.asarray(densities) * 2.0**32).astype(np.int64)


def _reference_fill_edges(adj, blocks, densities, key):
    n = adj.shape[0]
    u = reference_uniforms(key, n * (n - 1) // 2)
    limit = reference_limits(densities)
    first = 0
    for i in range(n - 1):
        row = u[first : first + n - 1 - i]
        adj[i, i + 1 :] = row < limit[blocks[i], blocks[i + 1 :]]
        first += n - 1 - i
    adj |= adj.T


def reference_sample_graph(w, n, seed):
    x, blocks = _positions_and_blocks(w, n, seed)
    adj = np.zeros((n, n), dtype=np.uint8)
    _reference_fill_edges(adj, blocks, w.densities, derive_seed(seed, _STREAM_EDGES_0))
    return adj


def reference_sample_coupled(w0, w1, n, seed, share_edge_randomness):
    x, blocks0 = _positions_and_blocks(w0, n, seed)
    blocks1 = block_index(w1.block_weights, x)
    a0 = np.zeros((n, n), dtype=np.uint8)
    a1 = np.zeros((n, n), dtype=np.uint8)
    key0 = derive_seed(seed, _STREAM_EDGES_0)
    if share_edge_randomness:
        u = reference_uniforms(key0, n * (n - 1) // 2)
        limit0, limit1 = reference_limits(w0.densities), reference_limits(w1.densities)
        first = 0
        for i in range(n - 1):
            row = u[first : first + n - 1 - i]
            a0[i, i + 1 :] = row < limit0[blocks0[i], blocks0[i + 1 :]]
            a1[i, i + 1 :] = row < limit1[blocks1[i], blocks1[i + 1 :]]
            first += n - 1 - i
        a0 |= a0.T
        a1 |= a1.T
    else:
        _reference_fill_edges(a0, blocks0, w0.densities, key0)
        _reference_fill_edges(a1, blocks1, w1.densities, derive_seed(seed, _STREAM_EDGES_1))
    return a0, a1


def pair_jobs(w0, w1, n, seed, share_edge_randomness):
    """The (key, blocks, densities) fill jobs of a coupled pair's two graphs."""
    x, blocks0 = _positions_and_blocks(w0, n, seed)
    blocks1 = block_index(w1.block_weights, x)
    stream1 = _STREAM_EDGES_0 if share_edge_randomness else _STREAM_EDGES_1
    return [(derive_seed(seed, _STREAM_EDGES_0), blocks0, w0.densities),
            (derive_seed(seed, stream1), blocks1, w1.densities)]


class TestSampleGraph:
    def test_all_one_graphon_gives_complete_graph(self):
        g = sample_graph(StepGraphon([1.0], [[1.0]]), 12, seed=3)
        expected = complete_graph(12)
        assert np.array_equal(g.adjacency, expected.adjacency)

    def test_deterministic_given_seed(self):
        w = SBM_BASE.to_step_graphon()
        g1 = sample_graph(w, 60, seed=99)
        g2 = sample_graph(w, 60, seed=99)
        assert np.array_equal(g1.adjacency, g2.adjacency)
        assert np.array_equal(g1.latent_positions, g2.latent_positions)

    def test_different_seeds_differ(self):
        w = SBM_BASE.to_step_graphon()
        g1 = sample_graph(w, 60, seed=1)
        g2 = sample_graph(w, 60, seed=2)
        assert not np.array_equal(g1.adjacency, g2.adjacency)

    def test_within_block_density_concentrates(self):
        # block-1 pairs are Bernoulli(.6); at n=1000 roughly 124750 of them,
        # so the empirical density lands within .01 of .6 except with
        # probability < 1e-10 (Hoeffding); a fixed seed keeps this exact.
        w = SBM_BASE.to_step_graphon()
        g = sample_graph(w, 1000, seed=2718)
        in_block1 = g.latent_positions < 0.5
        sub = g.adjacency[np.ix_(in_block1, in_block1)]
        k = int(in_block1.sum())
        density = sub.sum() / (k * (k - 1))
        assert abs(density - 0.6) < 0.01

    def test_structural_invariants(self):
        w = SBM_BASE.to_step_graphon()
        g = sample_graph(w, 80, seed=5)
        assert np.array_equal(g.adjacency, g.adjacency.T)
        assert not np.diagonal(g.adjacency).any()
        assert g.latent_positions.min() >= 0 and g.latent_positions.max() < 1

    def test_sorted_degree_exchangeability_proxy(self):
        # two disjoint seed groups: mean sorted degree profiles must agree
        # within a few standard errors of the per-coordinate spread
        w = SBM_BASE.to_step_graphon()
        n, m = 120, 30
        group0 = np.array(
            [np.sort(sample_graph(w, n, seed=derive_seed(10, i)).degrees()) for i in range(m)],
            dtype=float,
        )
        group1 = np.array(
            [np.sort(sample_graph(w, n, seed=derive_seed(20, i)).degrees()) for i in range(m)],
            dtype=float,
        )
        diff = np.abs(group0.mean(0) - group1.mean(0))
        pooled_se = np.sqrt(group0.var(0) / m + group1.var(0) / m) + 1e-9
        assert (diff <= 6.0 * pooled_se + 1.0).all()


class TestSampleCoupled:
    def test_positions_identical(self):
        w = SBM_BASE.to_step_graphon()
        pair = sample_coupled(w, w, 50, seed=8)
        assert pair.g0.latent_positions is pair.g1.latent_positions or np.array_equal(
            pair.g0.latent_positions, pair.g1.latent_positions
        )

    def test_shared_randomness_same_model_gives_identical_graphs(self):
        w = SBM_BASE.to_step_graphon()
        pair = sample_coupled(w, w, 50, seed=8, share_edge_randomness=True)
        assert np.array_equal(pair.g0.adjacency, pair.g1.adjacency)

    def test_independent_edges_same_model_differ(self):
        w = SBM_BASE.to_step_graphon()
        pair = sample_coupled(w, w, 50, seed=8)
        assert not np.array_equal(pair.g0.adjacency, pair.g1.adjacency)

    def test_marginals_match_plain_sampling_in_distribution(self):
        # two-sample check on sorted degree profiles: coupled marginal vs
        # direct sampler, same graphon
        w = SBM_BASE.to_step_graphon()
        n, m = 100, 30
        direct = np.array(
            [np.sort(sample_graph(w, n, seed=derive_seed(1, i)).degrees()) for i in range(m)],
            dtype=float,
        )
        coupled = np.array(
            [
                np.sort(
                    sample_coupled(w, w, n, seed=derive_seed(2, i)).g1.degrees()
                )
                for i in range(m)
            ],
            dtype=float,
        )
        diff = np.abs(direct.mean(0) - coupled.mean(0))
        pooled_se = np.sqrt(direct.var(0) / m + coupled.var(0) / m) + 1e-9
        assert (diff <= 6.0 * pooled_se + 1.0).all()

    def test_mismatched_partitions_use_own_blocks(self):
        w0 = StepGraphon([0.3, 0.7], [[0.9, 0.2], [0.2, 0.6]])
        w1 = StepGraphon([1.0], [[0.5]])
        pair = sample_coupled(w0, w1, 300, seed=4)
        x = pair.g0.latent_positions
        block2 = x >= 0.3
        k = int(block2.sum())
        within = pair.g1.adjacency[np.ix_(block2, block2)].sum() / (k * (k - 1))
        # the constant graphon must not inherit w0's block structure
        assert abs(within - 0.5) < 0.05

    def test_family_pair_profiles_close(self):
        from graphonlab import FamilySpec, family_generate

        w0 = SBM_BASE.to_step_graphon()
        w1 = family_generate(FamilySpec(SBM_BASE, 0.05)).to_step_graphon()
        n = 1000
        gaps = []
        for i in range(5):
            pair = sample_coupled(w0, w1, n, seed=derive_seed(3, i))
            p0 = empirical_degree_profile(pair.g0)
            p1 = empirical_degree_profile(pair.g1)
            gaps.append(np.abs(p0 - p1).max())
        # sorted normalized profiles agree to O(n^{-3/2}) up to logs
        assert np.median(gaps) <= 10.0 / n**1.5


PAIRS = {
    "readme": (SBM_BASE.to_step_graphon(), SBM_SEPARATED.to_step_graphon()),
    "three_block": (SBM_BASE.to_step_graphon(), THREE_BLOCK),
}


def block_sizes(n):
    """``_BLOCK`` values to patch in: the default; 1 and n +- 1 uniforms,
    which the filler rounds up to blocks of 4 rows; 2 and 5 rows, rounded up
    to 4 and 8, which end exactly at the triangle or leave a partial last
    block depending on n; n - 2 rows, rounded up to a multiple of 4; and the
    whole triangle in one block."""
    return [sampling._BLOCK, 1, n - 1, n, n + 1, 3 * n // 2, 2 * n, 5 * n,
            (n - 2) * n, (n - 1) * n]


class TestSamplerMatchesReference:
    @pytest.mark.parametrize("n", [2, 3, 57, 300])
    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_bit_identical_to_reference_loops(self, monkeypatch, pair, n):
        w0, w1 = PAIRS[pair]
        seeds = (0, 1, 17, 2**40 + 5)
        single = {(i, seed): reference_sample_graph(w, n, seed)
                  for i, w in enumerate((w0, w1)) for seed in seeds}
        coupled = {(share, seed): reference_sample_coupled(w0, w1, n, seed, share)
                   for share in (False, True) for seed in seeds}
        with ThreadPoolExecutor(max_workers=1) as pool:
            for block in block_sizes(n):
                monkeypatch.setattr(sampling, "_BLOCK", block)
                for (i, seed), expected in single.items():
                    got = sample_graph((w0, w1)[i], n, seed).adjacency
                    assert np.array_equal(got, expected), f"_BLOCK = {block}"
                for (share, seed), (e0, e1) in coupled.items():
                    for p in (None, pool):
                        got = sample_coupled(w0, w1, n, seed, share_edge_randomness=share,
                                             pool=p)
                        assert np.array_equal(got.g0.adjacency, e0), f"_BLOCK = {block}"
                        assert np.array_equal(got.g1.adjacency, e1), f"_BLOCK = {block}"

    @pytest.mark.parametrize("n", [2, 3, 57, 300])
    def test_exact_zero_and_one_densities(self, monkeypatch, n):
        # two partitions of the vertices, each filled from the same stream
        targets = [
            (np.arange(n) % 3, EXTREMES),
            (np.arange(n)[::-1] // 7 % 3, EXTREMES),
        ]
        expected = []
        for blocks, densities in targets:
            adj = np.zeros((n, n), dtype=np.uint8)
            _reference_fill_edges(adj, blocks, densities, 11)
            p = densities[blocks[:, None], blocks[None, :]]
            off_diagonal = ~np.eye(n, dtype=bool)
            assert adj[(p == 1) & off_diagonal].all()
            expected.append(adj)
        for block in block_sizes(n):
            monkeypatch.setattr(sampling, "_BLOCK", block)
            for (blocks, densities), e in zip(targets, expected):
                got = np.zeros((1, n, n), dtype=np.uint8)
                sampling._fill_rows(got, 0, n - 1, [(11, blocks, densities)])
                assert np.array_equal(got[0], e), f"_BLOCK = {block}"

    @pytest.mark.parametrize("n", [2, 3, 57, 300])
    def test_exact_thresholds(self, monkeypatch, n):
        # {i, j} is an edge iff u < ceil(p 2^32). Limits for densities
        # MIN_DENSITY, 2^-32, 1/2, 1 - 2^-33 (whose p 2^32 rounds up) and 1 are
        # 4,295, 1, 2^31, 2^32 and 2^32; a stream of chosen words sets each
        # pair's uniform two below to one above its limit, so every comparison
        # sits at its edge
        values = np.array([MIN_DENSITY, 2.0**-32, 0.5, 1 - 2.0**-33, 1.0])
        densities = values[np.add.outer(np.arange(5), np.arange(5)) % 5]
        blocks = np.arange(n) * 3 % 5
        i, j = np.triu_indices(n, 1)
        limit = reference_limits(densities)[blocks[i], blocks[j]]
        offset = np.random.default_rng(n).integers(-2, 2, size=limit.size)
        u = np.clip(limit + offset, 0, 2**32 - 1).astype(np.uint64)
        u = np.append(u, u[: u.size % 2])  # an odd count leaves a high half unread
        words = u[0::2] | u[1::2] << np.uint64(32)
        expected = np.zeros((n, n), dtype=np.uint8)
        expected[i, j] = expected[j, i] = u[: limit.size] < limit

        class Words:
            def __init__(self):
                self.at = 0

            def advance(self, steps):
                self.at += 4 * steps

            def random_raw(self, size):
                self.at += size
                return words[self.at - size : self.at].copy()

        monkeypatch.setattr(sampling, "make_rng",
                            lambda key: SimpleNamespace(bit_generator=Words()))
        jobs = [(11, blocks, densities)]
        for block in block_sizes(n):
            monkeypatch.setattr(sampling, "_BLOCK", block)
            splits = {0, 4, 8, n // 2 // 4 * 4, (n - 1) // 4 * 4} & set(range(n))
            for split in sorted(splits):
                got = np.zeros((1, n, n), dtype=np.uint8)
                sampling._fill_rows(got, split, n - 1, jobs)
                sampling._fill_rows(got, 0, split, jobs)
                assert got[0].tobytes() == expected.tobytes(), f"_BLOCK = {block}"

    @pytest.mark.parametrize("n", [2, 3, 57, 300, 1000])
    @pytest.mark.parametrize("share", [False, True])
    def test_row_ranges_give_the_reference_bytes(self, n, share):
        # a range starting at row s, a multiple of 4, reads each stream from
        # the even uniform s (2n - s - 1)/2, after discarding 0 to 3 words (its
        # half's residue mod 4): split points with every discard count, and
        # the middle and last rows rounded down to multiples of 4
        w0, w1 = PAIRS["three_block"]
        seed = 2**40 + 5
        e0, e1 = reference_sample_coupled(w0, w1, n, seed, share)
        jobs = pair_jobs(w0, w1, n, seed, share)
        first = {}
        for s in range(0, n, 4):
            first.setdefault(s * (2 * n - s - 1) // 4 % 4, s)
        if n >= 16:
            assert sorted(first) == [0, 1, 2, 3]
        for split in sorted({*first.values(), n // 2 // 4 * 4, (n - 1) // 4 * 4}):
            adj = np.zeros((2, n, n), dtype=np.uint8)
            sampling._fill_rows(adj, split, n - 1, jobs)  # the second range first
            sampling._fill_rows(adj, 0, split, jobs)
            assert adj[0].tobytes() == e0.tobytes(), f"split {split}"
            assert adj[1].tobytes() == e1.tobytes(), f"split {split}"
        with ThreadPoolExecutor(max_workers=1) as pool:
            for p in (None, pool):
                got = sample_coupled(w0, w1, n, seed, share_edge_randomness=share, pool=p)
                assert got.g0.adjacency.tobytes() == e0.tobytes()
                assert got.g1.adjacency.tobytes() == e1.tobytes()

    @pytest.mark.parametrize("start", [1, 2, 3])
    def test_range_refuses_a_start_off_a_word(self, start):
        # only a multiple of 4 puts every block on a word; at n = 40 rows 1
        # and 2 start on the high halves 39 and 77
        w0, w1 = PAIRS["three_block"]
        adj = np.zeros((2, 40, 40), dtype=np.uint8)
        with pytest.raises(ValueError, match="multiple of 4"):
            sampling._fill_rows(adj, start, 39, pair_jobs(w0, w1, 40, 3, False))

    @pytest.mark.parametrize("share", [False, True])
    def test_each_stream_is_drawn_once(self, monkeypatch, share):
        # a shared pair draws ceil(n(n - 1)/4) raw words, two uniforms each, an
        # independent one twice that; with a pool the second range also
        # discards the < 4 words of its stream's Philox block that precede its
        # first
        n, seed = 302, 9  # n(n - 1)/2 is odd
        edge_keys = {derive_seed(seed, _STREAM_EDGES_0), derive_seed(seed, _STREAM_EDGES_1)}
        drawn = []
        real = sampling.make_rng

        class Counted:
            def __init__(self, bits):
                self.bits = bits

            def advance(self, delta):
                self.bits.advance(delta)

            def random_raw(self, size):
                drawn.append(size)
                return self.bits.random_raw(size)

        def make_rng(key):
            rng = real(key)
            if key in edge_keys:
                return SimpleNamespace(bit_generator=Counted(rng.bit_generator))
            return rng

        monkeypatch.setattr(sampling, "make_rng", make_rng)
        w0, w1 = PAIRS["readme"]
        streams = 1 if share else 2
        words = -(-n * (n - 1) // 4)
        serial = sample_coupled(w0, w1, n, seed, share_edge_randomness=share)
        assert sum(drawn) == streams * words
        drawn.clear()
        with ThreadPoolExecutor(max_workers=1) as pool:
            pooled = sample_coupled(w0, w1, n, seed, share_edge_randomness=share, pool=pool)
        assert 0 <= sum(drawn) - streams * words <= 4 * streams
        assert pooled.g0.adjacency.tobytes() == serial.g0.adjacency.tobytes()
        assert pooled.g1.adjacency.tobytes() == serial.g1.adjacency.tobytes()

    @pytest.mark.parametrize(
        "model, n, seed, digest",
        [
            pytest.param(
                "readme", 300, 7,
                "f1120f7d8000291edf2ee596621494880534b8f9eae090015924beb7bfe4565b",
                id="readme-300-7"),
            pytest.param(
                "three_block", 257, 2024,
                "bb8a7a61083495d39b92a8e5d57bdb68c57ce415cfea0253037344c0844dedfa",
                id="three_block-257-2024"),
        ],
    )
    def test_golden_adjacency_sha256(self, model, n, seed, digest):
        # Philox words, integer halves and comparisons only, no BLAS: portable bytes
        w = SBM_BASE.to_step_graphon() if model == "readme" else THREE_BLOCK
        g = sample_graph(w, n, seed)
        assert hashlib.sha256(g.adjacency.tobytes()).hexdigest() == digest


class TestPooledSampler:
    @pytest.mark.parametrize("n", [2, 3, 50, 257])
    @pytest.mark.parametrize("share", [False, True])
    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_pool_equals_serial_and_reference(self, pair, share, n):
        w0, w1 = PAIRS[pair]
        with ThreadPoolExecutor(max_workers=1) as pool:
            for seed in (0, 17, 2**40 + 5):
                e0, e1 = reference_sample_coupled(w0, w1, n, seed, share)
                serial = sample_coupled(w0, w1, n, seed, share_edge_randomness=share)
                pooled = sample_coupled(
                    w0, w1, n, seed, share_edge_randomness=share, pool=pool
                )
                for got in (serial, pooled):
                    assert got.g0.adjacency.tobytes() == e0.tobytes()
                    assert got.g1.adjacency.tobytes() == e1.tobytes()
                    assert got.g1.seed == got.g0.seed == seed
                    assert np.array_equal(
                        got.g0.latent_positions, serial.g0.latent_positions
                    )

    def test_pool_splits_at_a_multiple_of_4_near_half(self, monkeypatch):
        # the split row is a multiple of 4 within 2 rows of the one that
        # halves the uniforms, and each of those rows holds < n - 1 of them
        ranges = []
        real = sampling._fill_rows

        def fill_rows(adj, start, stop, jobs):
            ranges.append((start, stop))
            real(adj, start, stop, jobs)

        monkeypatch.setattr(sampling, "_fill_rows", fill_rows)
        w0, w1 = PAIRS["three_block"]
        with ThreadPoolExecutor(max_workers=1) as pool:
            for n in (2, 3, 40, 57, 60, 300, 1000):
                ranges.clear()
                sample_coupled(w0, w1, n, 5, pool=pool)
                (zero, split), (again, stop) = sorted(ranges)
                assert (zero, again, stop) == (0, split, n - 1)
                assert split % 4 == 0, f"n = {n}"
                first = split * (2 * n - split - 1) // 2
                assert abs(n * (n - 1) // 2 - 2 * first) <= 4 * (n - 1), f"n = {n}"

    def test_concurrent_ranges_write_disjoint_entries(self, monkeypatch):
        # eight ranges of one shared pair filled at once, on more threads than
        # cores and with frequent thread switches, in blocks of 8 rows (5
        # rounded up); each range starts at a multiple of 4
        n, seed = 300, 17
        monkeypatch.setattr(sampling, "_BLOCK", 5 * n)
        w0, w1 = PAIRS["three_block"]
        e0, e1 = reference_sample_coupled(w0, w1, n, seed, True)
        jobs = pair_jobs(w0, w1, n, seed, True)
        cuts = [(n - 1) * k // 32 * 4 for k in range(8)] + [n - 1]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for _ in range(5):
                    adj = np.zeros((2, n, n), dtype=np.uint8)
                    futures = [pool.submit(sampling._fill_rows, adj, a, b, jobs)
                               for a, b in zip(cuts[:-1], cuts[1:])]
                    for future in futures:
                        future.result(timeout=60)
                    assert adj[0].tobytes() == e0.tobytes()
                    assert adj[1].tobytes() == e1.tobytes()
        finally:
            sys.setswitchinterval(interval)


class TestSampledGraphValidation:
    # -1 casts to uint8 255; 0.5, 256 and NaN would cast to 0, 257 to 1
    @pytest.mark.parametrize("bad", [2, -1, 0.5, 256, 257, float("nan")])
    def test_rejects_entries_above_one(self, bad):
        adj = np.array([[0, bad], [bad, 0]])
        with pytest.raises(InvalidModel, match="0/1"):
            SampledGraph(adj)

    @pytest.mark.parametrize("strip", [None, 1, 5])
    @pytest.mark.parametrize("n", [2, 3, 257])
    def test_one_flipped_entry_is_asymmetric(self, monkeypatch, n, strip):
        # strip boundaries and the last, partial strip of the symmetry check
        if strip is not None:
            monkeypatch.setattr(sampling, "_STRIP", strip)
        s = sampling._STRIP
        spots = {0, 1, s - 1, s, s + 1, 2 * s - 1, 2 * s, n // 2, n - 2, n - 1}
        spots = sorted(i for i in spots if 0 <= i < n)
        adj = sample_graph(SBM_BASE.to_step_graphon(), n, seed=5).adjacency
        SampledGraph(adj)
        for i in spots:
            for j in spots:
                if i == j:
                    continue
                bad = adj.copy()
                bad[i, j] ^= 1
                for owned in (False, True):
                    with pytest.raises(InvalidModel, match="symmetric"):
                        SampledGraph(bad, _owned=owned)
                with pytest.raises(InvalidModel, match="symmetric"):
                    SampledGraph(bad.astype(np.int64))

    def test_accepts_empty_graph(self):
        assert SampledGraph(np.zeros((0, 0), dtype=np.uint8)).n == 0

    def test_callers_array_is_copied_and_sampled_adjacency_read_only(self):
        adj = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        g = SampledGraph(adj)
        adj[0, 1] = adj[1, 0] = 0
        assert g.adjacency[0, 1] == 1 and adj.flags.writeable
        w = SBM_BASE.to_step_graphon()
        pair = sample_coupled(w, w, 20, seed=3)
        for h in (g, sample_graph(w, 20, seed=3), pair.g0, pair.g1):
            assert not h.adjacency.flags.writeable
            with pytest.raises(ValueError):
                h.adjacency[0, 1] = 1

    @pytest.mark.parametrize(
        "adj, match",
        [(np.triu(np.ones((3, 3), dtype=np.uint8), 1), "symmetric"),
         (np.eye(3, dtype=np.uint8), "diagonal"),
         (np.full((2, 2), 2, dtype=np.uint8), "0/1")],
    )
    def test_owned_array_still_checked(self, adj, match):
        with pytest.raises(InvalidModel, match=match):
            SampledGraph(adj, _owned=True)


class TestDegreeProfile:
    def test_complete_graph_uniform(self):
        np.testing.assert_allclose(
            empirical_degree_profile(complete_graph(4)), [0.25] * 4
        )

    def test_path_three(self):
        np.testing.assert_allclose(
            empirical_degree_profile(path_graph(3)), [0.5, 0.25, 0.25]
        )

    def test_star_four(self):
        np.testing.assert_allclose(
            empirical_degree_profile(star_graph(3)), [0.5, 1 / 6, 1 / 6, 1 / 6]
        )

    def test_empty_graph_error(self):
        with pytest.raises(EmptyGraph):
            empirical_degree_profile(SampledGraph(np.zeros((3, 3), dtype=np.uint8)))


class TestEdgeList:
    def test_simple_path(self):
        g = load_edge_list("0 1\n1 2\n")
        assert g.n == 3
        assert np.array_equal(g.adjacency, path_graph(3).adjacency)
        assert g.latent_positions is None
        assert g.source == "external"

    def test_dedup_and_self_loop_warning(self):
        with pytest.warns(UserWarning, match="1 self-loop"):
            g = load_edge_list("1 2\n2 1\n2 2\n")
        assert g.n == 2
        assert int(g.adjacency.sum()) // 2 == 1

    def test_one_indexed_autodetect(self):
        g = load_edge_list("1 2\n2 3\n")
        assert g.n == 3

    def test_zero_indexed_preserved(self):
        g = load_edge_list("0 2\n")
        assert g.n == 3

    def test_comments_and_blank_lines(self):
        g = load_edge_list("# header\n\n0 1  # trailing\n")
        assert g.n == 2

    def test_parse_error_line_number(self):
        with pytest.raises(ParseError) as err:
            load_edge_list("a b\n")
        assert err.value.line_no == 1
        with pytest.raises(ParseError) as err:
            load_edge_list("0 1\n0 1 2\n")
        assert err.value.line_no == 2

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            load_edge_list("# nothing\n")

    @pytest.mark.parametrize("text", ["0 100000000000\n", "0 16384\n"])
    def test_vertex_cap_refused_before_allocation(self, text):
        with pytest.raises(GraphTooLarge, match="capped at 16384"):
            load_edge_list(text)

    def test_adjacency_is_not_copied(self):
        # tracemalloc's peak, in bytes per adjacency entry: the one uint8
        # adjacency and the symmetry check's scratch, with no second copy
        n = 3000
        text = "".join(f"{i} {i + 1}\n" for i in range(n - 1))
        tracemalloc.start()
        try:
            g = load_edge_list(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n == n
        assert peak <= 1.5 * n * n

    def test_save_round_trip(self, tmp_path):
        g = sample_graph(SBM_BASE.to_step_graphon(), 25, seed=11)
        path = tmp_path / "graph.edges"
        save_edge_list(g, path)
        with open(path) as fh:
            again = load_edge_list(fh.read())
        assert np.array_equal(again.adjacency, g.adjacency)
        sidecar = path.with_suffix(".edges.json")
        assert sidecar.exists()
        import json

        meta = json.loads(sidecar.read_text())
        assert meta["n"] == 25 and meta["seed"] == 11


class TestSeeding:
    def test_splitmix_known_zero(self):
        # splitmix64(0) reference value from the published constants
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    def test_derive_seed_distinct(self):
        seeds = {derive_seed(123, i) for i in range(1000)}
        assert len(seeds) == 1000

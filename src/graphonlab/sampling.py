"""Graph sampling from step graphons, coupled pairs, and edge-list input.

Sampling is dense: one 32-bit uniform per unordered vertex pair, two from
each 64-bit Philox output word (low half first), so a pair of density p is an
edge with probability ceil(p 2^32)/2^32 (desk scale, n up to a few thousand).
Everything is deterministic given the 64-bit seed; each stage draws from its
own stream, derived with ``seeding.derive_seed``, so no stage's draws depend
on another's.

All edges come from one filler, ``_fill_rows``: it fills a range of rows of
the upper triangle of one or more graphs, reading each stream in row-major
order, one uniform per pair, from the range's first uniform, so a seed yields
the same adjacency whatever the ranges, which start, like each block of rows,
on the low half of a word. A plain sample is one range of one graph; a coupled
pair is filled together, on a worker as two ranges. The
coupling is only the stream g1 reads: its own, or, with shared edge
randomness, g0's, whose uniforms are then drawn once for both graphs.
"""

from __future__ import annotations

import warnings
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import (
    EmptyGraph,
    EmptyInput,
    GraphTooLarge,
    InvalidModel,
    ParseError,
)
from .graphon import StepGraphon, block_index
from .seeding import derive_seed, make_rng

# sub-stream indices for derived seeds
_STREAM_POSITIONS = 1
_STREAM_EDGES_0 = 2
_STREAM_EDGES_1 = 3

# the dense-adjacency cap: load_edge_list refuses larger graphs and the CLI
# larger sizes, since the uint8 adjacency alone is then 256 MiB and a
# SampledGraph holds about three n x n arrays at peak
MAX_EDGE_LIST_VERTICES = 1 << 14

# uniforms per block of the edge filler's upper triangle: it bounds the
# filler's scratch memory and sets no output byte
_BLOCK = 1 << 15

# rows per strip of SampledGraph's symmetry check (fastest of 16 to 256 rows
# at n = 500 to 2000); it sets only the order of the comparisons
_STRIP = 128


def _is_symmetric(a) -> bool:
    """Whether the square a equals a.T: each row strip right of the diagonal
    against its column strip below it, about half the comparisons of a != a.T."""
    return not any(
        (a[i : i + _STRIP, i:] != a[i:, i : i + _STRIP].T).any()
        for i in range(0, a.shape[0], _STRIP)
    )


def fork_join(pool, fn, first, second):
    """``(fn(first), fn(second))``, with ``fn(second)`` on the executor
    ``pool`` while the caller runs ``fn(first)``; serial when pool is None.

    It returns or raises only once both calls are done, and raises what the
    serial order would: the first call's exception before the second's.
    """
    if pool is None:
        return fn(first), fn(second)
    future = pool.submit(fn, second)
    try:
        result = fn(first)
    except BaseException:
        future.exception()  # waits for the second call, whose outcome is dropped
        raise
    return result, future.result()


@dataclass(frozen=True)
class SampledGraph:
    """Simple undirected graph, optionally with its latent vertex positions.

    ``adjacency`` is a dense symmetric 0/1 uint8 matrix with zero diagonal.
    ``latent_positions`` is None for externally loaded graphs.
    """

    adjacency: np.ndarray
    latent_positions: np.ndarray | None = None
    seed: int | None = None
    source: str = "sampled"
    # set only by the samplers and load_edge_list, which hand over a fresh
    # uint8 array that nothing else holds: it is checked but not copied
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned):
        a = np.asarray(self.adjacency)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidModel("adjacency must be square")
        if a.dtype != np.uint8:
            # check before the cast, which turns 0.5, 256 and NaN into 0
            if not ((a == 0) | (a == 1)).all():
                raise InvalidModel("adjacency entries must be 0/1")
            a = a.astype(np.uint8)
        elif a.size and a.max() > 1:
            raise InvalidModel("adjacency entries must be 0/1")
        if not _is_symmetric(a):
            raise InvalidModel("adjacency must be symmetric")
        if np.diagonal(a).any():
            raise InvalidModel("adjacency must have zero diagonal")
        if not _owned:
            a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "adjacency", a)
        if self.latent_positions is not None:
            x = np.asarray(self.latent_positions, dtype=float).copy()
            if x.shape != (a.shape[0],):
                raise InvalidModel("latent_positions length must equal n")
            x.setflags(write=False)
            object.__setattr__(self, "latent_positions", x)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    def degrees(self) -> np.ndarray:
        # a uint16 sum holds any degree below 2^16 and is the cheapest to add
        acc = np.uint16 if self.n < 1 << 16 else np.int64
        return self.adjacency.sum(axis=1, dtype=acc).astype(np.int64)


@dataclass(frozen=True)
class CoupledPair:
    """Two sampled graphs sharing one latent-position draw.

    Edge indicators are conditionally independent across the two graphs given
    the positions unless the pair was built with a shared edge-randomness
    stream (see ``sample_coupled``).
    """

    g0: SampledGraph
    g1: SampledGraph

    def __post_init__(self):
        if self.g0.latent_positions is None or self.g1.latent_positions is None:
            raise InvalidModel("coupled graphs must carry latent positions")
        if not np.array_equal(self.g0.latent_positions, self.g1.latent_positions):
            raise InvalidModel("coupled graphs must share latent positions")


def _positions_and_blocks(w: StepGraphon, n: int, seed: int):
    rng = make_rng(derive_seed(seed, _STREAM_POSITIONS))
    x = rng.random(n)
    return x, block_index(w.block_weights, x)


def _halves(words):
    """The 32-bit halves of 64-bit words, low first on either byte order."""
    return words.astype("<u8", copy=False).view("<u4")


def _fill_rows(adj, start, stop, jobs):
    """Rows start to stop - 1 of each adjacency adj[g], both triangles, for
    jobs[g] = (key, blocks, densities); graphs with one key share one draw of
    their stream.

    A stream's uniforms are 32-bit: output word w of the key's Philox gives
    w mod 2^32, then w >> 32, and the pairs {i, j}, i < j, take them in
    row-major order. {i, j} is an edge iff u < ceil(p 2^32) for p =
    densities[blocks[i], blocks[j]], tested as u <= t with uint32 t =
    ceil(p 2^32) - 1 (p 2^32 is exact), so P(edge) is within 2^-32 of p; p >=
    MIN_DENSITY, as in any StepGraphon, so t never wraps. The range and each
    block of rows start at a multiple of 4, a row a whose first uniform
    s = a (2n - a - 1)/2 is even: a fresh Philox advanced s // 8 counter steps
    (four words each), then (s // 2) % 4 words discarded. A block draws its
    ceil(count/2) words in one call per stream, scatters the first count
    halves through its upper-triangle mask and compares them with its
    thresholds straight into adj; the square on the diagonal is then masked
    and mirrored. Disjoint ranges write disjoint entries; a start that is not
    a multiple of 4 is a ValueError.
    """
    if start % 4:
        raise ValueError(f"row ranges start at a multiple of 4, got {start}")
    n = adj.shape[1]
    keys = list(dict.fromkeys(key for key, _, _ in jobs))
    rows = max(1, min(stop - start, _BLOCK // n))
    rows += -rows % 4
    # one allocation: a block's uniforms per stream, then its thresholds;
    # zeroed so the comparisons left of the mask never meet uninitialised bytes
    scratch = np.zeros((len(keys) + 1, rows * n), dtype=np.uint32)
    first = start * (2 * n - start - 1) // 2
    streams = [make_rng(key).bit_generator for key in keys]
    for bits in streams:
        bits.advance(first // 8)
        bits.random_raw(first // 2 % 4)
    # upper[k, j] is j > k: the mask of a block of rows that starts on the diagonal
    upper = np.arange(n) > np.arange(rows)[:, None]
    graphs = []
    for (key, blocks, densities), flag in zip(jobs, adj.view(bool)):
        limit = np.ceil(densities * 2.0**32)[:, blocks]
        graphs.append((keys.index(key), (limit - 1).astype(np.uint32), blocks, flag))
    t = scratch[-1]
    for a in range(start, stop, rows):
        b = min(a + rows, stop)
        shape = b - a, n - a
        mask = upper[: b - a, : n - a]
        # n - 1 - i uniforms for each row i of the block
        count = (b - a) * (2 * n - a - b - 1) // 2
        u = [s[: mask.size].reshape(shape) for s in scratch[:-1]]
        for bits, us in zip(streams, u):
            us[mask] = _halves(bits.random_raw((count + 1) // 2))[:count]
        tb = t[: mask.size].reshape(shape)
        for stream, thresholds, blocks, flag in graphs:
            np.take(thresholds[:, a:], blocks[a:b], axis=0, out=tb)
            np.less_equal(u[stream], tb, out=flag[a:b, a:])
            square = flag[a:b, a:b]
            np.logical_and(square, mask[:, : b - a], out=square)
            np.logical_or(square, square.T, out=square)
            flag[b:, a:b] = flag[a:b, b:].T


def _sample(x, seed, jobs, pool=None):
    """The graphs of ``jobs`` on positions x, in one uint8 block: one range
    on the caller, or with an executor ``pool`` two ranges of about equal
    uniform counts, the second on its worker (``fork_join``), which then also
    checks the second of the two graphs; the bytes are the same."""
    n = len(x)
    adj = np.zeros((len(jobs), n, n), dtype=np.uint8)

    def graph(a):
        return SampledGraph(a, latent_positions=x, seed=seed, _owned=True)

    if pool is None:
        _fill_rows(adj, 0, n - 1, jobs)
        return [graph(a) for a in adj]
    # rows [0, r) hold half the uniforms, r (2n - r - 1)/2 = n(n - 1)/4; the
    # split is the multiple of 4 nearest r, at most 2 rows from it
    split = 4 * round((n - 0.5 - (n * (n - 1) / 2 + 0.25) ** 0.5) / 4)
    fork_join(pool, lambda rows: _fill_rows(adj, *rows, jobs), (0, split), (split, n - 1))
    return fork_join(pool, graph, *adj)


def sample_graph(w: StepGraphon, n: int, seed: int) -> SampledGraph:
    """Draw a graph on n vertices from the step graphon.

    Positions are i.i.d. uniform on [0,1]; each unordered pair {i,j} is an
    edge independently with probability the kernel value at the pair's
    positions, rounded up to a multiple of 2^-32. Deterministic given
    (w, n, seed).
    """
    if n < 2:
        raise InvalidModel(f"need n >= 2, got {n}")
    x, blocks = _positions_and_blocks(w, n, seed)
    (g,) = _sample(x, seed, [(derive_seed(seed, _STREAM_EDGES_0), blocks, w.densities)])
    return g


def sample_coupled(
    w0: StepGraphon,
    w1: StepGraphon,
    n: int,
    seed: int,
    share_edge_randomness: bool = False,
    pool=None,
) -> CoupledPair:
    """Sample one graph from each graphon with a shared latent-position draw.

    By default the edge indicators of the two graphs are conditionally
    independent given the positions: g1 reads its own edge stream. With
    ``share_edge_randomness`` g1 reads g0's stream, so the same per-pair
    uniform drives both graphs (the maximal per-edge coupling), which
    minimizes degree discrepancies between the two samples; each uniform is
    then drawn once and compared with both graphs' densities.

    With an executor ``pool`` the rows are split in two ranges of about
    equal uniform counts, and its worker fills the second range of both graphs
    while the caller fills the first (``_sample``); the pair is the same,
    bit for bit.
    """
    if n < 2:
        raise InvalidModel(f"need n >= 2, got {n}")
    x, blocks0 = _positions_and_blocks(w0, n, seed)
    blocks1 = block_index(w1.block_weights, x)  # partitions may differ
    stream1 = _STREAM_EDGES_0 if share_edge_randomness else _STREAM_EDGES_1
    jobs = [(derive_seed(seed, _STREAM_EDGES_0), blocks0, w0.densities),
            (derive_seed(seed, stream1), blocks1, w1.densities)]
    return CoupledPair(*_sample(x, seed, jobs, pool))


def empirical_degree_profile(g: SampledGraph) -> np.ndarray:
    """Degrees divided by the degree total, sorted decreasing; sums to 1."""
    deg = g.degrees().astype(float)
    total = deg.sum()
    if total == 0:
        raise EmptyGraph("graph has no edges")
    return np.sort(deg / total)[::-1]


def load_edge_list(text: str) -> SampledGraph:
    """Parse whitespace-separated integer pairs into a simple graph.

    '#' starts a comment. Vertex ids may be 0- or 1-based; 1-based input (no
    zero id present) is shifted down. Duplicate edges collapse; self-loops are
    dropped with a warning carrying their count. Raises GraphTooLarge, before
    allocating, when the ids imply more than MAX_EDGE_LIST_VERTICES vertices.
    """
    edges = []
    self_loops = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 2:
            raise ParseError(line_no, f"expected 'u v', got {raw.strip()!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(line_no, f"non-integer vertex id in {raw.strip()!r}")
        if u < 0 or v < 0:
            raise ParseError(line_no, "vertex ids must be nonnegative")
        if u == v:
            self_loops += 1
            continue
        edges.append((u, v))

    if not edges:
        raise EmptyInput("no edges found in input")
    if self_loops:
        warnings.warn(f"dropped {self_loops} self-loop(s)", stacklevel=2)

    offset = 1 if min(map(min, edges)) >= 1 else 0
    n = max(map(max, edges)) + 1 - offset
    if n > MAX_EDGE_LIST_VERTICES:
        raise GraphTooLarge(
            f"largest vertex id implies {n} vertices; the dense adjacency "
            f"is capped at {MAX_EDGE_LIST_VERTICES}"
        )
    ids = np.array(edges, dtype=np.int64) - offset
    adj = np.zeros((n, n), dtype=np.uint8)
    adj[ids[:, 0], ids[:, 1]] = 1
    adj[ids[:, 1], ids[:, 0]] = 1
    return SampledGraph(adj, source="external", _owned=True)

"""Graph sampling from step graphons, coupled pairs, and edge-list input.

Sampling is dense and exact: one uniform draw per unordered vertex pair
(desk scale, n up to a few thousand). Everything is deterministic given the
64-bit seed; each stage draws from its own stream, derived with
``seeding.derive_seed``, so no stage's draws depend on another's.

All edges come from one filler, ``_fill_edges``: it takes the upper triangle
in blocks of whole rows, draws each block's uniforms in one call, and
thresholds them against one graph's densities. A plain sample is one graph
on its own stream; in a coupled pair the coupling is only the stream g1
reads: its own, or, with shared edge randomness, g0's stream once more. Each
graph consumes its stream in row-major order, one value per pair, so a given
seed always yields the same adjacency, whatever the block size.
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
    # set only by the samplers, which hand over the edge filler's fresh uint8
    # array: nothing else holds it, so it is checked but not copied
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
        return self.adjacency.sum(axis=1).astype(np.int64)


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


def _fill_edges(n, blocks, densities, rng):
    """The symmetric 0/1 adjacency: {i, j} is an edge when its uniform from
    ``rng`` is below ``densities[blocks[i], blocks[j]]``.

    The upper triangle is taken ``rows`` rows at a time. A block's uniforms
    come from one draw, are scattered through its upper-triangle mask in
    row-major order (stream order) and compared with the block's rows of
    ``densities[:, blocks]``; the masked comparisons are written with their
    transposes. Float64 draws take one Philox output each, so the adjacency
    is the same as from one draw per row, whatever ``_BLOCK`` is.
    """
    rows = max(1, min(n - 1, _BLOCK // n))
    # row k holds block k's density toward every vertex
    prob = densities[:, blocks]
    adj = np.zeros((n, n), dtype=np.uint8)
    # a bool view of the same bytes, so a bool block is stored without a cast
    flag = adj.view(bool)
    # band[k, n - a + j] is j > a + k: the upper-triangle mask of row a + k
    band = np.arange(-n, n) > np.arange(rows)[:, None]
    # zeroed so the unmasked comparison never meets uninitialised bytes
    u = np.zeros((rows, n))
    p = np.empty((rows, n))
    edge = np.empty((rows, n), dtype=bool)
    draws = p.reshape(-1)  # the draws are scattered into u before p is gathered
    for a in range(0, n - 1, rows):
        b = min(a + rows, n - 1)
        mask = band[: b - a, n - a : 2 * n - a]
        # n - 1 - i uniforms for each row i of the block
        count = (b - a) * (2 * n - a - b - 1) // 2
        ub, pb, eb = u[: b - a], p[: b - a], edge[: b - a]
        ub[mask] = rng.random(count, out=draws[:count])
        np.take(prob, blocks[a:b], axis=0, out=pb)
        np.less(ub, pb, out=eb)
        np.logical_and(eb, mask, out=eb)
        # columns left of a were written as earlier blocks' transposes
        flag[a:b, b:] = eb[:, b:]
        flag[b:, a:b] = eb[:, b:].T
        np.logical_or(eb[:, a:b], eb[:, a:b].T, out=flag[a:b, a:b])
    return adj


def _sample(x, seed, w, blocks, stream):
    """The graph of ``w`` on positions x, which fall in ``w``'s ``blocks``,
    with its edges filled from the seed's sub-stream ``stream``."""
    rng = make_rng(derive_seed(seed, stream))
    adj = _fill_edges(len(x), blocks, w.densities, rng)
    return SampledGraph(adj, latent_positions=x, seed=seed, _owned=True)


def sample_graph(w: StepGraphon, n: int, seed: int) -> SampledGraph:
    """Draw a graph on n vertices from the step graphon.

    Positions are i.i.d. uniform on [0,1]; each unordered pair {i,j} is an
    edge independently with probability equal to the kernel value at the
    pair's positions. Deterministic given (w, n, seed).
    """
    if n < 2:
        raise InvalidModel(f"need n >= 2, got {n}")
    x, blocks = _positions_and_blocks(w, n, seed)
    return _sample(x, seed, w, blocks, _STREAM_EDGES_0)


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
    minimizes degree discrepancies between the two samples.

    With an executor ``pool`` g1 is filled on its worker while the caller
    fills g0 (``fork_join``); the pair is the same, bit for bit.
    """
    if n < 2:
        raise InvalidModel(f"need n >= 2, got {n}")
    x, blocks0 = _positions_and_blocks(w0, n, seed)
    blocks1 = block_index(w1.block_weights, x)  # partitions may differ
    stream1 = _STREAM_EDGES_0 if share_edge_randomness else _STREAM_EDGES_1
    jobs = (w0, blocks0, _STREAM_EDGES_0), (w1, blocks1, stream1)
    return CoupledPair(*fork_join(pool, lambda job: _sample(x, seed, *job), *jobs))


def empirical_degree_profile(g: SampledGraph) -> np.ndarray:
    """Degrees divided by the degree total, sorted decreasing; sums to 1."""
    deg = g.degrees().astype(float)
    total = deg.sum()
    if total == 0:
        raise EmptyGraph("graph has no edges")
    return np.sort(deg / total)[::-1]


def load_edge_list(stream) -> SampledGraph:
    """Parse whitespace-separated integer pairs into a simple graph.

    Accepts a file-like object or an iterable of lines. '#' starts a comment.
    Vertex ids may be 0- or 1-based; 1-based input (no zero id present) is
    shifted down. Duplicate edges collapse; self-loops are dropped with a
    warning carrying their count. Raises GraphTooLarge, before allocating,
    when the ids imply more than MAX_EDGE_LIST_VERTICES vertices.
    """
    if hasattr(stream, "read"):
        lines = stream.read().splitlines()
    elif isinstance(stream, str):
        lines = stream.splitlines()
    else:
        lines = list(stream)

    edges = []
    self_loops = 0
    for line_no, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
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
    return SampledGraph(adj, latent_positions=None, seed=None, source="external")

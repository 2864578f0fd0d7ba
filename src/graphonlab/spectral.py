"""Random-walk chains: stationary laws, mixing times, spectral gaps, conductance.

The walk on a graph has transition matrix P = D^{-1} A and stationary law
pi(v) = deg(v) / sum(deg). Mixing is measured in worst-start total variation.
The bottleneck ratio is exact (exhaustive over vertex subsets) and refused
beyond 20 vertices, so the conductance/spectral-gap sandwich is always checked
against the exact value. Bipartite toys never mix; the lazy transform (P+I)/2
is offered as an explicit escape hatch rather than applied silently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    Disconnected,
    GraphTooLarge,
    InvalidModel,
    IsolatedVertex,
    NotMixed,
)
from .sampling import SampledGraph

_ROW_SUM_TOL = 1e-12
_FIXED_POINT_TOL = 1e-10
_EXHAUSTIVE_LIMIT = 20  # vertices; bottleneck_ratio enumerates 2^n subsets
_TV_BLOCK = 1 << 16  # entries per worst_row_tv block: 512 KB, cache-sized


def positive_degrees(g: SampledGraph) -> np.ndarray:
    """The vertex degrees; raises IsolatedVertex on the first degree-0 vertex."""
    deg = g.degrees()
    zero = np.flatnonzero(deg == 0)
    if zero.size:
        raise IsolatedVertex(int(zero[0]))
    return deg


def rw_transition_matrix(g: SampledGraph) -> np.ndarray:
    """D^{-1} A; rows sum to 1. Raises IsolatedVertex on degree-0 vertices."""
    deg = positive_degrees(g)
    # a * fl(1/d) equals a / d exactly for a in {0, 1}: fl(1 * r) = r and
    # 0 * r = +0; one float copy of the adjacency, scaled in place
    p = g.adjacency.astype(np.float64)
    p *= (1.0 / deg)[:, None]
    return p


def is_connected(g: SampledGraph) -> bool:
    n = g.n
    adj = g.adjacency
    seen = np.zeros(n, dtype=bool)
    frontier = np.zeros(n, dtype=bool)
    frontier[0] = seen[0] = True
    while frontier.any():
        reach = (adj[frontier].sum(axis=0) > 0) & ~seen
        seen |= reach
        frontier = reach
    return bool(seen.all())


def is_bipartite(g: SampledGraph) -> bool:
    """2-colorability; on a connected graph this is exactly walk periodicity.

    Periodic walks have lambda_min = -1, so the absolute spectral gap
    vanishes and Cheeger-style statements only make sense for the lazy chain.
    """
    n = g.n
    color = np.full(n, -1, dtype=np.int8)
    for root in range(n):
        if color[root] != -1:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for u in np.flatnonzero(g.adjacency[v]):
                if color[u] == -1:
                    color[u] = 1 - color[v]
                    stack.append(int(u))
                elif color[u] == color[v]:
                    return False
    return True


def stationary(g: SampledGraph) -> np.ndarray:
    """pi(v) = deg(v)/sum(deg), the walk's stationary law on a connected graph."""
    if not is_connected(g):
        raise Disconnected("stationary law not unique on a disconnected graph")
    deg = g.degrees().astype(float)
    pi = deg / deg.sum()
    return pi


@dataclass(frozen=True)
class RWChain:
    """Row-stochastic transition matrix with its stationary distribution."""

    P: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.P, dtype=float).copy()
        pi = np.asarray(self.pi, dtype=float).copy()
        n = P.shape[0]
        if P.shape != (n, n) or pi.shape != (n,):
            raise InvalidModel("P must be square and pi its length")
        # the comparisons below are all False on NaN; mixing_time's step-1
        # copy (P in place of I @ P) also relies on P being finite
        if not (np.isfinite(P).all() and np.isfinite(pi).all()):
            raise InvalidModel("P and pi must be finite")
        if (P < 0).any():
            raise InvalidModel("P must be nonnegative")
        if np.abs(P.sum(axis=1) - 1.0).max() > _ROW_SUM_TOL:
            raise InvalidModel("P rows must sum to 1")
        if (pi <= 0).any() or abs(pi.sum() - 1.0) > _ROW_SUM_TOL:
            raise InvalidModel("pi must be positive and sum to 1")
        if np.abs(pi @ P - pi).max() > _FIXED_POINT_TOL:
            raise InvalidModel("pi is not a fixed point of P")
        P.setflags(write=False)
        pi.setflags(write=False)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "pi", pi)

    @classmethod
    def from_graph(cls, g: SampledGraph) -> "RWChain":
        return cls(rw_transition_matrix(g), stationary(g))

    @property
    def n(self) -> int:
        return self.P.shape[0]

    def lazy(self) -> "RWChain":
        """Chain (P + I)/2; aperiodic, same stationary law."""
        return RWChain((self.P + np.eye(self.n)) / 2.0, self.pi)


@dataclass(frozen=True)
class MixingReport:
    """Mixing-time search result plus spectral summary.

    ``worst_row_tv_trace`` holds (t, worst-start TV) pairs for every step
    visited; ``fitted_slope`` is t_mix / log(n/eps), the empirical constant in
    the log-mixing law.
    """

    t_mix: int
    worst_row_tv_trace: tuple
    gap: float
    fitted_slope: float | None = None


def worst_row_tv(Pt: np.ndarray, pi: np.ndarray) -> float:
    """max over start vertices of TV(row of P^t, pi).

    Rows are taken in blocks of about _TV_BLOCK entries through one scratch
    buffer, so |P^t - pi| is never materialized whole. Each row's sum is the
    same pairwise sum as over the full matrix, and max is exact, so the
    result equals ``0.5 * np.abs(Pt - pi).sum(axis=1).max()`` bit for bit.
    """
    n_rows, n_cols = Pt.shape
    rows = max(1, _TV_BLOCK // max(1, n_cols))
    starts = range(0, n_rows, rows)
    scratch = np.empty((min(rows, n_rows), n_cols))
    block_max = np.empty(len(starts))
    for i, start in enumerate(starts):
        block = scratch[: min(rows, n_rows - start)]
        np.subtract(Pt[start : start + block.shape[0]], pi, out=block)
        np.abs(block, out=block)
        block_max[i] = block.sum(axis=1).max()
    return float(0.5 * block_max.max())


def mixing_time(chain: RWChain, eps: float, t_max: int) -> MixingReport:
    """Smallest t <= t_max with worst-start TV at most eps.

    Accumulates P^t with one dense multiplication per step and evaluates all
    start rows exactly. Raises NotMixed (carrying the partial trace) if the
    horizon is exhausted, e.g. for periodic or disconnected chains.

    Working set: the chain's P plus two n x n buffers that hold P^t and
    P^(t+1) in turn; TV is evaluated in row blocks (see ``worst_row_tv``).
    Step 1 copies P rather than computing I @ P, which is the same matrix bit
    for bit because RWChain guarantees P is finite. Both buffers are freed
    before ``spectral_gap`` allocates its own.
    """
    if not 0.0 < eps or t_max < 1:
        raise InvalidModel("need eps > 0 and t_max >= 1")
    P = chain.P
    pi = chain.pi
    Pt = np.eye(chain.n)
    nxt = np.empty_like(Pt)
    trace = []
    t_hit = None
    for t in range(t_max + 1):
        tv = worst_row_tv(Pt, pi)
        trace.append((t, tv))
        if tv <= eps:
            t_hit = t
            break
        if t < t_max:
            if t == 0:
                np.copyto(nxt, P)
            else:
                np.matmul(Pt, P, out=nxt)
            Pt, nxt = nxt, Pt
    del Pt, nxt
    if t_hit is None:
        raise NotMixed(t_max, trace)
    gap = spectral_gap(chain)
    log_arg = chain.n / eps
    slope = t_hit / np.log(log_arg) if log_arg > 1.0 else None
    return MixingReport(
        t_mix=t_hit,
        worst_row_tv_trace=tuple(trace),
        gap=gap,
        fitted_slope=slope,
    )


def power_limit_gap(chain: RWChain, t: int) -> float:
    """Max-entry distance between P^t and the stationary limit matrix."""
    if t < 0:
        raise InvalidModel("t must be nonnegative")
    Pt = np.linalg.matrix_power(chain.P, t)
    return float(np.abs(Pt - chain.pi).max())


def spectral_gap(chain: RWChain) -> float:
    """Absolute spectral gap 1 - max(|lambda_2|, |lambda_n|).

    Computed on the symmetric conjugate D_pi^{1/2} P D_pi^{-1/2}, which for
    reversible chains has a real spectrum and is solved through LAPACK's
    symmetric (tridiagonalization) path in numpy's ``eigvalsh``, so the walk's
    products and this solve share one BLAS library and one thread pool.

    Working set: two n x n buffers. S is built in the first; the second holds
    |S - S^T| for the reversibility check and then (S + S^T)/2. S is freed
    before ``eigvalsh`` makes its own working copy.
    """
    return _gaps(chain)[0]


def _gaps(chain: RWChain) -> tuple[float, float]:
    """The absolute gap of ``spectral_gap`` and the spectral gap 1 - lambda_2,
    from one symmetric eigensolve."""
    s = np.sqrt(chain.pi)
    S = np.multiply(s[:, None], chain.P)
    np.divide(S, s[None, :], out=S)
    sym = np.empty_like(S)
    np.subtract(S, S.T, out=sym)
    np.abs(sym, out=sym)
    if sym.max() > 1e-8:
        raise InvalidModel("chain is not reversible; symmetric conjugate failed")
    np.add(S, S.T, out=sym)
    np.divide(sym, 2.0, out=sym)
    del S
    vals = np.linalg.eigvalsh(sym)  # ascending; top (=1) is the pi direction
    if vals.size < 2:
        return 1.0, 1.0
    return float(max(0.0, 1.0 - np.abs(vals[:-1]).max())), float(1.0 - vals[-2])


def _subset_cut_and_volume(adjacency, degrees, limit_mass):
    """Exhaustive Phi minimization helper; yields min cut/vol over valid S."""
    n = adjacency.shape[0]
    A = adjacency.astype(np.float64)
    best = np.inf
    chunk = 1 << 14
    masks_total = 1 << n
    bits = np.arange(n)
    deg = degrees.astype(np.float64)
    for start in range(1, masks_total, chunk):
        stop = min(start + chunk, masks_total)
        masks = np.arange(start, stop, dtype=np.int64)
        member = ((masks[:, None] >> bits) & 1).astype(np.float64)
        vol = member @ deg
        ok = (vol > 0) & (vol <= limit_mass)
        if not ok.any():
            continue
        member = member[ok]
        vol = vol[ok]
        inside = np.einsum("ij,ij->i", member @ A, member)
        cut = vol - inside
        ratio = cut / vol
        m = ratio.min()
        if m < best:
            best = m
    return float(best)


def bottleneck_ratio(g: SampledGraph) -> float:
    """min over S with pi(S) <= 1/2 of |boundary(S)| / volume(S).

    Exact: exhaustive over all 2^n vertex subsets, so graphs with more than
    _EXHAUSTIVE_LIMIT vertices raise GraphTooLarge.
    """
    if g.n > _EXHAUSTIVE_LIMIT:
        raise GraphTooLarge(
            f"exact bottleneck ratio needs n <= {_EXHAUSTIVE_LIMIT}, got {g.n}"
        )
    if not is_connected(g):
        raise Disconnected("bottleneck ratio needs a connected graph")
    deg = g.degrees()
    return _subset_cut_and_volume(g.adjacency, deg, float(deg.sum()) / 2.0)


@dataclass(frozen=True)
class CheegerReport:
    """Exact conductance, absolute gap, spectral gap, and the sandwich bounds."""

    phi: float
    gap: float
    gamma: float
    lower: float
    upper: float
    holds: bool
    lazy: bool


def cheeger_check(g: SampledGraph, lazy: bool = False) -> CheegerReport:
    """Check phi^2/2 <= gamma <= 2*phi with the exact bottleneck ratio.

    gamma = 1 - lambda_2 is the gap of the theorem (Levin-Peres-Wilmer 13.10);
    ``gap``, the absolute gap of ``spectral_gap``, falls below phi^2/2 when
    lambda_n is near -1.

    Only the exact phi is meaningful here (an upper bound on phi would make
    the left inequality vacuous), so graphs beyond the exhaustive limit raise
    GraphTooLarge. With ``lazy`` both sides refer to the lazy chain: its
    conductance is exactly half the graph's.
    """
    phi = bottleneck_ratio(g)
    chain = RWChain.from_graph(g)
    if lazy:
        chain = chain.lazy()
        phi = phi / 2.0
    gap, gamma = _gaps(chain)
    lower, upper = phi * phi / 2.0, 2.0 * phi
    eps = 1e-9
    return CheegerReport(
        phi=phi,
        gap=gap,
        gamma=gamma,
        lower=lower,
        upper=upper,
        holds=bool(lower - eps <= gamma <= upper + eps),
        lazy=lazy,
    )

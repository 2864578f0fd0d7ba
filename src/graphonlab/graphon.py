"""Step graphons, degree profiles, degree-profile distance, and block cut norms.

A step graphon is a symmetric kernel on [0,1]^2 that is constant on the cells
of a product partition. It is stored as the block weights (lengths of the
partition intervals) together with the symmetric matrix of cell densities.
Two-block instances are ordinary stochastic block models.

Everything here is exact at block granularity: degree functionals are finite
sums, the degree-profile distance is a closed-form rearrangement distance, and
the cut norm of a signed step kernel is an exhaustive vertex-enumeration of a
bilinear program. General measurable graphons must be discretized to steps by
the caller first.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidModel,
    OutOfRange,
    TooManyBlocks,
    UnmatchableWeights,
)

MIN_DENSITY = 1e-6  # keeps sampled random walks ergodic
_WEIGHT_TOL = 1e-12
_CUT_BLOCK_LIMIT = 16
_CUT_PERMUTATION_LIMIT = 40320  # 8!: every order of 8 equal-weight blocks
SBM_FIELDS = ("k1", "p1", "p2", "q")  # the keys, and the order, of SBMParams


def finite_array(value, name: str) -> np.ndarray:
    """A float copy of value; non-numbers and NaN/inf (JSON null loads as NaN)
    are an InvalidModel naming the field."""
    try:
        a = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidModel(f"{name} must be numbers: {exc}") from None
    if not np.isfinite(a).all():
        raise InvalidModel(f"{name} must be finite numbers")
    return a


@dataclass(frozen=True)
class StepGraphon:
    """Piecewise-constant symmetric kernel on the unit square.

    Parameters
    ----------
    block_weights : array-like
        Strictly positive interval lengths summing to 1.
    densities : array-like
        Symmetric matrix of edge densities, one entry per block pair,
        each in [MIN_DENSITY, 1].
    """

    block_weights: np.ndarray
    densities: np.ndarray

    def __post_init__(self):
        w = finite_array(self.block_weights, "block_weights")
        p = finite_array(self.densities, "densities")
        if w.ndim != 1 or w.size == 0:
            raise InvalidModel("block_weights must be a nonempty 1-D sequence")
        if p.shape != (w.size, w.size):
            raise InvalidModel(
                f"densities must be {w.size}x{w.size}, got {p.shape}"
            )
        if not (w > 0).all():
            raise InvalidModel("block weights must be strictly positive")
        if abs(w.sum() - 1.0) > _WEIGHT_TOL:
            raise InvalidModel(f"block weights sum to {w.sum()!r}, not 1")
        if not np.allclose(p, p.T, atol=1e-12, rtol=0.0):
            raise InvalidModel("density matrix must be symmetric")
        if (p < MIN_DENSITY).any() or (p > 1.0).any():
            raise InvalidModel(f"densities must lie in [{MIN_DENSITY}, 1]")
        p = (p + p.T) / 2.0
        w.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "block_weights", w)
        object.__setattr__(self, "densities", p)

    @property
    def n_blocks(self) -> int:
        return self.block_weights.size


@dataclass(frozen=True)
class SBMParams:
    """Two-block model: within-block densities p1, p2, cross density q."""

    k1: float
    p1: float
    p2: float
    q: float

    def __post_init__(self):
        for name in SBM_FIELDS:
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise InvalidModel(f"{name} must be a number, got {v!r}")
        if not 0.0 < self.k1 < 1.0:
            raise InvalidModel(f"k1 must be in (0,1), got {self.k1}")
        for name in ("p1", "p2", "q"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise InvalidModel(f"{name} must be in (0,1], got {v}")

    @property
    def k2(self) -> float:
        return 1.0 - self.k1

    def to_step_graphon(self) -> StepGraphon:
        return StepGraphon([self.k1, self.k2], [[self.p1, self.q], [self.q, self.p2]])


@dataclass(frozen=True)
class FamilySpec:
    """Base SBM plus a scalar offset along the degree-preserving direction."""

    base: SBMParams
    tau: float


@dataclass(frozen=True)
class DegreeProfile:
    """Degree step function: (weight, value) pairs on a partition of [0,1]."""

    weights: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).copy()
        v = np.asarray(self.values, dtype=float).copy()
        if w.shape != v.shape or w.ndim != 1:
            raise InvalidModel("weights and values must be 1-D and congruent")
        if not (w > 0).all() or abs(w.sum() - 1.0) > _WEIGHT_TOL:
            raise InvalidModel("profile weights must be positive and sum to 1")
        if (v < 0).any():
            raise InvalidModel("degree values must be nonnegative")
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "values", v)

    def sorted_decreasing(self) -> "DegreeProfile":
        order = np.argsort(-self.values, kind="stable")
        return DegreeProfile(self.weights[order], self.values[order])


@dataclass(frozen=True)
class SignedStepKernel:
    """Difference of two step graphons on a common partition (values signed)."""

    block_weights: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.block_weights, dtype=float).copy()
        v = np.asarray(self.values, dtype=float).copy()
        if w.ndim != 1 or v.shape != (w.size, w.size):
            raise InvalidModel("kernel values must be square over the weights")
        if not (w > 0).all() or abs(w.sum() - 1.0) > _WEIGHT_TOL:
            raise InvalidModel("kernel weights must be positive and sum to 1")
        if not np.allclose(v, v.T, atol=1e-12, rtol=0.0):
            raise InvalidModel("kernel values must be symmetric")
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "block_weights", w)
        object.__setattr__(self, "values", v)

    @property
    def n_blocks(self) -> int:
        return self.block_weights.size


def block_index(weights, x):
    """Block containing latent coordinate x under half-open intervals."""
    cum = np.cumsum(np.asarray(weights, dtype=float))
    idx = np.searchsorted(cum, np.asarray(x, dtype=float), side="right")
    return np.minimum(idx, len(cum) - 1)


def degree_function(w: StepGraphon) -> DegreeProfile:
    """Per-block expected neighborhood mass: value_i = sum_j weight_j * density_ij."""
    values = w.densities @ w.block_weights
    return DegreeProfile(w.block_weights, values)


def total_degree(w: StepGraphon) -> float:
    """Integral of the kernel over the unit square."""
    wt = w.block_weights
    return float(wt @ w.densities @ wt)


def normalized_degree_profile(w: StepGraphon) -> DegreeProfile:
    """Degree function divided by the total degree; integrates to 1."""
    prof = degree_function(w)
    return DegreeProfile(prof.weights, prof.values / total_degree(w))


def _quantile_breaks(weights_list):
    """Merged cumulative breakpoints of several weight partitions."""
    cums = [np.cumsum(w) for w in weights_list]
    for c in cums:
        c[-1] = 1.0
    merged = np.unique(np.concatenate([[0.0], *cums]))
    return merged


def delta_distance(w0: StepGraphon, w1: StepGraphon) -> float:
    """Minimal L1 distance between normalized degree functions over rearrangements.

    Both normalized degree step functions are replaced by their decreasing
    rearrangements and compared on the overlay refinement of the cumulative
    weights. For step functions the decreasing rearrangement realizes the
    infimum over measure-preserving rearrangements (it is the comonotone
    coupling of the two value distributions).
    """
    profs = [
        normalized_degree_profile(w).sorted_decreasing() for w in (w0, w1)
    ]
    breaks = _quantile_breaks([p.weights for p in profs])
    lengths = np.diff(breaks)
    mids = (breaks[:-1] + breaks[1:]) / 2.0
    vals = [p.values[block_index(p.weights, mids)] for p in profs]
    return float(np.sum(np.abs(vals[0] - vals[1]) * lengths))


def family_direction(k1: float) -> np.ndarray:
    """Offset direction (1/k1, k1/k2^2, -1/k2) that keeps degree profiles fixed."""
    k2 = 1.0 - k1
    return np.array([1.0 / k1, k1 / k2**2, -1.0 / k2])


def family_generate(spec: FamilySpec) -> SBMParams:
    """Move the base SBM along the degree-preserving direction by tau.

    Raises OutOfRange when any of the three resulting densities leaves (0, 1];
    the message names the first violated coordinate.
    """
    base = spec.base
    direction = family_direction(base.k1)
    point = np.array([base.p1, base.p2, base.q]) + spec.tau * direction
    names = ("p1", "p2", "q")
    for name, v in zip(names, point):
        if not 0.0 < v <= 1.0:
            raise OutOfRange(
                f"tau={spec.tau} drives {name} to {v:.6g}, outside (0, 1]"
            )
    return SBMParams(base.k1, *(float(v) for v in point))


def _family_bounds(base: SBMParams) -> tuple[dict, dict]:
    """Lower and upper tau bounds, one per density constraint, by label.

    Each coordinate of base + tau * direction must stay in (0, 1]; p1 and p2
    increase in tau and q decreases, so each inequality bounds tau on one side.
    """
    k1, k2 = base.k1, base.k2
    lowers = {
        "p1 > 0": -k1 * base.p1,
        "p2 > 0": -(k2**2) * base.p2 / k1,
        "q <= 1": -k2 * (1.0 - base.q),
    }
    uppers = {
        "p1 <= 1": k1 * (1.0 - base.p1),
        "p2 <= 1": (k2**2) * (1.0 - base.p2) / k1,
        "q > 0": k2 * base.q,
    }
    return lowers, uppers


def family_validity_range(base: SBMParams) -> tuple[float, float]:
    """Interval of tau keeping all three densities of the generated point in (0,1].

    Solves the six linear inequalities (each coordinate > 0 and <= 1) and
    intersects them. Endpoints are the inf/sup of the admissible set;
    whether an endpoint itself is admissible depends on which constraint
    binds there (strict for the > 0 side of an increasing coordinate and
    for q > 0, which decreases in tau). ``family_generate`` performs the
    authoritative membership check.
    """
    lowers, uppers = _family_bounds(base)
    return (max(lowers.values()), min(uppers.values()))


def family_binding_constraints(base: SBMParams) -> dict:
    """Which coordinate binds each end of the tau range (for reporting)."""
    lowers, uppers = _family_bounds(base)
    lo = max(lowers, key=lambda k: lowers[k])
    hi = min(uppers, key=lambda k: uppers[k])
    return {"lower": lo, "upper": hi}


def cut_norm_step(kernel: SignedStepKernel) -> float:
    """Exact cut norm sup_{S,T} |integral over S x T| of a signed step kernel.

    The integral over (S, T) is a bilinear form in the per-block inclusion
    fractions, so the supremum is attained at 0/1 vertices. Enumerates the
    2^k choices of S; for each, the optimal T is read off the sign pattern
    of the partial sums. Limited to k <= 16 blocks.
    """
    k = kernel.n_blocks
    if k > _CUT_BLOCK_LIMIT:
        raise TooManyBlocks(
            f"exact cut norm supports at most {_CUT_BLOCK_LIMIT} blocks, got {k}"
        )
    w = kernel.block_weights
    mass = kernel.values * np.outer(w, w)
    # all subsets as a bit table: row m = indicator of subset m
    masks = np.arange(1 << k, dtype=np.uint32)
    table = ((masks[:, None] >> np.arange(k)) & 1).astype(float)
    partial = table @ mass  # row m = integral row-sums restricted to S=m
    best_pos = np.maximum(partial, 0.0).sum(axis=1).max()
    best_neg = np.maximum(-partial, 0.0).sum(axis=1).max()
    return float(max(best_pos, best_neg))


def _equal_weight_groups(weights):
    """Indices grouped by weight value, equality judged at 1e-9."""
    groups = {}
    for i, wv in enumerate(weights):
        key = round(wv * 1e9)
        groups.setdefault(key, []).append(i)
    return groups


def cut_distance_blocks(w0: StepGraphon, w1: StepGraphon) -> float:
    """Cut distance restricted to weight-preserving block permutations.

    Both graphons must have matchable weight multisets (raise
    UnmatchableWeights otherwise). Minimizes the exact cut norm of w0 - w1
    over permutations of w1's blocks that map equal weights to equal
    weights. Raises TooManyBlocks when there are more than
    _CUT_PERMUTATION_LIMIT such permutations.
    """
    if w0.n_blocks != w1.n_blocks or not np.allclose(
        np.sort(w0.block_weights), np.sort(w1.block_weights), atol=1e-9, rtol=0.0
    ):
        raise UnmatchableWeights("block weight multisets differ")
    g0 = _equal_weight_groups(w0.block_weights)
    g1 = _equal_weight_groups(w1.block_weights)
    if sorted(g0) != sorted(g1) or any(
        len(g0[k]) != len(g1[k]) for k in g0
    ):
        raise UnmatchableWeights("block weight multisets differ")

    keys = sorted(g0)
    count = 1  # product of the group-size factorials
    for key in keys:
        for size in range(2, len(g0[key]) + 1):
            count *= size
    if count > _CUT_PERMUTATION_LIMIT:
        raise TooManyBlocks(
            f"{count} weight-preserving permutations exceed the limit of "
            f"{_CUT_PERMUTATION_LIMIT}"
        )
    group_perms = [
        [list(p) for p in itertools.permutations(g1[k])] for k in keys
    ]
    best = np.inf
    for combo in itertools.product(*group_perms):
        perm = np.empty(w0.n_blocks, dtype=int)
        for key, assignment in zip(keys, combo):
            for src, dst in zip(g0[key], assignment):
                perm[src] = dst
        diff = SignedStepKernel(
            w0.block_weights,
            w0.densities - w1.densities[np.ix_(perm, perm)],
        )
        best = min(best, cut_norm_step(diff))
    return float(best)


def _spec_values(doc, fields) -> list:
    """doc's values for fields, in order; a key doc holds outside fields, or
    one of fields it lacks, is an InvalidModel naming it."""
    unknown = sorted(set(doc) - set(fields), key=str)
    missing = [k for k in fields if k not in doc]
    if unknown or missing:
        raise InvalidModel(f"model spec must hold exactly {'/'.join(fields)}; "
                           f"unknown keys {unknown}, missing {missing}")
    return [doc[k] for k in fields]


def parse_sbm_spec(doc) -> SBMParams:
    """SBMParams from a parsed {"k1":..., "p1":..., "p2":..., "q":...} document."""
    return SBMParams(*_spec_values(doc, SBM_FIELDS))


def parse_model_spec(doc) -> StepGraphon:
    """Step graphon from a parsed JSON document.

    Accepts exactly one of two key sets: {"weights": [...], "densities":
    [[...]]}, or the SBM form of ``parse_sbm_spec``. Any other key (a key of
    the other set too) or a missing one is an InvalidModel naming it.
    """
    if "weights" in doc or "densities" in doc:
        return StepGraphon(*_spec_values(doc, ("weights", "densities")))
    return parse_sbm_spec(doc).to_step_graphon()

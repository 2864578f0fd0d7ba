"""Two-model testing: exact perturbation TV, error floors, and Monte Carlo.

The protocol under study: flip a fair coin B, sample a graph from model B,
push it through the configured GCN, average rows to get the embedding vector,
add uniform coordinate noise of half-width eps_res, and ask a test to recover
B. This module supplies the exact total-variation distance between two
uniformly perturbed matrices, the Le Cam translation of TV into an error
floor, the closed-form floor formulas in both degree-profile regimes, the
sorted-profile nearest-neighbor test, and seeded Monte Carlo harnesses for
error rates and coupled embedding distances.

Each Monte Carlo trial samples the *coupled* pair and uses the coin to select
which marginal the test sees; the marginal law of the tested graph is exact,
and the pair provides the per-trial conditional TV whose Le Cam floor is
averaged across trials (the implementable surrogate for the unconditional
floor, which also mixes over graph randomness).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolated, InvalidModel, ShapeMismatch
from .gcn import (
    Activation,
    GCNConfig,
    classify_activation,
    graph_embedding,
    one_blas_thread,
    perturb,
)
from .graphon import (
    StepGraphon,
    degree_function,
    delta_distance,
    total_degree,
)
from .sampling import fork_join, sample_coupled
from .seeding import derive_seed, make_rng

DELTA_ZERO_TOL = 1e-9

_STREAM_COIN = 11
_STREAM_NOISE = 13

# a coordinate of the distance experiment counts as small when its difference
# is at most COORD_TOL_CONST / n^2
COORD_TOL_CONST = 1.0

# The error harness embeds on the identity/ReLU path in float32 only when the
# certified rounding error (gcn.fast_linear_embedding) is at most this share
# of the trial's noise half-width eps. A quarter keeps that error small next
# to the uniform noise every decision sees, on a bound about 500 times above
# the error observed, and still admits float32 up to n = 1000 at
# eps = delta/(4n) (bound 0.19 eps there, 0.39 eps at n = 2000).
F32_ERROR_SHARE = 0.25


@dataclass(frozen=True)
class TVResult:
    """Exact TV between two uniformly perturbed matrices.

    ``log_overlap`` is the log of the product of per-coordinate overlap
    fractions (for underflow-safe reporting); ``clipped_dims`` counts
    coordinates whose separation meets or exceeds the full noise width, each
    of which forces tv = 1 outright.
    """

    tv: float
    log_overlap: float
    clipped_dims: int


def tv_perturbed(m0, m1, eps_res: float) -> TVResult:
    """TV distance between independent uniform-cube perturbations of m0, m1.

    Computed in log space as sum of log(1 - |diff|/(2 eps)); any coordinate
    with |diff| >= 2 eps makes the supports disjoint along that axis and the
    distance exactly 1.
    """
    if eps_res <= 0:
        raise InvalidModel("eps_res must be positive")
    a = np.asarray(m0, dtype=float)
    b = np.asarray(m1, dtype=float)
    if a.shape != b.shape:
        raise ShapeMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    diff = np.abs(a - b).ravel()
    width = 2.0 * eps_res
    clipped = int((diff >= width).sum())
    if clipped:
        return TVResult(tv=1.0, log_overlap=-np.inf, clipped_dims=clipped)
    log_overlap = float(np.log1p(-diff / width).sum())
    return TVResult(
        tv=float(-np.expm1(log_overlap)), log_overlap=log_overlap, clipped_dims=0
    )


def lecam_error_lower(tv: float) -> float:
    """Optimal test error between two laws is at least (1 - TV)/2."""
    if not 0.0 <= tv <= 1.0:
        raise InvalidModel("tv must lie in [0, 1]")
    return (1.0 - tv) / 2.0


def error_probability_floor(
    delta: float, eps_res: float, n: int, const_c: float = 1.0
) -> float:
    """Closed-form error floor for the perturbed-embedding test.

    For separated degree profiles (delta > 0, requiring eps_res > delta/(2n)):
    (1 - delta/(2 eps_res n))^n. For matched profiles (delta = 0):
    exp(-const_c/(eps_res n)), with const_c exposed because only the shape is
    pinned down, not the constant.
    """
    if eps_res <= 0 or n < 1:
        raise InvalidModel("need eps_res > 0 and n >= 1")
    if delta < 0:
        raise InvalidModel("delta must be nonnegative")
    if delta < DELTA_ZERO_TOL:
        return float(np.exp(-const_c / (eps_res * n)))
    if eps_res <= delta / (2.0 * n):
        raise HypothesisViolated(
            f"floor formula needs eps_res > delta/(2n) = {delta / (2 * n):.3e}"
        )
    return float((1.0 - delta / (2.0 * eps_res * n)) ** n)


@dataclass(frozen=True)
class ErrorBounds:
    """Floors attached to an experiment; values clamped to the trivial 1/2."""

    lecam_lower: float
    formula_floor: float
    regime: str  # "delta_positive" | "delta_zero"
    formula_raw: float

    def __post_init__(self):
        if not 0.0 <= self.lecam_lower <= 0.5:
            raise InvalidModel("lecam_lower must be in [0, 1/2]")
        if not 0.0 <= self.formula_floor <= 0.5:
            raise InvalidModel("formula_floor must be in [0, 1/2]")


@dataclass(frozen=True)
class TrialOutcome:
    """One protocol round: truth, decision, coupled embedding distance, seed."""

    true_label: int
    decision: int
    embedding_distance: float
    seed: int

    def __post_init__(self):
        if self.true_label not in (0, 1) or self.decision not in (0, 1):
            raise InvalidModel("labels must be binary")


def expected_sorted_profile(w: StepGraphon, n: int) -> np.ndarray:
    """Length-n decreasing vector of block stationary values.

    Block i contributes its normalized degree d_i/(n * D) repeated according
    to the expected block size (rounded cumulative weights), matching the
    scale of a sampled graph's stationary distribution.
    """
    prof = degree_function(w)
    values = prof.values / (n * total_degree(w))
    order = np.argsort(-values, kind="stable")
    values = values[order]
    weights = prof.weights[order]
    bounds = np.round(np.cumsum(weights) * n).astype(int)
    bounds[-1] = n
    counts = np.diff(np.concatenate([[0], bounds]))
    return np.repeat(values, counts)


def nearest_profile_test(
    h_perturbed, w0: StepGraphon, w1: StepGraphon, n: int, *, profiles=None
) -> int:
    """Decide which model produced a perturbed embedding vector.

    Sorts the observed vector decreasingly and picks the model whose expected
    sorted stationary profile is nearer in L1; ties go to model 0. Sorting
    makes the statistic invariant to any vertex relabeling. ``profiles``, if
    given, is the pair of both models' ``expected_sorted_profile(w, n)``,
    built once by a caller that decides many trials.
    """
    h = np.sort(np.asarray(h_perturbed, dtype=float).ravel())[::-1]
    if h.size != n:
        raise ShapeMismatch(f"embedding has {h.size} coordinates, expected {n}")
    if profiles is None:
        profiles = expected_sorted_profile(w0, n), expected_sorted_profile(w1, n)
    d0 = float(np.abs(h - profiles[0]).sum())
    d1 = float(np.abs(h - profiles[1]).sum())
    return 0 if d0 <= d1 else 1


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregated Monte Carlo error estimate with its floors.

    ``error_rate`` carries an exact (Clopper-Pearson) 95% binomial interval.
    ``mean_conditional_tv`` averages the per-trial TV between the two coupled
    unperturbed embeddings; its Le Cam translation is ``bounds.lecam_lower``.
    On the identity/ReLU path, ``f32_bound_max`` is the largest certified
    error bound of the graphs embedded in float32 (None when none was) and
    ``f64_fallbacks`` counts the graphs embedded in float64; both are None on
    the dense path.
    """

    n: int
    depth: int
    eps_res: float
    trials: int
    seed: int
    outcomes: tuple
    small_coord_fracs: tuple
    error_rate: float
    ci_low: float
    ci_high: float
    mean_conditional_tv: float
    bounds: ErrorBounds
    delta: float
    f32_bound_max: float | None = None
    f64_fallbacks: int | None = None


def clopper_pearson(k: int, n: int, alpha: float = 0.05) -> tuple[float, float]:
    """Exact two-sided binomial confidence interval."""
    if not 0 <= k <= n or n < 1:
        raise InvalidModel("need 0 <= k <= n, n >= 1")
    from scipy.stats import beta  # deferred: importing scipy costs about 1 s

    lo = 0.0 if k == 0 else float(beta.ppf(alpha / 2.0, k, n - k + 1))
    hi = 1.0 if k == n else float(beta.ppf(1.0 - alpha / 2.0, k + 1, n - k))
    return lo, hi


def error_not_below_floor(
    errors: int, trials: int, floor: float, alpha: float = 0.05
) -> bool:
    """One-sided exact binomial test of H0: true error rate >= floor.

    Returns True when the observed error count is consistent with H0 at
    level alpha (i.e. the error is not significantly below the floor).
    """
    floor = min(max(floor, 0.0), 1.0)
    if floor == 0.0:
        return True
    from scipy.stats import binom  # deferred: importing scipy costs about 1 s

    return float(binom.cdf(errors, trials, floor)) >= alpha


def _each_trial(w0, w1, n, cfg, seed, trials, share, trial, limit=None):
    """``[trial(h0_i, h1_i, seed_i) for i in range(trials)]``, where h0_i and
    h1_i are ``graph_embedding(g, cfg, limit)`` of coupled pair i's two graphs.

    Each trial forks and joins twice on one worker thread, with numpy's
    OpenBLAS on one thread throughout so the two threads do not contend for
    the cores: with independent edges the worker fills the pair's second
    graph while the caller fills the first, then the worker embeds the second
    graph while the caller embeds the first, on the vector and the dense path
    alike. The caller then runs ``trial``. So one pair and two embeddings (two
    walk matrices, float32 or float64) are alive at a time. When numpy's
    OpenBLAS is not found the loop is serial, on the caller. The results, and
    the exception raised, are those of the serial loop, and the worker is done
    before an exception leaves.
    """
    # deferred: importing the pool costs setup time
    from concurrent.futures import ThreadPoolExecutor

    results = []
    with one_blas_thread() as pinned, ThreadPoolExecutor(max_workers=1) as pool:
        worker = pool if pinned else None
        for i in range(trials):
            trial_seed = derive_seed(seed, i)
            # the globals are read at each call, so a patched function runs
            pair = sample_coupled(
                w0, w1, n, trial_seed, share_edge_randomness=share, pool=worker
            )
            h0, h1 = fork_join(
                worker, lambda g: graph_embedding(g, cfg, limit), pair.g0, pair.g1
            )
            del pair  # free pair i before pair i + 1 is sampled
            results.append(trial(h0, h1, trial_seed))
    return results


def _mc_trial(w0, w1, n, eps_res, profiles, embedded0, embedded1, trial_seed):
    (h0, bound0), (h1, bound1) = embedded0, embedded1
    coin = make_rng(derive_seed(trial_seed, _STREAM_COIN))
    label = int(coin.integers(0, 2))
    observed = h0 if label == 0 else h1
    noisy = perturb(observed, eps_res, derive_seed(trial_seed, _STREAM_NOISE))
    decision = nearest_profile_test(noisy, w0, w1, n, profiles=profiles)
    tv = tv_perturbed(h0, h1, eps_res).tv
    distance, small = _distance_trial(n, h0, h1)
    outcome = TrialOutcome(
        true_label=label,
        decision=decision,
        embedding_distance=distance,
        seed=trial_seed,
    )
    return outcome, tv, small, bound0, bound1


def monte_carlo_error(
    w0: StepGraphon,
    w1: StepGraphon,
    n: int,
    cfg: GCNConfig,
    eps_res: float,
    trials: int,
    seed: int,
    const_c: float = 1.0,
    share_edge_randomness: bool = False,
) -> ExperimentReport:
    """Estimate the error rate of the nearest-profile test over seeded trials.

    Trial i runs with seed derived from (seed, i): coin, coupled sample,
    embedding, perturbation, decision. Reports the error rate with an exact
    95% interval, each trial's coupled distance and small-coordinate fraction,
    and the mean conditional Le Cam floor, valid under either coupling by joint
    convexity of TV, next to the closed-form floor. The identity/ReLU path
    embeds in float32 where its certified error is at most
    F32_ERROR_SHARE * eps_res, and the report records those bounds.
    """
    if trials < 1:
        raise InvalidModel("trials must be >= 1")
    if eps_res <= 0:
        raise InvalidModel("eps_res must be positive")
    profiles = expected_sorted_profile(w0, n), expected_sorted_profile(w1, n)
    outcomes, tvs, small, bounds0, bounds1 = zip(*_each_trial(
        w0, w1, n, cfg, seed, trials, share_edge_randomness,
        lambda e0, e1, s: _mc_trial(w0, w1, n, eps_res, profiles, e0, e1, s),
        limit=F32_ERROR_SHARE * eps_res,
    ))
    f32_bound_max = f64_fallbacks = None
    if cfg.activation.is_linear_on_nonnegative:
        f32 = [b for b in bounds0 + bounds1 if b is not None]
        f32_bound_max = max(f32, default=None)
        f64_fallbacks = 2 * trials - len(f32)
    tvs = np.array(tvs)
    errors = sum(1 for t in outcomes if t.decision != t.true_label)
    rate = errors / trials
    lo, hi = clopper_pearson(errors, trials)
    delta = delta_distance(w0, w1)
    regime = "delta_zero" if delta < DELTA_ZERO_TOL else "delta_positive"
    try:
        raw = error_probability_floor(delta, eps_res, n, const_c=const_c)
    except HypothesisViolated:
        # eps_res <= delta/(2n): the achievability regime, where no positive
        # closed-form floor applies
        raw = 0.0
    bounds = ErrorBounds(
        lecam_lower=float(np.mean([lecam_error_lower(t) for t in tvs])),
        formula_floor=min(raw, 0.5),
        regime=regime,
        formula_raw=raw,
    )
    return ExperimentReport(
        n=n,
        depth=cfg.depth,
        eps_res=eps_res,
        trials=trials,
        seed=seed,
        outcomes=outcomes,
        small_coord_fracs=small,
        error_rate=rate,
        ci_low=lo,
        ci_high=hi,
        mean_conditional_tv=float(tvs.mean()),
        bounds=bounds,
        delta=delta,
        f32_bound_max=f32_bound_max,
        f64_fallbacks=f64_fallbacks,
    )


@dataclass(frozen=True)
class DistanceStats:
    """Coupled embedding-distance experiment summary.

    ``envelope`` is delta/n * (1 + envelope_const/sqrt(n)) when the degree
    profiles separate, and envelope_const * n^(-3/2 + 0.1) when they match.
    ``frac_small_coords`` averages, per trial, the fraction of coordinates
    whose difference is at most COORD_TOL_CONST/n^2 (diagnostic for the
    matched regime).
    """

    n: int
    depth: int
    trials: int
    seed: int
    distances: tuple
    median: float
    p95: float
    envelope: float
    regime: str
    delta: float
    frac_small_coords: float
    shared_edge_randomness: bool


def _distance_trial(n, h0, h1):
    diff = np.abs(h0 - h1)
    return float(diff.max()), float((diff <= COORD_TOL_CONST / n**2).mean())


def check_distance_activation(act: Activation) -> None:
    """Refuse an activation the distance experiment does not cover.

    Identity, ReLU and the (expanded-)nice activations qualify; the sigmoid,
    not-nice because sigma(0) = 1/2, does not.
    """
    label = classify_activation(act).label
    if label not in ("nice", "expanded-nice") and act.kind != "relu":
        raise InvalidModel(
            "distance experiment expects identity/ReLU or an expanded-nice "
            f"activation, got {act.kind!r}"
        )


def embedding_distance_experiment(
    w0: StepGraphon,
    w1: StepGraphon,
    n: int,
    cfg: GCNConfig,
    trials: int,
    seed: int,
    share_edge_randomness: bool = False,
    envelope_const: float = 1.0,
) -> DistanceStats:
    """Distribution of max-coordinate distance between coupled embeddings.

    The depth should be at least the mixing scale (a constant times log n) so
    both embeddings sit near their stationary limits; the regimes then differ
    only through the degree-profile distance of the models.
    """
    if trials < 1:
        raise InvalidModel("trials must be >= 1")
    check_distance_activation(cfg.activation)
    dists, fracs = zip(*_each_trial(
        w0, w1, n, cfg, seed, trials, share_edge_randomness,
        lambda h0, h1, _: _distance_trial(n, h0, h1),
    ))
    return distance_stats(n, cfg.depth, seed, delta_distance(w0, w1), dists, fracs,
                          share_edge_randomness, envelope_const)


def distance_stats(n, depth, seed, delta, dists, fracs, share, envelope_const):
    """The DistanceStats of per-trial distances and small-coordinate fractions."""
    if delta < DELTA_ZERO_TOL:
        regime = "delta_zero"
        envelope = envelope_const * float(n) ** (-1.5 + 0.1)
    else:
        regime = "delta_positive"
        envelope = (delta / n) * (1.0 + envelope_const / np.sqrt(n))
    return DistanceStats(
        n=n,
        depth=depth,
        trials=len(dists),
        seed=seed,
        distances=tuple(float(d) for d in dists),
        median=float(np.median(dists)),
        p95=float(np.percentile(dists, 95)),
        envelope=float(envelope),
        regime=regime,
        delta=delta,
        frac_small_coords=float(np.mean(fracs)),
        shared_edge_randomness=share,
    )


def fit_decay_exponent(n_values, stat_values) -> float:
    """Least-squares slope of log(stat) against log(n).

    NaN, without a numpy warning, when fewer than two distinct sizes are given
    or a statistic is not positive: no slope is defined then.
    """
    n_values = np.asarray(n_values, dtype=float)
    stat_values = np.asarray(stat_values, dtype=float)
    if np.unique(n_values).size < 2 or not (stat_values > 0).all():
        return float("nan")
    return float(np.polyfit(np.log(n_values), np.log(stat_values), 1)[0])

"""Graph-convolution forward pass with identity weights and initial embedding.

One layer maps the embedding matrix M to sigma(A_hat @ M): a random-walk
diffusion followed by an elementwise activation. The initial embedding is the
identity, so the first layer is sigma(A_hat) and no O(n^3) right-multiplication
by a weight matrix ever runs. The graph-level embedding vector is the row
average of the final matrix; when the activation is the identity (or ReLU or
this selu, which agree with it on the nonnegative matrices produced here) it
is computed by a vector-matrix iteration instead of matrix powers.

Given an error limit, ``graph_embedding`` runs the float32 walk only until a
certificate puts the deep embedding within the limit of the walk's
stationary law pi = deg/sum(deg), and returns pi (``_certified``): the
walk's density h_t/pi is squeezed towards 1 step by step, so a few steps
bound every later one. Where that bracket never closes within K steps it
embeds the graph as the call without a limit does. Under tanh and swish the
result is scaled into a per-graph bracket around the walk (``_bracket``): a
certified scalar multiple of it.
``forward``, ``linearization_gap`` and every call without a limit stay
dense float64 for the nonlinear activations.

The dense pass holds three n x n float64 arrays: A_hat, M and one buffer.
Each layer writes A_hat @ M into the buffer, applies the activation there in
place (``Activation.__call__(x, out=)``, with the allocating form's bytes)
and swaps the buffer with M.

The embedding dimension always equals the number of vertices.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InvalidModel, NonFinite
from .graphon import finite_array
from .sampling import SampledGraph
from .seeding import make_rng
from .spectral import positive_degrees, rw_transition_matrix

ACTIVATION_KINDS = ("identity", "relu", "sigmoid", "tanh", "swish", "selu")

# Calibration constant for the Taylor-remainder envelope in
# linearization_gap. Pilot: tanh activation, identity weights, two-block
# model (.6,.4,.2) at n=250, K=34, seeds split from 20240501; the measured
# gap/envelope ratio was 0.368-0.375 (and ~0.369 again at n=500 and
# n=1000), so c=1 already covers the gap with a ~2.7x margin. Frozen at 1.0.
NONLINEARITY_ENVELOPE_CONSTANT = 1.0


@dataclass(frozen=True)
class Activation:
    """Elementwise activation; evaluation follows the closed forms exactly.

    selu here is the shifted-exponential form I[x<=0](e^x - 1) + I[x>0] x,
    without the usual scale parameters.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ACTIVATION_KINDS:
            raise InvalidModel(
                f"unknown activation {self.kind!r}; pick one of {ACTIVATION_KINDS}"
            )

    def __call__(self, x, out=None):
        """sigma(x); with ``out`` (which may be ``x`` itself) the result is
        written there, with the same bytes as the allocating form."""
        x = np.asarray(x, dtype=float)
        if self.kind == "identity":
            if out is None or out is x:
                return x
            np.copyto(out, x)
            return out
        if self.kind == "relu":
            return np.maximum(x, 0.0, out=out)
        with np.errstate(over="ignore"):  # exp saturation is handled by callers
            if self.kind == "tanh":
                return np.tanh(x, out=out)
            if self.kind == "sigmoid":  # 1 / (1 + e^-x)
                d = np.negative(x, out=np.empty_like(x) if out is None else out)
                np.exp(d, out=d)
                d += 1.0
                return np.divide(1.0, d, out=d)
            if self.kind == "swish":  # x / (1 + e^-x)
                d = np.negative(x, out=np.empty_like(x))
                np.exp(d, out=d)
                d += 1.0
                return np.divide(x, d, out=d if out is None else out)
            # selu: x where x > 0, else e^min(x, 0) - 1
            y = np.minimum(x, 0.0, out=np.empty_like(x))
            np.expm1(y, out=y)
            np.copyto(y, x, where=x > 0)
            if out is None:
                return y
            np.copyto(out, y)
            return out

    @property
    def is_linear_on_nonnegative(self) -> bool:
        return self.kind in ("identity", "relu", "selu")


@dataclass(frozen=True)
class ActivationClass:
    """Outcome of the smoothness/normalization taxonomy."""

    label: str  # nice | expanded-nice | not-nice
    violated_clause: str | None = None


def classify_activation(act: Activation) -> ActivationClass:
    """Sort a built-in activation into nice / expanded-nice / not-nice.

    nice means C^2 with sigma(0)=0, sigma'(0)=1 and sigma' <= 1 everywhere;
    the expanded class drops sigma'(0)=1 and only needs sigma' <= 1 near 0.
    The sigmoid fails sigma(0)=0 outright (sigma(0)=1/2) and ReLU is not C^2.
    tanh, swish, and this selu variant are filed under expanded-nice; tanh in
    fact satisfies every strict clause, and this selu's second derivative
    jumps at 0, so the expanded class is the honest common label for the trio.
    """
    kind = act.kind
    if kind == "identity":
        return ActivationClass("nice")
    if kind in ("tanh", "swish", "selu"):
        return ActivationClass("expanded-nice")
    if kind == "relu":
        return ActivationClass("not-nice", violated_clause="not C^2")
    if kind == "sigmoid":
        return ActivationClass(
            "not-nice", violated_clause="sigma(0)=0 violated (sigma(0)=1/2)"
        )
    raise InvalidModel(f"unknown activation kind {kind!r}")


@dataclass(frozen=True)
class GCNConfig:
    """Depth and activation of an identity-weight GCN."""

    depth: int
    activation: Activation = Activation("identity")

    def __post_init__(self):
        d = self.depth
        if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 1:
            raise InvalidModel(f"depth must be a positive integer, got {d!r}")
        if isinstance(self.activation, str):
            object.__setattr__(self, "activation", Activation(self.activation))


def _check_finite(m):
    if not np.isfinite(m).all():
        raise NonFinite("non-finite value produced in forward pass")


def _layer(ahat, m, act, out):
    """Write one layer sigma(A_hat M) into out and return it.

    m = None stands for the identity M; out = None allocates the output.
    out must be neither m nor A_hat.
    """
    if out is None:
        out = np.empty_like(ahat)
    with np.errstate(over="ignore", invalid="ignore"):  # both surface as NonFinite below
        x = ahat if m is None else np.matmul(ahat, m, out=out)
        _check_finite(x)
        act(x, out=out)
        _check_finite(out)
    return out


def forward(g: SampledGraph, cfg: GCNConfig) -> np.ndarray:
    """Run the K-layer recurrence M <- sigma(A_hat M) from M = I on the graph.

    Returns the final n x n embedding matrix, checked finite at every layer.
    """
    ahat = rw_transition_matrix(g)
    m = buf = None
    for _ in range(cfg.depth):
        m, buf = _layer(ahat, m, cfg.activation, buf), m
    return m


@functools.cache
def _numpy_openblas():
    """ctypes handle of the OpenBLAS bundled in numpy's wheel, or None.

    Opening the file numpy has already loaded returns numpy's own copy, so
    the thread count set here is the one numpy's products run with.
    """
    site = os.path.dirname(os.path.dirname(np.__file__))
    paths = sorted(glob.glob(os.path.join(site, "numpy.libs", "libscipy_openblas64_-*.so")))
    if not paths:
        return None
    try:
        lib = ctypes.CDLL(paths[0])
        lib.scipy_openblas_get_num_threads64_.argtypes = []
        lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
        lib.scipy_openblas_set_num_threads64_.restype = None
        lib.scipy_openblas_get_corename64_.argtypes = []
        lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
    except (OSError, AttributeError):
        return None
    return lib


@contextlib.contextmanager
def one_blas_thread():
    """Run numpy's OpenBLAS on the calling thread; yields whether it could.

    The caller's thread count is restored on exit, also when the body raises.
    Yields False, and changes nothing, when the library is not found.
    """
    lib = _numpy_openblas()
    if lib is None:
        yield False
        return
    previous = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield True
    finally:
        lib.scipy_openblas_set_num_threads64_(previous)


def blas_info() -> dict | None:
    """numpy's OpenBLAS core kernel and thread counts, or None when not found.

    ``threads`` is the count BLAS calls outside the Monte Carlo trial loops
    run with; ``dense_path_threads`` is the count every trial's embeddings
    run with, on the dense and the vector path alike: the trial loop embeds
    a pair's two graphs at once, on the caller and one worker thread, and
    keeps numpy's OpenBLAS on one thread so the two do not contend.
    """
    lib = _numpy_openblas()
    if lib is None:
        return None
    return {
        "corename": lib.scipy_openblas_get_corename64_().decode(),
        "threads": lib.scipy_openblas_get_num_threads64_(),
        "dense_path_threads": 1,
    }


def embedding_vector(m: np.ndarray) -> np.ndarray:
    """Row average of the embedding matrix: the graph-level representation."""
    return m.mean(axis=0)


def f32_relative_error(n: int, t: int) -> float:
    """rel = (1 + u)^(t(n + 2) + 1) - 1 with u = 2^-24, float32's unit
    roundoff: the coordinatewise relative error of the float32 walk's h_t.

    Every entry of A, r = fl32(1/d) and h is nonnegative, so each float32
    step h <- (h r) A errs by at most (1 + u)^(n + 1) - 1 relatively in every
    coordinate, whatever the summation order, FMA or not: one rounding for r,
    one for each product h_j r_j (a_jk in {0, 1} makes the second exact) and
    n - 1 for the sum (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3). The rounding of h_0 = fl32(1/n) and t steps stay
    within t(n + 2) + 1 roundings, one at t = 0.
    """
    return math.expm1((t * (n + 2) + 1) * math.log1p(2.0**-24))


def _bracket(act: Activation, d: int, depth: int):
    """(lo, hi) with lo h_lin <= h <= hi h_lin in every coordinate, where h is
    the K-layer embedding under act, h_lin the exact walk's and d the least
    degree; None where no bracket is known (the sigmoid).

    Every entry of A_hat^t is at most 1/d, since A_hat is row-stochastic and
    so (A_hat^t)_ij <= max_k (A_hat)_kj. Each layer's argument x then lies in
    [0, 1/d], where x - x^3/3 <= tanh x <= x, and where
    x/2 <= swish x <= x (1/2 + x/4), the sigmoid being concave on [0, inf)
    with slope 1/4 at 0. By induction c^t A_hat^t <= M_t <= C^t A_hat^t
    entrywise, with (c, C) = (1 - 1/(3 d^2), 1) under tanh and
    (1/2, 1/2 + 1/(4d)) under swish, and the row mean keeps the order. Both
    ends are widened by a relative (K + 4) 2^-52, for the float64 roundings
    of c and C, of their K-th powers, of the midpoint and of the scaling.
    """
    if act.is_linear_on_nonnegative:
        return 1.0, 1.0
    if act.kind == "tanh":
        lo, hi = (1.0 - 1.0 / (3.0 * d * d)) ** depth, 1.0
    elif act.kind == "swish":
        lo, hi = 0.5**depth, (0.5 + 0.25 / d) ** depth
    else:
        return None
    slack = (depth + 4) * 2.0**-52
    return lo * (1.0 - slack), hi * (1.0 + slack)


def _certified(limit, g, depth, act, run64):
    """run64() without a limit; with one, (h, bound, t): h within bound of
    the K-layer embedding under act in every coordinate, certified at walk
    step t.

    One float32 walk (``_steps``) runs under the limit. By reversibility its
    density f_t = h_t/pi, pi = deg/sum(deg), is the neighbour mean of
    f_(t-1), so max f_t never rises and min f_t never falls (Levin, Peres and
    Wilmer, Markov Chains and Mixing Times, 1.6): h_K and pi both lie in
    pi [min f_t, max f_t] for every K >= t. At each step t = 0, 1, ..., K
    the two ends are widened by the walk's rounding (f32_relative_error(n,
    t), and gradual underflow), and at the first t whose bound
    s pi_max max(max f_t - 1, 1 - min f_t) + (hi - lo)/2 pi_max max f_t is at
    most limit, h is s pi, s being the midpoint of act's bracket [lo, hi]
    (``_bracket``; s = 1 and lo = hi on the linear path). Step 0 reads no
    matrix. Where that never happens, h is run64's result, with the bytes of
    the call without a limit, bound is None and t is K. The walk's vectors
    and matrix are freed before run64 runs; acts without a bracket go to
    run64 at once.
    """
    if limit is None:
        return run64()
    return _float32_walk(limit, g, depth, act) or (run64(), None, depth)


def _float32_walk(limit, g, depth, act):
    """``_certified``'s (h, bound, t) where the float32 walk certifies h,
    else None."""
    n = g.n
    deg = positive_degrees(g)
    bracket = _bracket(act, int(deg.min()), depth)
    if bracket is None:
        return None
    lo, hi = bracket
    s, half = (lo + hi) / 2, (hi - lo) / 2
    # one rounding each: the integer degrees and their sum are exact
    pi = deg / float(deg.sum())
    pi_max, pi_min = float(pi.max()), float(pi.min())
    for t, h in enumerate(_steps(g, depth, deg, np.float32)):
        rel = f32_relative_error(n, t)
        if rel >= 1.0:
            return None
        f = h / pi
        # h_t within rel h_t of the exact walk, plus at most 2^-150
        # absolutely per product h_j r_j under gradual underflow (the
        # walk never grows l1 norms); 2^-50 covers the float64 roundings
        # of pi, f and the widening, and the final 2^-51 and 1 + 2^-50
        # those of s pi and of the bound itself
        under = t * n * n * 2.0**-148 / pi_min
        top = float(f.max()) * (1.0 + 2.0**-50) / (1.0 - rel) + under
        bottom = float(f.min()) * (1.0 - 2.0**-50) / (1.0 + rel) - under
        bound = pi_max * (s * (max(top - 1.0, 1.0 - bottom) + 2.0**-51)
                          + half * top) * (1.0 + 2.0**-50) + 2.0**-1070
        if bound <= limit:
            return s * pi, bound, t
    return None


def _steps(g: SampledGraph, depth: int, deg: np.ndarray, dtype):
    """Yield h_t = h_0 A_hat^t in dtype for t = 0, 1, ..., depth, as
    h <- (h r) A with A the 0/1 adjacency, which is cast to dtype only once
    step 1 is asked for. It stops after h_t where step t + 1 would return h_t
    bit for bit: the step is one fixed map, so every later h_t has its bytes.
    """
    # exact: degrees up to 2^24 and the 0/1 entries are integers in either dtype
    r = dtype(1.0) / deg.astype(dtype)
    h = np.full(g.n, dtype(1.0) / dtype(g.n), dtype=dtype)
    yield h
    a = g.adjacency.astype(dtype)
    for _ in range(depth):
        step = (h * r) @ a
        if step.tobytes() == h.tobytes():
            return
        h = step
        yield h


def _walk(g: SampledGraph, depth: int, deg: np.ndarray) -> np.ndarray:
    """h_0 A_hat^K in float64: the last vector of ``_steps``."""
    for h in _steps(g, depth, deg, np.float64):
        pass
    return h


def fast_linear_embedding(g: SampledGraph, depth: int, limit: float | None = None):
    """Row average of A_hat^K without forming matrix powers.

    Equals embedding_vector(forward(g, cfg)) for the identity (or ReLU or
    selu) activation: the row-average vector is pushed through the chain one
    vector-matrix product per layer, in float64 (``_walk``).

    With a limit, returns (h, bound, t) instead (``_certified``): the same
    walk runs in float32, reading half the bytes per layer, and h is the
    stationary law pi once its certificate closes at step t, else the
    float64 walk's with bound None.
    """
    return _certified(limit, g, depth, Activation("identity"),
                      lambda: _walk(g, depth, positive_degrees(g)))


def graph_embedding(g: SampledGraph, cfg: GCNConfig, limit: float | None = None):
    """Embedding vector of a graph under cfg, via the cheapest valid path.

    Without a limit: the float64 vector walk for the identity, ReLU and
    selu, and the dense float64 forward pass for every other activation.
    With a limit, returns (h, bound, t) (``_certified``): tanh and swish then
    return the stationary law scaled into their bracket wherever the float32
    walk's certificate plus the bracket's half-width comes within the limit,
    and the dense float64 pass, with bound None, elsewhere. The sigmoid
    always takes the dense pass.
    """
    if cfg.activation.is_linear_on_nonnegative:
        return fast_linear_embedding(g, cfg.depth, limit)
    return _certified(limit, g, cfg.depth, cfg.activation,
                      lambda: embedding_vector(forward(g, cfg)))


def check_eps_res(eps_res: float) -> None:
    """Refuse an eps_res that is NaN, not positive, or whose width 2*eps_res is infinite."""
    if not (eps_res > 0 and math.isfinite(2 * eps_res)):
        raise InvalidModel(f"eps_res must be positive, with 2*eps_res finite, got {eps_res!r}")


def perturb(h: np.ndarray, eps_res: float, seed: int) -> np.ndarray:
    """Add i.i.d. uniform noise on [-eps_res, eps_res] to every coordinate."""
    check_eps_res(eps_res)
    h = finite_array(h, "embedding")
    rng = make_rng(seed)
    return h + rng.uniform(-eps_res, eps_res, size=h.shape)


def linearization_gap(g: SampledGraph, cfg: GCNConfig) -> tuple[float, float]:
    """Max-entry gap between the nonlinear and linear passes, plus its envelope.

    Valid for activations in the nice/expanded-nice classes (|sigma(x)| <= |x|
    and sigma(x) = x(1 + O(x^2)) near 0) and depth well below sqrt(n). The
    envelope multiplies the per-layer Taylor-remainder factors
    (1 + c * a_l^2 / n^2), with a_l the measured transposed operator norm of
    the layer input, against the max entry of the linear output; c is the
    frozen calibration constant.
    """
    label = classify_activation(cfg.activation).label
    if label not in ("nice", "expanded-nice"):
        raise InvalidModel(
            f"linearization gap needs a (expanded-)nice activation, got {cfg.activation.kind}"
        )
    if cfg.activation.kind == "swish":
        # slope 1/2 at the origin: the gap against the identity-activation
        # pass is first-order, not a Taylor remainder, so the multiplicative
        # envelope does not apply
        raise InvalidModel(
            "linearization gap needs unit slope at 0; swish halves small inputs"
        )
    if cfg.depth >= math.isqrt(g.n) * 4:
        raise InvalidModel("depth must stay well below sqrt(n) for the envelope")

    ahat = rw_transition_matrix(g)
    n = g.n
    linear = Activation("identity")
    m_nl = m_lin = buf_nl = buf_lin = None
    a_norms = []
    for _ in range(cfg.depth):
        # m_nl's largest absolute column sum, |m_nl| in the buffer the layer overwrites
        a_norms.append(
            1.0 if m_nl is None else np.abs(m_nl, out=buf_nl).sum(axis=0).max()
        )
        m_nl, buf_nl = _layer(ahat, m_nl, cfg.activation, buf_nl), m_nl
        m_lin, buf_lin = _layer(ahat, m_lin, linear, buf_lin), m_lin
    gap = float(np.abs(np.subtract(m_nl, m_lin, out=buf_nl), out=buf_nl).max())

    c = NONLINEARITY_ENVELOPE_CONSTANT
    factors = 1.0 + c * np.array(a_norms) ** 2 / n**2
    envelope = float(np.abs(m_lin, out=buf_lin).max() * (np.prod(factors) - 1.0))
    return gap, envelope

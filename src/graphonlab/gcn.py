"""Graph-convolution forward pass with identity weights and initial embedding.

One layer maps the embedding matrix M to sigma(A_hat @ M): a random-walk
diffusion followed by an elementwise activation. The initial embedding is the
identity, so the first layer is sigma(A_hat) and no O(n^3) right-multiplication
by a weight matrix ever runs. The graph-level embedding vector is the row
average of the final matrix; when the activation is the identity (or ReLU or
this selu, which agree with it on the nonnegative matrices produced here) it
is computed by a vector-matrix iteration instead of matrix powers.

Given an error limit, ``graph_embedding`` runs the vector iteration and the
tanh forward pass in float32, moving half the bytes per layer, whenever a
rounding-error certificate puts the embedding's coordinatewise error within
the limit, and in float64 otherwise (``_certified``). Every other dense
activation runs in float64.

The dense pass holds three n x n arrays, float64 or float32: A_hat, M and one
buffer. Each layer writes A_hat @ M into the buffer, applies the activation
there in place (``Activation.__call__(x, out=)``, with the allocating form's
bytes) and swaps the buffer with M.

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
        written there, with the same bytes as the allocating form.

        A float32 x keeps its dtype; any other input is taken as float64.
        tanh of a float32 x is evaluated in float64 and rounded once, so it
        equals fl32(tanh64(x)) bit for bit.
        """
        x = np.asarray(x)
        if x.dtype != np.float32:
            x = np.asarray(x, dtype=float)
        if self.kind == "identity":
            if out is None or out is x:
                return x
            np.copyto(out, x)
            return out
        if self.kind == "relu":
            return np.maximum(x, 0.0, out=out)
        with np.errstate(over="ignore"):  # exp saturation is handled by callers
            if self.kind == "tanh":  # buffered: float64 in chunks, not a copy of x
                return np.tanh(x, out=np.empty_like(x) if out is None else out,
                               dtype=np.float64)
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
        if self.depth < 1:
            raise InvalidModel("depth must be a positive integer")
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


def forward(g: SampledGraph, cfg: GCNConfig, dtype=np.float64) -> np.ndarray:
    """Run the K-layer recurrence M <- sigma(A_hat M) from M = I on the graph.

    Returns the final n x n embedding matrix, checked finite at every layer.
    With dtype float32 every array is float32, A_hat being fl32(1/d) A built
    from the 0/1 adjacency, so no float64 n x n array exists; the products
    are SGEMM. Only tanh's float32 pass carries a certificate (see
    ``graph_embedding``).
    """
    if np.dtype(dtype) == np.float32:
        ahat = g.adjacency.astype(np.float32)
        ahat *= _reciprocal_degrees32(g)[:, None]  # exact: the entries are 0 or 1
    else:
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
    """Row average of the embedding matrix: the graph-level representation,
    summed in float64 whatever m's dtype."""
    return m.mean(axis=0, dtype=np.float64)


# Roundings per layer beyond n, in f32_relative_error's count: the walk's
# h <- (h r) A and the tanh layer's sigma(A_hat M) (see graph_embedding)
_WALK_ROUNDINGS = 2
_TANH_ROUNDINGS = 4


def f32_relative_error(n: int, depth: int, extra: int) -> float:
    """rel = (1 + u)^(K(n + extra)) - 1 with u = 2^-24, float32's unit
    roundoff: the coordinatewise relative error of a K-layer float32 pass
    whose every entry is nonnegative and whose layers each round at most
    n + extra times along any path.

    Each rounding multiplies an entry by some 1 + d with |d| <= u, and with
    nonnegative terms a sum's roundings stay relative to it, whatever the
    summation order, FMA or not (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3). The walk h <- (h r) A, with r = fl32(1/d) and A the
    0/1 adjacency, rounds once for r, once for each product h_j r_j (a_jk in
    {0, 1} makes the second exact) and n - 1 times for the sum, and K steps
    with the rounding of h_0 = fl32(1/n) stay within K(n + 2).
    """
    return math.expm1(depth * (n + extra) * math.log1p(2.0**-24))


def _certified(limit, n, depth, extra, run32, run64):
    """run64() without a limit; with one, (h, bound) under the float32
    certificate.

    run32 gives the float32 pass's nonnegative embedding as float64 (None
    where no certificate applies), extra its roundings per layer beyond n.
    h is run32's result when the coordinatewise error bound = rel/(1 - rel)
    max h + (underflow term) is at most limit, rel = f32_relative_error;
    otherwise h is run64's result, with the bytes of the call without a
    limit, and bound is None. run32 is skipped outright when rel/n exceeds
    the limit: max h >= 1/n on the walk, and nearly so under tanh, then
    fails the check anyway. run32's arrays are freed before run64 runs.
    """
    if limit is None:
        return run64()
    if run32 is not None:
        rel = f32_relative_error(n, depth, extra)
        if rel < 1.0 and rel / n <= limit:
            h = run32()
            # gradual underflow adds at most 2^-150 absolutely per product
            # and per tanh; the walk never grows l1 norms (which bound max
            # norms), A_hat M never grows max norms and tanh is 1-Lipschitz
            bound = rel / (1.0 - rel) * float(h.max()) + depth * n * n * 2.0**-148
            if bound <= limit:
                return h, bound
    return run64(), None


def _reciprocal_degrees32(g: SampledGraph) -> np.ndarray:
    """fl32(1/d) per vertex; exact degrees up to 2^24, one rounding each."""
    return np.float32(1.0) / positive_degrees(g).astype(np.float32)


def _walk32(g: SampledGraph, depth: int) -> np.ndarray:
    """h_0 A_hat^K in float32, as h <- (h r) A with A the 0/1 adjacency."""
    r = _reciprocal_degrees32(g)
    a = g.adjacency.astype(np.float32)
    h = np.full(g.n, np.float32(1.0) / np.float32(g.n), dtype=np.float32)
    for _ in range(depth):
        h = (h * r) @ a
    return h


def _walk64(g: SampledGraph, depth: int) -> np.ndarray:
    ahat = rw_transition_matrix(g)
    h = np.full(g.n, 1.0 / g.n)
    for _ in range(depth):
        h = h @ ahat
    return h


def fast_linear_embedding(g: SampledGraph, depth: int, limit: float | None = None):
    """Row average of A_hat^K without forming matrix powers.

    Equals embedding_vector(forward(g, cfg)) for the identity (or ReLU or
    selu) activation: the row-average vector is pushed through the chain one
    vector-matrix product per layer, in float64.

    With a limit, returns (h, bound) instead (``_certified``): the walk runs
    in float32, reading half the bytes per layer, and h is its float64 copy,
    when its certificate (``f32_relative_error`` with K(n + 2) roundings)
    holds, and in float64 with bound None otherwise.
    """
    return _certified(
        limit, g.n, depth, _WALK_ROUNDINGS,
        lambda: _walk32(g, depth).astype(np.float64), lambda: _walk64(g, depth),
    )


def graph_embedding(g: SampledGraph, cfg: GCNConfig, limit: float | None = None):
    """Embedding vector of a graph under cfg, via the cheapest valid path.

    With a limit, returns (h, bound) as fast_linear_embedding does. On the
    dense path only tanh has a float32 certificate: every entry of A_hat, M
    and A_hat M is nonnegative, and tanh is increasing and concave on
    [0, inf) with tanh 0 = 0, so a relative error in its argument leaves a
    layer no larger. A layer rounds once for fl32(1/d), once per product,
    n - 1 times for the sum, once for the float64 tanh's own error (within
    2^27 of its ulps) and once for rounding it to float32; the float64 row
    mean of n terms errs by less than one more. K(n + 4) covers them all.
    Swish, convex near 0, and the sigmoid run in float64 with bound None.
    """
    if cfg.activation.is_linear_on_nonnegative:
        return fast_linear_embedding(g, cfg.depth, limit)

    def dense(dtype):
        return embedding_vector(forward(g, cfg, dtype))

    run32 = (lambda: dense(np.float32)) if cfg.activation.kind == "tanh" else None
    return _certified(limit, g.n, cfg.depth, _TANH_ROUNDINGS, run32,
                      lambda: dense(np.float64))


def perturb(h: np.ndarray, eps_res: float, seed: int) -> np.ndarray:
    """Add i.i.d. uniform noise on [-eps_res, eps_res] to every coordinate."""
    if eps_res <= 0:
        raise InvalidModel("eps_res must be positive")
    h = np.asarray(h, dtype=float)
    rng = make_rng(seed)
    return h + rng.uniform(-eps_res, eps_res, size=h.shape)


def inf_operator_norm(m: np.ndarray) -> float:
    """Operator norm induced by the max norm: maximum absolute row sum."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    return float(np.abs(m).sum(axis=1).max())


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
        # inf_operator_norm(m_nl.T), with |m_nl| in the buffer the layer overwrites
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

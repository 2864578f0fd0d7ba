"""In-memory spans around calls into graphonlab's public functions.

Spans are recorded from the benchmark's side only: ``Tracer.installed()``
replaces the module attributes that callers look up (``graphonlab.testing.
sample_coupled`` is the name the trial loop calls, ``graphonlab.gcn.forward``
the name ``graph_embedding`` calls) with timing wrappers, and puts the
originals back on exit. No file of the package changes, and each span times a
call as its caller sees it.

A span's layer is the part of its name before the first dot, which is the
graphonlab module that defines the function. Self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import statistics
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter

LAYERS = ("sampling", "spectral", "gcn", "testing", "graphon")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int
    n: int | None
    depth: int | None  # network layers K, on embedding calls
    child_s: float = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


def _arg(i):
    return lambda a, k: a[i]


def _graph_n(a, k):
    return a[0].n


def _len0(a, k):
    return len(a[0])


def _coupled_name(a, k):
    shared = k.get("share_edge_randomness", a[4] if len(a) > 4 else False)
    return "sampling.sample_coupled." + ("shared" if shared else "indep")


# (module, attribute, span name or name function, n of the call, K of the call)
HOOKS = (
    ("graphonlab.cli", "parse_model_spec", "graphon.parse_model_spec", None, None),
    ("graphonlab.cli", "embedding_distance_experiment",
     "testing.embedding_distance_experiment", _arg(2), None),
    ("graphonlab.cli", "monte_carlo_error", "testing.monte_carlo_error", _arg(2), None),
    ("graphonlab.cli", "sample_graph", "sampling.sample_graph", _arg(1), None),
    ("graphonlab.cli", "mixing_time", "spectral.mixing_time", _graph_n, None),
    ("graphonlab.testing", "sample_coupled", _coupled_name, _arg(2), None),
    ("graphonlab.testing", "graph_embedding", "gcn.graph_embedding", _graph_n, None),
    ("graphonlab.testing", "perturb", "gcn.perturb", _len0, None),
    ("graphonlab.testing", "nearest_profile_test", "testing.nearest_profile_test",
     _arg(3), None),
    ("graphonlab.testing", "tv_perturbed", "testing.tv_perturbed", _len0, None),
    ("graphonlab.testing", "delta_distance", "graphon.delta_distance", None, None),
    ("graphonlab.gcn", "rw_transition_matrix", "spectral.rw_transition_matrix",
     _graph_n, None),
    ("graphonlab.gcn", "fast_linear_embedding", "gcn.fast_linear_embedding",
     _graph_n, _arg(1)),
    ("graphonlab.gcn", "forward", "gcn.forward", _graph_n, lambda a, k: a[1].depth),
    ("graphonlab.spectral", "rw_transition_matrix", "spectral.rw_transition_matrix",
     _graph_n, None),
    ("graphonlab.spectral", "stationary", "spectral.stationary", _graph_n, None),
    ("graphonlab.spectral", "spectral_gap", "spectral.spectral_gap", _graph_n, None),
)


class Tracer:
    """Holds the spans of one benchmark process in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self._stack: list[Span] = []

    def _wrap(self, fn, name, n_of, depth_of):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(
                id=len(spans),
                name=name(args, kwargs) if callable(name) else name,
                start=0.0,
                end=0.0,
                parent=None if parent is None else parent.id,
                run_id=self.run_id,
                n=None if n_of is None else int(n_of(args, kwargs)),
                depth=None if depth_of is None else int(depth_of(args, kwargs)),
            )
            spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start

        return traced

    @contextmanager
    def installed(self, run_id: int):
        """Wrap every hook for the duration of one command."""
        self.run_id = run_id
        saved = []
        try:
            for module_name, attr, name, n_of, depth_of in HOOKS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, n_of, depth_of))
            # cmd_mixing calls the classmethod RWChain.from_graph directly
            chain_cls = importlib.import_module("graphonlab.spectral").RWChain
            saved.append((chain_cls, "from_graph", chain_cls.__dict__["from_graph"]))
            chain_cls.from_graph = staticmethod(
                self._wrap(chain_cls.from_graph, "spectral.RWChain.from_graph",
                           lambda a, k: a[0].n, None)
            )
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def run_spans(self, run_id: int) -> list[Span]:
        return [s for s in self.spans if s.run_id == run_id]

    def dump(self) -> list[dict]:
        return [dict(asdict(s), self_s=s.self_s) for s in self.spans]


def command_breakdown(spans: list[Span], wall_s: float) -> dict:
    """Per-layer self seconds, per-function inclusive seconds, and coverage.

    ``cli`` self time is the part of the command's wall time that no top-level
    span covers: argument parsing, CSV and JSON formatting, hashing and the
    manifest.
    """
    layer_self = {layer: 0.0 for layer in LAYERS}
    func_incl: dict[str, float] = {}
    covered = 0.0
    for s in spans:
        layer_self[s.name.split(".", 1)[0]] += s.self_s
        func_incl[s.name] = func_incl.get(s.name, 0.0) + s.dur
        if s.parent is None:
            covered += s.dur
    return {
        "wall_s": wall_s,
        "layer_self_s": layer_self,
        "func_s": func_incl,
        "cli_self_s": wall_s - covered,
        "coverage": covered / wall_s,
    }


def high_percentile(count: int):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if count * (100 - p) / 100 >= 10:
            return p
    return None


def call_table(spans: list[Span]) -> list[dict]:
    """Per (function, n): calls, p50 and the highest supported percentile, ms."""
    groups: dict[tuple, list[float]] = {}
    for s in spans:
        groups.setdefault((s.name, s.n), []).append(s.dur * 1e3)
    rows = []
    for (name, n), durs in sorted(groups.items(), key=lambda kv: (kv[0][0], kv[0][1] or 0)):
        p = high_percentile(len(durs))
        hi = statistics.quantiles(durs, n=100)[p - 1] if p else None
        rows.append({"name": name, "n": n, "calls": len(durs),
                     "p50_ms": statistics.median(durs), "hi_pct": p, "hi_ms": hi})
    return rows

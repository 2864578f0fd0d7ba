"""Semantic exception hierarchy.

Public functions raise these instead of bare ValueError so callers can
distinguish contract violations (bad inputs) from model-level failures
(disconnected graphs, walks that never mix, ...).
"""


class GraphonLabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidModel(GraphonLabError, ValueError):
    """A graphon / SBM / config object violates its invariants."""


class OutOfRange(GraphonLabError, ValueError):
    """A generated parameter point leaves the admissible density box (0, 1]."""


class TooManyBlocks(GraphonLabError):
    """Exact cut-norm enumeration requested beyond the supported block count."""


class UnmatchableWeights(GraphonLabError):
    """Block weight multisets of two step graphons cannot be matched."""


class ShapeMismatch(GraphonLabError, ValueError):
    """Two arrays that must share a shape do not."""


class ParseError(GraphonLabError, ValueError):
    """Malformed edge-list input; carries the 1-based line number."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class EmptyInput(GraphonLabError, ValueError):
    """Edge-list stream contained no edges."""


class EmptyGraph(GraphonLabError):
    """Operation undefined on a graph with zero total degree."""


class IsolatedVertex(GraphonLabError):
    """Random-walk matrix undefined: some vertex has degree zero."""

    def __init__(self, vertex):
        super().__init__(f"vertex {vertex} is isolated")
        self.vertex = vertex


class Disconnected(GraphonLabError):
    """The walk's stationary distribution is not unique."""


class NotMixed(GraphonLabError):
    """Worst-row TV never dropped below eps within t_max steps.

    Signals periodicity, disconnection, or an insufficient horizon. The
    partial TV trace is attached for diagnosis.
    """

    def __init__(self, t_max, trace=None):
        super().__init__(f"chain not mixed within t_max={t_max} steps")
        self.t_max = t_max
        self.trace = trace if trace is not None else []


class NonFinite(GraphonLabError, FloatingPointError):
    """An embedding matrix left the finite range (activation overflow)."""


class HypothesisViolated(GraphonLabError, ValueError):
    """A bound formula was evaluated outside its hypothesis region."""


class GraphTooLarge(GraphonLabError):
    """Computation or dense allocation requested beyond its size limit."""

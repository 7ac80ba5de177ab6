"""Exception types shared across the package."""

from __future__ import annotations


class CovdexError(Exception):
    """Base class for all package-specific errors."""


class GraphFormatError(CovdexError, ValueError):
    """Malformed graph text (bad header, tokens, or vertex references)."""


class LoopEdge(CovdexError, ValueError):
    """An edge was given with both endpoints equal."""


class VertexOutOfRange(CovdexError, ValueError):
    """A vertex index falls outside [0, n)."""


class EdgeNotIncident(CovdexError, ValueError):
    """An operation referenced an edge at a vertex it does not touch."""


class TooLarge(CovdexError):
    """Input exceeds the configured exhaustive-search cap."""


class BudgetExhausted(CovdexError):
    """A bounded search ran out of nodes or steps before reaching a verdict."""


class DisjointnessViolation(CovdexError):
    """Two distinct minimum optimal odd sets share a vertex.

    Indicates an implementation bug or a genuine counterexample; surfaced,
    never resolved silently.
    """


class PreconditionViolated(CovdexError):
    """A documented operation precondition does not hold for the input."""


class DensityMismatch(CovdexError):
    """Edge count of a block does not equal s * (|V| - 1) / 2."""


class NoFeasiblePermutation(CovdexError):
    """No palette bijection satisfies the boundary requirements."""


class LiftInvariantViolated(CovdexError):
    """An assembled coloring violates one of the three lift properties."""

    def __init__(self, prop: int, message: str):
        super().__init__(f"lift property {prop}: {message}")
        self.prop = prop


class CodensityDropped(CovdexError):
    """A split lowered the restricted co-density below k."""


class NoInternalEdge(CovdexError):
    """An optimal odd set has no internal edge to puncture."""


class DegreeBoundFailed(CovdexError):
    """A contracted block vertex exceeds degree k/2 although a guarantee
    hypothesis (multiplicity <= 2 or k <= 6) holds."""


class AugmentationFailed(CovdexError):
    """Patching the first k color classes left some vertex unsaturated."""


class StageAssertionFailed(CovdexError):
    """A pipeline stage invariant did not hold."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage

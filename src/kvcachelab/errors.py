"""Exception types shared across the library.

Every error raised intentionally by this package derives from
:class:`KVCacheLabError`, so callers can catch the whole family in one
clause while still discriminating fine-grained failure modes.
"""

from __future__ import annotations


class KVCacheLabError(Exception):
    """Base class for all errors raised by kvcachelab."""


# --- trace files and specs -----------------------------------------------

class InvalidTrace(KVCacheLabError):
    """A trace object violates its invariants (shape mismatch, NaN, n < 1)."""


class InvalidSpec(KVCacheLabError):
    """A spec the library rejects: a trace, policy, metric or lab setting."""


class MalformedTrace(KVCacheLabError):
    """A trace file cannot be parsed.

    ``byte_offset`` points at the first byte that made the parse fail,
    when that position is meaningful (binary format only).
    """

    def __init__(self, message: str, byte_offset: int | None = None):
        super().__init__(message)
        self.byte_offset = byte_offset


# --- policies ---------------------------------------------------------------

class InconsistentState(KVCacheLabError):
    """Policy inputs disagree (scores missing for a tracked token, etc.)."""


# --- metrics ------------------------------------------------------------------

class EmptyRow(KVCacheLabError):
    """A sparsity computation received an empty weight vector."""


class TraceMismatch(KVCacheLabError):
    """A simulation record does not belong to the given trace."""


class DimensionMismatch(KVCacheLabError):
    """Sampled vectors disagree in length."""


# --- submodular lab -----------------------------------------------------------

class BadBudget(KVCacheLabError):
    """Selection budget outside [1, n]."""


class TooLarge(KVCacheLabError):
    """Instance too large for exhaustive enumeration."""


# --- regression -----------------------------------------------------------------

class NonFinite(KVCacheLabError):
    """A loss/gradient/Hessian evaluation overflowed even after stabilization."""


class MaxIterationsExceeded(KVCacheLabError):
    """Newton solver hit its iteration cap before reaching tolerance.

    Carries the partial trajectory in ``trajectory`` for post-mortems.
    """

    def __init__(self, message: str, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory

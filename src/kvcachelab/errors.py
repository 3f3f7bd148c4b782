"""Exception types shared across the library.

Every error raised intentionally by this package derives from
:class:`KVCacheLabError`, so callers can catch the whole family in one
clause. Below it there is one class for each way a caller handles an
error: the CLI exits 2 on :class:`InvalidSpec`, 3 on
:class:`MalformedTrace` and 4 on the rest, and ``regress`` writes the
partial trajectory that :class:`MaxIterationsExceeded` carries.
"""

from __future__ import annotations


class KVCacheLabError(Exception):
    """Base class for all errors raised by kvcachelab."""


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


class NonFinite(KVCacheLabError):
    """A loss/gradient/Hessian evaluation overflowed even after stabilization."""


class MaxIterationsExceeded(KVCacheLabError):
    """Newton solver hit its iteration cap before reaching tolerance.

    Carries the partial trajectory in ``trajectory`` for post-mortems.
    """

    def __init__(self, message: str, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory

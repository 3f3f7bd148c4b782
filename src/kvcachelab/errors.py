"""Exception types shared across the library.

Every error raised intentionally by this package derives from
:class:`KVCacheLabError`, so callers can catch the whole family in one
clause. Below it there is one class per CLI exit code:
:class:`InvalidSpec` exits 2, :class:`MalformedTrace` 3, and
:class:`NonFinite`, like any other error of the family, 4.
"""

from __future__ import annotations


class KVCacheLabError(Exception):
    """Base class for all errors raised by kvcachelab."""


class InvalidSpec(KVCacheLabError):
    """A spec the library rejects: a trace, policy, metric or lab setting."""


class MalformedTrace(KVCacheLabError):
    """A trace file cannot be parsed; a binary file's message names the byte."""


class NonFinite(KVCacheLabError):
    """A loss/gradient/Hessian evaluation overflowed even after stabilization."""

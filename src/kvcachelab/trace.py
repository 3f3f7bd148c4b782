"""Attention traces: the (Q, K) matrices that drive a decode simulation.

A trace holds one head's query and key matrices for ``n`` decode steps.
Row ``i-1`` belongs to token ``i`` (token indices are 1-based everywhere in
this package, matching decode-step numbering). Traces are immutable after
construction.

File format
-----------
Binary (KVT1): magic bytes ``KVT1``, little-endian u32 ``n``, u32 ``d``, then
``n*d`` float64 Q entries row-major, then ``n*d`` float64 K entries
row-major. A producer outside this package writes one with numpy alone::

    with open(path, "wb") as fh:
        fh.write(b"KVT1" + np.array([n, d], dtype="<u4").tobytes())
        fh.write(np.ascontiguousarray(q, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(k, dtype="<f8").tobytes())

:func:`save_trace` writes JSON instead when the path ends in ``.json``:
``{"n": N, "d": D, "Q": [row, ...], "K": [row, ...]}`` as ``json.dumps``
writes it. :func:`load_trace` tells the formats apart by the magic bytes and
reads no other JSON, so a producer outside this package writes KVT1 as above.
The JSON codec is :mod:`kvcachelab.jsontrace`, which only a JSON trace loads.
Both formats round-trip matrices bit-exactly.

Synthetic generators stand in for traces captured from a real model. The
``power-law-keys`` kind scales key norms like ``rank**-exponent`` so a small
token subset receives the bulk of the attention mass; ``sink-dominant``
gives the first token the largest key.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, MalformedTrace

_MAGIC = b"KVT1"
_SIZES = struct.Struct("<II")  # n and d, after the magic

TRACE_KINDS = ("uniform-gaussian", "power-law-keys", "sink-dominant")

# Generator constants, tuned once on the reference simulation so that
# power-law traces reproduce the heavy-hitter regime (a 20% cache keeping
# the heavy tokens retains ~all attention mass, a recency-only cache does
# not). Key direction mixing keeps per-step logit noise multiplicative, so
# a strong token dominates the softmax at every step it is attended.
_KEY_GAIN = 60.0
_ALIGN = 0.95
_QUERY_NOISE = 0.2


@dataclass(frozen=True)
class AttentionTrace:
    """Per-head query/key matrices, shape (n, d) each.

    Invariants: Q and K share the same shape, n >= 1, d >= 1, all entries
    finite, and ``2 * d * max|Q| * max|K|`` within float64's range, which
    bounds every partial sum of a logit and each row's shift by its maximum.

    ``AttentionTrace(q=..., k=...)`` always copies Q and K, even read-only
    ones, whose base may still be written, so writes to the inputs never
    reach the trace. :func:`load_trace` and :func:`generate_trace` build
    their blocks themselves and hand them over through ``_adopt``, which
    runs the same checks and keeps the arrays without a copy.
    """

    q: np.ndarray
    k: np.ndarray

    def __post_init__(self):
        self._own(np.array(self.q, dtype=np.float64), np.array(self.k, dtype=np.float64))

    @classmethod
    def _adopt(cls, q: np.ndarray, k: np.ndarray) -> AttentionTrace:
        """A trace over blocks that nothing else holds, made read-only and kept without a copy."""
        trace = object.__new__(cls)
        trace._own(np.asarray(q, dtype=np.float64), np.asarray(k, dtype=np.float64))
        return trace

    def _own(self, q: np.ndarray, k: np.ndarray) -> None:
        """Check the invariants on Q and K, make them read-only and hold them."""
        if q.ndim != 2 or q.shape != k.shape:
            raise InvalidSpec(f"Q and K must be 2-D and of one shape, got {q.shape} and {k.shape}")
        if q.shape[0] < 1 or q.shape[1] < 1:
            raise InvalidSpec(f"trace needs n >= 1 and d >= 1, got {q.shape}")
        if not np.isfinite(q).all() or not np.isfinite(k).all():
            raise InvalidSpec("trace contains non-finite entries")
        # Python floats (no temporary array, no numpy warning); |Q| * |K| first, as 2 * d * |Q| may overflow
        q_max, k_max = (max(float(a.max()), -float(a.min())) for a in (q, k))
        if q_max * k_max * (2 * q.shape[1]) > np.finfo(np.float64).max:
            raise InvalidSpec("logits may overflow: 2 * d * max|Q| * max|K| exceeds float64's range")
        q.setflags(write=False)
        k.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "k", k)

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @property
    def d(self) -> int:
        return self.q.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, AttentionTrace):
            return NotImplemented
        return np.array_equal(self.q, other.q) and np.array_equal(self.k, other.k)


@dataclass(frozen=True)
class SyntheticTraceSpec:
    """Deterministic recipe for a synthetic trace; the seed pins every bit."""

    n: int
    d: int
    kind: str = "uniform-gaussian"
    power_exponent: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in TRACE_KINDS:
            raise InvalidSpec(f"unknown trace kind {self.kind!r}; choose from {TRACE_KINDS}")
        if self.n < 1 or self.d < 1:
            raise InvalidSpec(f"sizes must be positive, got n={self.n}, d={self.d}")
        if self.n * self.d * 8 > np.iinfo(np.intp).max:
            raise InvalidSpec(f"n={self.n}, d={self.d} is more float64 entries than numpy can index")
        if not self.power_exponent > 0:  # also rejects NaN
            raise InvalidSpec("power_exponent must be > 0")


def _unit(v: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        v = v.copy()
        v[0] = 1.0
        return v
    return v / norm


def _scaled_key_trace(n: int, d: int, scales: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Keys with prescribed norms, mixed around a shared direction.

    Every key sits at a fixed angle to a common unit direction ``v`` and
    queries point along ``v`` with additive noise, so the logit of token j
    is roughly ``_KEY_GAIN * scales[j] * (_ALIGN +/- noise)``: key norm
    directly controls how much attention a token draws. ``w`` becomes the
    key directions and then the keys in place, so a call never holds more
    than two (n, d) arrays at once.
    """
    v = _unit(rng.standard_normal(d))
    cross = _ALIGN
    ortho = float(np.sqrt(1.0 - cross * cross))
    if d == 1:
        w = np.tile(v, (n, 1))
    else:
        w = rng.standard_normal((n, d))
        w -= np.outer(w @ v, v)
        norms = np.linalg.norm(w, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        w /= norms
        w *= ortho
        w += cross * v
    w *= _KEY_GAIN * scales[:, None]
    q = rng.standard_normal((n, d))
    q *= _QUERY_NOISE
    q += v
    return q, w


def generate_trace(spec: SyntheticTraceSpec) -> AttentionTrace:
    """Build the trace a spec describes. Equal specs give equal traces."""
    rng = np.random.default_rng(spec.seed)
    n, d = spec.n, spec.d
    if spec.kind == "uniform-gaussian":
        scale = float(d) ** -0.25  # keeps logit variance ~1 independent of d
        q = rng.standard_normal((n, d)) * scale
        k = rng.standard_normal((n, d)) * scale
    elif spec.kind == "power-law-keys":
        ranks = rng.permutation(n) + 1
        scales = ranks.astype(np.float64) ** -spec.power_exponent
        q, k = _scaled_key_trace(n, d, scales, rng)
    else:  # sink-dominant
        scales = 0.05 + 0.05 * rng.random(n)
        scales[0] = 1.0
        q, k = _scaled_key_trace(n, d, scales, rng)
    return AttentionTrace._adopt(q, k)


def save_trace(trace: AttentionTrace, path) -> None:
    """Write a trace: JSON when ``path`` ends in ``.json``, binary otherwise."""
    path = str(path)
    if path.endswith(".json"):
        from .jsontrace import write

        write(trace, path)
    else:
        with open(path, "wb") as fh:
            fh.write(_MAGIC + _SIZES.pack(trace.n, trace.d))
            fh.write(np.ascontiguousarray(trace.q, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(trace.k, dtype="<f8").tobytes())


def _binary_blocks(body: bytes, path: str) -> tuple[np.ndarray, np.ndarray]:
    """A KVT1 file's Q and K blocks, checked against its header and for non-finite entries.

    ``body`` is the file after its magic bytes. Every message names the
    file's byte, counting the magic.
    """
    at = len(_MAGIC)  # the file offset of body[0]
    if len(body) < _SIZES.size:
        raise MalformedTrace(f"{path}: truncated header at byte {at + len(body)}")
    n, d = _SIZES.unpack_from(body)
    if n < 1 or d < 1:
        raise MalformedTrace(f"{path}: header at byte {at} claims n={n}, d={d}")
    need = _SIZES.size + 2 * n * d * 8
    if len(body) != need:
        raise MalformedTrace(f"{path}: expected {at + need} bytes for n={n}, d={d}, found {at + len(body)}")
    flat = np.frombuffer(body, dtype="<f8", count=2 * n * d, offset=_SIZES.size)
    if not np.isfinite(flat).all():
        off = at + _SIZES.size + int(np.flatnonzero(~np.isfinite(flat))[0]) * 8
        raise MalformedTrace(f"{path}: non-finite entry at byte {off}")
    return flat[: n * d].reshape(n, d), flat[n * d :].reshape(n, d)


def load_trace(path) -> AttentionTrace:
    """Read a trace file in either supported format, validating shape."""
    path = str(path)
    # Unbuffered: the rest of a binary file, from a file or a pipe alike, is
    # one read into one object, where a buffered reader would join its buffer
    # to the rest, a copy of the whole file.
    with open(path, "rb", buffering=0) as fh:
        head = fh.read(len(_MAGIC))
        if head == _MAGIC:
            # nothing but this load holds the blocks: views of its one read
            q, k = _binary_blocks(fh.read(), path)
        else:
            # the JSON codec is imported only for a file that needs it
            from .jsontrace import read

            q, k = read(fh, head, path)
    try:
        return AttentionTrace._adopt(q, k)
    except InvalidSpec as exc:  # the blocks parsed, but their values break an invariant
        raise MalformedTrace(f"{path}: {exc}") from None

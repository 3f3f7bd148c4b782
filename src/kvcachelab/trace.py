"""Attention traces: the (Q, K) matrices that drive a decode simulation.

A trace holds one head's query and key matrices for ``n`` decode steps.
Row ``i-1`` belongs to token ``i`` (token indices are 1-based everywhere in
this package, matching decode-step numbering). Traces are immutable after
construction.

File format
-----------
Binary (default): magic bytes ``KVT1``, little-endian u32 ``n``, u32 ``d``,
then ``n*d`` float64 Q entries row-major, then ``n*d`` float64 K entries
row-major. JSON alternative: ``{"n": ..., "d": ..., "Q": [[...]], "K": [[...]]}``
with integer ``n`` and ``d`` and JSON numbers (not strings or booleans) as entries.
The loader auto-detects the format by the magic bytes. Both formats
round-trip matrices bit-exactly (JSON uses ``repr`` floats, which Python
guarantees to round-trip).

Synthetic generators stand in for traces captured from a real model. The
``power-law-keys`` kind scales key norms like ``rank**-exponent`` so a small
token subset receives the bulk of the attention mass; ``sink-dominant``
gives the first token the largest key.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import InvalidSpec, InvalidTrace, MalformedTrace

_MAGIC = b"KVT1"
_HEADER = struct.Struct("<4sII")

TRACE_KINDS = ("uniform-gaussian", "power-law-keys", "sink-dominant")

# Generator constants, tuned once on the reference simulation so that
# power-law traces reproduce the heavy-hitter regime (a 20% cache keeping
# the heavy tokens retains ~all attention mass, a recency-only cache does
# not). Key direction mixing keeps per-step logit noise multiplicative, so
# a strong token dominates the softmax at every step it is attended.
_KEY_GAIN = 60.0
_ALIGN = 0.95
_QUERY_NOISE = 0.2


def _as_matrix(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidTrace(f"{name} must be 2-D, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class AttentionTrace:
    """Per-head query/key matrices, shape (n, d) each.

    Invariants: Q and K share the same shape, n >= 1, d >= 1, all entries
    finite.
    """

    q: np.ndarray
    k: np.ndarray

    def __post_init__(self):
        q = _as_matrix(self.q, "Q")
        k = _as_matrix(self.k, "K")
        if q.shape != k.shape:
            raise InvalidTrace(f"Q/K shape mismatch: {q.shape} vs {k.shape}")
        if q.shape[0] < 1 or q.shape[1] < 1:
            raise InvalidTrace(f"trace needs n >= 1 and d >= 1, got {q.shape}")
        if not np.isfinite(q).all() or not np.isfinite(k).all():
            raise InvalidTrace("trace contains non-finite entries")
        q = q.copy()
        k = k.copy()
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

    def __hash__(self):
        return hash((self.q.tobytes(), self.k.tobytes()))


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
    directly controls how much attention a token draws.
    """
    v = _unit(rng.standard_normal(d))
    cross = _ALIGN
    ortho = float(np.sqrt(1.0 - cross * cross))
    if d == 1:
        directions = np.tile(v, (n, 1))
    else:
        w = rng.standard_normal((n, d))
        w -= np.outer(w @ v, v)
        norms = np.linalg.norm(w, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        w /= norms
        directions = cross * v[None, :] + ortho * w
    k = _KEY_GAIN * scales[:, None] * directions
    q = v[None, :] + _QUERY_NOISE * rng.standard_normal((n, d))
    return q, k


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
    return AttentionTrace(q=q, k=k)


def save_trace(trace: AttentionTrace, path, fmt: str | None = None) -> None:
    """Write a trace; ``fmt`` is "binary" or "json" (default: by extension)."""
    path = str(path)
    if fmt is None:
        fmt = "json" if path.endswith(".json") else "binary"
    if fmt == "json":
        # json emits floats via repr (shortest round-trip), so matrices
        # survive bit-exactly; traces never hold NaN/Inf by invariant.
        # One dumps per block: json.dump streams the document through the
        # pure-Python encoder, a generator frame and a write per token, while
        # dumps runs the C encoder; a hand-written frame around the blocks
        # writes json.dumps(doc)'s bytes without holding both blocks' text.
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f'{{"n": {trace.n}, "d": {trace.d}, "Q": ')
            fh.write(json.dumps(trace.q.tolist()))
            fh.write(', "K": ')
            fh.write(json.dumps(trace.k.tolist()))
            fh.write("}")
    elif fmt == "binary":
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(_MAGIC, trace.n, trace.d))
            fh.write(np.ascontiguousarray(trace.q, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(trace.k, dtype="<f8").tobytes())
    else:
        raise InvalidSpec(f"unknown trace format {fmt!r}")


# JSON numbers parse to exactly these types; bool, a subclass of int, is excluded
_JSON_NUMBERS = {int, float}


def _json_block(doc: dict, name: str, path: str) -> np.ndarray:
    # pop: the block's Python lists are freed once it is an array
    rows = doc.pop(name)
    # a string row would otherwise be read character by character, and a
    # string or boolean entry converted to a float
    if not (
        isinstance(rows, list)
        and all(isinstance(row, list) for row in rows)
        and set(map(type, chain.from_iterable(rows))) <= _JSON_NUMBERS
    ):
        raise MalformedTrace(f"{path}: {name} must be a list of rows, each a list of numbers")
    try:
        return np.array(rows, dtype=np.float64)
    except OverflowError:  # an integer beyond float64's range
        raise MalformedTrace(f"{path}: {name} has an entry beyond float64's range") from None


def _json_trace(doc, path: str) -> AttentionTrace:
    try:
        n, d = doc["n"], doc["d"]
        if type(n) is not int or type(d) is not int:
            raise MalformedTrace(f"{path}: n and d must be JSON integers")
        q = _json_block(doc, "Q", path)
        k = _json_block(doc, "K", path)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedTrace(f"{path}: bad JSON trace ({exc})") from None
    for name, m in (("Q", q), ("K", k)):
        if m.shape != (n, d):
            raise MalformedTrace(
                f"{path}: {name} block has shape {m.shape}, header says ({n}, {d})"
            )
    try:
        return AttentionTrace(q=q, k=k)
    except InvalidTrace as exc:
        raise MalformedTrace(f"{path}: {exc}") from None


def load_trace(path) -> AttentionTrace:
    """Read a trace file in either supported format, validating shape."""
    path = str(path)
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(_MAGIC):
        # The bytes, the text and the parsed lists are each about the file's
        # size or more, so each is dropped as soon as the next one exists.
        try:
            text = raw.decode("utf-8")
            del raw
            doc = json.loads(text)
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: nesting deeper than the parser's stack
            raise MalformedTrace(f"{path}: neither KVT1 binary nor JSON ({exc})") from None
        del text
        return _json_trace(doc, path)
    if len(raw) < _HEADER.size:
        raise MalformedTrace(f"{path}: truncated header", byte_offset=len(raw))
    _, n, d = _HEADER.unpack_from(raw)
    if n < 1 or d < 1:
        raise MalformedTrace(f"{path}: header claims n={n}, d={d}", byte_offset=4)
    need = _HEADER.size + 2 * n * d * 8
    if len(raw) != need:
        raise MalformedTrace(
            f"{path}: expected {need} bytes for n={n}, d={d}, found {len(raw)}",
            byte_offset=min(len(raw), need),
        )
    flat = np.frombuffer(raw, dtype="<f8", count=2 * n * d, offset=_HEADER.size)
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        off = _HEADER.size + int(bad[0]) * 8
        raise MalformedTrace(f"{path}: non-finite entry", byte_offset=off)
    q = flat[: n * d].reshape(n, d)
    k = flat[n * d :].reshape(n, d)
    return AttentionTrace(q=q, k=k)

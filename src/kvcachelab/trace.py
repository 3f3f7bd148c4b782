"""Attention traces: the (Q, K) matrices that drive a decode simulation.

A trace holds one head's query and key matrices for ``n`` decode steps.
Row ``i-1`` belongs to token ``i`` (token indices are 1-based everywhere in
this package, matching decode-step numbering). Traces are immutable after
construction.

File format
-----------
Binary: magic bytes ``KVT1``, little-endian u32 ``n``, u32 ``d``, then
``n*d`` float64 Q entries row-major, then ``n*d`` float64 K entries
row-major. JSON: ``{"n": ..., "d": ..., "Q": [[...]], "K": [[...]]}`` with
integer ``n`` and ``d`` and JSON numbers (not strings or booleans) as
entries. The ``.json`` extension selects JSON for :func:`save_trace`; the
loader detects the format by the magic bytes. Both formats round-trip
matrices bit-exactly (JSON uses ``repr`` floats, which Python guarantees to
round-trip). The JSON loader walks the top-level object itself, reads the
``Q`` and ``K`` blocks one row at a time, and decodes the file through a
window of about one fixed-size read, so a load holds the blocks and one
window, never the whole document.

Synthetic generators stand in for traces captured from a real model. The
``power-law-keys`` kind scales key norms like ``rank**-exponent`` so a small
token subset receives the bulk of the attention mass; ``sink-dominant``
gives the first token the largest key.
"""

from __future__ import annotations

import codecs
import json
import re
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
    else:
        with open(path, "wb") as fh:
            fh.write(_MAGIC + _SIZES.pack(trace.n, trace.d))
            fh.write(np.ascontiguousarray(trace.q, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(trace.k, dtype="<f8").tobytes())


# JSON numbers parse to exactly these types; bool, a subclass of int, is excluded
_JSON_NUMBERS = {int, float}
_SCAN = json.JSONDecoder().scan_once  # the C scanner: (value, end) or StopIteration(idx)
_WS = re.compile(r"[ \t\n\r]*")  # JSON whitespace, as the json module skips it
# Rows of a block are packed into a float64 chunk once they hold this many
# entries, so at most one chunk of a block is alive as Python floats.
_CHUNK_ENTRIES = 1 << 14
# Bytes of one read of a JSON file: the parser's window is the unparsed tail
# of the text plus the reads since, so a load holds about one read's text
# whatever the file's size.
_READ_BYTES = 1 << 18


class _Window:
    """A JSON file's text, decoded one read at a time, and a parse cursor.

    ``text`` is the unparsed tail of the file plus the reads since and
    ``pos`` indexes it. ``base`` is the file's character offset of
    ``text[0]``; ``lines`` counts the newlines before it and ``line_start`` is
    the offset past the last one, so a syntax error names the file's line,
    column and offset as ``json.loads`` does for the whole document.
    """

    def __init__(self, fh, head: bytes):
        """Read ``fh`` on from ``head``, the bytes already read from it."""
        self.fh, self.bytes_read = fh, 0
        self.decoder = codecs.getincrementaldecoder("utf-8")()  # strict
        self.text, self.pos, self.base = self._decode(head), 0, 0
        self.lines, self.line_start = 0, 0

    def _decode(self, chunk: bytes) -> str:
        """The text of the next ``chunk`` of the file; an empty chunk ends it."""
        self.bytes_read += len(chunk)
        self.eof = not chunk
        try:
            return self.decoder.decode(chunk, final=self.eof)
        except UnicodeDecodeError as exc:  # the decoder kept its undecoded bytes
            at = self.bytes_read - len(chunk) - len(self.decoder.getstate()[0]) + exc.start
            raise ValueError(f"invalid UTF-8 at byte {at}: {exc.reason}") from None

    def _drop(self) -> None:
        """Forget the text before the cursor."""
        # rfind runs at memchr speed and count walks the text: count only when there is a newline
        last = self.text.rfind("\n", 0, self.pos)
        if last >= 0:
            self.lines += self.text.count("\n", 0, self.pos)
            self.line_start = self.base + last + 1
        self.base += self.pos
        self.text, self.pos = self.text[self.pos :], 0

    def _more(self) -> None:
        """Read until the unparsed tail has more than doubled or the file ends."""
        self._drop()
        parts, have = [self.text], len(self.text)
        need = 2 * have + 1
        while have < need and not self.eof:
            parts.append(self._decode(self.fh.read(_READ_BYTES)))
            have += len(parts[-1])
        self.text = "".join(parts)

    def error(self, msg: str, idx: int | None = None) -> ValueError:
        """``json``'s message for a syntax error at ``text[idx]`` (default: the cursor)."""
        idx = self.pos if idx is None else idx
        newline = self.text.rfind("\n", 0, idx)
        line_start = self.base + newline + 1 if newline >= 0 else self.line_start
        lineno = self.lines + self.text.count("\n", 0, idx) + 1
        at = self.base + idx
        return ValueError(f"{msg}: line {lineno} column {at - line_start + 1} (char {at})")

    def peek(self) -> str:
        """The character at the cursor once whitespace is skipped; "" at the end of the file."""
        char = self.text[self.pos : self.pos + 1]
        if char not in " \t\n\r":  # most often: no whitespace to skip ("" is in every string)
            return char
        while True:
            self.pos = _WS.match(self.text, self.pos).end()
            if self.pos < len(self.text) or self.eof:
                return self.text[self.pos : self.pos + 1]
            self._more()

    def skip(self, token: str, expecting: str) -> None:
        """Move past ``token``, the next character but whitespace, and the whitespace after it."""
        if self.peek() != token:
            raise self.error(f"Expecting {expecting}")
        self.pos += 1
        self.peek()

    def value(self, read: str = ""):
        """The JSON value at the cursor, which moves past it.

        ``read`` stands in for the value's first characters when they are
        already parsed and gone: ``"["`` for an open list, ``"[0"`` after an
        entry and ``"[0,"`` after its comma. A parse counts once the file has
        ended or two characters follow it in the window, as a number's end
        depends on up to two characters after it (``1.|5``, ``1e-|5``) and
        ``20|48`` parses as 20. Otherwise, and after any error before the end
        of the file, the window grows and the parse retries; each retry more
        than doubles the window, so a value costs O(its size).
        """
        if len(self.text) - self.pos < _READ_BYTES >> 6 and not self.eof:
            # read on first when the window is about to end: a parse that
            # fails there costs a pass over the window, as JSONDecodeError
            # counts the lines before the failure
            self._more()
        if read:
            self._drop()
            self.text, self.base = read + self.text, self.base - len(read)
        while True:
            try:
                value, end = _SCAN(self.text, self.pos)
            except StopIteration as exc:  # what raw_decode reports as no value
                if self.eof:
                    raise self.error("Expecting value", exc.value) from None
            except json.JSONDecodeError as exc:
                if self.eof:
                    raise self.error(exc.msg, exc.pos) from None
            except (ValueError, RecursionError):
                # ValueError: an integer too long to convert
                if self.eof:
                    raise
            else:
                if end + 2 < len(self.text) or self.eof:
                    self.pos = end
                    return value
            self._more()


def _json_block(window: _Window) -> np.ndarray | None:
    """Read the Q or K value at the window's cursor, one row at a time.

    Returns the block, or None if the value is JSON but not a non-empty list
    of equal-length rows of numbers within float64's range; either way the
    cursor moves past the value. Text that is not JSON raises ``ValueError``.
    """
    chunks, rows, width = [], [], None
    read = ""  # the value's parsed part, as ``_Window.value`` takes it
    if window.peek() == "[":
        window.pos += 1
        read = "["
        while window.peek() == "[":
            row = window.value()
            read = "[0"
            if width is None:
                width = len(row)
            # a string or boolean entry would otherwise become a float
            if len(row) != width or not set(map(type, row)) <= _JSON_NUMBERS:
                break
            rows.append(row)
            after = window.peek()
            if after == "]" or len(rows) * width >= _CHUNK_ENTRIES:
                try:
                    chunks.append(np.array(rows, dtype=np.float64))
                except OverflowError:  # an integer beyond float64's range
                    break
                rows = []
            if after == "]":
                window.pos += 1
                return np.concatenate(chunks)
            if after != ",":
                break
            window.pos += 1
            read = "[0,"
    # Not a block: read the rest of the value, which also checks that it is
    # JSON. A later duplicate key may still supply the block.
    window.value(read)
    return None


def _json_members(window: _Window) -> dict:
    """Walk a JSON document's top-level object; its members, Q and K as blocks.

    Any key order, escaped keys and unknown keys with any value are
    accepted; the last duplicate of a key wins, as in ``json.loads``. Text
    that is not one non-empty JSON object raises ``ValueError`` (an empty
    object holds no trace either).
    """
    members = {}
    window.skip("{", "'{'")
    while True:
        if window.peek() != '"':
            raise window.error("Expecting property name enclosed in double quotes")
        key = window.value()
        window.skip(":", "':' delimiter")
        members[key] = _json_block(window) if key in ("Q", "K") else window.value()
        if window.peek() == "}":
            break
        window.skip(",", "',' delimiter")
    window.pos += 1
    if window.peek():
        raise window.error("Extra data")
    return members


def _json_blocks(members: dict, path: str) -> tuple[np.ndarray, np.ndarray]:
    """A JSON document's Q and K blocks, checked against its ``n`` and ``d``."""
    missing = [key for key in ("n", "d", "Q", "K") if key not in members]
    if missing:
        raise MalformedTrace(f"{path}: JSON trace lacks {', '.join(missing)}")
    n, d = members["n"], members["d"]
    if type(n) is not int or type(d) is not int:
        raise MalformedTrace(f"{path}: n and d must be JSON integers")
    for name in ("Q", "K"):
        m = members[name]
        if m is None:
            raise MalformedTrace(
                f"{path}: {name} must be a list of equal-length rows, each a list of numbers within float64's range"
            )
        if m.shape != (n, d):
            raise MalformedTrace(
                f"{path}: {name} block has shape {m.shape}, header says ({n}, {d})"
            )
    return members["Q"], members["K"]


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
        binary = head == _MAGIC
        if binary:
            body = fh.read()
        else:
            # The text goes through a window of about one read and the blocks
            # are read row by row, so the peak is the blocks, not the file.
            try:
                members = _json_members(_Window(fh, head))
            except (ValueError, RecursionError) as exc:
                # ValueError: not UTF-8, not JSON, or an integer too long to
                # convert; RecursionError: nesting deeper than the parser's stack
                raise MalformedTrace(f"{path}: neither KVT1 binary nor a JSON object ({exc})") from None
    # nothing but this load holds the blocks (a binary file's are views of its one read)
    q, k = _binary_blocks(body, path) if binary else _json_blocks(members, path)
    try:
        return AttentionTrace._adopt(q, k)
    except InvalidSpec as exc:  # the blocks parsed, but their values break an invariant
        raise MalformedTrace(f"{path}: {exc}") from None

"""The JSON trace format: the one frame that :func:`write` writes.

A JSON trace is ``{"n": N, "d": D, "Q": [row, ...], "K": [row, ...]}`` as
``json.dumps`` writes that object: these members in this order, its default
separators and no other whitespace, ASCII only, and each block N rows of D
JSON numbers (not strings, booleans or ``NaN``). Matrices round-trip
bit-exactly, as JSON's floats are ``repr`` floats. Any other text, even JSON
of the same object, is no trace: a producer outside this package writes
KVT1, with the three numpy lines that :mod:`kvcachelab.trace` gives.

Only a ``.json`` path or a file without the KVT1 magic imports this module.
The reader holds the file's unparsed tail and one read. It parses each row
with ``json``'s C scanner once the row's closing ``]`` is read, and appends
it to one float64 buffer per block, which becomes the block without a copy.
"""

from __future__ import annotations

import array
import json
import os

import numpy as np

from .errors import MalformedTrace

# the C scanner: (value, end) or StopIteration(idx); NaN and Infinity parse to strings
_SCAN = json.JSONDecoder(parse_constant=str).scan_once
# Bytes of one read of a JSON file: a load holds the file's unparsed tail and
# one read, whatever the file's size.
_READ_BYTES = 1 << 18


def write(trace, path: str) -> None:
    """Write ``trace``'s Q and K to ``path`` as one JSON object."""
    # json emits floats via repr (shortest round-trip), so matrices survive
    # bit-exactly. One C-encoded dumps per block, in a hand-written frame,
    # writes json.dumps(doc)'s bytes without holding both blocks' text.
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"n": {trace.n}, "d": {trace.d}, "Q": ')
        fh.write(json.dumps(trace.q.tolist()))
        fh.write(', "K": ')
        fh.write(json.dumps(trace.k.tolist()))
        fh.write("}")


def read(fh, head: bytes, path: str) -> tuple[np.ndarray, np.ndarray]:
    """The Q and K blocks of the JSON trace that ``fh`` reads, ``head`` being the bytes already read.

    A file that departs from :func:`write`'s frame raises ``MalformedTrace``
    naming the first byte where it does.
    """
    src = _Reader(fh, head, path)
    n, d = src.size(b'{"n": '), src.size(b', "d": ')
    q, k = src.block(b', "Q": [', n, d), src.block(b', "K": [', n, d)
    src.expect(b"}")
    if src.pos < len(src.buf) or fh.read(_READ_BYTES):
        raise src.error("data after the trace", src.base + src.pos)
    return q, k


class _Reader:
    """A JSON trace's unparsed bytes and a cursor: ``buf[pos]`` is the file's byte ``base + pos``."""

    def __init__(self, fh, head: bytes, path: str):
        self.fh, self.path = fh, path
        self.buf, self.pos, self.base, self.eof = head, 0, 0, False

    def error(self, what: str, at: int) -> MalformedTrace:
        return MalformedTrace(f"{self.path}: neither KVT1 nor a JSON trace as save_trace writes it: {what} at byte {at}")

    def more(self) -> None:
        """Drop the parsed bytes, then append one read; an empty read sets ``eof``."""
        self.base, self.buf, self.pos = self.base + self.pos, self.buf[self.pos :], 0
        chunk = self.fh.read(_READ_BYTES)
        self.eof = not chunk
        self.buf += chunk

    def expect(self, token: bytes) -> None:
        """Move past ``token``, which must come next."""
        while len(self.buf) - self.pos < len(token) and not self.eof:
            self.more()
        got = self.buf[self.pos : self.pos + len(token)]
        if got != token:
            raise self.error(f"expected {token.decode()!r}", self.base + self.pos + len(os.path.commonprefix([token, got])))
        self.pos += len(token)

    def value(self, stop: bytes, through: bool, what: str):
        """The JSON value from the cursor to the next ``stop`` byte, or ``through`` it; the cursor moves past it."""
        while (end := self.buf.find(stop, self.pos)) < 0 and not self.eof:
            self.more()
        end = end + through if end >= 0 else len(self.buf)
        try:  # latin-1 gives one character per byte, so the scanner's index counts bytes
            value, length = _SCAN(str(self.buf[self.pos : end], "latin-1"), 0)
        except StopIteration as exc:  # no value at exc.value
            length = exc.value
        except json.JSONDecodeError as exc:
            length = exc.pos
        except (ValueError, RecursionError):  # an integer too long to convert, or nesting too deep
            length = 0
        else:
            if self.pos + length == end:
                self.pos = end
                return value
        raise self.error(f"expected {what}", self.base + self.pos + length)

    def size(self, key: bytes) -> int:
        """Move past ``key`` and the non-negative JSON integer after it, which it returns."""
        self.expect(key)
        what = "a non-negative JSON integer"
        at, size = self.base + self.pos, self.value(b",", False, what)
        if type(size) is not int or size < 0:
            raise self.error(f"expected {what}", at)
        return size

    def block(self, key: bytes, n: int, d: int) -> np.ndarray:
        """Move past ``key``, n rows of d numbers and the closing ``]``; the rows as one block.

        Each row is appended to one float64 buffer, which the block views.
        """
        self.expect(key)
        block, what = array.array("d"), f"a row of {d} JSON numbers within float64's range"
        for i in range(n):
            if i:
                self.expect(b", ")
            at, row = self.base + self.pos, self.value(b"]", True, what)
            # JSON numbers parse to int or float; the buffer would take a bool, a subclass of int, too
            if type(row) is not list or len(row) != d or not set(map(type, row)) <= {int, float}:
                raise self.error(f"expected {what}", at)
            try:
                block.extend(row)
            except OverflowError:  # an integer beyond float64's range
                raise self.error(f"expected {what}", at) from None
        self.expect(b"]")
        return np.frombuffer(block).reshape(n, d)

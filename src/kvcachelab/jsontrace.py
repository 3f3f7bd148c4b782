"""The JSON trace format: ``{"n": ..., "d": ..., "Q": [[...]], "K": [[...]]}``.

``n`` and ``d`` are JSON integers and the entries are JSON numbers (not
strings or booleans). Matrices round-trip bit-exactly, as JSON's floats are
``repr`` floats, which Python guarantees to round-trip. :mod:`kvcachelab.trace`
calls :func:`write` for a ``.json`` path and :func:`read` for a file without
the KVT1 magic, and imports this module only then, so a command on a binary
trace never loads it.

The reader walks the top-level object itself, decodes the file through a
window of about one fixed-size read, and appends the ``Q`` and ``K`` blocks
one row at a time to one float64 buffer each, which becomes the block
without a copy. So a load holds the two blocks, one row's Python floats and
one window, never the whole document.
"""

from __future__ import annotations

import array
import codecs
import json
import re

import numpy as np

from .errors import MalformedTrace

# JSON numbers parse to exactly these types; bool, a subclass of int, is excluded
_JSON_NUMBERS = {int, float}
_SCAN = json.JSONDecoder().scan_once  # the C scanner: (value, end) or StopIteration(idx)
_WS = re.compile(r"[ \t\n\r]*")  # JSON whitespace, as the json module skips it
# Bytes of one read of a JSON file: the parser's window is the unparsed tail
# of the text plus the reads since, so a load holds about one read's text
# whatever the file's size.
_READ_BYTES = 1 << 18


def write(trace, path: str) -> None:
    """Write ``trace``'s Q and K to ``path`` as one JSON object."""
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


def read(fh, head: bytes, path: str) -> tuple[np.ndarray, np.ndarray]:
    """The Q and K blocks of the JSON trace that ``fh`` reads, checked against its ``n`` and ``d``.

    ``head`` is the bytes already read from ``fh``. Text that is not one
    JSON object raises ``ValueError`` (not UTF-8, not JSON, or an integer
    too long to convert) or ``RecursionError`` (nesting deeper than the
    parser's stack); an object that is not a trace raises ``MalformedTrace``.
    """
    members = _json_members(_Window(fh, head))
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
    Each checked row is appended to one float64 buffer, which the block
    views, so the block is held once, beside one row's Python floats.
    """
    block, rows, width = array.array("d"), 0, None
    read = ""  # the value's parsed part, as ``_Window.value`` takes it
    if window.peek() == "[":
        window.pos += 1
        read = "["
        while window.peek() == "[":
            row = window.value()
            read = "[0"
            if width is None:
                width = len(row)
            # the buffer would take a boolean entry as a float
            if len(row) != width or not set(map(type, row)) <= _JSON_NUMBERS:
                break
            try:
                block.extend(row)
            except OverflowError:  # an integer beyond float64's range
                break
            rows += 1
            after = window.peek()
            if after == "]":
                window.pos += 1
                return np.frombuffer(block).reshape(rows, width)
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

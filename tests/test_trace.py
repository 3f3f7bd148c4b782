"""Trace construction, file round-trips, and synthetic generators."""

import hashlib
import json
import os
import re
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kvcachelab as kl
from kvcachelab import jsontrace
from kvcachelab.errors import InvalidSpec, MalformedTrace
from kvcachelab.trace import _scaled_key_trace


def dominant_key_trace(n: int, d: int, position: int, seed: int = 0) -> kl.AttentionTrace:
    """Trace whose single dominant key sits at a chosen 1-based position.

    Counterpart of the ``sink-dominant`` kind for stress-testing policies
    that pin the sequence start: all the attention mass belongs to one
    mid-sequence token.
    """
    if not 1 <= position <= n:
        raise InvalidSpec(f"position must be in [1, {n}], got {position}")
    rng = np.random.default_rng(seed)
    scales = 0.05 + 0.05 * rng.random(n)
    scales[position - 1] = 1.0
    q, k = _scaled_key_trace(n, d, scales, rng)
    return kl.AttentionTrace(q=q, k=k)


def test_minimal_binary_file_loads(tmp_path):
    t = kl.AttentionTrace(q=np.zeros((1, 2)), k=np.zeros((1, 2)))
    path = tmp_path / "t.kvt"
    kl.save_trace(t, path)
    loaded = kl.load_trace(path)
    assert loaded.n == 1 and loaded.d == 2
    assert loaded == t


def _named_byte(message: str) -> int:
    """The file byte that a trace's error message names."""
    return int(re.search(r"(?:at byte|found) (\d+)", message).group(1))


def test_short_key_block_is_malformed(tmp_path):
    t = kl.AttentionTrace(q=np.ones((3, 2)), k=np.ones((3, 2)))
    path = tmp_path / "t.kvt"
    kl.save_trace(t, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])  # drop one K row
    with pytest.raises(MalformedTrace) as err:
        kl.load_trace(path)
    assert _named_byte(str(err.value)) == len(raw) - 16


def test_json_row_count_mismatch(tmp_path):
    path = tmp_path / "t.json"
    path.write_text('{"n": 2, "d": 1, "Q": [[0.0], [1.0]], "K": [[0.0]]}')
    with pytest.raises(MalformedTrace):
        kl.load_trace(path)


_ONE = '{"n": 1, "d": 1, "Q": [[0.5]], "K": [[0.25]]}'

MALFORMED_JSON = {
    "deep-nesting": "[" * 200000,  # deeper than the JSON parser's stack
    "string-rows": '{"n": 2, "d": 1, "Q": "12", "K": "34"}',  # rows must be lists
    # entries must be JSON numbers, and bool counts as none
    "string-entry": '{"n": 1, "d": 2, "Q": [["1.5", 1.0]], "K": [[2.0, 0.0]]}',
    "bool-entry": '{"n": 1, "d": 2, "Q": [[1.5, true]], "K": [[2.0, false]]}',
    "huge-int-entry": '{"n": 1, "d": 1, "Q": [[' + "9" * 400 + ']], "K": [[0.0]]}',
    # the header sizes must be JSON integers
    "string-n": '{"n": "1", "d": 1, "Q": [[0.0]], "K": [[0.0]]}',
    "bool-n": '{"n": true, "d": 1, "Q": [[0.0]], "K": [[0.0]]}',
    "float-d": '{"n": 1, "d": 1.7, "Q": [[0.0]], "K": [[0.0]]}',
    # every row must be a list
    "scalar-row": '{"n": 2, "d": 1, "Q": [[0.0], 0.0], "K": [[0.0], [0.0]]}',
    "object-row": '{"n": 1, "d": 1, "Q": [{"a": 0.0}], "K": [[0.0]]}',
    # more digits than Python converts from a string to an int
    "overlong-int-entry": '{"n": 1, "d": 1, "Q": [[' + "9" * 5000 + ']], "K": [[0.0]]}',
    "utf8-bom": "\ufeff" + _ONE,
    "trailing-data": _ONE + " 0",
    "top-level-array": "[" + _ONE + "]",
    "ragged-rows": '{"n": 2, "d": 2, "Q": [[0.0, 1.0], [2.0]], "K": [[0.0, 0.0], [0.0, 0.0]]}',
    "empty-rows": '{"n": 1, "d": 0, "Q": [[]], "K": [[]]}',
    "empty-block": '{"n": 0, "d": 0, "Q": [], "K": []}',
    "nan-entry": '{"n": 1, "d": 1, "Q": [[NaN]], "K": [[0.0]]}',
    "infinity-entry": '{"n": 1, "d": 1, "Q": [[0.0]], "K": [[-Infinity]]}',
    "missing-block": '{"n": 1, "d": 1, "Q": [[0.0]]}',
    "trailing-comma-in-block": '{"n": 1, "d": 1, "Q": [[0.0],], "K": [[0.0]]}',
    # the last duplicate wins, also when it is the malformed one
    "malformed-last-duplicate": '{"n": 1, "d": 1, "Q": [[0.0]], "K": [[0.0]], "Q": [["0.0"]]}',
    "malformed-last-n": '{"n": 1, "d": 1, "Q": [[0.0]], "K": [[0.0]], "n": 1.0}',
    # JSON of a trace, but not as save_trace writes it
    "key-order": '{"K": [[0.25]], "Q": [[0.5]], "d": 1, "n": 1}',
    "whitespace": ' \r\n{\t"n" :1 ,"d":\n1, "Q" : [ [ 0.5 ] ] ,"K":[[0.25]\n]\t}\n ',
    "escaped-keys": '{"\\u006e": 1, "d": 1, "\\u0051": [[0.5]], "\\u004B": [[0.25]]}',
    "unknown-keys": '{"meta": {"Q": "x", "n": [1, {"K": null}]}, "n": 1, "x": NaN, "y": -Infinity, '
    '"d": 1, "Q": [[0.5]], "K": [[0.25]], "z": [true, "s", 1e999]}',
    "duplicate-n": '{"n": 2, "n": 1, "d": 1, "Q": [[0.5]], "K": [[0.25]]}',
    "duplicate-after-string": '{"n": 1, "d": 1, "Q": "12", "Q": [[0.5]], "K": [[0.25]]}',
    "duplicate-after-bool": '{"n": 1, "d": 1, "Q": [[true]], "K": [[0.25]], "Q": [[0.5]]}',
    "duplicate-after-ragged": '{"n": 1, "d": 1, "Q": [[0.5], [1.0, 2.0]], "Q": [[0.5]], "K": [[0.25]]}',
    "duplicate-after-overflow": '{"n": 1, "d": 1, "Q": [[' + "9" * 400 + ']], "Q": [[0.5]], "K": [[0.25]]}',
    "duplicate-after-empty": '{"n": 1, "d": 1, "Q": [], "K": [[]], "Q": [[0.5]], "K": [[0.25]]}',
    "non-ascii": '{"ключ": "значение    ☃  𝄞", "n": 1, "d": 1, "Q": [[0.5]], "K": [[0.25]]}',
    "long-unknown-value": '{"meta": [' + ", ".join(map(str, range(3000))) + '], "n": 1, "d": 1, "Q": [[0.5]], "K": [[0.25]]}',
}


@pytest.mark.parametrize("text", MALFORMED_JSON.values(), ids=MALFORMED_JSON.keys())
def test_malformed_json_is_malformed_trace(tmp_path, text):
    path = tmp_path / "t.json"
    path.write_text(text)
    with pytest.raises(MalformedTrace):
        kl.load_trace(path)


def test_json_file_bytes_are_pinned(tmp_path):
    # 2 * d * max|Q| * max|K| is float64's largest value exactly: the edge of the logit bound
    q = [[0.1, -0.0], [5e-324, 1.7976931348623157e308]]
    k = [[5e-324, 0.25], [0.1, -0.0]]
    t = kl.AttentionTrace(q=np.array(q), k=np.array(k))
    path = tmp_path / "t.json"
    kl.save_trace(t, path)
    assert path.read_text(encoding="utf-8") == (
        '{"n": 2, "d": 2, "Q": [[0.1, -0.0], [5e-324, 1.7976931348623157e+308]], '
        '"K": [[5e-324, 0.25], [0.1, -0.0]]}'
    )
    assert kl.load_trace(path) == t
    # with float64's extremes in both blocks a logit overflows
    path.write_text(
        '{"n": 2, "d": 2, "Q": [[0.1, -0.0], [5e-324, 1.7976931348623157e+308]], '
        '"K": [[5e-324, 1.7976931348623157e+308], [0.1, -0.0]]}'
    )
    with pytest.raises(MalformedTrace):
        kl.load_trace(path)
    # the hand-written frame around the blocks writes json.dumps's bytes at any shape
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=12, d=3, seed=1))
    kl.save_trace(t, path)
    doc = {"n": 12, "d": 3, "Q": t.q.tolist(), "K": t.k.tolist()}
    assert path.read_text(encoding="utf-8") == json.dumps(doc)


@pytest.mark.parametrize("d, bound", [(16, 0.8), (64, 0.52)], ids=["d16-0.8x", "d64-0.52x"])
def test_json_load_peak_memory_stays_within_file_size_bound(tmp_path, d, bound):
    # the text is read through a fixed window and each block is appended to
    # one float64 buffer row by row, so the peak is Q, K, one row's floats
    # and one window: no block is held twice
    path = tmp_path / "t.json"
    kl.save_trace(kl.generate_trace(kl.SyntheticTraceSpec(n=2048, d=d, seed=3)), path)
    tracemalloc.start()
    try:
        kl.load_trace(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * path.stat().st_size


def test_binary_load_peak_memory_stays_below_1_2_file_sizes(tmp_path):
    # the trace keeps views over the bytes of the file's one read, so the
    # peak is that read and the finite-entry check's flags, not a second copy
    path = tmp_path / "t.kvt"
    kl.save_trace(kl.generate_trace(kl.SyntheticTraceSpec(n=2048, d=64, seed=3)), path)
    tracemalloc.start()
    try:
        kl.load_trace(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * path.stat().st_size


def _over_logit_bound(q: np.ndarray, k: np.ndarray) -> bool:
    """Whether 2 * d * max|Q| * max|K| exceeds float64's range (the product taken first)."""
    return float(np.abs(q).max()) * float(np.abs(k).max()) * (2 * q.shape[1]) > np.finfo(np.float64).max


def _assert_loads_bit_equal(path, text: str) -> None:
    """The loader reads ``text`` as ``json.loads`` then ``np.array`` read it,
    or rejects it when its blocks break the logit bound."""
    path.write_text(text, encoding="utf-8")
    doc = json.loads(text)
    want_q, want_k = (np.array(doc[name], dtype=np.float64) for name in ("Q", "K"))
    if _over_logit_bound(want_q, want_k):
        with pytest.raises(MalformedTrace):
            kl.load_trace(path)
        return
    loaded = kl.load_trace(path)
    for got, want in ((loaded.q, want_q), (loaded.k, want_k)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


ACCEPTED_JSON = {
    "int-entries": '{"n": 1, "d": 3, "Q": [[-0, 9007199254740993, ' + "9" * 300 + ']], "K": [[1, 2, 3]]}',
    "long-float": '{"n": 1, "d": 1, "Q": [[0.1000000000000000055511151231257827]], "K": [[1.' + "0" * 5000 + ']]}',
}


@pytest.mark.parametrize("text", ACCEPTED_JSON.values(), ids=ACCEPTED_JSON.keys())
def test_accepted_json_loads_as_json_loads_reads_it(tmp_path, text):
    _assert_loads_bit_equal(tmp_path / "t.json", text)


def _json_matrix(n: int, d: int):
    # |entries| up to 1e150 keep 2 * d * max|Q| * max|K| within float64's range
    return st.lists(st.lists(st.floats(-1e150, 1e150), min_size=d, max_size=d), min_size=n, max_size=n)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 8), d=st.integers(1, 5), read_bytes=st.integers(1, 64))
def test_json_load_matches_json_loads_property(tmp_path_factory, data, n, d, read_bytes):
    # save_trace's JSON of any trace loads as json.loads reads it, at any read size
    t = kl.AttentionTrace(q=np.array(data.draw(_json_matrix(n, d))), k=np.array(data.draw(_json_matrix(n, d))))
    path = tmp_path_factory.mktemp("prop") / "t.json"
    kl.save_trace(t, path)
    _assert_loads_bit_equal(path, path.read_text(encoding="utf-8"))
    assert _load_outcome(path, read_bytes) == (t.q.shape, t.q.tobytes(), t.k.tobytes())


READ_SIZES = (1, 2, 3, 7, 64)


def _load_outcome(path, read_bytes: int = jsontrace._READ_BYTES):
    """What a load through reads of ``read_bytes`` gives: the blocks' bytes, or the error."""
    with mock.patch.object(jsontrace, "_READ_BYTES", read_bytes):
        try:
            t = kl.load_trace(path)
        except MalformedTrace as exc:
            return str(exc)
    return t.q.shape, t.q.tobytes(), t.k.tobytes()


@pytest.mark.parametrize("name", [*ACCEPTED_JSON, *MALFORMED_JSON])
def test_json_load_does_not_depend_on_read_size(tmp_path, name):
    path = tmp_path / "t.json"
    path.write_text({**ACCEPTED_JSON, **MALFORMED_JSON}[name], encoding="utf-8")
    want = _load_outcome(path)
    for size in READ_SIZES:
        assert _load_outcome(path, size) == want, size


def test_non_ascii_text_straddles_reads(tmp_path):
    # a two-, three- and four-byte character in place of an entry's digits,
    # at every offset from the edge of a 7-byte read
    path = tmp_path / "t.json"
    for char in "ж☃𝄞":
        for pad in range(7):
            text = '{"n": 1, "d": 1, "Q": [[' + "1" * pad + char + ']], "K": [[0.25]]}'
            path.write_text(text, encoding="utf-8")
            for size in (*READ_SIZES, jsontrace._READ_BYTES):
                assert _named_byte(_load_outcome(path, size)) == text.index(char), (char, pad, size)


def test_n_whose_digits_straddle_a_read_loads(tmp_path):
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=12, d=10, seed=2))
    path = tmp_path / "t.json"
    kl.save_trace(t, path)
    assert path.read_bytes()[:7] == b'{"n": 1'  # the first 7-byte read ends inside n = 12
    with mock.patch.object(jsontrace, "_READ_BYTES", 7):
        assert kl.load_trace(path) == t


def test_numbers_split_by_a_read_load(tmp_path):
    # a number's end depends on the characters past it ("1.|5", "1e|5",
    # "1e-|5", "20|48"): a read that ends there must not cut it short
    path = tmp_path / "t.json"
    for pad in range(8):
        text = ('{"n": 2, "d": 4, "Q": [[' + "1" * (pad + 1) + ', 0, 0, 0], [1.5, 2e5, 3e-5, 4.0E+1]], '
                '"K": [[0, 0, 0, 0], [2048, 0, 0, 0]]}')
        _assert_loads_bit_equal(path, text)
        for size in READ_SIZES:
            assert _load_outcome(path, size) == _load_outcome(path), (pad, size)


def test_each_row_is_parsed_once_at_any_read_size(tmp_path):
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=40, d=3, seed=4))
    path = tmp_path / "t.json"
    kl.save_trace(t, path)
    for size in (*READ_SIZES, jsontrace._READ_BYTES):
        scan = mock.Mock(wraps=jsontrace._SCAN)
        with mock.patch.object(jsontrace, "_SCAN", scan), mock.patch.object(jsontrace, "_READ_BYTES", size):
            assert kl.load_trace(path) == t
        # n, d and each row: a row is parsed only once its closing "]" is read
        assert scan.call_count == 2 + 2 * t.n, size


# save_trace's frame, damaged: "|" marks the byte that the error must name
_DOC = '{"n": 2, "d": 2, "Q": [[0.5, 1.0], [2.0, 3.0]], "K": [[0.25, 0.0], [1.0, 1.0]]}'
SYNTAX_ERRORS = {
    "row-missing-comma": _DOC.replace("[2.0, 3.0]", "[2.0 |3.0]"),
    "entry-after-rows": _DOC.replace("[2.0, 3.0]", "[2.0, 3.0]|, 7 8"),
    "row-then-junk": _DOC.replace("[2.0, 3.0]", "[2.0, 3.0]| x"),
    "trailing-comma-in-block": _DOC.replace("[1.0, 1.0]]", "[1.0, 1.0]|,]"),
    "unknown-value": _DOC.replace("[2.0, 3.0]", "[2.0, |x]"),
    "missing-colon": _DOC.replace('"K":', '"K"|'),
    "missing-member-comma": _DOC.replace('], "K"', ']| "K"'),
    "missing-row-comma": _DOC.replace("], [2.0", "]|[2.0"),
    "missing-size-comma": _DOC.replace('2, "d"', '2| "d"'),
    "unquoted-key": _DOC.replace('"K"', '|K'),
    "non-ascii-key": _DOC.replace('"K"', '"|Ḱ"'),
    "non-ascii-entry": _DOC.replace("3.0", "|é"),
    "invalid-utf8-entry": _DOC.replace("3.0", "|\udcff"),  # written as the lone byte 0xff
    "truncated-row": _DOC[: _DOC.index("3.0")] + "3|",
    "truncated": _DOC[:-3] + "|",
    "extra-data": _DOC + "|\n",
}


@pytest.mark.parametrize("text", SYNTAX_ERRORS.values(), ids=SYNTAX_ERRORS.keys())
def test_json_syntax_error_names_the_file_offset(tmp_path, text):
    at = text.index("|")
    path = tmp_path / "t.json"
    path.write_bytes(text.replace("|", "").encode("utf-8", "surrogateescape"))
    for size in (*READ_SIZES, jsontrace._READ_BYTES):
        assert _named_byte(_load_outcome(path, size)) == at, size


# long blocks: 2^14 entries at d=4, one row either side of it, and twice as many rows
@pytest.mark.parametrize("extra_rows", [-1, 0, 1, 4097])
def test_json_blocks_spanning_chunks_load_bit_equal(tmp_path, extra_rows):
    d = 4
    n = 4096 + extra_rows
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=n, d=d, kind="power-law-keys", seed=5))
    path = tmp_path / "t.json"
    kl.save_trace(t, path)
    _assert_loads_bit_equal(path, path.read_text(encoding="utf-8"))


def test_ragged_row_in_a_later_chunk_is_malformed(tmp_path):
    # the second-to-last row of a long block is the one too wide
    n = (1 << 14) + 3
    rows = [[float(i)] for i in range(n)]
    rows[-2] = [0.0, 1.0]
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"n": n, "d": 1, "Q": rows, "K": rows}))
    with pytest.raises(MalformedTrace):
        kl.load_trace(path)


def test_zero_width_rows_give_the_size_message(tmp_path):
    # rows are counted, so a block of empty rows keeps its (n, 0) shape
    path = tmp_path / "t.json"
    path.write_text('{"n": 2, "d": 0, "Q": [[], []], "K": [[], []]}')
    with pytest.raises(MalformedTrace) as err:
        kl.load_trace(path)
    assert str(err.value) == f"{path}: trace needs n >= 1 and d >= 1, got (2, 0)"


def test_integer_entries_round_to_the_nearest_float64(tmp_path):
    # 2^53 + 1 and 2^53 + 3 lie halfway between float64 neighbours: ties go to even
    path = tmp_path / "t.json"
    path.write_text(
        '{"n": 1, "d": 3, "Q": [[9007199254740993, -9007199254740993, 9007199254740995]], "K": [[1, 2, 3]]}'
    )
    t = kl.load_trace(path)
    assert t.q.tolist() == [[2.0**53, -(2.0**53), 2.0**53 + 4]]
    assert t.k.tolist() == [[1.0, 2.0, 3.0]]


def _load_from_fifo(tmp_path, raw: bytes) -> kl.AttentionTrace:
    """``load_trace`` of ``raw`` read through a FIFO that another thread writes, as from a pipe."""
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(raw,), daemon=True)
    writer.start()
    try:
        return kl.load_trace(fifo)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


@pytest.mark.parametrize("name", ["t.kvt", "t.json"])
def test_trace_read_from_a_pipe_loads(tmp_path, name):
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=40, d=3, seed=4))
    kl.save_trace(t, tmp_path / name)
    assert _load_from_fifo(tmp_path, (tmp_path / name).read_bytes()) == t


def _nan_at_second_q_entry(raw: bytes) -> bytes:
    raw = bytearray(raw)
    raw[20:28] = np.float64("nan").tobytes()
    return bytes(raw)


@pytest.mark.parametrize("damage, offset", [
    (lambda raw: raw[:7], 7),  # truncated header
    (lambda raw: raw[:-8], 68),  # size mismatch: 76 bytes expected
    (_nan_at_second_q_entry, 20),
], ids=["truncated-header", "size-mismatch", "nan"])
def test_bad_binary_file_from_a_pipe_fails_as_from_disk(tmp_path, damage, offset):
    path = tmp_path / "t.kvt"
    kl.save_trace(kl.AttentionTrace(q=np.ones((2, 2)), k=np.ones((2, 2))), path)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(MalformedTrace) as disk:
        kl.load_trace(path)
    with pytest.raises(MalformedTrace) as pipe:
        _load_from_fifo(tmp_path, path.read_bytes())
    assert _named_byte(str(disk.value)) == offset
    # the messages differ only in the path they name
    assert str(pipe.value).replace(str(tmp_path / "fifo"), str(path)) == str(disk.value)


def test_every_truncation_of_a_binary_file_is_malformed(tmp_path):
    path = tmp_path / "t.kvt"
    kl.save_trace(kl.generate_trace(kl.SyntheticTraceSpec(n=3, d=2, seed=1)), path)
    raw = path.read_bytes()
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(MalformedTrace):
            kl.load_trace(path)


def test_huge_header_is_malformed(tmp_path):
    path = tmp_path / "t.kvt"
    path.write_bytes(b"KVT1" + (2**32 - 1).to_bytes(4, "little") * 2 + bytes(16))
    with pytest.raises(MalformedTrace):
        kl.load_trace(path)


@settings(max_examples=300, deadline=None)
@given(raw=st.binary(max_size=64) | st.binary(max_size=64).map(lambda b: b"KVT1" + b))
def test_random_bytes_raise_only_malformed_trace(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("fuzz") / "t.bin"
    path.write_bytes(raw)
    try:
        kl.load_trace(path)
    except MalformedTrace:
        pass


def test_nonfinite_entry_offset(tmp_path):
    t = kl.AttentionTrace(q=np.ones((2, 2)), k=np.ones((2, 2)))
    path = tmp_path / "t.kvt"
    kl.save_trace(t, path)
    raw = bytearray(path.read_bytes())
    import struct

    struct.pack_into("<d", raw, 12 + 8, float("nan"))  # second Q entry
    path.write_bytes(bytes(raw))
    with pytest.raises(MalformedTrace) as err:
        kl.load_trace(path)
    assert _named_byte(str(err.value)) == 12 + 8


def test_bad_header_sizes(tmp_path):
    path = tmp_path / "t.kvt"
    path.write_bytes(b"KVT1" + (0).to_bytes(4, "little") + (2).to_bytes(4, "little"))
    with pytest.raises(MalformedTrace) as err:
        kl.load_trace(path)
    assert _named_byte(str(err.value)) == 4


def test_unwritable_path_raises_oserror(tmp_path):
    t = kl.AttentionTrace(q=np.zeros((1, 1)), k=np.zeros((1, 1)))
    with pytest.raises(OSError):
        kl.save_trace(t, tmp_path / "missing" / "t.kvt")


def test_trace_is_immutable_after_construction():
    q, k = np.ones((2, 3)), np.full((2, 3), 2.0)
    t = kl.AttentionTrace(q=q, k=k)
    q[0, 0] = k[0, 0] = 9.0  # the trace holds its own copies
    assert t.q[0, 0] == 1.0 and t.k[0, 0] == 2.0
    with pytest.raises(ValueError):
        t.q[0, 0] = 1.0


def test_read_only_view_of_a_writeable_array_is_copied():
    base = np.ones((2, 3))
    view = base.view()
    view.setflags(write=False)
    t = kl.AttentionTrace(q=view, k=view)
    base[0, 0] = 9.0  # the view is read-only, but its base is not
    assert t.q[0, 0] == 1.0 and t.k[0, 0] == 1.0


def test_empty_trace_rejected_before_write():
    with pytest.raises(InvalidSpec):
        kl.AttentionTrace(q=np.zeros((0, 2)), k=np.zeros((0, 2)))


def test_logits_beyond_float64_range_rejected():
    # every entry is finite, but a logit 1e200 * 1e200 is not
    with pytest.raises(InvalidSpec):
        kl.AttentionTrace(q=np.full((2, 1), 1e200), k=np.full((2, 1), -1e200))
    # the bound grows with d: 2 * d * 1e307 fits float64's 1.797e308 up to d = 8
    kl.AttentionTrace(q=np.full((1, 8), 1e153), k=np.full((1, 8), -1e154))
    with pytest.raises(InvalidSpec):
        kl.AttentionTrace(q=np.full((1, 9), 1e153), k=np.full((1, 9), -1e154))


def test_shape_mismatch_rejected():
    with pytest.raises(InvalidSpec):
        kl.AttentionTrace(q=np.zeros((2, 2)), k=np.zeros((3, 2)))
    with pytest.raises(InvalidSpec):
        kl.AttentionTrace(q=np.zeros((2, 2)), k=np.full((2, 2), np.nan))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 12),
    d=st.integers(1, 6),
    kind=st.sampled_from(kl.trace.TRACE_KINDS),
    seed=st.integers(0, 2**32 - 1),
    name=st.sampled_from(["t.kvt", "t.json"]),
)
def test_roundtrip_property(tmp_path_factory, n, d, kind, seed, name):
    spec = kl.SyntheticTraceSpec(n=n, d=d, kind=kind, seed=seed)
    t = kl.generate_trace(spec)
    path = tmp_path_factory.mktemp("rt") / name
    kl.save_trace(t, path)
    assert kl.load_trace(path) == t


def test_generator_deterministic():
    spec = kl.SyntheticTraceSpec(n=32, d=4, kind="power-law-keys", power_exponent=1.0, seed=99)
    assert kl.generate_trace(spec) == kl.generate_trace(spec)


# SHA-256 of seed 0's Q and K bytes, recorded before the key builder
# switched to in-place arithmetic, which keeps every operand order
GENERATED_SHA256 = {
    ("power-law-keys", 64, 8): (
        "e7d70f8129aee0feb6f0a49eeac966943a962097416aac659e9f33ee482cc714",
        "a29566804be973c3efbaf86aa8afbda62432e03f86ad0e35f2160b8a0f529553",
    ),
    ("power-law-keys", 33, 1): (
        "99acf2fb9aee382e1a0f786870e6155b07b563ac1ef68d9a77d6dfd3c5890a50",
        "f55b5621b509faffbd0c4829832c41561bff3bc1e47eec3accdc9187f3f6c223",
    ),
    ("power-law-keys", 2048, 64): (
        "07c1c7c081b6552b751233ec58e9c6543770c99f1388ffd7ee8cb254f59b15d7",
        "3354a223bb6c7acdf52b26865010721b0135b882f6a76107ae96c6fe43600bb4",
    ),
    ("sink-dominant", 64, 8): (
        "33983ee32889861e578fb048f24e3c6daaa68fab675cb6bf26415c53072a738b",
        "0751c06e75849e52d927f406bb0c985845fe3c8fe75ced5bdcbe02f1c3f10c62",
    ),
    ("sink-dominant", 33, 1): (
        "1b427cb55e6ca64c8e396f603dd60ca9fb0b8f69f29d62ea2ad3a44d5e52d11e",
        "3c3ca09bedb84f514d42c3986ff61891fe1960c963fff51f5cef02b3a5e5a693",
    ),
    ("sink-dominant", 2048, 64): (
        "95754b9871aaec6821081fb4cb7b20e28b229b0dc6985f85f41fb407fa552751",
        "a90f48ccae866f8ab4bb88f976591e90bfa3fa5ceb77cb3aa9ce00438625225b",
    ),
}


@pytest.mark.parametrize("kind, n, d", list(GENERATED_SHA256))
def test_generated_trace_bytes_are_pinned(kind, n, d):
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=n, d=d, kind=kind, seed=0))
    assert tuple(hashlib.sha256(m.tobytes()).hexdigest() for m in (t.q, t.k)) == GENERATED_SHA256[kind, n, d]


def test_key_generation_peak_memory_stays_below_3_mb():
    # Q and K take 1 MiB each; the builder holds at most two (n, d) arrays at once
    spec = kl.SyntheticTraceSpec(n=2048, d=64, kind="power-law-keys", seed=0)
    kl.generate_trace(kl.SyntheticTraceSpec(n=4, d=2, kind="power-law-keys", seed=0))  # warm numpy up
    tracemalloc.start()
    try:
        kl.generate_trace(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.0e6


def test_uniform_gaussian_shape():
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=64, d=8, kind="uniform-gaussian", seed=5))
    assert t.q.shape == (64, 8)
    assert np.isfinite(t.q).all() and np.isfinite(t.k).all()


def test_power_law_concentrates_accumulated_mass():
    # what full attention accumulates, pinned to a full decode's scores in test_metrics
    spec = kl.SyntheticTraceSpec(n=128, d=16, kind="power-law-keys", power_exponent=1.0, seed=0)
    raw = kl.heavy_hitter_profile(kl.generate_trace(spec)).curve
    top_count = max(1, round(0.1 * 128))
    share = np.sort(raw)[::-1][:top_count].sum() / raw.sum()
    assert share > 0.5


def test_power_law_key_norm_scaling():
    spec = kl.SyntheticTraceSpec(n=64, d=8, kind="power-law-keys", power_exponent=1.5, seed=3)
    t = kl.generate_trace(spec)
    norms = np.sort(np.linalg.norm(t.k, axis=1))[::-1]
    expected = np.sort((np.arange(1, 65) ** -1.5))[::-1]
    np.testing.assert_allclose(norms / norms[0], expected / expected[0], rtol=1e-9)


def test_sink_dominant_first_token_largest():
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=32, d=8, kind="sink-dominant", seed=11))
    norms = np.linalg.norm(t.k, axis=1)
    assert norms[0] == norms.max()


def test_dominant_key_trace_places_spike():
    t = dominant_key_trace(50, 8, position=25, seed=2)
    norms = np.linalg.norm(t.k, axis=1)
    assert norms.argmax() == 24
    with pytest.raises(InvalidSpec):
        dominant_key_trace(50, 8, position=0)


def test_unknown_kind_rejected():
    with pytest.raises(InvalidSpec):
        kl.SyntheticTraceSpec(n=4, d=2, kind="nope")


def test_sizes_beyond_numpy_indexing_rejected():
    kl.SyntheticTraceSpec(n=2**59, d=1)  # 2**62 bytes per block: a spec, never allocated here
    with pytest.raises(InvalidSpec):
        kl.SyntheticTraceSpec(n=2**59, d=2)

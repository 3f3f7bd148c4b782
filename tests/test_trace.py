"""Trace construction, file round-trips, and synthetic generators."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kvcachelab as kl
from kvcachelab.errors import InvalidSpec, InvalidTrace, MalformedTrace
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


def test_short_key_block_is_malformed(tmp_path):
    t = kl.AttentionTrace(q=np.ones((3, 2)), k=np.ones((3, 2)))
    path = tmp_path / "t.kvt"
    kl.save_trace(t, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])  # drop one K row
    with pytest.raises(MalformedTrace) as err:
        kl.load_trace(path)
    assert err.value.byte_offset is not None


def test_json_row_count_mismatch(tmp_path):
    path = tmp_path / "t.json"
    path.write_text('{"n": 2, "d": 1, "Q": [[0.0], [1.0]], "K": [[0.0]]}')
    with pytest.raises(MalformedTrace):
        kl.load_trace(path)


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
}


@pytest.mark.parametrize("text", MALFORMED_JSON.values(), ids=MALFORMED_JSON.keys())
def test_malformed_json_is_malformed_trace(tmp_path, text):
    path = tmp_path / "t.json"
    path.write_text(text)
    with pytest.raises(MalformedTrace):
        kl.load_trace(path)


def test_json_file_bytes_are_pinned(tmp_path):
    q = [[0.1, -0.0], [5e-324, 1.7976931348623157e308]]
    t = kl.AttentionTrace(q=np.array(q), k=np.array(q[::-1]))
    path = tmp_path / "t.json"
    kl.save_trace(t, path)
    assert path.read_text(encoding="utf-8") == (
        '{"n": 2, "d": 2, "Q": [[0.1, -0.0], [5e-324, 1.7976931348623157e+308]], '
        '"K": [[5e-324, 1.7976931348623157e+308], [0.1, -0.0]]}'
    )
    assert kl.load_trace(path) == t


def test_json_load_peak_memory_stays_below_three_file_sizes(tmp_path):
    path = tmp_path / "t.json"
    kl.save_trace(kl.generate_trace(kl.SyntheticTraceSpec(n=256, d=16, seed=3)), path)
    tracemalloc.start()
    try:
        kl.load_trace(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * path.stat().st_size


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
    assert err.value.byte_offset == 12 + 8


def test_bad_header_sizes(tmp_path):
    path = tmp_path / "t.kvt"
    path.write_bytes(b"KVT1" + (0).to_bytes(4, "little") + (2).to_bytes(4, "little"))
    with pytest.raises(MalformedTrace) as err:
        kl.load_trace(path)
    assert err.value.byte_offset == 4


def test_unwritable_path_raises_oserror(tmp_path):
    t = kl.AttentionTrace(q=np.zeros((1, 1)), k=np.zeros((1, 1)))
    with pytest.raises(OSError):
        kl.save_trace(t, tmp_path / "missing" / "t.kvt")


def test_empty_trace_rejected_before_write():
    with pytest.raises(InvalidTrace):
        kl.AttentionTrace(q=np.zeros((0, 2)), k=np.zeros((0, 2)))


def test_shape_mismatch_rejected():
    with pytest.raises(InvalidTrace):
        kl.AttentionTrace(q=np.zeros((2, 2)), k=np.zeros((3, 2)))
    with pytest.raises(InvalidTrace):
        kl.AttentionTrace(q=np.zeros((2, 2)), k=np.full((2, 2), np.nan))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 12),
    d=st.integers(1, 6),
    kind=st.sampled_from(kl.trace.TRACE_KINDS),
    seed=st.integers(0, 2**32 - 1),
    fmt=st.sampled_from(["binary", "json"]),
)
def test_roundtrip_property(tmp_path_factory, n, d, kind, seed, fmt):
    spec = kl.SyntheticTraceSpec(n=n, d=d, kind=kind, seed=seed)
    t = kl.generate_trace(spec)
    path = tmp_path_factory.mktemp("rt") / ("t.json" if fmt == "json" else "t.kvt")
    kl.save_trace(t, path, fmt=fmt)
    assert kl.load_trace(path) == t


def test_generator_deterministic():
    spec = kl.SyntheticTraceSpec(n=32, d=4, kind="power-law-keys", power_exponent=1.0, seed=99)
    assert kl.generate_trace(spec) == kl.generate_trace(spec)


def test_uniform_gaussian_shape():
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=64, d=8, kind="uniform-gaussian", seed=5))
    assert t.q.shape == (64, 8)
    assert np.isfinite(t.q).all() and np.isfinite(t.k).all()


def test_power_law_concentrates_accumulated_mass():
    # Reference oracle: exact accumulation over a full (no-eviction) run.
    spec = kl.SyntheticTraceSpec(n=128, d=16, kind="power-law-keys", power_exponent=1.0, seed=0)
    t = kl.generate_trace(spec)
    full = kl.run_policy(t, kl.PolicyConfig(kind="h2_only", budget=128))
    raw = np.array([full.final_scores.get(tok) for tok in range(1, 129)])
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

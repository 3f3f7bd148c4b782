"""Cache state machine: slots, ring semantics, quantization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kvcachelab as kl
from kvcachelab.cache import CacheState, QuantizationSpec, events_to_jsonl, quantize_slots
from kvcachelab.errors import (
    CacheFull,
    DuplicateToken,
    EvictNotTracked,
    InvalidSpec,
    NotFull,
)


def _key(d, fill=1.0):
    return np.full(d, fill)


def test_admissions_fill_distinct_slots():
    c = CacheState(budget=3, dim=2)
    ev1 = c.admit(1, _key(2))
    assert ev1.evicted is None and ev1.admitted == 1
    c.admit(2, _key(2))
    c.admit(3, _key(2))
    assert c.tracked == {1, 2, 3}
    assert sorted(c.slot_of(t) for t in (1, 2, 3)) == [0, 1, 2]
    with pytest.raises(CacheFull):
        c.admit(4, _key(2))
    with pytest.raises(NotFull):
        CacheState(budget=3, dim=2).swap(1, 2, _key(2))


def test_duplicate_admit_rejected():
    c = CacheState(budget=2, dim=1)
    c.admit(1, _key(1))
    with pytest.raises(DuplicateToken):
        c.admit(1, _key(1))


def test_swap_overwrites_in_place():
    c = CacheState(budget=3, dim=2)
    for t in (1, 2, 3):
        c.admit(t, _key(2, t))
    storage = c.keys_array()
    slot_of_3 = c.slot_of(3)
    ev = c.swap(3, 4, _key(2, 4.0))
    assert ev.evicted == 3 and ev.admitted == 4 and ev.slot == slot_of_3
    assert c.tracked == {1, 2, 4}
    assert c.slot_of(4) == slot_of_3
    assert c.keys_array() is storage  # preallocated, never rebuilt
    np.testing.assert_array_equal(c.key_of(4), _key(2, 4.0))


def test_swap_refusing_incoming_changes_nothing():
    c = CacheState(budget=2, dim=1)
    c.admit(1, _key(1))
    c.admit(2, _key(1))
    before = c.tracked
    step_before = c.step
    ev = c.swap(5, 5, _key(1))
    assert ev.evicted == ev.admitted == 5 and ev.slot is None
    assert c.tracked == before
    assert c.step == step_before + 1


def test_swap_victim_must_be_tracked():
    c = CacheState(budget=2, dim=1)
    c.admit(1, _key(1))
    c.admit(2, _key(1))
    with pytest.raises(EvictNotTracked):
        c.swap(7, 9, _key(1))


def test_events_jsonl_schema():
    c = CacheState(budget=2, dim=1)
    events = [c.admit(1, _key(1)), c.admit(2, _key(1)), c.swap(1, 3, _key(1))]
    lines = events_to_jsonl(events).strip().split("\n")
    parsed = [json.loads(line) for line in lines]
    assert parsed[0] == {"i": 1, "evicted": None, "admitted": 1, "slot": 0}
    assert parsed[2]["evicted"] == 1 and parsed[2]["admitted"] == 3


class _ReferenceRecent:
    """List-based model of the ring: last r admitted-and-still-cached tokens."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.admitted = []

    def admit(self, token):
        self.admitted.append(token)

    def evict(self, token):
        if token in self.admitted:
            self.admitted.remove(token)

    def contents(self):
        return tuple(self.admitted[-self.capacity:]) if self.capacity else ()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), budget=st.integers(1, 9), recent=st.integers(0, 9))
def test_recent_ring_matches_reference(seed, budget, recent):
    recent = min(recent, budget)
    rng = np.random.default_rng(seed)
    cache = CacheState(budget=budget, dim=1, recent_capacity=recent)
    ref = _ReferenceRecent(recent)
    next_token = 1
    for _ in range(60):
        if not cache.at_budget:
            cache.admit(next_token, _key(1))
            ref.admit(next_token)
            next_token += 1
        else:
            tracked = sorted(cache.tracked)
            choice = rng.integers(0, len(tracked) + 1)
            if choice == len(tracked):  # refuse the incoming token
                cache.swap(next_token, next_token, _key(1))
            else:
                victim = tracked[choice]
                cache.swap(victim, next_token, _key(1))
                ref.evict(victim)
                ref.admit(next_token)
            next_token += 1
        assert cache.recent_tokens == ref.contents()


def test_recent_capacity_cannot_exceed_budget():
    with pytest.raises(InvalidSpec):
        CacheState(budget=2, dim=1, recent_capacity=3)


# --- quantization -------------------------------------------------------------

def test_quantize_zero_keys_unchanged():
    spec = QuantizationSpec(bits=4)
    x = np.zeros(5)
    np.testing.assert_array_equal(spec.roundtrip(x), x)


def test_quantize_hand_example_4bit():
    spec = QuantizationSpec(bits=4)
    x = np.array([1.0, -1.0])
    out = spec.roundtrip(x)
    np.testing.assert_allclose(out, x, atol=1.0 / 7.0)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    bits=st.sampled_from([4, 8]),
    scale=st.floats(0.01, 100.0),
)
def test_quantize_error_within_half_scale(seed, bits, scale):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(12) * scale
    spec = QuantizationSpec(bits=bits)
    err = np.abs(spec.roundtrip(x) - x)
    bound = np.abs(x).max() / spec.levels / 2.0
    assert (err <= bound + 1e-12).all()


def test_8bit_never_worse_than_4bit_in_max_norm():
    # The coarse (4-bit) grid is not nested in the fine (8-bit) grid, so a
    # per-entry comparison can go either way; the worst-case entry per
    # vector is what the finer quantizer provably improves.
    rng = np.random.default_rng(0)
    q4, q8 = QuantizationSpec(4), QuantizationSpec(8)
    for _ in range(1000):
        x = rng.standard_normal(16) * rng.uniform(0.1, 10.0)
        e4 = np.abs(q4.roundtrip(x) - x).max()
        e8 = np.abs(q8.roundtrip(x) - x).max()
        assert e8 <= e4 + 1e-15


def test_quantize_slots_preserves_structure():
    c = CacheState(budget=3, dim=4, recent_capacity=1)
    rng = np.random.default_rng(1)
    for t in (1, 2, 3):
        c.admit(t, rng.standard_normal(4))
    c.swap(1, 4, rng.standard_normal(4))
    keys_before = c.keys_array().copy()
    q = quantize_slots(c, QuantizationSpec(bits=8))
    assert q.tracked == c.tracked
    assert q.recent_tokens == c.recent_tokens
    assert q.step == c.step
    for t in q.tracked:
        assert q.slot_of(t) == c.slot_of(t)
        scale = np.abs(c.key_of(t)).max() / 127
        np.testing.assert_allclose(q.key_of(t), c.key_of(t), atol=scale / 2 + 1e-12)
    # the copy is quantized, the original untouched
    assert not np.array_equal(q.keys_array(), c.keys_array())
    assert np.array_equal(c.keys_array(), keys_before)
    assert c.key_of(4) is not None


def test_bits_restricted():
    with pytest.raises(InvalidSpec):
        QuantizationSpec(bits=5)

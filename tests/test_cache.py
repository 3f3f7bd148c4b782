"""The cache as the engine records it (slots, refusals, events) and key quantization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kvcachelab as kl
from kvcachelab.errors import InvalidSpec
from kvcachelab.metrics import QuantizationSpec


def _run(kind, budget, n=24):
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=n, d=4, kind="power-law-keys", seed=3))
    return kl.run_policy(t, kl.PolicyConfig(kind=kind, budget=budget))


def test_admissions_fill_distinct_slots():
    rec = _run("local", budget=3)
    fill = rec.events[:3]
    assert [(ev.evicted, ev.admitted, ev.slot) for ev in fill] == [(None, 1, 0), (None, 2, 1), (None, 3, 2)]
    # at budget every step names a victim
    assert all(ev.evicted is not None for ev in rec.events[3:])


def test_swap_overwrites_in_place():
    for kind in ("local", "h2o", "topk", "sparse_strided"):
        rec = _run(kind, budget=5)
        slot_of = {}
        for ev in rec.events:
            if ev.evicted is not None and ev.evicted != ev.admitted:
                # the incoming token takes the victim's slot
                assert ev.slot == slot_of.pop(ev.evicted)
            if ev.slot is not None:
                slot_of[ev.admitted] = ev.slot
        assert sorted(slot_of.values()) == list(range(5))
        assert set(slot_of) == set(rec.final_scores)


def test_swap_refusing_incoming_changes_nothing():
    # the greedy without a recency window refuses low-scored incoming tokens
    rec = _run("h2_only", budget=4)
    refused = [ev for ev in rec.events[4:] if ev.evicted == ev.admitted]
    assert refused
    assert all(ev.slot is None for ev in refused)
    sets = dict(rec.step_sets())
    for ev in refused:
        assert sets[ev.step] == sets[ev.step - 1]


def test_events_jsonl_schema():
    t = kl.AttentionTrace(q=np.zeros((3, 1)), k=np.zeros((3, 1)))
    rec = kl.run_policy(t, kl.PolicyConfig(kind="local", budget=2))
    lines = kl.events_to_jsonl(rec.events).strip().split("\n")
    parsed = [json.loads(line) for line in lines]
    assert parsed[0] == {"i": 1, "evicted": None, "admitted": 1, "slot": 0}
    assert parsed[2] == {"i": 3, "evicted": 1, "admitted": 3, "slot": 0}


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


def test_bits_restricted():
    with pytest.raises(InvalidSpec):
        QuantizationSpec(bits=5)

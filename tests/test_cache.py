"""The cache as the engine records it (``evicted_at``, refusals) and key quantization."""

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


def _cached_set(evicted_at, i):
    """S_i: the tokens t <= i with ``i < evicted_at[t - 1]``."""
    return frozenset((np.flatnonzero(evicted_at[:i] > i) + 1).tolist())


def test_swap_refusing_incoming_changes_nothing():
    # the greedy without a recency window refuses low-scored incoming tokens
    evicted_at = _run("h2_only", budget=4)
    tokens = np.arange(1, len(evicted_at) + 1)
    refused = tokens[evicted_at == tokens]
    assert refused.size
    for t in refused.tolist():
        # no cached token leaves at a refused step, so the cached set stands
        assert np.count_nonzero(evicted_at == t) == 1
        assert _cached_set(evicted_at, t) == _cached_set(evicted_at, t - 1)


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

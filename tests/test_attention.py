"""The exact pass (``metrics._exact_blocks``) and the reference's restricted softmax: hand oracles and properties."""

import math
import tracemalloc

import numpy as np
import pytest

import kvcachelab as kl
import reference_engine as ref
from kvcachelab.metrics import _BLOCK_BYTES, _exact_blocks

# The blocks come from one GEMM per block where the reference takes one gemv
# per row, so they may differ from it in the last bits: a few ulps, bounded
# here from the dtype alone.
WEIGHT_ATOL = 64 * np.finfo(np.float64).eps


def _trace(q_rows, k_rows):
    return kl.AttentionTrace(q=np.array(q_rows, float), k=np.array(k_rows, float))


def _random_traces(count, n, d, kind="uniform-gaussian"):
    for seed in range(count):
        yield kl.generate_trace(kl.SyntheticTraceSpec(n=n, d=d, kind=kind, seed=seed))


def _exact(trace):
    """Exact weights from the blocks: row i - 1 holds step i's weights over 1..n."""
    w = np.zeros((trace.n, trace.n))
    for lo, e in _exact_blocks(trace):
        w[lo:lo + len(e), :e.shape[1]] = e / e.sum(axis=1, keepdims=True)
    return w


# --- _exact_blocks ---------------------------------------------------------------

def test_first_step_is_certain():
    t = _trace([[3.0, -1.0]], [[0.5, 2.0]])
    assert _exact(t)[0, 0] == 1.0


def test_zero_logits_give_uniform_weights():
    t = kl.AttentionTrace(q=np.zeros((5, 3)), k=np.ones((5, 3)))
    w = _exact(t)
    for i in range(1, 6):
        np.testing.assert_allclose(w[i - 1, :i], 1.0 / i, rtol=0, atol=1e-15)


def test_two_token_hand_softmax():
    # logits (0, ln 2): weights exp(0)=1 and exp(ln2)=2, normalized to (1/3, 2/3)
    t = _trace([[0.0], [1.0]], [[0.0], [math.log(2.0)]])
    w = _exact(t)
    assert w[1, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert w[1, 1] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_normalization_and_positivity():
    checked = 0
    for t in _random_traces(100, 16, 4):
        w = _exact(t)
        for i in range(1, t.n + 1):
            assert abs(w[i - 1].sum() - 1.0) <= 1e-9
            # positive exactly on the tokens 1..i that step i can see
            assert np.array_equal(np.flatnonzero(w[i - 1] > 0.0), np.arange(i))
            checked += 1
    assert checked == 1600


def test_overflow_scale_logits_stay_normalized():
    # raw exp would overflow: logits near 1e3; the shifted blocks must not
    q = np.array([[1000.0], [1000.0]])
    k = np.array([[1.0], [0.999]])
    w = _exact(kl.AttentionTrace(q=q, k=k))
    assert np.isfinite(w).all()
    assert abs(w[1].sum() - 1.0) <= 1e-9
    # logits 1000 and 999: weights 1 / (1 + e^-1) and e^-1 / (1 + e^-1)
    assert w[1, 0] == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-9)


def test_shift_invariance():
    rng = np.random.default_rng(7)
    for t in _random_traces(25, 12, 5):
        i = int(rng.integers(2, t.n + 1))
        c = float(rng.uniform(-50, 50))
        qi = t.q[i - 1]
        # K' = K + c * q_i / ||q_i||^2 adds the constant c to every logit of row i
        shifted = kl.AttentionTrace(q=t.q, k=t.k + c * qi / float(qi @ qi))
        np.testing.assert_allclose(_exact(shifted)[i - 1], _exact(t)[i - 1], rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [24, 257])
def test_blocks_match_row_by_row_softmax(n):
    # n = 257 gives 127-row blocks, so rows cross two block boundaries
    for t in _random_traces(3, n, 8, kind="power-law-keys"):
        w = _exact(t)
        for i in range(1, n + 1):
            row = ref.softmax_over(t, i, np.arange(1, i + 1))
            np.testing.assert_allclose(w[i - 1, :i], row, rtol=0, atol=WEIGHT_ATOL)
            assert (w[i - 1, i:] == 0.0).all()


@pytest.mark.parametrize("n", [1, 257, 2048])
def test_blocks_equal_one_fresh_product_per_block(n):
    # every block, bit for bit, is Q[lo:hi] @ K[:hi].T with the future masked, shifted and exponentiated
    for t in _random_traces(1, n, 16, kind="power-law-keys"):
        for lo, e in _exact_blocks(t):
            hi = e.shape[1]
            logits = t.q[lo:hi] @ t.k[:hi].T
            logits[np.arange(hi) > np.arange(lo, hi)[:, None]] = -np.inf
            assert np.array_equal(e, np.exp(logits - logits.max(axis=1, keepdims=True)))


def test_exact_pass_holds_one_block():
    # the blocks are views of one buffer, so the pass never holds two of them
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=2048, d=8, seed=1))
    tracemalloc.start()
    try:
        for _ in _exact_blocks(t):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * _BLOCK_BYTES


# --- the reference's restricted softmax (the engine is pinned to it bit for bit) ---

def test_masked_full_set_matches_exact():
    for t in _random_traces(20, 24, 6):
        w = _exact(t)
        for i in (1, 7, 24):
            masked = ref.softmax_over(t, i, np.arange(1, i + 1))
            np.testing.assert_allclose(masked, w[i - 1, :i], rtol=0, atol=1e-12)


def test_masked_singleton():
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=9, d=4, seed=1))
    assert ref.masked_step(t, 5, [5]) == {5: 1.0}


def test_masked_hand_example():
    t = kl.AttentionTrace(q=np.zeros((3, 2)), k=np.ones((3, 2)))
    weights = ref.masked_step(t, 3, [1, 3])
    assert weights[1] == pytest.approx(0.5, abs=1e-12)
    assert weights[3] == pytest.approx(0.5, abs=1e-12)


def test_monotone_mass_under_smaller_sets():
    rng = np.random.default_rng(3)
    for t in _random_traces(20, 14, 4):
        i = int(rng.integers(3, t.n + 1))
        big = list(range(1, i + 1))
        small = sorted(set(rng.choice(big[:-1], size=max(1, i // 2), replace=False).tolist()) | {i})
        wa = ref.masked_step(t, i, small)
        wb = ref.masked_step(t, i, big)
        for j in wa:
            assert wa[j] >= wb[j] - 1e-15

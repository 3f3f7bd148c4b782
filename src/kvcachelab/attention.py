"""Exact and eviction-masked attention, one decode step at a time.

At step ``i`` the query of token ``i`` attends over some set ``S`` of cached
tokens. The exact step uses ``S = {1..i}``; a masked step restricts the
softmax to the surviving set. Restricting the softmax is algebraically the
same as zeroing the evicted key rows and subtracting their ``exp(0) = 1``
artifacts from the normalizer, but we never materialize masked columns:
weights are computed only over ``S`` (O(|S|) memory, not O(i)).

All logits are shifted by their maximum before exponentiation. Softmax
weights are invariant to that shift; without it, |logit| beyond ~700
overflows float64.

:func:`exact_blocks` yields the whole exact attention map of a trace in
causal row blocks, one ``Q[lo:hi] @ K[:hi].T`` product per block, for the
metrics that read every exact row. A block holds about 256 KiB of float64
whatever ``n`` is, so the map is never materialized (O(n) rows of memory,
not O(n^2)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import CurrentTokenEvicted, EmptySet
from .trace import AttentionTrace


@dataclass(frozen=True)
class StepAttention:
    """Normalized attention of one decode step.

    ``weights`` maps each attended token index to its softmax weight; the
    weights sum to one and are strictly positive. ``normalizer`` is the raw
    softmax denominator (sum of unshifted exponentials) — only the ratios
    matter, it is kept for diagnostics and may overflow to inf for extreme
    logits.
    """

    index: int
    weights: Mapping[int, float]
    normalizer: float

    def weight(self, token: int) -> float:
        return self.weights.get(token, 0.0)

    def tokens(self) -> frozenset[int]:
        return frozenset(self.weights)


def _check_step(trace: AttentionTrace, i: int) -> None:
    if not 1 <= i <= trace.n:
        raise IndexError(f"token index {i} outside [1, {trace.n}]")


def softmax_over(trace: AttentionTrace, i: int, tokens: np.ndarray) -> tuple[np.ndarray, float]:
    """Shifted softmax of ``Q_i . K_j`` for 1-based ``tokens``; also D_i."""
    logits = trace.k[tokens - 1] @ trace.q[i - 1]
    shift = float(logits.max())
    expo = np.exp(logits - shift)
    total = float(expo.sum())
    with np.errstate(over="ignore"):  # diagnostics only; inf is acceptable
        normalizer = float(np.exp(shift) * total)
    return expo / total, normalizer


def exact_row(trace: AttentionTrace, i: int) -> np.ndarray:
    """Exact attention weights of step ``i`` over tokens 1..i, as an array."""
    _check_step(trace, i)
    weights, _ = softmax_over(trace, i, np.arange(1, i + 1))
    return weights


def exact_step(trace: AttentionTrace, i: int) -> StepAttention:
    """Full-cache attention at step ``i``: softmax over all of 1..i."""
    _check_step(trace, i)
    tokens = np.arange(1, i + 1)
    weights, normalizer = softmax_over(trace, i, tokens)
    return StepAttention(
        index=i,
        weights={int(t): float(w) for t, w in zip(tokens, weights)},
        normalizer=normalizer,
    )


def masked_step(trace: AttentionTrace, i: int, tracked: Iterable[int]) -> StepAttention:
    """Attention at step ``i`` restricted to the cached set ``tracked``.

    Requires ``tracked`` to be a non-empty subset of {1..i} containing ``i``
    itself — the decoding token's key is always available at its own step.
    With ``tracked == {1..i}`` this reproduces :func:`exact_step`.
    """
    _check_step(trace, i)
    tokens = np.array(sorted(set(int(t) for t in tracked)), dtype=np.int64)
    if tokens.size == 0:
        raise EmptySet(f"step {i}: attended set is empty")
    if tokens[0] < 1 or tokens[-1] > i:
        raise IndexError(f"step {i}: attended set must be within [1, {i}]")
    if i not in tokens:
        raise CurrentTokenEvicted(f"step {i}: decoding token not in attended set")
    weights, normalizer = softmax_over(trace, i, tokens)
    return StepAttention(
        index=i,
        weights={int(t): float(w) for t, w in zip(tokens, weights)},
        normalizer=normalizer,
    )


# bytes of float64 per exact block: large enough for GEMM, small enough not to raise peak RSS
_BLOCK_BYTES = 2**18


def exact_blocks(trace: AttentionTrace) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(lo, e)`` over causal row blocks of the exact attention map.

    ``e`` has shape ``(hi - lo, hi)``: row ``r`` belongs to step ``i = lo +
    r + 1`` and holds ``exp(Q_i . K_t - max_t)`` for tokens ``t <= i`` (so
    its largest entry is 1) and exact zeros for the future tokens beyond
    ``i``. Dividing a row by its sum gives the exact weights of step ``i``.
    """
    n = trace.n
    rows = max(1, _BLOCK_BYTES // (8 * n))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        logits = trace.q[lo:hi] @ trace.k[:hi].T
        # future columns become -inf, whose shifted exp is exactly 0 (no warning)
        logits[np.arange(hi) > np.arange(lo, hi)[:, None]] = -np.inf
        logits -= logits.max(axis=1, keepdims=True)
        yield lo, np.exp(logits, out=logits)

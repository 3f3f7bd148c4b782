"""Exact attention of a whole trace, in causal row blocks.

At step ``i`` the query of token ``i`` attends over tokens ``1..i``.
:func:`exact_blocks` yields that exact attention map one row block at a
time, one ``Q[lo:hi] @ K[:hi].T`` product per block, for the metrics that
read every exact row. A block holds about 256 KiB of float64 whatever ``n``
is, so the map is never materialized (O(n) rows of memory, not O(n^2)).

Each row is shifted by its maximum before exponentiation. Softmax weights
are invariant to that shift; without it, |logit| beyond ~700 overflows
float64.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .trace import AttentionTrace

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

"""Exact attention of a whole trace, in causal row blocks.

At step ``i`` the query of token ``i`` attends over tokens ``1..i``.
:func:`exact_blocks` yields that exact attention map one row block at a
time, one ``Q[lo:hi] @ K[:hi].T`` product per block, for the metrics that
read every exact row. A block holds about 256 KiB of float64 whatever ``n``
is, so the map is never materialized (O(n) rows of memory, not O(n^2)).
Every block is written into one buffer of that size, which the pass
allocates once and reuses, so a consumer must finish with a block before
it asks for the next one and must not keep it.

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

    ``e`` is a view of the pass's one buffer, which the next block
    overwrites: use it, or copy it, before asking for the next block.
    """
    n = trace.n
    rows = min(n, max(1, _BLOCK_BYTES // (8 * n)))
    buf = np.empty(rows * n)
    # the future tokens of a block's rows: the triangle right of its diagonal
    future = np.triu(np.ones((rows, rows), dtype=bool), 1)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        logits = buf[: (hi - lo) * hi].reshape(hi - lo, hi)
        np.matmul(trace.q[lo:hi], trace.k[:hi].T, out=logits)
        # future columns become -inf, whose shifted exp is exactly 0 (no warning)
        np.copyto(logits[:, lo:], -np.inf, where=future[: hi - lo, : hi - lo])
        logits -= logits.max(axis=1, keepdims=True)
        yield lo, np.exp(logits, out=logits)

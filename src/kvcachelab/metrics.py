"""Desk-scale measurements: sparsity, eviction damage, heavy-hitter shape.

Task accuracy needs a real model; these proxies measure what an eviction
policy actually destroys. At step i, with exact shifted exponentials
``e_it`` and the cached set S_i after the step's transition, the off-cache
mass is

    off_i = sum_{t <= i, evicted_at[t] <= i} e_it / sum_{t <= i} e_it

``retained mass`` is ``r_i = max(1 - off_i, 0)``: the fraction of the full
attention that lands on tokens still cached (one minus the off-cache mass,
so a full cache scores exactly 1; the clamp catches ``off_i`` rounding above
1). The total-variation distance between the softmax restricted to S_i
(renormalised, zero-extended) and the exact row is ``min(off_i, 1)``,
because ``sum_S |a_t / (1 - off) - a_t| = off`` and the off-cache entries
add ``off`` again, halved. Every quantity comes from one blocked pass over
the exact attention map, which :func:`deviation_reports` shares between any
number of runs over the same trace; :func:`trace_sparsity` reads the same
blocks. So does :func:`heavy_hitter_profile`: under full attention no token
is ever evicted, so the scores a decode accumulates are the column sums of
the row-normalised exact map, and the profile runs no decode.

The pass makes one ``Q[lo:hi] @ K[:hi].T`` product per causal row block. A
block holds about 256 KiB of float64 whatever ``n`` is: large enough for
GEMM, small enough that the map is never materialized (O(n) rows of
memory, not O(n^2)). Each row is shifted by its maximum before
exponentiation; softmax weights are invariant to that shift, and without
it |logit| beyond ~700 overflows float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import InvalidSpec
from .trace import AttentionTrace

# bytes of float64 per exact block
_BLOCK_BYTES = 2**18


def _exact_blocks(trace: AttentionTrace) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(lo, e)`` over causal row blocks of the exact attention map.

    ``e`` has shape ``(hi - lo, hi)``: row ``r`` belongs to step ``i = lo +
    r + 1`` and holds ``exp(Q_i . K_t - max_t)`` for tokens ``t <= i`` (so
    its largest entry is 1) and exact zeros for the future tokens beyond
    ``i``. Dividing a row by its sum gives the exact weights of step ``i``.

    ``e`` is a view of the pass's one buffer, which the next block
    overwrites: use it before asking for the next block.
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


# --- attention sparsity ----------------------------------------------------

def trace_sparsity(trace: AttentionTrace, threshold_frac: float = 0.01) -> np.ndarray:
    """Sparsity of each padded row of the exact attention map.

    Rows are padded to full length n, so the causally masked upper triangle
    counts as sparse, matching how sparsity of a square attention map is
    usually read off. A block row's largest entry is 1, so its entries
    below the threshold are those below ``threshold_frac``; the future
    entries (exact zeros) and the padding columns beyond the block always
    are.
    """
    if not 0.0 < threshold_frac < 1.0:
        raise InvalidSpec("threshold_frac must lie in (0, 1)")
    n = trace.n
    fracs = np.empty(n)
    for lo, e in _exact_blocks(trace):
        hi = e.shape[1]
        fracs[lo:hi] = ((e < threshold_frac).sum(axis=1) + (n - hi)) / n
    return fracs


# --- deviation from full attention ---------------------------------------------

@dataclass(frozen=True)
class DeviationReport:
    """Per-step retained mass and TV distance of a simulated run."""

    retained: np.ndarray
    tv: np.ndarray

    @property
    def mean_retained(self) -> float:
        return float(self.retained.mean())

    @property
    def mean_tv(self) -> float:
        return float(self.tv.mean())


def deviation_reports(trace: AttentionTrace, schedules: Sequence[np.ndarray]) -> list[DeviationReport]:
    """Per-step retained mass and TV of several runs over one trace.

    Each schedule is a run's ``evicted_at`` vector. The exact blocks are
    computed once for all of them, and each schedule's sums are taken on
    its own, so a run's numbers do not depend on which runs share the pass.
    A block that ends before a schedule's first eviction holds none of its
    evicted tokens, so the schedule skips it: its off-cache mass there is
    0.0, as the sums would give.
    """
    n = trace.n
    for evicted_at in schedules:
        if len(evicted_at) != n:
            raise InvalidSpec(f"schedule has n={len(evicted_at)}, trace has n={n}")
    # each schedule's first eviction step, n + 1 when it evicts nothing
    first = [int(np.min(evicted_at)) for evicted_at in schedules]
    off = np.zeros((len(schedules), n))
    for lo, e in _exact_blocks(trace):
        hi = e.shape[1]
        runs = [run for run, step in enumerate(first) if step <= hi]
        if not runs:
            continue
        steps = np.arange(lo + 1, hi + 1)[:, None]
        totals = e.sum(axis=1)
        for run in runs:
            # a future token t > i has evicted_at[t] >= t > i, so only t <= i can count
            gone = schedules[run][:hi] <= steps
            off[run, lo:hi] = (e * gone).sum(axis=1) / totals
    return [
        DeviationReport(retained=np.maximum(1.0 - row, 0.0), tv=np.minimum(row, 1.0))
        for row in off
    ]


# --- heavy-hitter profile ---------------------------------------------------------

@dataclass(frozen=True)
class HeavyHitterProfile:
    """Accumulated-score curve with concentration statistics.

    ``curve`` is the raw accumulated score per token, sorted descending.
    Concentration shares are computed on arrival-debiased values: each
    token's accumulated score is divided by the score a perfectly uniform
    attender would have given it (sum of 1/i over the steps it was in
    view), so an early arrival alone does not register as heavy. Under
    near-uniform attention every token's debiased value is ~1 and the
    top-10% share sits near 10%. ``top_shares`` maps each fraction in
    ``TOP_FRACS``, and 1.0, to the share of the debiased total that the
    top fraction of tokens holds.
    """

    tokens: np.ndarray
    curve: np.ndarray
    normalized: np.ndarray
    top_shares: dict[float, float]


# the head shares a profile reports, besides the whole (1.0)
TOP_FRACS = (0.05, 0.10, 0.20)


def heavy_hitter_profile(trace: AttentionTrace) -> HeavyHitterProfile:
    """Profile the scores that full attention accumulates over ``trace``.

    Token t's raw score is the sum of its exact weights over steps t..n:
    the column sums of the row-normalised exact blocks.
    """
    n = trace.n
    raw = np.zeros(n)
    for _, e in _exact_blocks(trace):
        e /= e.sum(axis=1, keepdims=True)
        raw[:e.shape[1]] += e.sum(axis=0)
    tokens = np.arange(1, n + 1)
    # expected accumulated score under uniform attention: sum_{i=t}^{n} 1/i
    harmonic = np.concatenate(([0.0], np.cumsum(1.0 / tokens)))
    baseline = harmonic[n] - harmonic[tokens - 1]
    normalized = raw / baseline
    order = np.argsort(-normalized, kind="stable")
    tokens_sorted = tokens[order]
    curve = raw[order]
    norm_sorted = normalized[order]
    total = float(norm_sorted.sum())
    shares: dict[float, float] = {}
    for frac in TOP_FRACS:
        count = min(n, max(1, int(round(frac * n))))
        shares[frac] = float(norm_sorted[:count].sum()) / total
    shares[1.0] = float(norm_sorted.sum()) / total
    return HeavyHitterProfile(
        tokens=tokens_sorted, curve=curve, normalized=norm_sorted, top_shares=shares
    )

"""Desk-scale measurements: sparsity, eviction damage, heavy-hitter shape.

Task accuracy needs a real model; these proxies measure what an eviction
policy actually destroys. At step i, with exact shifted exponentials
``e_it`` (:func:`kvcachelab.attention.exact_blocks`) and the cached set S_i
after the step's transition, the off-cache mass is

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
blocks.

:func:`memory_footprint` is arithmetic over the budget, in which a
:class:`QuantizationSpec` prices each cached key entry at ``bits / 8`` bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .attention import exact_blocks
from .errors import DimensionMismatch, EmptyRow, InconsistentState, InvalidSpec, TraceMismatch
from .policies import PolicyConfig, SimulationRecord
from .trace import AttentionTrace


# --- attention sparsity ----------------------------------------------------

@dataclass(frozen=True)
class SparsityReport:
    """Per-row sparsity of a trace's exact attention matrix.

    Rows are padded to full length n, so the causally masked upper triangle
    counts as sparse — matching how sparsity of a square attention map is
    usually read off.
    """

    per_row: np.ndarray
    threshold_frac: float

    @property
    def mean(self) -> float:
        return float(self.per_row.mean())


def trace_sparsity(trace: AttentionTrace, threshold_frac: float = 0.01) -> SparsityReport:
    """Sparsity of each padded row of the exact attention map.

    A block row's largest entry is 1, so its entries below the threshold
    are those below ``threshold_frac``; the future entries (exact zeros)
    and the padding columns beyond the block always are.
    """
    if not 0.0 < threshold_frac < 1.0:
        raise InvalidSpec("threshold_frac must lie in (0, 1)")
    n = trace.n
    fracs = np.empty(n)
    for lo, e in exact_blocks(trace):
        hi = e.shape[1]
        fracs[lo:hi] = ((e < threshold_frac).sum(axis=1) + (n - hi)) / n
    return SparsityReport(per_row=fracs, threshold_frac=threshold_frac)


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
    """
    n = trace.n
    for evicted_at in schedules:
        if len(evicted_at) != n:
            raise TraceMismatch(f"schedule has n={len(evicted_at)}, trace has n={n}")
    off = np.empty((len(schedules), n))
    for lo, e in exact_blocks(trace):
        hi = e.shape[1]
        steps = np.arange(lo + 1, hi + 1)[:, None]
        totals = e.sum(axis=1)
        for run, evicted_at in enumerate(schedules):
            # a future token t > i has evicted_at[t] >= t > i, so only t <= i can count
            gone = evicted_at[:hi] <= steps
            off[run, lo:hi] = (e * gone).sum(axis=1) / totals
    return [
        DeviationReport(retained=np.maximum(1.0 - row, 0.0), tv=np.minimum(row, 1.0))
        for row in off
    ]


def retained_mass(trace: AttentionTrace, record: SimulationRecord) -> DeviationReport:
    """Per-step retained mass and TV of one run against exact attention.

    For each step i with cached set S_i (after that step's transition), see
    the module docstring for the formulas; ``trace`` must be the trace the
    run decoded.
    """
    if record.n != trace.n:
        raise TraceMismatch(f"record has n={record.n}, trace has n={trace.n}")
    return deviation_reports(trace, [record.evicted_at])[0]


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
    top-10% share sits near 10%.
    """

    tokens: np.ndarray
    curve: np.ndarray
    normalized: np.ndarray
    top_shares: dict[float, float]

    def share(self, frac: float) -> float:
        return self.top_shares[frac]


def heavy_hitter_profile(
    scores: Mapping[int, float],
    total_steps: int,
    top_fracs: Sequence[float] = (0.05, 0.10, 0.20),
) -> HeavyHitterProfile:
    """Profile accumulated attention mass; intended for full-attention runs."""
    if not scores:
        raise EmptyRow("no accumulated scores to profile")
    tokens = np.array(sorted(scores), dtype=np.int64)
    if tokens[0] < 1 or tokens[-1] > total_steps:
        raise InvalidSpec("token indices must lie in [1, total_steps]")
    raw = np.array([scores[t] for t in tokens])
    # expected accumulated score under uniform attention: sum_{i=t}^{n} 1/i
    harmonic = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, total_steps + 1))))
    baseline = harmonic[total_steps] - harmonic[tokens - 1]
    normalized = raw / baseline
    order = np.argsort(-normalized, kind="stable")
    tokens_sorted = tokens[order]
    curve = raw[order]
    norm_sorted = normalized[order]
    total = float(norm_sorted.sum())
    shares: dict[float, float] = {}
    m = len(tokens_sorted)
    for frac in top_fracs:
        count = min(m, max(1, int(round(frac * m))))
        shares[frac] = float(norm_sorted[:count].sum()) / total
    shares[1.0] = float(norm_sorted.sum()) / total
    return HeavyHitterProfile(
        tokens=tokens_sorted, curve=curve, normalized=norm_sorted, top_shares=shares
    )


# --- sparse-support checks -------------------------------------------------------

@dataclass(frozen=True)
class GoodDistributionCheck:
    """Whether sampled vectors keep a fixed core support with bounded excess.

    A family of non-negative vectors is (alpha, tau, k)-good for a core set
    S_0 of size k when every vector's tau-support contains S_0 and exceeds
    it by at most alpha*k coordinates. The aggregate consequences (the core
    survives intersection; union excess is at most alpha*k*n) follow from
    the per-sample verdicts and are reported alongside them.
    """

    core: frozenset[int]
    tau: float
    alpha: float
    core_ok: tuple[bool, ...]
    excess_ok: tuple[bool, ...]
    excess_counts: tuple[int, ...]
    intersection_ok: bool
    union_excess: int
    union_ok: bool

    @property
    def k(self) -> int:
        return len(self.core)

    @property
    def all_good(self) -> bool:
        return all(self.core_ok) and all(self.excess_ok)


def support_at(vector: np.ndarray, tau: float) -> frozenset[int]:
    """1-based indices with value >= tau."""
    return frozenset(int(j) + 1 for j in np.flatnonzero(np.asarray(vector) >= tau))


def check_good_distribution(
    samples: Sequence, core: Iterable[int], tau: float, alpha: float
) -> GoodDistributionCheck:
    """Verdicts for each sample plus the aggregate union/intersection claims."""
    if tau <= 0:
        raise InvalidSpec("tau must be > 0")
    if alpha < 0:
        raise InvalidSpec("alpha must be >= 0")
    vecs = [np.asarray(s, dtype=np.float64) for s in samples]
    if not vecs:
        raise InvalidSpec("need at least one sample")
    m = vecs[0].shape[0]
    for v in vecs:
        if v.ndim != 1 or v.shape[0] != m:
            raise DimensionMismatch("samples must be 1-D vectors of equal length")
    core = frozenset(int(t) for t in core)
    if core and (min(core) < 1 or max(core) > m):
        raise InvalidSpec(f"core set must lie within [1, {m}]")
    k = len(core)
    supports = [support_at(v, tau) for v in vecs]
    core_ok = tuple(core <= s for s in supports)
    excess_counts = tuple(len(s - core) for s in supports)
    excess_ok = tuple(c <= alpha * k for c in excess_counts)
    inter = frozenset.intersection(*supports)
    union = frozenset.union(*supports)
    intersection_ok = core <= inter
    union_excess = len(union - core)
    union_ok = union_excess <= alpha * k * len(vecs)
    # aggregate claims are implied by the per-sample bullets
    if all(core_ok) and not intersection_ok:
        raise InconsistentState("every sample holds the core, yet their intersection does not")
    if all(excess_ok) and not union_ok:
        raise InconsistentState("every sample's excess is in bound, yet the union's is not")
    return GoodDistributionCheck(
        core=core,
        tau=tau,
        alpha=alpha,
        core_ok=core_ok,
        excess_ok=excess_ok,
        excess_counts=excess_counts,
        intersection_ok=intersection_ok,
        union_excess=union_excess,
        union_ok=union_ok,
    )


# --- memory accounting ---------------------------------------------------------------

@dataclass(frozen=True)
class QuantizationSpec:
    """Per-slot symmetric uniform quantizer: scale = max|entry| / (2^(b-1) - 1)."""

    bits: int = 8

    def __post_init__(self):
        if self.bits not in (4, 8):
            raise InvalidSpec(f"bits must be 4 or 8, got {self.bits}")

    @property
    def levels(self) -> int:
        return 2 ** (self.bits - 1) - 1

    def roundtrip(self, x: np.ndarray) -> np.ndarray:
        """dequantize(quantize(x)); differs from x by at most scale/2 per entry."""
        x = np.asarray(x, dtype=np.float64)
        scale = float(np.abs(x).max()) / self.levels if x.size else 0.0
        if scale == 0.0:
            return x.copy()
        q = np.clip(np.rint(x / scale), -self.levels, self.levels)
        return q * scale


@dataclass(frozen=True)
class MemoryFootprint:
    """Cache bytes for a policy versus keeping everything."""

    slot_bytes: int
    score_bytes: int
    full_bytes: int
    ratio: float

    @property
    def total_bytes(self) -> int:
        return self.slot_bytes + self.score_bytes


def memory_footprint(
    policy: PolicyConfig,
    n: int,
    d: int,
    bytes_per_scalar: int = 8,
    quantization: QuantizationSpec | None = None,
) -> MemoryFootprint:
    """Arithmetic cache accounting; ratio is budget/n."""
    if n < 1 or d < 1 or bytes_per_scalar < 1:
        raise InvalidSpec("sizes must be positive")
    k = policy.budget
    entry_bytes = quantization.bits / 8.0 if quantization is not None else float(bytes_per_scalar)
    slot_bytes = int(k * d * entry_bytes)
    score_bytes = k * bytes_per_scalar if policy.kind in ("h2o", "h2_only") else 0
    full_bytes = n * d * bytes_per_scalar
    return MemoryFootprint(
        slot_bytes=slot_bytes,
        score_bytes=score_bytes,
        full_bytes=full_bytes,
        ratio=k / n,
    )

"""Dict-based decode loop kept as the oracle for the array engine.

This is the simulator and deviation metric as they stood before the
one-pass array engine replaced them in ``kvcachelab.policies``: per-step
``StepAttention`` dicts, immutable score maps, a ``CacheState`` with its
recent ring, and a second pass that replays the cached sets to measure
retained mass and TV, plus the row-by-row sparsity loop. The equivalence
tests require the engine's events and scores to match it bit for bit and
the blocked metrics to match it within a tolerance fixed by the dtype;
nothing under ``src/`` imports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from kvcachelab.attention import StepAttention, exact_row, masked_step, softmax_over
from kvcachelab.cache import CacheState, EvictionEvent
from kvcachelab.errors import BudgetExceeded, InconsistentState, InvalidSpec
from kvcachelab.metrics import row_sparsity
from kvcachelab.policies import (
    AccumulatedScores,
    PolicyConfig,
    fixed_pattern_member,
    strided_pattern_member,
)
from kvcachelab.trace import AttentionTrace


class RefScores(AccumulatedScores):
    """Score map with the pruning helpers the dict loop needs."""

    @classmethod
    def empty(cls) -> "RefScores":
        return cls({}, 0)

    def without(self, token: int) -> "RefScores":
        pruned = {t: s for t, s in self.scores.items() if t != token}
        return RefScores(pruned, self.last_updated_step)

    def zeroed(self, token: int) -> "RefScores":
        updated = dict(self.scores)
        updated[token] = 0.0
        return RefScores(updated, self.last_updated_step)


def update_scores(scores: AccumulatedScores, step_attention: StepAttention) -> RefScores:
    """Add one step's weights; a first-seen token starts at its own weight."""
    updated = dict(scores.scores)
    for token, w in step_attention.weights.items():
        updated[token] = updated.get(token, 0.0) + w
    return RefScores(updated, step_attention.index)


def _min_score_token(tokens, scores: AccumulatedScores) -> int:
    missing = [t for t in tokens if t not in scores]
    if missing:
        raise InconsistentState(f"no accumulated score for candidates {sorted(missing)}")
    return min(tokens, key=lambda t: (scores.get(t), t))


def decide(
    policy: PolicyConfig,
    scores: AccumulatedScores,
    cache: CacheState,
    step_attention: StepAttention,
    i: int,
) -> int | None:
    """Pick the eviction victim for step ``i`` on a cache at budget."""
    kind = policy.kind
    if kind == "full":
        return None
    tracked = cache.tracked
    if not tracked:
        raise InconsistentState("decide() called on an empty cache")
    if kind == "local":
        return min(tracked)
    if kind == "sink_local":
        movable = [t for t in tracked if t > policy.sink]
        return min(movable) if movable else i
    if kind == "sparse_strided":
        off = [t for t in tracked if not strided_pattern_member(t, i, policy.stride)]
        return min(off) if off else min(tracked)
    if kind == "sparse_fixed":
        off = [t for t in tracked if not fixed_pattern_member(t, i, policy.stride)]
        return min(off) if off else min(tracked)
    if kind == "topk":
        return min(tracked, key=lambda t: (step_attention.weight(t), t))
    if kind == "h2_only":
        return _min_score_token(sorted(tracked) + [i], scores)
    if kind == "h2o":
        shielded = set(cache.recent_tokens)
        candidates = sorted(t for t in tracked if t not in shielded) + [i]
        return _min_score_token(candidates, scores)
    raise InvalidSpec(f"unknown policy {kind!r}")


@dataclass
class ReferenceRecord:
    """Events, final state and (optionally) every step's attention."""

    config: PolicyConfig
    n: int
    events: list[EvictionEvent]
    final_tracked: frozenset[int]
    final_scores: RefScores
    step_attentions: list[StepAttention] | None = None

    def step_sets(self) -> Iterator[tuple[int, frozenset[int]]]:
        """Yield (i, S_i): the cached set after each step's transition."""
        current: set[int] = set()
        for ev in self.events:
            if ev.evicted is None:
                current.add(ev.admitted)
            elif ev.evicted != ev.admitted:
                current.discard(ev.evicted)
                current.add(ev.admitted)
            yield ev.step, frozenset(current)


def run_policy(
    trace: AttentionTrace,
    policy: PolicyConfig,
    record_attention: bool = True,
) -> ReferenceRecord:
    """Replay the budget-constrained generative process over a trace."""
    n = trace.n
    if policy.kind == "full" and policy.budget < n:
        raise BudgetExceeded(
            f"full policy needs budget >= n ({policy.budget} < {n}); nothing may be evicted"
        )
    state = CacheState(budget=policy.budget, dim=trace.d, recent_capacity=policy.recent_budget)
    scores = RefScores.empty()
    events: list[EvictionEvent] = []
    attentions: list[StepAttention] | None = [] if record_attention else None

    for i in range(1, n + 1):
        attended = sorted(state.tracked)
        attended.append(i)
        sa = masked_step(trace, i, attended)
        scores = update_scores(scores, sa)
        if not policy.init_score_from_self:
            scores = scores.zeroed(i)
        if state.at_budget:
            victim = decide(policy, scores, state, sa, i)
            if victim is None:
                raise InconsistentState(f"policy {policy.kind} returned no victim at budget")
            event = state.swap(victim, i, key=trace.key_row(i))
            scores = scores.without(victim)
        else:
            event = state.admit(i, key=trace.key_row(i))
        events.append(event)
        if attentions is not None:
            attentions.append(sa)

    return ReferenceRecord(
        config=policy,
        n=n,
        events=events,
        final_tracked=state.tracked,
        final_scores=scores,
        step_attentions=attentions,
    )


def retained_mass(trace: AttentionTrace, record: ReferenceRecord) -> tuple[np.ndarray, np.ndarray]:
    """Per-step retained mass and TV of each S_i against exact attention (unclamped)."""
    n = trace.n
    retained = np.empty(n)
    tv = np.empty(n)
    for i, tracked in record.step_sets():
        exact = exact_row(trace, i)
        idx = np.fromiter((t - 1 for t in sorted(tracked)), dtype=np.int64, count=len(tracked))
        on_cache = np.zeros(i, dtype=bool)
        on_cache[idx] = True
        # 1 - off-mass rather than sum-of-on-mass: exact 1.0 for a full cache
        off = float(exact[~on_cache].sum())
        r = 1.0 - off
        masked, _ = softmax_over(trace, i, idx + 1)
        # |masked - exact| over S, plus the exact mass that fell off-cache
        tv_i = 0.5 * (float(np.abs(masked - exact[idx]).sum()) + off)
        retained[i - 1] = r
        tv[i - 1] = tv_i
    return retained, tv


def trace_sparsity(trace: AttentionTrace, threshold_frac: float) -> np.ndarray:
    """Sparsity of each padded row of the exact attention map, one row at a time."""
    n = trace.n
    fracs = np.empty(n)
    for i in range(1, n + 1):
        row = np.zeros(n)
        row[:i] = exact_row(trace, i)
        fracs[i - 1] = row_sparsity(row, threshold_frac)
    return fracs

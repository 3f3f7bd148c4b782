"""Dict-based decode loop kept as the oracle for the array engine.

This is the simulator and deviation metric as they stood before the
one-pass array engine replaced them in ``kvcachelab.policies``: per-step
attention dicts over the attended set, score maps, a cache of token slots,
and a second pass that replays the cached sets to measure retained mass and
TV, plus the row-by-row sparsity loop. It computes its own attention
(:func:`softmax_over`) and keeps its own cache (:class:`RefCache`). h2o's
recency window is the positions i - r + 1..i, so its candidates at step i
are the attended tokens t <= i - r, filtered one by one from the cache's
tokens rather than masked from a slot array.

Each step attends over the cached tokens in slot order, then the incoming
token, because that is the order of the engine's slot matrix. A softmax sums
its terms in the order it is given them, so attending in token order would
move the weights, and with them the accumulated scores, in the last bits.
Given equal weights and scores, a decision never depends on the order: ties
go to the lowest token.

The oracle takes from ``kvcachelab`` only the trace and config types, the
errors and the two pattern predicates, so a bug in library attention or
metrics cannot reach both sides of an equivalence test. It records its own
per-step :class:`Transition` list and replays its cached sets from that, not
from the engine's ``evicted_at``. The tests require the engine's
``evicted_at``, and the scores that each of its decisions sees, to match it
bit for bit, and the blocked metrics and the profile's full-attention scores
to match it within tolerances fixed by the dtype; nothing under ``src/``
imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from kvcachelab.errors import InvalidSpec
from kvcachelab.policies import PolicyConfig, fixed_pattern_member, strided_pattern_member
from kvcachelab.trace import AttentionTrace


class Transition(NamedTuple):
    """One step's cache transition.

    ``evicted`` is None while the cache is filling; ``evicted == admitted``
    marks a refused incoming token.
    """

    step: int
    evicted: int | None
    admitted: int


def softmax_over(trace: AttentionTrace, i: int, tokens: np.ndarray) -> np.ndarray:
    """Shifted softmax of ``Q_i . K_t`` over the 1-based ``tokens``."""
    logits = trace.k[tokens - 1] @ trace.q[i - 1]
    expo = np.exp(logits - float(logits.max()))
    return expo / float(expo.sum())


def masked_step(trace: AttentionTrace, i: int, attended) -> dict[int, float]:
    """Attention weight of each token in ``attended`` at step ``i``, summed in that order."""
    tokens = np.array(attended, dtype=np.int64)
    return {int(t): float(w) for t, w in zip(tokens, softmax_over(trace, i, tokens))}


class RefCache:
    """Budget-k cache: a token -> slot dict.

    A swap writes the incoming token into its victim's slot; a victim equal
    to the incoming token is a refusal that writes nothing.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.slot_of: dict[int, int] = {}

    @property
    def tracked(self) -> frozenset[int]:
        return frozenset(self.slot_of)

    @property
    def in_slot_order(self) -> list[int]:
        return sorted(self.slot_of, key=self.slot_of.__getitem__)

    @property
    def at_budget(self) -> bool:
        return len(self.slot_of) == self.budget

    def admit(self, i: int, token: int) -> Transition:
        self.slot_of[token] = len(self.slot_of)
        return Transition(step=i, evicted=None, admitted=token)

    def swap(self, i: int, victim: int, token: int) -> Transition:
        if victim != token:
            self.slot_of[token] = self.slot_of.pop(victim)
        return Transition(step=i, evicted=victim, admitted=token)


def update_scores(scores: dict[int, float], weights: dict[int, float]) -> dict[int, float]:
    """Add one step's weights; a first-seen token starts at its own weight."""
    updated = dict(scores)
    for token, w in weights.items():
        updated[token] = updated.get(token, 0.0) + w
    return updated


# non-decreasing concave transforms h of summed scores: H2O's one-in/one-out
# victim keeps the cached set that maximises h(sum of its scores) under each
SCORE_FUNCTIONS = {
    "identity": lambda z: z,
    "sqrt1p": lambda z: math.sqrt(z + 1.0),
    "log1p": math.log1p,
}


def _min_score_token(tokens, scores: dict[int, float]) -> int:
    missing = [t for t in tokens if t not in scores]
    if missing:
        raise InvalidSpec(f"no accumulated score for candidates {sorted(missing)}")
    return min(tokens, key=lambda t: (scores[t], t))


def decide(
    policy: PolicyConfig,
    scores: dict[int, float],
    cache: RefCache,
    weights: dict[int, float],
    i: int,
) -> int:
    """Pick the eviction victim for step ``i`` on a cache at budget."""
    kind = policy.kind
    tracked = cache.tracked
    if not tracked:
        raise InvalidSpec("decide() called on an empty cache")
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
        return min(tracked, key=lambda t: (weights.get(t, 0.0), t))
    if kind == "h2_only":
        return _min_score_token(sorted(tracked) + [i], scores)
    if kind == "h2o":
        # the positions i - r + 1..i are the recency window
        r = policy.recent_budget
        return _min_score_token([t for t in (*tracked, i) if t <= i - r], scores)
    raise InvalidSpec(f"unknown policy {kind!r}")


@dataclass
class ReferenceRecord:
    """Transitions and final state of a reference run."""

    config: PolicyConfig
    n: int
    events: list[Transition]
    final_scores: dict[int, float]

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


def run_policy(trace: AttentionTrace, policy: PolicyConfig) -> ReferenceRecord:
    """Replay the budget-constrained generative process over a trace."""
    n = trace.n
    cache = RefCache(budget=policy.budget)
    scores: dict[int, float] = {}
    events: list[Transition] = []

    for i in range(1, n + 1):
        weights = masked_step(trace, i, [*cache.in_slot_order, i])
        scores = update_scores(scores, weights)
        if cache.at_budget:
            victim = decide(policy, scores, cache, weights, i)
            events.append(cache.swap(i, victim, i))
            del scores[victim]
        else:
            events.append(cache.admit(i, i))

    return ReferenceRecord(
        config=policy,
        n=n,
        events=events,
        final_scores=scores,
    )


def retained_mass(trace: AttentionTrace, record: ReferenceRecord) -> tuple[np.ndarray, np.ndarray]:
    """Per-step retained mass and TV of each S_i against exact attention (unclamped)."""
    n = trace.n
    retained = np.empty(n)
    tv = np.empty(n)
    for i, tracked in record.step_sets():
        exact = softmax_over(trace, i, np.arange(1, i + 1))
        idx = np.fromiter((t - 1 for t in sorted(tracked)), dtype=np.int64, count=len(tracked))
        on_cache = np.zeros(i, dtype=bool)
        on_cache[idx] = True
        # 1 - off-mass rather than sum-of-on-mass: exact 1.0 for a full cache
        off = float(exact[~on_cache].sum())
        r = 1.0 - off
        masked = softmax_over(trace, i, idx + 1)
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
        row[:i] = softmax_over(trace, i, np.arange(1, i + 1))
        fracs[i - 1] = float((row < threshold_frac * row.max()).mean())
    return fracs

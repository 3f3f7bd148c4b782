"""Eviction policies and the one-pass decode engine.

A policy looks at the attended set (the cached tokens plus the incoming
one), their running attention scores and the current step's weights, and
names one victim: a cached token to evict, or the incoming token itself
(refused admission), or nothing while the cache is still filling.

Policies
--------
``full``
    Never evicts; the budget must cover the whole sequence.
``local``
    Keeps only the most recent tokens: always evicts the oldest cached one.
``h2o``
    Heavy-hitter policy. The last ``recent_budget`` cached tokens are a
    shielded recency window (tokens are admitted in order and h2o never
    evicts a window member, so these are the most recently admitted ones);
    among the cached tokens before the window plus the incoming token, it
    evicts the one whose removal maximizes a score function h over the
    survivors. Because h is a non-decreasing transform of the summed
    accumulated scores, that argmax is the candidate with the minimum
    accumulated score whatever h is; decide() uses the cheap form, and the
    test suite pins the equivalence against the literal argmax-over-removals.
``h2_only``
    Minimum accumulated score with no recency shield.
``sink_local``
    Never evicts the first ``sink`` tokens; otherwise evicts the oldest.
``sparse_strided`` / ``sparse_fixed``
    Static attention-mask patterns recast as eviction rules: evict the
    lowest-indexed cached token that falls outside the pattern for the
    current step (oldest cached as a fallback when every cached token is
    still on-pattern).
``topk``
    Memoryless heavy-hitter: evicts the cached token with the smallest
    current-step weight.

:func:`run_policy` keeps the decode state in per-token numpy arrays: a
cached-token bitmap whose ``flatnonzero`` is the sorted attended set, the
accumulated scores (each token starting at its own weight) and the cache
slots. This eviction schedule is the library's only cache model.
:func:`decide` is an argmin over arrays aligned with the attended set, ties
going to the lowest token, so a simulation is a pure function of (trace,
config). The loop makes decisions and does not measure: besides one
:class:`EvictionEvent` per step (written as JSON lines by
:func:`events_to_jsonl`) it records, per token, the step at which the token
left the cache (``evicted_at``). The exact rows that retained mass and TV
compare against depend only on the trace, so :mod:`kvcachelab.metrics`
computes them once, in blocks, for any number of runs over the same trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import BudgetExceeded, InconsistentState, InvalidSpec
from .trace import AttentionTrace

POLICY_KINDS = (
    "full",
    "local",
    "h2o",
    "h2_only",
    "sink_local",
    "sparse_strided",
    "sparse_fixed",
    "topk",
)


@dataclass(frozen=True)
class EvictionEvent:
    """One step's cache transition.

    ``evicted`` is None while the cache is filling. ``evicted == admitted``
    marks a refused incoming token (nothing was written; ``slot`` is None).
    For every genuine transition ``slot`` is the position that was written.
    """

    step: int
    evicted: int | None
    admitted: int
    slot: int | None

    def to_json(self) -> str:
        return json.dumps(
            {"i": self.step, "evicted": self.evicted, "admitted": self.admitted, "slot": self.slot}
        )


def events_to_jsonl(events) -> str:
    """Serialize eviction events as JSON-lines for replay/debugging."""
    return "\n".join(ev.to_json() for ev in events) + "\n"


@dataclass(frozen=True)
class PolicyConfig:
    """Which policy to run and its knobs.

    ``recent_frac`` splits the h2o budget: the last
    floor(recent_frac * budget) cached tokens are the recency window and
    the rest hold heavy hitters.
    """

    kind: str
    budget: int
    recent_frac: float = 0.5
    sink: int = 4
    stride: int = 8

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise InvalidSpec(f"unknown policy {self.kind!r}; choose from {POLICY_KINDS}")
        if self.budget < 1:
            raise InvalidSpec("budget must be >= 1")
        if not 0.0 <= self.recent_frac <= 1.0:
            raise InvalidSpec("recent_frac must lie in [0, 1]")
        if self.sink < 0:
            raise InvalidSpec("sink must be >= 0")
        if self.stride < 1:
            raise InvalidSpec("stride must be >= 1")

    @property
    def recent_budget(self) -> int:
        return int(self.recent_frac * self.budget)


def strided_pattern_member(token, step: int, stride: int):
    """Strided mask: a local window plus every stride-th earlier position."""
    gap = step - token
    return (gap < stride) | (gap % stride == 0)


def fixed_pattern_member(token, step: int, stride: int):
    """Fixed mask: same block as the step, or a block-summary position."""
    return ((token - 1) // stride == (step - 1) // stride) | (token % stride == 0)


def decide(policy: PolicyConfig, tokens, weights, scores) -> int | None:
    """Pick the eviction victim for a step on a cache at budget.

    ``tokens`` is the attended set in ascending order: the cached tokens,
    then the incoming token last. ``weights`` are the step's softmax
    weights over ``tokens``; ``scores`` their accumulated scores with this
    step's weights already added (so the incoming token carries its initial
    score). h2o's recency window is the last ``policy.recent_budget``
    cached tokens. Returns the victim (possibly the incoming token) or None
    for the full policy. Every argmin takes the first minimum, which is the
    lowest token.
    """
    kind = policy.kind
    if kind == "full":
        return None
    tokens = np.asarray(tokens)
    if tokens.size < 2:
        raise InconsistentState("decide() called on an empty cache")
    cached = tokens[:-1]
    incoming = int(tokens[-1])
    if kind == "local":
        return int(cached[0])
    if kind == "sink_local":
        first_movable = int(np.searchsorted(cached, policy.sink, side="right"))
        return int(cached[first_movable]) if first_movable < cached.size else incoming
    if kind in ("sparse_strided", "sparse_fixed"):
        member = strided_pattern_member if kind == "sparse_strided" else fixed_pattern_member
        off = cached[~member(cached, incoming, policy.stride)]
        return int(off[0]) if off.size else int(cached[0])
    if kind == "topk":
        return int(cached[np.argmin(np.asarray(weights)[:-1])])
    scores = np.asarray(scores)
    if scores.shape != tokens.shape:
        raise InconsistentState(f"{scores.size} accumulated scores for {tokens.size} candidates")
    if kind == "h2_only":
        return int(tokens[np.argmin(scores)])
    if kind == "h2o":
        # the cached tokens before the window, then the incoming token
        candidates = np.r_[: cached.size - policy.recent_budget, cached.size]
        return int(tokens[candidates[np.argmin(scores[candidates])]])
    raise InvalidSpec(f"unknown policy {kind!r}")


@dataclass
class SimulationRecord:
    """Outcome of one decode simulation.

    One eviction event per step, the final cache and its scores, and
    ``evicted_at``: for each token (0-based row t - 1) the step at which it
    left the cache, ``t`` itself when it was refused and ``n + 1`` when it
    was never evicted. Token t is in the cached set S_i after step i's
    transition exactly when ``t <= i < evicted_at[t - 1]``. The per-step
    cached sets are reconstructed on demand (a full-length list of sets
    would dominate memory for long traces).
    """

    config: PolicyConfig
    n: int
    events: list[EvictionEvent]
    final_tracked: frozenset[int]
    final_scores: dict[int, float]
    evicted_at: np.ndarray

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


def _softmax(logits: np.ndarray) -> np.ndarray:
    # the arithmetic of the reference loop's softmax (tests/reference_engine.py),
    # which the outputs are pinned to
    shift = float(logits.max())
    expo = np.exp(logits - shift)
    total = float(expo.sum())
    return expo / total


def run_policy(trace: AttentionTrace, policy: PolicyConfig) -> SimulationRecord:
    """Replay the budget-constrained generative process over a trace.

    Each step computes the restricted attention over the cached set plus
    the incoming token, folds it into the accumulated scores and lets the
    policy resolve the eviction once the cache is at budget, recording when
    each token leaves. Deterministic: equal (trace, policy) inputs give
    equal records.
    """
    n, budget = trace.n, policy.budget
    if policy.kind == "full" and budget < n:
        raise BudgetExceeded(
            f"full policy needs budget >= n ({budget} < {n}); nothing may be evicted"
        )
    keys, queries = trace.k, trace.q
    cached = np.zeros(n, dtype=bool)  # the cache, plus the incoming token mid-step
    scores = np.zeros(n)
    slot_of = np.zeros(n, dtype=np.int64)
    events: list[EvictionEvent] = []
    evicted_at = np.full(n, n + 1, dtype=np.int64)

    for i in range(1, n + 1):
        query = queries[i - 1]
        cached[i - 1] = True
        # while filling the cache holds exactly tokens 1..i, so a slice is the
        # attended set (same products as the gather, without the copy)
        attended = slice(0, i) if i <= budget else np.flatnonzero(cached[:i])
        weights = _softmax(keys[attended] @ query)
        scores[attended] += weights
        victim = slot = None
        if i <= budget:  # filling: step i writes slot i - 1
            slot = i - 1
        else:
            victim = decide(policy, attended + 1, weights, scores[attended])
            if victim is None:
                raise InconsistentState(f"policy {policy.kind} returned no victim at budget")
            cached[victim - 1] = False
            evicted_at[victim - 1] = i
            if victim != i:
                slot = int(slot_of[victim - 1])
        events.append(EvictionEvent(step=i, evicted=victim, admitted=i, slot=slot))
        if slot is not None:
            slot_of[i - 1] = slot

    final = np.flatnonzero(cached) + 1
    return SimulationRecord(
        config=policy,
        n=n,
        events=events,
        final_tracked=frozenset(final.tolist()),
        final_scores={int(t): float(scores[t - 1]) for t in final},
        evicted_at=evicted_at,
    )

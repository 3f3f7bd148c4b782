"""Eviction policies and the one-pass decode engine.

A policy looks at the attended set (the cached tokens plus the incoming
one), their running attention scores and the current step's weights, and
names one victim: a cached token to evict, or the incoming token itself
(refused admission), or nothing while the cache is still filling.

Policies
--------
Full attention is any kind at a budget of n or more: no policy ever evicts
there, so every kind run at budget n is the full-attention baseline.

``local``
    Keeps only the most recent tokens: always evicts the oldest cached one.
``h2o``
    Heavy-hitter policy. With r = ``recent_budget``, step i's recency
    window is the positions i - r + 1..i, which h2o never evicts; so the
    incoming token is always admitted when r >= 1, and the candidates are
    the attended tokens t <= i - r: the heavy set plus the token that just
    left the window. Among them it evicts the one whose removal maximizes
    a score function h over the survivors. Because h is a non-decreasing
    transform of the summed accumulated scores, that argmax is the
    candidate with the minimum accumulated score whatever h is; decide()
    uses the cheap form, and the test suite pins the equivalence against
    the literal argmax-over-removals. At r = 0 it is ``h2_only``; at r = k
    it evicts token i - k, as ``local`` does.
``h2_only``
    Minimum accumulated score with no recency shield: the greedy over the
    attended set, which may refuse the incoming token.
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

:func:`run_policies` runs any number of cells (configs) over one trace in
one decode pass, and :func:`run_policy` is its one-cell call, so there is
one engine loop. The decode state lives in slot-aligned arrays, the
library's only cache model: ``slot_keys`` (the k cached keys, then the
incoming key in row k), ``slot_tok`` (the token in each slot) and
``slot_score`` (each slot's accumulated score, a token starting at its own
weight). An admitted token overwrites its victim's slot in place, as a KV
cache does, so a step never scans or gathers by token.

The fill is shared. While a cache fills, slot s holds token s + 1 whatever
the policy, and the products read the trace's keys directly, so the fill
runs once, up to the largest cache size k = min(budget, n). A cell at size
k starts from the fill's scores after step k and shares the fill's
(immutable) events; a cell at budget n or more is done there. The cells
that share a k < n are lanes that step in lockstep, one budget group at a
time: lane l's cache is row l of ``(lanes, k + 1, d)`` keys and
``(lanes, k + 1)`` tokens and scores. A step is one stacked matmul, which
runs each lane's own gemv, and one softmax along the rows with the
reference arithmetic; ``decide`` and the admission then run per lane on
its row views. A single (lanes * (k + 1), d) gemv would be faster but
rounds differently, so a cell's record would depend on its group; with
the stacked product every record is bit for bit the one its config gives
alone.

:func:`decide` takes its arrays in slot order, with the incoming token
last, and returns the victim's index into them (the last index refuses the
incoming token). Every tie goes to the lowest token, so the victim does
not depend on the slot order and a simulation is a pure function of
(trace, config). The loop makes decisions and does not measure: besides
one :class:`EvictionEvent` per step (written as JSON lines by
:func:`events_to_jsonl`) it records, per token, the step at which the token
left the cache (``evicted_at``). The exact rows that retained mass and TV
compare against depend only on the trace, so :mod:`kvcachelab.metrics`
computes them once, in blocks, for any number of runs over the same trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import InconsistentState, InvalidSpec
from .trace import AttentionTrace

POLICY_KINDS = (
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
    r = floor(recent_frac * budget) positions are the recency window and
    the rest of the cache holds heavy hitters.
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


def _argmin_lowest_token(values: np.ndarray, tokens: np.ndarray) -> int:
    """Index of the minimum of ``values``, ties going to the lowest token."""
    j = int(values.argmin())
    ties = values == values[j]
    if np.count_nonzero(ties) <= 1:  # none when the minimum is NaN
        return j
    ties = np.flatnonzero(ties)
    return int(ties[tokens[ties].argmin()])


def decide(policy: PolicyConfig, tokens, weights, scores) -> int:
    """Pick the eviction victim for a step on a cache at budget.

    ``tokens`` is the attended set in slot order: the cached tokens, then
    the incoming token i last, which is the highest. ``weights`` are the
    step's softmax weights over ``tokens``; ``scores`` their accumulated
    scores with this step's weights already added (so the incoming token
    carries its initial score). h2o's candidates are the tokens at most
    i - ``recent_budget``. Returns the victim's index into ``tokens``, the
    last index being a refusal of the incoming token. The victim does not
    depend on the slot order: every tie goes to the lowest token.
    """
    kind = policy.kind
    tokens = np.asarray(tokens)
    if tokens.size < 2:
        raise InconsistentState("decide() called on an empty cache")
    cached, incoming = tokens[:-1], tokens[-1]
    if kind == "local":
        return int(cached.argmin())
    if kind == "sink_local":
        movable = cached > policy.sink
        return int(np.where(movable, cached, incoming).argmin()) if movable.any() else cached.size
    if kind in ("sparse_strided", "sparse_fixed"):
        member = strided_pattern_member if kind == "sparse_strided" else fixed_pattern_member
        off = ~member(cached, int(incoming), policy.stride)
        # the oldest cached token when every one is still on-pattern
        return int((np.where(off, cached, incoming) if off.any() else cached).argmin())
    if kind == "topk":
        return _argmin_lowest_token(np.asarray(weights)[:-1], cached)
    scores = np.asarray(scores)
    if scores.shape != tokens.shape:
        raise InconsistentState(f"{scores.size} accumulated scores for {tokens.size} candidates")
    if kind in ("h2o", "h2_only"):
        # h2o shields the window i - r + 1..i; h2_only has none
        r = policy.recent_budget if kind == "h2o" else 0
        return _argmin_lowest_token(np.where(tokens <= incoming - r, scores, np.inf), tokens)
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
    # in place, with the arithmetic of the reference loop's softmax
    # (tests/reference_engine.py), which the outputs are pinned to
    logits -= logits.max()
    np.exp(logits, out=logits)
    logits /= logits.sum()
    return logits


def _record(policy, n, events, slot_tok, slot_score, evicted_at) -> SimulationRecord:
    """A run's record, with its final cache read off the slots in token order."""
    order = np.argsort(slot_tok)
    final = slot_tok[order]
    return SimulationRecord(
        config=policy,
        n=n,
        events=events,
        final_scores=dict(zip(final.tolist(), slot_score[order].tolist())),
        evicted_at=evicted_at,
    )


def run_policy(trace: AttentionTrace, policy: PolicyConfig) -> SimulationRecord:
    """Replay the budget-constrained generative process over a trace.

    Each step computes the restricted attention over the cached set plus
    the incoming token, folds it into the accumulated scores and lets the
    policy resolve the eviction once the cache is at budget, recording when
    each token leaves. Deterministic: equal (trace, policy) inputs give
    equal records. The one-cell call of :func:`run_policies`.
    """
    return run_policies(trace, [policy])[0]


def run_policies(trace: AttentionTrace, configs: Iterable[PolicyConfig]) -> list[SimulationRecord]:
    """Run every config over one trace in one decode pass, in input order.

    Each record equals what a run of its config alone gives, bit for bit.
    The fill is shared: it runs once, and a cell at cache size k starts
    from its state after step k (cells at budget >= n end there). The
    cells that share a k then step in lockstep, one budget group at a
    time (see the module docstring).
    """
    n, keys, queries = trace.n, trace.k, trace.q
    configs = list(configs)
    sizes = [min(p.budget, n) for p in configs]
    records: list[SimulationRecord | None] = [None] * len(configs)
    fill_score = np.zeros(max(sizes, default=0) + 1)
    fill_events: list[EvictionEvent] = []
    for k in sorted(set(sizes)):
        # filling: step i writes token i into slot i - 1, so the cached keys are keys[:i]
        for i in range(len(fill_events) + 1, k + 1):
            fill_score[:i] += _softmax(keys[:i] @ queries[i - 1])
            fill_events.append(EvictionEvent(step=i, evicted=None, admitted=i, slot=i - 1))
        lanes = [c for c, size in enumerate(sizes) if size == k]
        if k == n:
            for c in lanes:
                records[c] = _record(configs[c], n, fill_events[:k], np.arange(1, k + 1),
                                     fill_score[:k], np.full(n, n + 1, dtype=np.int64))
        else:
            group = _lockstep(trace, [configs[c] for c in lanes], fill_score[:k + 1], fill_events)
            for c, record in zip(lanes, group):
                records[c] = record
    return records


def _lockstep(
    trace: AttentionTrace, configs: list[PolicyConfig], filled: np.ndarray, fill_events: list[EvictionEvent]
) -> list[SimulationRecord]:
    """Decode steps k + 1..n for cells at one cache size k < n, in lockstep.

    ``filled`` holds the accumulated scores after step k of the fill (the
    incoming slot k at 0). Lane l's cache is row l of stacked slot arrays;
    each step is one stacked product and one row-wise softmax over all
    lanes, then each lane decides and admits on its own rows.
    """
    n, keys, queries = trace.n, trace.k, trace.q
    k = filled.size - 1
    # k cache slots, then slot k for the incoming token
    slot_keys = np.empty((len(configs), k + 1, trace.d))
    slot_keys[:, :k] = keys[:k]
    slot_tok = np.tile(np.arange(1, k + 2), (len(configs), 1))
    slot_score = np.tile(filled, (len(configs), 1))
    # the incoming slot of every lane, and the buffers of a step's softmax
    key_in, tok_in, score_in = slot_keys[:, k], slot_tok[:, k], slot_score[:, k]
    weights = np.empty(slot_score.shape)
    row_max = np.empty((len(configs), 1))
    row_sum = np.empty((len(configs), 1))
    # per lane: its config, row views, events and evictions
    lanes = [
        (p, slot_keys[l], slot_tok[l], weights[l], slot_score[l], fill_events[:k],
         np.full(n, n + 1, dtype=np.int64))
        for l, p in enumerate(configs)
    ]
    for i in range(k + 1, n + 1):
        key_in[...] = keys[i - 1]
        tok_in.fill(i)
        score_in.fill(0.0)
        # a stacked product runs the single-lane gemv per lane; one flattened
        # (lanes * (k + 1), d) gemv would round differently
        np.matmul(slot_keys, queries[i - 1], out=weights)
        # the softmax of _softmax, row by row
        np.maximum.reduce(weights, axis=1, out=row_max, keepdims=True)
        weights -= row_max
        np.exp(weights, out=weights)
        np.add.reduce(weights, axis=1, out=row_sum, keepdims=True)
        weights /= row_sum
        slot_score += weights
        for policy, lane_keys, tok, w, score, events, evicted_at in lanes:
            v = decide(policy, tok, w, score)
            victim = int(tok[v])
            evicted_at[victim - 1] = i
            slot = None
            if v < k:  # the incoming token takes the victim's slot
                lane_keys[v] = lane_keys[k]
                tok[v] = i
                score[v] = score[k]
                slot = v
            events.append(EvictionEvent(step=i, evicted=victim, admitted=i, slot=slot))
    return [
        _record(policy, n, events, tok[:k], score[:k], evicted_at)
        for policy, _, tok, _, score, events, evicted_at in lanes
    ]

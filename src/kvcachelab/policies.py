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

A cell at budget n or more never evicts, so it decodes no step. local and
sink_local are first-in first-out caches, whose victims read no weight or
score, so their cells decode no step either: with s = 0 for local and
s = min(sink, k) for sink_local, token t in s < t <= n - (k - s) leaves at
step t + k - s, and every other token is never evicted (at s = k every
token after k is refused). The other kinds run the decode.

The fill is shared. While a cache fills, slot s holds token s + 1 whatever
the policy, and the products read the trace's keys directly, so the fill
runs once, up to the largest decoded cache size k = min(budget, n) below
n. A decoded cell at size k starts from the fill's scores after step k.
The decoded cells that share a k < n are lanes that step in lockstep, one
budget group at a time: lane l's cache is row l of ``(lanes, k + 1, d)``
keys and ``(lanes, k + 1)`` tokens and scores. A step is one stacked
matmul, which runs each lane's own gemv, and one softmax along the rows
with the reference arithmetic; each lane's victim rule and the admission
then run on its row views. A single (lanes * (k + 1), d) gemv would be
faster but rounds differently, so a cell's schedule would depend on its
group; with the stacked product every schedule is bit for bit the one its
config gives alone.

A lane chooses its victim rule once, before the loop. topk and the sparse
kinds call :func:`decide`. h2_only, and h2o at r = 0, take the argmin of the
lane's scores. h2o at r >= 1 keeps a slot-aligned penalty, 0 at a
candidate and +inf at a shielded slot: at step i token i - r becomes a
candidate, an admitted token takes the shield, and the victim is the
argmin of score + penalty. Every rule gives ``decide``'s victim, ties to
the lowest token included.

:func:`decide` is the definition of every rule. It takes its arrays in
slot order, with the incoming token last, and returns the victim's index
into them (the last index refuses the incoming token). Every tie goes to
the lowest token, so the victim does not depend on the slot order and a
simulation is a pure function of (trace, config). The loop makes decisions
and does not measure: a run's only record is its eviction schedule
``evicted_at``, an int64 array that holds for each token (0-based row
t - 1) the step at which it left the cache, ``t`` itself when it was
refused and ``n + 1`` when it was never evicted. Token t is in the cached set S_i after step i's transition exactly
when ``t <= i < evicted_at[t - 1]``; step i's victim is the token whose
``evicted_at`` is i, and the fill's steps have none. The config is the
caller's and n is the schedule's length, so the array is the whole record.
The exact rows that retained mass and TV compare against depend only on
the trace, so :mod:`kvcachelab.metrics` computes them once, in blocks, for
any number of schedules over the same trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import InvalidSpec
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


def _floor_percent(text: str, n: int) -> int:
    """``floor(p * n / 100)`` for the decimal ``p`` in ``text``, in integers.

    ``text`` must be a string that ``float`` accepts. Float arithmetic
    would not floor exactly: ``0.29 * 100`` is 28.999999999999996.
    """
    mantissa, _, exp = text.strip().replace("_", "").lower().partition("e")
    whole, _, frac = mantissa.lstrip("+").partition(".")
    shift = int(exp or 0) - len(frac)  # p == int(whole + frac) * 10**shift
    num = int(whole + frac) * n
    return num * 10**shift // 100 if shift >= 0 else num // (100 * 10**-shift)


def resolve_budget(spec: str, n: int) -> int:
    """Absolute count, or percentage of n (floored exactly, at least 2)."""
    spec = str(spec).strip()
    percent = spec.endswith("%")
    try:
        value = float(spec[:-1]) if percent else int(spec)
    except ValueError:
        raise InvalidSpec(f"--budget {spec!r} is neither an integer nor a percentage") from None
    if percent:
        if not 0.0 < value <= 100.0:
            raise InvalidSpec(f"--budget {spec!r}: a percentage must lie in (0, 100]")
        return max(2, _floor_percent(spec[:-1], n))
    if value < 1:
        raise InvalidSpec(f"--budget must be >= 1, got {value}")
    return value


@dataclass(frozen=True)
class PolicyConfig:
    """Which policy to run and its knobs.

    ``recent_frac`` splits the h2o budget: the last
    r = floor(recent_frac * budget) positions are the recency window and
    the rest of the cache holds heavy hitters. The floor is exact for the
    decimal that ``recent_frac`` prints as, so 0.29 of 100 is 29.
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
        if not 1 <= self.stride < 2**63:  # decide does int64 arithmetic with it
            raise InvalidSpec("stride must lie in [1, 2**63)")

    @cached_property  # decide reads it every step; it writes __dict__, so frozen is fine
    def recent_budget(self) -> int:
        return _floor_percent(repr(float(self.recent_frac)), 100 * self.budget)


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
        raise InvalidSpec("decide() called on an empty cache")
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
        raise InvalidSpec(f"{scores.size} accumulated scores for {tokens.size} candidates")
    # h2o or h2_only, the kinds left (PolicyConfig rejects any other): h2o
    # shields the window i - r + 1..i; h2_only has none
    r = policy.recent_budget if kind == "h2o" else 0
    return _argmin_lowest_token(np.where(tokens <= incoming - r, scores, np.inf), tokens)


def _softmax(logits: np.ndarray) -> np.ndarray:
    # in place along the last axis, so a stack of rows is one call, with the
    # arithmetic of the reference loop's softmax (tests/reference_engine.py),
    # which the outputs are pinned to; the ufunc reductions skip the Python
    # wrappers of the ndarray methods
    logits -= np.maximum.reduce(logits, axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits, axis=-1, keepdims=True)
    return logits


def run_policy(trace: AttentionTrace, policy: PolicyConfig) -> np.ndarray:
    """Replay the budget-constrained generative process over a trace.

    Each step computes the restricted attention over the cached set plus
    the incoming token, folds it into the accumulated scores and lets the
    policy resolve the eviction once the cache is at budget. Returns the
    run's ``evicted_at`` (see the module docstring). Deterministic: equal
    (trace, policy) inputs give equal schedules. The one-cell call of
    :func:`run_policies`.
    """
    return run_policies(trace, [policy])[0]


def _undecoded_schedule(policy: PolicyConfig, n: int, k: int) -> np.ndarray | None:
    """``evicted_at`` of a cell at cache size k that decodes no step, or None for a decoded cell.

    A cell at k = n evicts nothing; local and sink_local take their closed
    form (see the module docstring).
    """
    if k < n and policy.kind not in ("local", "sink_local"):
        return None
    s = min(policy.sink, k) if policy.kind == "sink_local" else 0
    evicted_at = np.full(n, n + 1, dtype=np.int64)
    # token t in s < t <= n - (k - s) leaves at step t + k - s; at k = n no token does
    evicted_at[s:n - k + s] = np.arange(k + 1, n + 1)
    return evicted_at


def run_policies(trace: AttentionTrace, configs: Iterable[PolicyConfig]) -> list[np.ndarray]:
    """Run every config over one trace in one pass; one ``evicted_at`` per config, in order.

    Each schedule equals what a run of its config alone gives, bit for bit:
    local and sink_local cells take their closed form, the fill is shared,
    and the other cells of each cache size k < n then step in lockstep (see
    the module docstring).
    """
    n, keys, queries = trace.n, trace.k, trace.q
    configs = list(configs)
    sizes = [min(p.budget, n) for p in configs]
    schedules = [_undecoded_schedule(p, n, size) for p, size in zip(configs, sizes)]
    decoded = [c for c, evicted_at in enumerate(schedules) if evicted_at is None]
    evicting = sorted({sizes[c] for c in decoded})
    fill_score = np.zeros(max(evicting, default=0) + 1)
    fill_steps = 0  # the steps the fill has run
    for k in evicting:
        # filling: step i writes token i into slot i - 1, so the cached keys are keys[:i]
        for i in range(fill_steps + 1, k + 1):
            fill_score[:i] += _softmax(keys[:i] @ queries[i - 1])
        fill_steps = k
        lanes = [c for c in decoded if sizes[c] == k]
        for c, evicted_at in zip(lanes, _lockstep(trace, [configs[c] for c in lanes], fill_score[:k + 1])):
            schedules[c] = evicted_at
    return schedules


def _victim_rule(policy: PolicyConfig, k: int, tok: np.ndarray, weights: np.ndarray, scores: np.ndarray):
    """A lockstep lane's victim rule: ``rule(i)`` is ``decide``'s victim at step i.

    ``tok``, ``weights`` and ``scores`` are the lane's slot-aligned rows,
    the incoming token in slot k, as ``decide`` takes them. h2o at r >= 1
    updates its penalty as step i moves token i - r out of the window and
    the admitted token i into it. The trace bounds every logit, so the
    scores are finite and ``scores + penalty`` equals ``decide``'s masked
    scores.
    """
    r = policy.recent_budget if policy.kind == "h2o" else 0
    if policy.kind not in ("h2o", "h2_only"):
        return lambda i: decide(policy, tok, weights, scores)
    if r == 0:
        return lambda i: _argmin_lowest_token(scores, tok)
    # after step k the candidates are tokens 1..k - r, in slots 0..k - r - 1
    penalty = np.full(k + 1, np.inf)
    penalty[:k - r] = 0.0
    slot_of = list(range(k))  # token t's slot, at index t - 1
    masked = np.empty(k + 1)

    def rule(i: int) -> int:
        penalty[slot_of[i - r - 1]] = 0.0  # token i - r leaves the window
        v = _argmin_lowest_token(np.add(scores, penalty, out=masked), tok)
        # the incoming token is shielded, so v < k: token i takes slot v and its shield
        penalty[v] = np.inf
        slot_of.append(v)
        return v

    return rule


def _lockstep(trace: AttentionTrace, configs: list[PolicyConfig], filled: np.ndarray) -> list[np.ndarray]:
    """Decode steps k + 1..n for cells at one cache size k < n, in lockstep.

    ``filled`` holds the accumulated scores after step k of the fill (the
    incoming slot k at 0).
    """
    n, keys, queries = trace.n, trace.k, trace.q
    k = filled.size - 1
    # k cache slots, then slot k for the incoming token
    slot_keys = np.empty((len(configs), k + 1, trace.d))
    slot_keys[:, :k] = keys[:k]
    slot_tok = np.tile(np.arange(1, k + 2), (len(configs), 1))
    slot_score = np.tile(filled, (len(configs), 1))
    # the incoming slot of every lane, and the buffer of a step's weights
    key_in, tok_in, score_in = slot_keys[:, k], slot_tok[:, k], slot_score[:, k]
    weights = np.empty(slot_score.shape)
    # per lane: its victim rule, row views and evictions
    lanes = [
        (_victim_rule(p, k, slot_tok[l], weights[l], slot_score[l]), slot_keys[l], slot_tok[l], slot_score[l],
         np.full(n, n + 1, dtype=np.int64))
        for l, p in enumerate(configs)
    ]
    for i in range(k + 1, n + 1):
        key_in[...] = keys[i - 1]
        # slot k takes the incoming token, its score 0 until the step's weight is added
        tok_in.fill(i)
        score_in.fill(0.0)
        # a stacked product runs the single-lane gemv per lane; one flattened
        # (lanes * (k + 1), d) gemv would round differently
        np.matmul(slot_keys, queries[i - 1], out=weights)
        slot_score += _softmax(weights)
        for victim, lane_keys, tok, score, evicted_at in lanes:
            v = victim(i)
            evicted_at[tok[v] - 1] = i
            if v < k:  # the incoming token takes the victim's slot
                lane_keys[v] = lane_keys[k]
                tok[v] = i
                score[v] = score[k]
    return [lane[-1] for lane in lanes]

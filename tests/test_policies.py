"""Policy decisions and full decode simulations against reference oracles."""

import ast
import dataclasses
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kvcachelab as kl
import reference_engine as ref
from kvcachelab import policies
from kvcachelab.errors import InvalidSpec
from kvcachelab.policies import decide, fixed_pattern_member, strided_pattern_member
from kvcachelab.trace import TRACE_KINDS
from test_metrics import profile_atol


def _decide(cfg, cached, i, scores=None, weights=None):
    """Victim token of array decide on ``cached`` (in slot order) plus incoming ``i``."""
    tokens = list(cached) + [i]
    w = [(weights or {}).get(t, 0.0) for t in tokens]
    s = [(scores or {}).get(t, 0.0) for t in tokens]
    return tokens[decide(cfg, tokens, w, s)]


def reference_h2o_victim(candidates, all_members, scores, h):
    """Literal form: argmax over removals of h(sum of surviving scores)."""
    best_v, best_val = None, -np.inf
    for v in sorted(candidates):
        val = h(sum(scores[t] for t in all_members if t != v))
        if val > best_val:
            best_v, best_val = v, val
    return best_v


# --- score accumulation (the reference loop the engine is pinned to) ----------

def test_first_update_equals_own_weights():
    assert ref.update_scores({}, {1: 1.0}) == {1: 1.0}


def test_two_uniform_steps_accumulate():
    scores = ref.update_scores({}, {1: 0.5, 2: 0.5})
    scores = ref.update_scores(scores, {1: 0.5, 2: 0.5})
    assert scores == {1: 1.0, 2: 1.0}


def test_first_seen_tokens_initialize_at_their_weight():
    scores = ref.update_scores({}, {1: 1.0})
    scores = ref.update_scores(scores, {1: 0.2, 3: 0.8})
    assert scores == {1: 1.2, 3: 0.8}


# --- decide: spec scenarios -----------------------------------------------------

def test_h2o_evicts_lowest_scored_unshielded():
    cfg = kl.PolicyConfig(kind="h2o", budget=4, recent_frac=0.5)
    scores = {1: 0.9, 2: 0.1, 3: 0.5, 4: 0.6, 5: 0.3}
    # the window is the last recent_budget = 2 positions, {4, 5}
    victim = _decide(cfg, [1, 2, 3, 4], 5, scores=scores)
    assert victim == 2
    ref_victim = reference_h2o_victim([1, 2, 3], [1, 2, 3, 4, 5], scores, ref.SCORE_FUNCTIONS["identity"])
    assert victim == ref_victim


def test_h2o_can_refuse_incoming():
    # only without a window: the incoming position is always in a window r >= 1
    scores = {1: 0.9, 2: 0.8, 3: 0.5, 4: 0.6, 5: 0.05}
    no_window = kl.PolicyConfig(kind="h2o", budget=4, recent_frac=0.0)
    assert _decide(no_window, [1, 2, 3, 4], 5, scores=scores) == 5
    # with r >= 1 the victim is the lowest-scored token at most 5 - r
    for frac, victim in ((0.25, 3), (0.5, 3), (0.75, 2), (1.0, 1)):
        cfg = kl.PolicyConfig(kind="h2o", budget=4, recent_frac=frac)
        assert _decide(cfg, [1, 2, 3, 4], 5, scores=scores) == victim


def test_local_evicts_oldest():
    cfg = kl.PolicyConfig(kind="local", budget=3)
    assert _decide(cfg, [5, 6, 7], 8) == 5


def test_sink_local_protects_prefix():
    cfg = kl.PolicyConfig(kind="sink_local", budget=4, sink=2)
    assert _decide(cfg, [1, 2, 3, 4], 9) == 3
    all_sinks = kl.PolicyConfig(kind="sink_local", budget=2, sink=5)
    assert _decide(all_sinks, [1, 2], 9) == 9


def test_topk_uses_current_weights():
    cfg = kl.PolicyConfig(kind="topk", budget=3)
    assert _decide(cfg, [1, 2, 3], 4, weights={1: 0.5, 2: 0.1, 3: 0.3, 4: 0.1}) == 2


def test_sparse_patterns_evict_off_pattern():
    stride = 4
    cfg = kl.PolicyConfig(kind="sparse_strided", budget=4, stride=stride)
    i = 13
    # pattern at step 13, stride 4: gap < 4 (10, 11, 12, 13) or gap % 4 == 0 (9, 5, 1)
    assert strided_pattern_member(9, i, stride) and strided_pattern_member(10, i, stride)
    assert not strided_pattern_member(2, i, stride)
    assert _decide(cfg, [2, 9, 10, 11], i) == 2

    cfgf = kl.PolicyConfig(kind="sparse_fixed", budget=4, stride=stride)
    # fixed pattern at step 13: same block {13..16} or block-final columns {4, 8, 12}
    assert fixed_pattern_member(12, 13, stride) and fixed_pattern_member(4, 13, stride)
    assert not fixed_pattern_member(9, 13, stride)
    assert _decide(cfgf, [4, 9, 12, 13], 14) == 9


def test_h2o_missing_scores_is_inconsistent():
    cfg = kl.PolicyConfig(kind="h2o", budget=2, recent_frac=0.0)
    with pytest.raises(InvalidSpec):
        decide(cfg, [1, 2, 3], [0.0, 0.0, 0.0], [0.5])


@pytest.mark.parametrize("kind", kl.POLICY_KINDS)
def test_decide_on_a_one_token_cache_is_rejected(kind):
    # the incoming token alone: there is no cache to evict from
    cfg = kl.PolicyConfig(kind=kind, budget=1)
    with pytest.raises(InvalidSpec, match="empty cache"):
        decide(cfg, [1], [1.0], [1.0])


def test_tied_scores_in_reverse_slot_order_evict_the_lower_token():
    # token 7 sits in an earlier slot than token 3, but ties go to the lowest token
    tokens = [7, 3, 9, 10]
    scores = [0.2, 0.2, 0.5, 0.9]
    for kind in ("h2_only", "h2o"):
        cfg = kl.PolicyConfig(kind=kind, budget=3, recent_frac=0.0)
        assert decide(cfg, tokens, [0.0] * 4, scores) == 1
    topk = kl.PolicyConfig(kind="topk", budget=3)
    assert decide(topk, tokens, [0.1, 0.1, 0.3, 0.5], [0.0] * 4) == 1
    local = kl.PolicyConfig(kind="local", budget=3)
    assert decide(local, tokens, [0.0] * 4, [0.0] * 4) == 1


def test_nan_score_is_the_minimum():
    # overflowing logits give NaN weights; argmin's first NaN wins, without a tie search
    cfg = kl.PolicyConfig(kind="h2_only", budget=2)
    assert decide(cfg, [2, 1, 3], [0.0] * 3, [0.5, np.nan, 0.1]) == 1


@st.composite
def _slot_orders(draw):
    k = draw(st.integers(1, 10))
    cached = draw(st.lists(st.integers(1, 40), min_size=k, max_size=k, unique=True))
    i = max(cached) + draw(st.integers(1, 4))
    # few distinct values, so that weights and scores often tie
    values = st.lists(st.sampled_from([0.0, 0.25, 0.5]), min_size=k + 1, max_size=k + 1)
    cfg = kl.PolicyConfig(
        kind=draw(st.sampled_from(kl.POLICY_KINDS)),
        budget=k,
        recent_frac=draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)),
        sink=draw(st.integers(0, 12)),
        stride=draw(st.integers(1, 12)),
    )
    return cfg, cached, i, draw(values), draw(values), draw(st.permutations(range(k)))


@settings(max_examples=300, deadline=None)
@given(_slot_orders())
def test_decide_victim_does_not_depend_on_slot_order(case):
    cfg, cached, i, weights, scores, perm = case
    tokens = np.array(cached + [i])
    victims = []
    for order in (range(len(cached)), perm):
        # permute the cached entries together, keeping the incoming token last
        idx = [*order, len(cached)]
        v = decide(cfg, tokens[idx], np.array(weights)[idx], np.array(scores)[idx])
        victims.append(int(tokens[idx][v]))
    # the oracle's decide, on a cache that admitted the tokens in token order
    cache = ref.RefCache(budget=cfg.budget)
    for step, t in enumerate(sorted(cached), start=1):
        cache.admit(step, t)
    victims.append(ref.decide(cfg, dict(zip(tokens.tolist(), scores)), cache,
                              dict(zip(tokens.tolist(), weights)), i))
    assert victims[0] == victims[1] == victims[2]


# --- shortcut equivalence and score-function invariance ---------------------------

def test_min_score_equals_literal_argmax_and_h_invariance():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        k = int(rng.integers(2, 9))
        cfg = kl.PolicyConfig(kind="h2o", budget=k, recent_frac=float(rng.uniform(0.0, 1.0)))
        tokens = list(range(1, k + 1))
        i = k + 1
        values = rng.uniform(0.001, 10.0, size=k + 1)
        scores = {t: float(values[t - 1]) for t in tokens + [i]}
        victim = _decide(cfg, tokens, i, scores=scores)
        candidates = [t for t in tokens + [i] if t <= i - cfg.recent_budget]
        # the min-score victim is the literal argmax under every monotone h
        for h in ref.SCORE_FUNCTIONS.values():
            assert victim == reference_h2o_victim(candidates, tokens + [i], scores, h)


# --- run_policy ---------------------------------------------------------------

def test_full_run_matches_exact_attention():
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=24, d=4, seed=2))
    evicted_at = kl.run_policy(t, kl.PolicyConfig(kind="h2o", budget=24))
    # nothing leaves, so S_i is every token up to i
    assert (evicted_at == t.n + 1).all()
    rep = kl.deviation_reports(t, [evicted_at])[0]
    assert (rep.retained == 1.0).all() and (rep.tv == 0.0).all()
    # what full attention accumulates: token j's exact weights summed over steps j..n
    exact = sum(np.pad(ref.softmax_over(t, i, np.arange(1, i + 1)), (0, t.n - i)) for i in range(1, t.n + 1))
    profile = kl.heavy_hitter_profile(t)
    np.testing.assert_allclose(profile.curve, exact[profile.tokens - 1], rtol=0, atol=profile_atol(t.n))


def test_oversized_budget_behaves_like_full():
    # full attention is any kind at a budget that covers the trace
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=16, d=4, seed=3))
    for budget in (t.n, t.n + 4):
        for kind in kl.POLICY_KINDS:
            assert (kl.run_policy(t, kl.PolicyConfig(kind=kind, budget=budget)) == t.n + 1).all()


def _contract_violations(evicted_at, budget):
    n = len(evicted_at)
    tokens = np.arange(1, n + 1)
    # a token leaves at its own step (refused) or later, at most once
    bad = np.count_nonzero(evicted_at < tokens)
    victims = evicted_at[evicted_at <= n]
    bad += victims.size - np.unique(victims).size  # two victims at one step
    bad += victims.size != n - min(budget, n)
    for i in range(1, n + 1):
        # the live tokens after step i: t <= i < evicted_at[t - 1]
        bad += np.count_nonzero((tokens <= i) & (i < evicted_at)) > budget
    return bad


def test_eviction_contract_all_policies_small():
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=48, d=4, kind="power-law-keys", seed=9))
    for kind in kl.POLICY_KINDS:
        evicted_at = kl.run_policy(t, kl.PolicyConfig(kind=kind, budget=12))
        assert _contract_violations(evicted_at, 12) == 0


def test_h2o_never_evicts_recent_window():
    for kind in TRACE_KINDS:
        t = kl.generate_trace(kl.SyntheticTraceSpec(n=64, d=4, kind=kind, seed=5))
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            cfg = kl.PolicyConfig(kind="h2o", budget=16, recent_frac=frac)
            r = cfg.recent_budget
            evicted_at = kl.run_policy(t, cfg)
            # every victim at step i lies at or below i - r, outside the window i - r + 1..i
            victims = np.flatnonzero(evicted_at <= t.n) + 1
            assert victims.size == t.n - 16
            assert (victims <= evicted_at[victims - 1] - r).all()


@pytest.mark.parametrize("kind", TRACE_KINDS)
@pytest.mark.parametrize("seed", range(4))
def test_h2o_window_edges(kind, seed):
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=40, d=4, kind=kind, seed=seed))
    k = 8
    # no window: h2o is the plain min-score greedy
    h2o = kl.run_policy(t, kl.PolicyConfig(kind="h2o", budget=k, recent_frac=0.0))
    h2_only = kl.run_policy(t, kl.PolicyConfig(kind="h2_only", budget=k))
    np.testing.assert_array_equal(h2o, h2_only)
    # the window is the whole cache: only token i - k, the oldest, is a candidate
    h2o = kl.run_policy(t, kl.PolicyConfig(kind="h2o", budget=k, recent_frac=1.0))
    local = kl.run_policy(t, kl.PolicyConfig(kind="local", budget=k))
    np.testing.assert_array_equal(h2o, local)


def test_h2o_differs_from_h2_only_on_uniform_trace():
    # the greedy refuses nearly every token here; the window keeps admitting them
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=200, d=16, kind="uniform-gaussian", seed=1))
    h2o = kl.run_policy(t, kl.PolicyConfig(kind="h2o", budget=40))
    h2_only = kl.run_policy(t, kl.PolicyConfig(kind="h2_only", budget=40))
    assert not np.array_equal(h2o, h2_only)
    # the final cached sets: the tokens never evicted
    assert not np.array_equal(h2o == t.n + 1, h2_only == t.n + 1)
    # a refused token leaves at its own step
    tokens = np.arange(1, t.n + 1)
    assert not (h2o == tokens).any()
    assert (h2_only == tokens).any()


def _cached_set(evicted_at, i):
    """S_i: the tokens t <= i with ``i < evicted_at[t - 1]``."""
    return frozenset((np.flatnonzero(evicted_at[:i] > i) + 1).tolist())


def test_refusing_the_incoming_token_keeps_the_cached_set():
    # the greedy without a recency window refuses low-scored incoming tokens
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=24, d=4, kind="power-law-keys", seed=3))
    evicted_at = kl.run_policy(t, kl.PolicyConfig(kind="h2_only", budget=4))
    tokens = np.arange(1, len(evicted_at) + 1)
    refused = tokens[evicted_at == tokens]
    assert refused.size
    for i in refused.tolist():
        # no cached token leaves at a refused step, so the cached set stands
        assert np.count_nonzero(evicted_at == i) == 1
        assert _cached_set(evicted_at, i) == _cached_set(evicted_at, i - 1)


def test_determinism():
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=40, d=4, kind="power-law-keys", seed=8))
    cfg = kl.PolicyConfig(kind="h2o", budget=10)
    with _engine_decisions() as first:
        a = kl.run_policy(t, cfg)
    with _engine_decisions() as second:
        b = kl.run_policy(t, cfg)
    np.testing.assert_array_equal(a, b)
    assert len(first) == t.n - 10
    assert first == second


def test_scores_cover_exactly_tracked_tokens():
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=40, d=4, kind="power-law-keys", seed=8))
    with _engine_decisions() as seen:
        evicted_at = kl.run_policy(t, kl.PolicyConfig(kind="h2_only", budget=10))
    assert len(seen) == t.n - 10
    tokens = np.arange(1, t.n + 1)
    for i, (_, scores) in enumerate(seen, start=11):
        # step i attends S_{i-1} plus token i: the tokens t <= i still cached at step i
        assert set(scores) == set(tokens[(tokens <= i) & (evicted_at >= i)].tolist())


def test_h2o_dominates_local_stepwise_on_power_law():
    # frozen-seed regression: on this trace the heavy-hitter policy retains
    # at least as much exact mass as the recency policy at >= 90% of steps
    t = kl.generate_trace(
        kl.SyntheticTraceSpec(n=256, d=16, kind="power-law-keys", power_exponent=1.0, seed=0)
    )
    k = 51
    h2o, loc = kl.deviation_reports(t, kl.run_policies(t, [kl.PolicyConfig(kind="h2o", budget=k),
                                                             kl.PolicyConfig(kind="local", budget=k)]))
    assert (h2o.retained >= loc.retained).mean() >= 0.9


def test_config_validation():
    with pytest.raises(InvalidSpec):
        kl.PolicyConfig(kind="nope", budget=4)
    with pytest.raises(InvalidSpec):
        kl.PolicyConfig(kind="h2o", budget=0)
    with pytest.raises(InvalidSpec):
        kl.PolicyConfig(kind="h2o", budget=4, recent_frac=1.5)
    for stride in (0, 2**63):  # decide's pattern arithmetic is int64
        with pytest.raises(InvalidSpec):
            kl.PolicyConfig(kind="sparse_strided", budget=4, stride=stride)
    assert kl.PolicyConfig(kind="sparse_fixed", budget=4, stride=2**63 - 1).stride == 2**63 - 1
    assert kl.PolicyConfig(kind="h2o", budget=5, recent_frac=0.5).recent_budget == 2


def test_recent_budget_floors_exactly():
    # in floating point 0.29 * 100 is 28.999999999999996 and 0.57 * 100 is 56.99999999999999
    for frac, budget, r in ((0.29, 100, 29), (0.57, 100, 57), (0.29, 200, 58), (1.0, 7, 7), (0.0, 7, 0)):
        assert kl.PolicyConfig(kind="h2o", budget=budget, recent_frac=frac).recent_budget == r


# --- equivalence with the reference dict loop ---------------------------------------

# what the oracle may take from the library: types, errors and the two pattern
# predicates, never attention, scores, metrics or records (None: any name)
ORACLE_IMPORTS = {
    "kvcachelab.errors": None,
    "kvcachelab.policies": {"PolicyConfig", "fixed_pattern_member", "strided_pattern_member"},
    "kvcachelab.trace": {"AttentionTrace"},
}


def test_oracle_imports_only_types_errors_and_predicates():
    tree = ast.parse(Path(ref.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not [a.name for a in node.names if a.name.split(".")[0] == "kvcachelab"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "kvcachelab":
            assert node.module in ORACLE_IMPORTS
            allowed = ORACLE_IMPORTS[node.module]
            if allowed is not None:
                assert {a.name for a in node.names} <= allowed


# The metrics sum GEMM blocks where the reference sums one gemv row at a
# time, so they may differ from it in the last bits: a few ulps, bounded here
# from the dtype alone.
METRIC_ATOL = 64 * np.finfo(np.float64).eps


# local and sink_local take a closed form and decide nothing, so they are
# pinned by == on evicted_at; every other kind's decisions are compared
CLOSED_FORM_KINDS = ("local", "sink_local")


@contextmanager
def _engine_decisions():
    """Record ``(policy, {token: score})`` at every call of a lockstep lane's victim rule in the block."""
    calls = []
    real = policies._victim_rule

    def spy(policy, k, tok, weights, scores):
        rule = real(policy, k, tok, weights, scores)

        def recorded(i):
            # the lane's rows in slot order, the incoming token i in slot k
            calls.append((policy, dict(zip(tok.tolist(), scores.tolist()))))
            return rule(i)

        return recorded

    with mock.patch.object(policies, "_victim_rule", spy):
        yield calls


@contextmanager
def _reference_decisions():
    """Record ``(policy, {token: score})`` at every call of the oracle's decide in the block."""
    calls = []
    real = ref.decide

    def spy(policy, scores, *args):
        # the oracle deletes the victim's score afterwards, so record a copy
        calls.append((policy, dict(scores)))
        return real(policy, scores, *args)

    with mock.patch.object(ref, "decide", spy):
        yield calls


def _scores_seen(calls):
    """The ``{token: score}`` of each decision, keyed by the id of the config that made it.

    The oracle's local and sink_local decisions are left out: the engine's
    closed form makes none.
    """
    cells = defaultdict(list)
    for policy, scores in calls:
        if policy.kind not in CLOSED_FORM_KINDS:
            cells[id(policy)].append(scores)
    return cells


def _assert_decision_counts(cells, configs, n):
    """Every decided cell decided once at each of its n - min(budget, n) evicting steps."""
    for cfg in configs:
        if cfg.kind not in CLOSED_FORM_KINDS:
            assert len(cells[id(cfg)]) == n - min(cfg.budget, n)


def _reference_evicted_at(record):
    """``evicted_at`` of a reference run, read off its events."""
    evicted_at = np.full(record.n, record.n + 1, dtype=np.int64)
    for ev in record.events:
        if ev.evicted is not None:
            evicted_at[ev.evicted - 1] = ev.step
    return evicted_at


def _assert_matches_reference(t, cfg):
    with _engine_decisions() as seen:
        got = kl.run_policy(t, cfg)
    with _reference_decisions() as want_seen:
        want = ref.run_policy(t, cfg)
    np.testing.assert_array_equal(got, _reference_evicted_at(want))
    # every decision saw the oracle's accumulated scores, bit for bit
    cells, want_cells = _scores_seen(seen), _scores_seen(want_seen)
    _assert_decision_counts(cells, [cfg], t.n)
    _assert_decision_counts(want_cells, [cfg], t.n)
    assert cells == want_cells
    retained, tv = ref.retained_mass(t, want)
    rep = kl.deviation_reports(t, [got])[0]
    # the metric clamps the retained mass into [0, 1]; TV is the reference's literal formula
    np.testing.assert_allclose(rep.retained, np.clip(retained, 0.0, 1.0), rtol=0, atol=METRIC_ATOL)
    np.testing.assert_allclose(rep.tv, tv, rtol=0, atol=METRIC_ATOL)


@st.composite
def _runs(draw):
    n = draw(st.integers(1, 80))
    spec = kl.SyntheticTraceSpec(
        n=n,
        d=draw(st.integers(1, 8)),
        kind=draw(st.sampled_from(TRACE_KINDS)),
        seed=draw(st.integers(0, 2**16)),
    )
    cfg = kl.PolicyConfig(
        kind=draw(st.sampled_from(kl.POLICY_KINDS)),
        budget=draw(st.integers(1, n + 2)),
        recent_frac=draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)),
        sink=draw(st.integers(0, 12)),
        stride=draw(st.integers(1, 12)),
    )
    return spec, cfg


@settings(max_examples=150, deadline=None)
@given(_runs())
def test_engine_matches_reference_within_tolerance(run):
    spec, cfg = run
    _assert_matches_reference(kl.generate_trace(spec), cfg)


@pytest.mark.parametrize("kind", kl.POLICY_KINDS)
def test_engine_matches_reference_across_exact_blocks(kind):
    # n = 257 gives 127-row exact blocks: two full ones and a partial third
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=257, d=8, kind="power-law-keys", seed=11))
    _assert_matches_reference(t, kl.PolicyConfig(kind=kind, budget=51, sink=3, stride=5))


@pytest.fixture(scope="module")
def decode_shape_trace():
    return kl.generate_trace(kl.SyntheticTraceSpec(n=600, d=64, kind="power-law-keys", seed=13))


@pytest.mark.parametrize("budget", [120, 409])
@pytest.mark.parametrize("kind", kl.POLICY_KINDS)
def test_engine_matches_reference_at_benchmark_shape(decode_shape_trace, kind, budget):
    # the decode benchmark's head size and budget: multi-row gemvs over a slot
    # matrix whose order has been permuted by hundreds of swaps
    _assert_matches_reference(decode_shape_trace, kl.PolicyConfig(kind=kind, budget=budget))


def test_exact_ties_through_the_engine_evict_the_lowest_token():
    # token 1's key dominates every softmax, so each other weight underflows
    # to exactly 0.0 and every other token ties at score 0.0; a token admitted
    # into a low slot then sits before lower tied tokens in slot order
    n, k = 24, 8
    keys = np.zeros((n, 1))
    keys[0] = 1000.0
    t = kl.AttentionTrace(q=np.ones((n, 1)), k=keys)
    # the lowest tied candidate goes first: a first-in first-out cache behind token 1
    want = kl.run_policy(t, kl.PolicyConfig(kind="sink_local", budget=k, sink=1))
    np.testing.assert_array_equal(want[1:n - k + 1], np.arange(k + 1, n + 1))
    for cfg in (kl.PolicyConfig(kind="h2_only", budget=k), kl.PolicyConfig(kind="h2o", budget=k, recent_frac=0.25)):
        np.testing.assert_array_equal(kl.run_policy(t, cfg), want)
        _assert_matches_reference(t, cfg)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 80), data=st.data())
def test_fifo_closed_form_matches_reference(n, data):
    # local and sink_local read no score, so one tiny trace serves every (n, k, sink)
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=n, d=1, seed=0))
    k = data.draw(st.integers(1, n + 2), label="budget")
    sink = data.draw(st.sampled_from([0, 1, k - 1, k, k + 2]), label="sink")
    for kind in ("local", "sink_local"):
        cfg = kl.PolicyConfig(kind=kind, budget=k, sink=sink)
        np.testing.assert_array_equal(kl.run_policy(t, cfg), _reference_evicted_at(ref.run_policy(t, cfg)))


# --- many cells in one pass ------------------------------------------------------------

@st.composite
def _cell_grids(draw):
    n = draw(st.integers(1, 60))
    spec = kl.SyntheticTraceSpec(
        n=n,
        # 64: the benchmark's head size, where the gemv kernel blocks its rows
        d=draw(st.integers(1, 8) | st.just(64)),
        kind=draw(st.sampled_from(TRACE_KINDS)),
        seed=draw(st.integers(0, 2**16)),
    )
    # a few budgets, so that cells share a cache size; below, at and above n
    budgets = st.sampled_from(sorted({1, 2, max(1, n // 3), max(1, n - 1), n, n + 3}))
    configs = draw(st.lists(
        st.builds(
            kl.PolicyConfig,
            kind=st.sampled_from(kl.POLICY_KINDS),
            budget=budgets | st.integers(1, n + 2),
            recent_frac=st.sampled_from([0.0, 0.5, 1.0]),
            sink=st.integers(0, 6),
            stride=st.integers(1, 6),
        ),
        min_size=1,
        max_size=4,
    ))
    # repeat some configs: duplicate cells must not share state; each repeat is
    # its own object, so that the decision spy can tell the cells apart
    picks = draw(st.lists(st.integers(0, len(configs) - 1), min_size=1, max_size=6))
    return spec, [dataclasses.replace(configs[j]) for j in picks]


@settings(max_examples=100, deadline=None)
@given(_cell_grids())
def test_run_policies_matches_reference_per_cell(grid):
    spec, configs = grid
    t = kl.generate_trace(spec)
    with _engine_decisions() as seen:
        schedules = kl.run_policies(t, configs)
    assert len(schedules) == len(configs)
    cells = _scores_seen(seen)
    _assert_decision_counts(cells, configs, t.n)
    for cfg, got in zip(configs, schedules):
        with _reference_decisions() as want_seen:
            want = ref.run_policy(t, cfg)
        np.testing.assert_array_equal(got, _reference_evicted_at(want))
        want_cells = _scores_seen(want_seen)
        _assert_decision_counts(want_cells, [cfg], t.n)
        assert cells[id(cfg)] == want_cells[id(cfg)]


def test_run_policies_of_benchmark_grid_equal_single_runs(decode_shape_trace):
    # every kind at each budget of a compare grid: lanes of seven per cache size
    t = decode_shape_trace
    configs = [kl.PolicyConfig(kind=kind, budget=b) for b in (24, 120, 360, t.n) for kind in kl.POLICY_KINDS]
    with _engine_decisions() as seen:
        schedules = kl.run_policies(t, configs)
    cells = _scores_seen(seen)
    _assert_decision_counts(cells, configs, t.n)
    for cfg, got in zip(configs, schedules):
        with _engine_decisions() as alone:
            want = kl.run_policy(t, cfg)
        np.testing.assert_array_equal(got, want)
        alone_cells = _scores_seen(alone)
        _assert_decision_counts(alone_cells, [cfg], t.n)
        assert cells[id(cfg)] == alone_cells[id(cfg)]


def test_run_policies_of_no_configs_is_empty():
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=8, d=2, seed=1))
    assert kl.run_policies(t, []) == []


@st.composite
def _prefix_runs(draw):
    n = draw(st.integers(2, 80))
    m = draw(st.integers(1, n - 1))
    spec = kl.SyntheticTraceSpec(
        n=n,
        d=draw(st.integers(1, 8)),
        kind=draw(st.sampled_from(TRACE_KINDS)),
        seed=draw(st.integers(0, 2**16)),
    )
    # budgets below the prefix, and at or above it
    budget = draw(st.integers(1, m) | st.integers(m, n + 2))
    return spec, m, budget, draw(st.sampled_from([0.0, 0.5, 1.0])), draw(st.integers(0, 6)), draw(st.integers(1, 6))


@pytest.mark.parametrize("kind", kl.POLICY_KINDS)
@settings(max_examples=30, deadline=None)
@given(run=_prefix_runs())
def test_a_prefix_of_the_trace_runs_the_prefix_of_the_schedule(kind, run):
    # step i sees only tokens 1..i, so a run on trace[:m] is the full run's
    # first m steps: a token evicted after step m is never evicted there
    spec, m, budget, recent_frac, sink, stride = run
    t = kl.generate_trace(spec)
    prefix = kl.AttentionTrace(q=t.q[:m], k=t.k[:m])
    cfg = kl.PolicyConfig(kind=kind, budget=budget, recent_frac=recent_frac, sink=sink, stride=stride)
    full, head = kl.run_policy(t, cfg), kl.run_policy(prefix, cfg)
    np.testing.assert_array_equal(head, np.where(full[:m] > m, m + 1, full[:m]))
    want, got = kl.deviation_reports(t, [full])[0], kl.deviation_reports(prefix, [head])[0]
    np.testing.assert_allclose(got.retained, want.retained[:m], rtol=0, atol=METRIC_ATOL)
    np.testing.assert_allclose(got.tv, want.tv[:m], rtol=0, atol=METRIC_ATOL)

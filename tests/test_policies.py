"""Policy decisions and full decode simulations against reference oracles."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kvcachelab as kl
import reference_engine as ref
from kvcachelab.errors import InconsistentState, InvalidSpec
from kvcachelab.policies import decide, fixed_pattern_member, strided_pattern_member
from kvcachelab.submodular import score_function
from kvcachelab.trace import TRACE_KINDS


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
    ref_victim = reference_h2o_victim([1, 2, 3], [1, 2, 3, 4, 5], scores, score_function("identity"))
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
    with pytest.raises(InconsistentState):
        decide(cfg, [1, 2, 3], [0.0, 0.0, 0.0], [0.5])


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
        for fn in ("identity", "sqrt1p", "log1p"):
            assert victim == reference_h2o_victim(candidates, tokens + [i], scores, score_function(fn))


# --- run_policy ---------------------------------------------------------------

def test_full_run_matches_exact_attention():
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=24, d=4, seed=2))
    rec = kl.run_policy(t, kl.PolicyConfig(kind="h2o", budget=24))
    # step i only reads the first i tokens, so what step i adds to the scores
    # of a run over that prefix is exactly its prediction-time weights
    prev = {}
    for i in range(1, t.n + 1):
        prefix = kl.AttentionTrace(q=t.q[:i], k=t.k[:i])
        scores = kl.run_policy(prefix, kl.PolicyConfig(kind="h2o", budget=i)).final_scores
        exact = ref.softmax_over(t, i, np.arange(1, i + 1))
        assert sorted(scores) == list(range(1, i + 1))
        for j, w in enumerate(exact, start=1):
            assert scores[j] - prev.get(j, 0.0) == pytest.approx(w, abs=1e-12)
        prev = scores
    assert prev == rec.final_scores
    for i, tracked in rec.step_sets():
        assert tracked == frozenset(range(1, i + 1))
    rep = kl.retained_mass(t, rec)
    assert (rep.retained == 1.0).all() and (rep.tv == 0.0).all()


def test_oversized_budget_behaves_like_full():
    # full attention is any kind at a budget that covers the trace
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=16, d=4, seed=3))
    for budget in (t.n, t.n + 4):
        runs = [kl.run_policy(t, kl.PolicyConfig(kind=kind, budget=budget)) for kind in kl.POLICY_KINDS]
        for rec in runs:
            assert [e.evicted for e in rec.events] == [None] * t.n
            assert set(rec.final_scores) == set(range(1, t.n + 1))
            assert (rec.evicted_at == t.n + 1).all()
            assert rec.final_scores == runs[0].final_scores


def _contract_violations(record, budget):
    prev = frozenset()
    evicted_ever = set()
    bad = 0
    for i, tracked in record.step_sets():
        if len(tracked) > budget:
            bad += 1
        if len(tracked - prev) > 1:
            bad += 1
        if tracked & evicted_ever:  # an evicted token can never return
            bad += 1
        ev = record.events[i - 1]
        if ev.evicted is not None:
            evicted_ever.add(ev.evicted)
        prev = tracked
    return bad


def test_eviction_contract_all_policies_small():
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=48, d=4, kind="power-law-keys", seed=9))
    for kind in kl.POLICY_KINDS:
        rec = kl.run_policy(t, kl.PolicyConfig(kind=kind, budget=12))
        assert _contract_violations(rec, 12) == 0


def test_h2o_never_evicts_recent_window():
    for kind in TRACE_KINDS:
        t = kl.generate_trace(kl.SyntheticTraceSpec(n=64, d=4, kind=kind, seed=5))
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            cfg = kl.PolicyConfig(kind="h2o", budget=16, recent_frac=frac)
            r = cfg.recent_budget
            rec = kl.run_policy(t, cfg)
            # every victim at step i lies at or below i - r, outside the window i - r + 1..i
            victims = [(ev.step, ev.evicted) for ev in rec.events if ev.evicted is not None]
            assert len(victims) == t.n - 16
            assert all(v <= i - r for i, v in victims)


@pytest.mark.parametrize("kind", TRACE_KINDS)
@pytest.mark.parametrize("seed", range(4))
def test_h2o_window_edges(kind, seed):
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=40, d=4, kind=kind, seed=seed))
    k = 8
    # no window: h2o is the plain min-score greedy
    h2o = kl.run_policy(t, kl.PolicyConfig(kind="h2o", budget=k, recent_frac=0.0))
    h2_only = kl.run_policy(t, kl.PolicyConfig(kind="h2_only", budget=k))
    assert h2o.events == h2_only.events
    assert h2o.final_scores == h2_only.final_scores
    # the window is the whole cache: only token i - k, the oldest, is a candidate
    h2o = kl.run_policy(t, kl.PolicyConfig(kind="h2o", budget=k, recent_frac=1.0))
    local = kl.run_policy(t, kl.PolicyConfig(kind="local", budget=k))
    assert h2o.events == local.events
    assert h2o.final_scores == local.final_scores


def test_h2o_differs_from_h2_only_on_uniform_trace():
    # the greedy refuses nearly every token here; the window keeps admitting them
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=200, d=16, kind="uniform-gaussian", seed=1))
    h2o = kl.run_policy(t, kl.PolicyConfig(kind="h2o", budget=40))
    h2_only = kl.run_policy(t, kl.PolicyConfig(kind="h2_only", budget=40))
    assert h2o.events != h2_only.events
    assert set(h2o.final_scores) != set(h2_only.final_scores)
    assert not [ev for ev in h2o.events if ev.evicted == ev.admitted]
    assert [ev for ev in h2_only.events if ev.evicted == ev.admitted]


def test_determinism():
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=40, d=4, kind="power-law-keys", seed=8))
    cfg = kl.PolicyConfig(kind="h2o", budget=10)
    a = kl.run_policy(t, cfg)
    b = kl.run_policy(t, cfg)
    assert a.events == b.events
    assert a.final_scores == b.final_scores


def test_scores_cover_exactly_tracked_tokens():
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=40, d=4, kind="power-law-keys", seed=8))
    rec = kl.run_policy(t, kl.PolicyConfig(kind="h2_only", budget=10))
    final_step_set = None
    for _, s in rec.step_sets():
        final_step_set = s
    assert set(rec.final_scores) == set(final_step_set)


def test_h2o_dominates_local_stepwise_on_power_law():
    # frozen-seed regression: on this trace the heavy-hitter policy retains
    # at least as much exact mass as the recency policy at >= 90% of steps
    t = kl.generate_trace(
        kl.SyntheticTraceSpec(n=256, d=16, kind="power-law-keys", power_exponent=1.0, seed=0)
    )
    k = 51
    h2o = kl.retained_mass(t, kl.run_policy(t, kl.PolicyConfig(kind="h2o", budget=k)))
    loc = kl.retained_mass(t, kl.run_policy(t, kl.PolicyConfig(kind="local", budget=k)))
    assert (h2o.retained >= loc.retained).mean() >= 0.9


def test_config_validation():
    with pytest.raises(InvalidSpec):
        kl.PolicyConfig(kind="nope", budget=4)
    with pytest.raises(InvalidSpec):
        kl.PolicyConfig(kind="h2o", budget=0)
    with pytest.raises(InvalidSpec):
        kl.PolicyConfig(kind="h2o", budget=4, recent_frac=1.5)
    assert kl.PolicyConfig(kind="h2o", budget=5, recent_frac=0.5).recent_budget == 2


# --- equivalence with the reference dict loop ---------------------------------------

# what the oracle may take from the library: types, errors and the two pattern
# predicates, never attention, scores or metrics (None: any name)
ORACLE_IMPORTS = {
    "kvcachelab.errors": None,
    "kvcachelab.policies": {"EvictionEvent", "PolicyConfig", "fixed_pattern_member", "strided_pattern_member"},
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


def _assert_matches_reference(t, cfg):
    got = kl.run_policy(t, cfg)
    want = ref.run_policy(t, cfg)
    assert got.events == want.events
    assert got.final_scores == want.final_scores
    retained, tv = ref.retained_mass(t, want)
    rep = kl.retained_mass(t, got)
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


# --- many cells in one pass ------------------------------------------------------------

def _reference_evicted_at(record):
    """``evicted_at`` of a reference run, read off its events."""
    evicted_at = np.full(record.n, record.n + 1, dtype=np.int64)
    for ev in record.events:
        if ev.evicted is not None:
            evicted_at[ev.evicted - 1] = ev.step
    return evicted_at


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
    # repeat some configs: duplicate cells must not share state
    picks = draw(st.lists(st.integers(0, len(configs) - 1), min_size=1, max_size=6))
    return spec, [configs[j] for j in picks]


@settings(max_examples=100, deadline=None)
@given(_cell_grids())
def test_run_policies_matches_reference_per_cell(grid):
    spec, configs = grid
    t = kl.generate_trace(spec)
    records = kl.run_policies(t, configs)
    assert [rec.config for rec in records] == configs
    for cfg, got in zip(configs, records):
        want = ref.run_policy(t, cfg)
        assert got.events == want.events
        assert got.final_scores == want.final_scores
        np.testing.assert_array_equal(got.evicted_at, _reference_evicted_at(want))


def test_run_policies_of_benchmark_grid_equal_single_runs(decode_shape_trace):
    # every kind at each budget of a compare grid: lanes of seven per cache size
    t = decode_shape_trace
    configs = [kl.PolicyConfig(kind=kind, budget=b) for b in (24, 120, 360, t.n) for kind in kl.POLICY_KINDS]
    for cfg, got in zip(configs, kl.run_policies(t, configs)):
        want = kl.run_policy(t, cfg)
        assert got.events == want.events
        assert got.final_scores == want.final_scores
        np.testing.assert_array_equal(got.evicted_at, want.evicted_at)


def test_run_policies_of_no_configs_is_empty():
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=8, d=2, seed=1))
    assert kl.run_policies(t, []) == []

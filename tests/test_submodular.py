"""Greedy guarantees, noisy-oracle robustness, certification, the attention-score adapter."""

import math

import numpy as np
import pytest

import kvcachelab as kl
from kvcachelab.errors import BadBudget, TooLarge
from kvcachelab.submodular import (
    GREEDY_RATIO,
    NoisyOracle,
    SubmodularInstance,
    attention_score_instance,
    brute_force_opt,
    greedy,
    robust_greedy,
    robust_greedy_floor,
)


def _random_instance(rng):
    n = int(rng.integers(6, 13))
    k = int(rng.integers(1, 5))
    kind = int(rng.integers(3))
    if kind == 0:
        inst = SubmodularInstance.modular(rng.random(n) * 10)
    elif kind == 1:
        inst = SubmodularInstance.budget_additive(rng.random(n) * 10, cap=float(rng.random() * 15))
    else:
        universe = int(rng.integers(5, 15))
        sets = [
            set(rng.choice(universe, size=rng.integers(1, universe), replace=False).tolist())
            for _ in range(n)
        ]
        inst = SubmodularInstance.coverage(sets)
    return inst, k


# --- greedy and brute force ---------------------------------------------------

def test_modular_greedy_is_optimal():
    inst = SubmodularInstance.modular([5.0, 3.0, 1.0])
    sel = greedy(inst, 2)
    assert sel.selected == {1, 2} and sel.value == pytest.approx(8.0)
    opt = brute_force_opt(inst, 2)
    assert opt.selected == {1, 2} and opt.value == pytest.approx(8.0)


def test_coverage_single_pick():
    inst = SubmodularInstance.coverage([{1, 2}, {2, 3}, {3}])
    sel = greedy(inst, 1)
    assert sel.value == pytest.approx(2.0)
    assert sel.selected == {1}  # ties break toward the lowest index


def test_budget_bounds():
    inst = SubmodularInstance.modular([1.0, 2.0])
    with pytest.raises(BadBudget):
        greedy(inst, 0)
    with pytest.raises(BadBudget):
        brute_force_opt(inst, 3)


def test_brute_force_full_set_and_cap():
    inst = SubmodularInstance.coverage([{1}, {2}, {1, 2, 3}])
    assert brute_force_opt(inst, 3).value == pytest.approx(inst.value({1, 2, 3}))
    big = SubmodularInstance.modular(np.ones(23))
    with pytest.raises(TooLarge):
        brute_force_opt(big, 2)


def _recursive_best(inst, k, start, chosen):
    """Independent enumeration strategy (depth-first) for cross-checking."""
    if len(chosen) == k:
        return inst.value(chosen), frozenset(chosen)
    best = (-math.inf, frozenset())
    for e in range(start, inst.n + 1):
        cand = _recursive_best(inst, k, e + 1, chosen | {e})
        if cand[0] > best[0]:
            best = cand
    return best


def test_brute_force_vs_recursive_enumeration():
    rng = np.random.default_rng(7)
    sets = [set(rng.choice(8, size=rng.integers(1, 8), replace=False).tolist()) for _ in range(10)]
    inst = SubmodularInstance.coverage(sets)
    val, _ = _recursive_best(inst, 3, 1, frozenset())
    assert brute_force_opt(inst, 3).value == pytest.approx(val)


def test_greedy_bound_on_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(150):
        inst, k = _random_instance(rng)
        opt = brute_force_opt(inst, k)
        sel = greedy(inst, k)
        assert sel.value >= GREEDY_RATIO * opt.value - 1e-9


# --- noisy oracle ---------------------------------------------------------------

def test_oracle_error_bounded_and_deterministic():
    rng = np.random.default_rng(1)
    inst, _ = _random_instance(rng)
    oracle = NoisyOracle(inst, eps=0.25, seed=11)
    for _ in range(200):
        s = frozenset(
            int(x) + 1 for x in rng.choice(inst.n, size=rng.integers(0, inst.n), replace=False)
        )
        elem = int(rng.integers(1, inst.n + 1))
        if elem in s:
            continue
        v1 = oracle.query(s, elem)
        v2 = oracle.query(s, elem)
        assert v1 == v2
        assert abs(v1 - inst.marginal(s, elem)) <= 0.25 + 1e-12


def test_adversarial_noise_sits_at_edges():
    inst = SubmodularInstance.modular([1.0, 2.0, 3.0])
    oracle = NoisyOracle(inst, eps=0.5, seed=3, adversarial=True)
    for e in (1, 2, 3):
        gap = abs(oracle.query(frozenset(), e) - inst.marginal(frozenset(), e))
        assert gap == pytest.approx(0.5)


def test_noiseless_robust_greedy_equals_greedy():
    rng = np.random.default_rng(9)
    for _ in range(25):
        inst, k = _random_instance(rng)
        a = greedy(inst, k)
        b = robust_greedy(NoisyOracle(inst, eps=0.0, seed=0), k)
        assert a.selected == b.selected and a.order == b.order


def test_robust_greedy_bound_uniform_and_adversarial():
    rng = np.random.default_rng(13)
    for trial in range(150):
        inst, k = _random_instance(rng)
        eps = float(rng.uniform(0.0, 0.4))
        opt = brute_force_opt(inst, k)
        oracle = NoisyOracle(inst, eps=eps, seed=trial, adversarial=bool(trial % 2))
        sel = robust_greedy(oracle, k)
        assert sel.value >= robust_greedy_floor(opt.value, k, eps) - 1e-9


# --- certification -----------------------------------------------------------------

def test_standard_kinds_certify():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(3, 7))
        for inst in (
            SubmodularInstance.modular(rng.random(n)),
            SubmodularInstance.budget_additive(rng.random(n), cap=float(rng.random() * 2)),
            SubmodularInstance.coverage(
                [set(rng.choice(6, size=rng.integers(1, 6), replace=False).tolist()) for _ in range(n)]
            ),
        ):
            assert inst.certify_submodular()
            assert inst.certify_monotone()
            assert inst.value(frozenset()) == 0.0


def test_concave_of_modular_certifies():
    rng = np.random.default_rng(4)
    for fn_name in ("sqrt1p", "log1p"):
        h = kl.score_function(fn_name)
        for _ in range(10):
            weights = rng.random(5) * 4
            inst = SubmodularInstance.concave_of_modular(weights, h)
            assert inst.certify_submodular()
            assert inst.certify_monotone()


def test_certifier_rejects_supermodular():
    # squared modular mass has increasing returns
    inst = SubmodularInstance(3, lambda s: float(len(s)) ** 2)
    assert not inst.certify_submodular()


# --- attention-score adapter ----------------------------------------------------------

def test_identity_adapter_is_modular_topk():
    inst, tokens = attention_score_instance({4: 3.0, 9: 1.0, 11: 2.0}, "identity")
    assert tokens == [4, 9, 11]
    sel = greedy(inst, 2)
    assert {tokens[e - 1] for e in sel.selected} == {4, 11}


def test_sqrt_adapter_hand_enumeration():
    inst, tokens = attention_score_instance({1: 3.0, 2: 1.0, 3: 1.0}, "sqrt1p")
    assert inst.value({1}) == pytest.approx(math.sqrt(4.0) - 1.0)
    sel = greedy(inst, 2)
    assert sel.order[0] == 1
    assert sel.order[1] == 2  # sqrt(5) tie between {1,2} and {1,3}
    assert inst.certify_submodular(cap=3)


def test_h2o_choice_near_optimal_per_step():
    rng = np.random.default_rng(21)
    for _ in range(60):
        k = int(rng.integers(2, 7))
        scores = {t: float(rng.uniform(0.01, 5.0)) for t in range(1, k + 2)}
        for fn in ("identity", "sqrt1p", "log1p"):
            inst, tokens = attention_score_instance(scores, fn)
            # the one-in/one-out choice keeps everything except the min score
            victim = min(scores, key=lambda t: (scores[t], t))
            kept = [tokens.index(t) + 1 for t in scores if t != victim]
            opt = brute_force_opt(inst, k)
            assert inst.value(kept) >= GREEDY_RATIO * opt.value - 1e-12
            assert inst.value(kept) == pytest.approx(opt.value)  # argmax = top-k here

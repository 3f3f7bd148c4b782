"""Greedy guarantees, noisy-oracle robustness, diminishing returns, H2O's choice as a selection."""

import math
from itertools import combinations

import numpy as np
import pytest

import kvcachelab as kl
import reference_engine as ref
from kvcachelab.errors import InvalidSpec
from kvcachelab.submodular import (
    GREEDY_RATIO,
    NoisyOracle,
    SubmodularInstance,
    brute_force_opt,
    greedy,
    robust_greedy,
    robust_greedy_floor,
)


def _score_instance(scores, h):
    """f(S) = h(sum of the scores in S) - h(0) over the sorted tokens, and those tokens.

    For a non-decreasing concave h, f is monotone submodular; with h the
    identity it is modular, and greedy picks the top-k scores.
    """
    tokens = sorted(scores)
    w = [scores[t] for t in tokens]
    return SubmodularInstance(len(w), lambda s: h(sum(w[i - 1] for i in s)) - h(0.0)), tokens


def _submodular_and_monotone(inst):
    """Exhaustive check: every marginal gain is >= 0 and no larger on a superset."""
    subsets = [frozenset(c) for r in range(inst.n + 1) for c in combinations(range(1, inst.n + 1), r)]
    return all(
        inst.marginal(small, x) >= inst.marginal(big, x) - 1e-12 and inst.marginal(big, x) >= -1e-12
        for big in subsets
        for small in subsets
        if small <= big
        for x in range(1, inst.n + 1)
        if x not in big
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
    with pytest.raises(InvalidSpec):
        greedy(inst, 0)
    with pytest.raises(InvalidSpec):
        brute_force_opt(inst, 3)


def test_brute_force_full_set_and_cap():
    inst = SubmodularInstance.coverage([{1}, {2}, {1, 2, 3}])
    assert brute_force_opt(inst, 3).value == pytest.approx(inst.value({1, 2, 3}))
    big = SubmodularInstance.modular(np.ones(23))
    with pytest.raises(InvalidSpec):
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


def test_noiseless_robust_greedy_equals_greedy():
    rng = np.random.default_rng(9)
    for _ in range(25):
        inst, k = _random_instance(rng)
        a = greedy(inst, k)
        b = robust_greedy(NoisyOracle(inst, eps=0.0, seed=0), k)
        assert a.selected == b.selected and a.order == b.order


class _AdversarialOracle:
    """Marginal gains off by exactly eps against the optimum: its elements read low, the rest high."""

    def __init__(self, instance, eps, opt):
        self.instance, self.eps, self.opt = instance, eps, opt

    def query(self, subset, element):
        gain = self.instance.marginal(frozenset(subset), element)
        return gain - self.eps if element in self.opt else gain + self.eps


def test_robust_greedy_bound_uniform_and_adversarial():
    rng = np.random.default_rng(13)
    for trial in range(150):
        inst, k = _random_instance(rng)
        eps = float(rng.uniform(0.0, 0.4))
        opt = brute_force_opt(inst, k)
        if trial % 2:
            oracle = _AdversarialOracle(inst, eps, opt.selected)
        else:
            oracle = NoisyOracle(inst, eps=eps, seed=trial)
        sel = robust_greedy(oracle, k)
        assert sel.value >= robust_greedy_floor(opt.value, k, eps) - 1e-9
    # the optimum reads 1 - eps = 0.75 and the decoy 0.55 + eps = 0.8, so greedy
    # lands under (1-1/e)*OPT and only the k(2-1/e)eps allowance covers it
    inst = SubmodularInstance.modular([1.0, 0.55])
    opt = brute_force_opt(inst, 1)
    sel = robust_greedy(_AdversarialOracle(inst, 0.25, opt.selected), 1)
    assert opt.value == 1.0 and sel.selected == {2} and sel.value == 0.55
    assert robust_greedy_floor(opt.value, 1, 0.25) <= sel.value < GREEDY_RATIO * opt.value


# --- diminishing returns -------------------------------------------------------------

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
            assert _submodular_and_monotone(inst)
            assert inst.value(frozenset()) == 0.0


def test_concave_of_modular_certifies():
    rng = np.random.default_rng(4)
    for fn_name in ("sqrt1p", "log1p"):
        for _ in range(10):
            weights = rng.random(5) * 4
            inst, _ = _score_instance(dict(enumerate(weights, start=1)), ref.SCORE_FUNCTIONS[fn_name])
            assert _submodular_and_monotone(inst)


def test_certifier_rejects_supermodular():
    # squared modular mass has increasing returns
    inst = SubmodularInstance(3, lambda s: float(len(s)) ** 2)
    assert not _submodular_and_monotone(inst)


# --- accumulated scores as a selection objective ------------------------------------------

def test_identity_adapter_is_modular_topk():
    inst, tokens = _score_instance({4: 3.0, 9: 1.0, 11: 2.0}, ref.SCORE_FUNCTIONS["identity"])
    assert tokens == [4, 9, 11]
    sel = greedy(inst, 2)
    assert {tokens[e - 1] for e in sel.selected} == {4, 11}


def test_sqrt_adapter_hand_enumeration():
    inst, tokens = _score_instance({1: 3.0, 2: 1.0, 3: 1.0}, ref.SCORE_FUNCTIONS["sqrt1p"])
    assert inst.value({1}) == pytest.approx(math.sqrt(4.0) - 1.0)
    sel = greedy(inst, 2)
    assert sel.order[0] == 1
    assert sel.order[1] == 2  # sqrt(5) tie between {1,2} and {1,3}
    assert _submodular_and_monotone(inst)


def test_h2o_choice_near_optimal_per_step():
    rng = np.random.default_rng(21)
    for _ in range(60):
        k = int(rng.integers(2, 7))
        scores = {t: float(rng.uniform(0.01, 5.0)) for t in range(1, k + 2)}
        # token k + 1 arrives at a full cache; without a window every token is a candidate
        no_window = kl.PolicyConfig(kind="h2o", budget=k, recent_frac=0.0)
        victim = 1 + kl.decide(no_window, list(scores), [0.0] * (k + 1), list(scores.values()))
        kept = [t for t in scores if t != victim]
        for h in ref.SCORE_FUNCTIONS.values():
            # tokens are 1..k+1, so each token is its own ground element
            inst, _ = _score_instance(scores, h)
            opt = brute_force_opt(inst, k)
            assert inst.value(kept) >= GREEDY_RATIO * opt.value - 1e-12
            assert inst.value(kept) == pytest.approx(opt.value)  # argmax = top-k here

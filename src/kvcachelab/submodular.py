"""Executable checks for greedy selection over submodular objectives.

Two layers:

* static instances (modular, budget-additive, coverage) with a brute-force
  optimum, against which greedy's (1 - 1/e) guarantee and the noisy-oracle
  variant's degraded bound are verified;
* a noisy marginal-gain oracle with a bounded additive error, driving the
  robust greedy selection.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import InvalidSpec

GREEDY_RATIO = 1.0 - 1.0 / math.e

_ENUM_CAP = 22  # brute force enumerates C(n, k) subsets; keep n at desk scale


class SubmodularInstance:
    """Monotone submodular set function on ground set {1..n}, f(empty) = 0."""

    def __init__(self, n: int, evaluate: Callable[[frozenset], float]):
        if n < 1:
            raise InvalidSpec("ground set must be non-empty")
        self.n = n
        self._evaluate = evaluate

    def value(self, subset: Iterable[int]) -> float:
        s = frozenset(int(t) for t in subset)
        if s and (min(s) < 1 or max(s) > self.n):
            raise InvalidSpec(f"subset must lie within [1, {self.n}]")
        return float(self._evaluate(s))

    def marginal(self, subset: frozenset, element: int) -> float:
        return self.value(subset | {element}) - self.value(subset)

    # -- standard monotone kinds ------------------------------------------

    @classmethod
    def modular(cls, weights: Sequence[float]) -> "SubmodularInstance":
        w = np.asarray(weights, dtype=np.float64)
        if (w < 0).any():
            raise InvalidSpec("modular weights must be non-negative")
        return cls(len(w), lambda s: float(sum(w[i - 1] for i in s)))

    @classmethod
    def budget_additive(cls, weights: Sequence[float], cap: float) -> "SubmodularInstance":
        w = np.asarray(weights, dtype=np.float64)
        if (w < 0).any() or cap < 0:
            raise InvalidSpec("weights and cap must be non-negative")
        return cls(len(w), lambda s: float(min(cap, sum(w[i - 1] for i in s))))

    @classmethod
    def coverage(cls, element_sets: Sequence[Iterable[int]]) -> "SubmodularInstance":
        covers = [frozenset(e) for e in element_sets]
        return cls(
            len(covers),
            lambda s: float(len(frozenset().union(*(covers[i - 1] for i in s)) if s else ())),
        )


@dataclass(frozen=True)
class Selection:
    """A selected set with its objective value (and pick order for greedy)."""

    selected: frozenset[int]
    value: float
    order: tuple[int, ...] = ()


def _greedy(
    instance: SubmodularInstance, k: int, score: Callable[[frozenset, int], float]
) -> Selection:
    """Pick k elements, each maximising score(chosen, j); lowest index on ties."""
    if not 1 <= k <= instance.n:
        raise InvalidSpec(f"budget must be in [1, {instance.n}], got {k}")
    chosen: frozenset[int] = frozenset()
    order: list[int] = []
    for _ in range(k):
        best_elem, best_val = None, -math.inf
        for j in range(1, instance.n + 1):
            if j in chosen:
                continue
            v = score(chosen, j)
            if v > best_val:
                best_elem, best_val = j, v
        chosen = chosen | {best_elem}
        order.append(best_elem)
    return Selection(selected=chosen, value=instance.value(chosen), order=tuple(order))


def greedy(instance: SubmodularInstance, k: int) -> Selection:
    """Pick k elements by maximal value gain, lowest index on ties."""
    return _greedy(instance, k, lambda chosen, j: instance.value(chosen | {j}))


def brute_force_opt(instance: SubmodularInstance, k: int) -> Selection:
    """Exact max over all size-k subsets; first lexicographic argmax wins."""
    if not 1 <= k <= instance.n:
        raise InvalidSpec(f"budget must be in [1, {instance.n}], got {k}")
    if instance.n > _ENUM_CAP:
        raise InvalidSpec(f"enumeration capped at n={_ENUM_CAP}, got {instance.n}")
    best_set, best_val = None, -math.inf
    for combo in combinations(range(1, instance.n + 1), k):
        v = instance.value(combo)
        if v > best_val:
            best_set, best_val = frozenset(combo), v
    return Selection(selected=best_set, value=best_val)


class NoisyOracle:
    """Marginal-gain oracle with additive error bounded by eps.

    Queries are deterministic in (seed, set, element) so repeated queries
    agree.
    """

    def __init__(self, instance: SubmodularInstance, eps: float, seed: int = 0):
        if not (math.isfinite(eps) and eps >= 0):
            raise InvalidSpec(f"eps must be finite and >= 0, got {eps}")
        self.instance = instance
        self.eps = eps
        self.seed = seed

    def _unit_noise(self, subset: frozenset, element: int) -> float:
        payload = struct.pack(f"<q{len(subset) + 1}q", self.seed, *sorted(subset), element)
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        u = int.from_bytes(digest, "little") / 2**64
        return 2.0 * u - 1.0

    def query(self, subset: Iterable[int], element: int) -> float:
        s = frozenset(int(t) for t in subset)
        gain = self.instance.marginal(s, element)
        return gain + self.eps * self._unit_noise(s, element)


def robust_greedy(oracle: NoisyOracle, k: int) -> Selection:
    """Greedy on noisy marginal gains; value reported under the true f."""
    return _greedy(oracle.instance, k, oracle.query)


def robust_greedy_floor(opt_value: float, k: int, eps: float) -> float:
    """Guaranteed value under eps-noisy gains: (1-1/e)*opt - k(2-1/e)*eps."""
    return GREEDY_RATIO * opt_value - k * (2.0 - 1.0 / math.e) * eps


def _random_instance(rng: np.random.Generator) -> tuple[SubmodularInstance, int]:
    """A random modular, budget-additive or coverage instance on 6-12 elements, and a budget of 1-4."""
    n = int(rng.integers(6, 13))
    k = int(rng.integers(1, 5))
    kind = ("modular", "budget_additive", "coverage")[int(rng.integers(3))]
    if kind == "modular":
        inst = SubmodularInstance.modular(rng.random(n) * 10)
    elif kind == "budget_additive":
        inst = SubmodularInstance.budget_additive(rng.random(n) * 10, cap=float(rng.random() * 15))
    else:
        universe = int(rng.integers(5, 15))
        sets = [set(rng.choice(universe, size=rng.integers(1, universe), replace=False).tolist()) for _ in range(n)]
        inst = SubmodularInstance.coverage(sets)
    return inst, k


def verify_greedy(instances: int, eps: float, seed: int) -> dict:
    """Check greedy and robust greedy against brute force on random instances.

    Each instance counts a violation when greedy falls below ``GREEDY_RATIO``
    of the optimum, and another when robust greedy under an ``eps``-noisy
    oracle falls below :func:`robust_greedy_floor`. Returns the report:
    the instance count, ``eps``, the violations, the worst greedy/optimum
    ratio and the guarantee. Equal arguments give equal reports.
    """
    rng = np.random.default_rng(seed)
    violations = 0
    worst_ratio = 1.0
    for _ in range(instances):
        inst, k = _random_instance(rng)
        opt = brute_force_opt(inst, k)
        sel = greedy(inst, k)
        if opt.value > 0:
            worst_ratio = min(worst_ratio, sel.value / opt.value)
        if sel.value < GREEDY_RATIO * opt.value - 1e-9:
            violations += 1
        noisy = robust_greedy(NoisyOracle(inst, eps=eps, seed=int(rng.integers(2**62))), k)
        if noisy.value < robust_greedy_floor(opt.value, k, eps) - 1e-9:
            violations += 1
    return {
        "instances": instances,
        "noise_eps": eps,
        "violations": violations,
        "worst_ratio": worst_ratio,
        "guarantee": GREEDY_RATIO,
    }

"""Executable checks for greedy selection over submodular objectives.

Two layers:

* static instances (modular, budget-additive, coverage, concave-of-modular)
  with an exhaustive diminishing-returns certifier and a brute-force
  optimum, against which greedy's (1 - 1/e) guarantee and the noisy-oracle
  variant's degraded bound are verified;
* a noisy marginal-gain oracle with a bounded additive error, driving the
  robust greedy selection.

:func:`attention_score_instance` wraps a step's accumulated attention
scores as such an instance, which ties the lab to the decode engine's
eviction choice.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import BadBudget, InvalidSpec, TooLarge

__all__ = [
    "GREEDY_RATIO",
    "NoisyOracle",
    "Selection",
    "SubmodularInstance",
    "attention_score_instance",
    "brute_force_opt",
    "greedy",
    "robust_greedy",
    "robust_greedy_floor",
    "score_function",
]

GREEDY_RATIO = 1.0 - 1.0 / math.e

SCORE_FUNCTIONS: dict[str, Callable[[float], float]] = {
    "identity": lambda z: z,
    "sqrt1p": lambda z: math.sqrt(z + 1.0),
    "log1p": lambda z: math.log1p(z),
}


def score_function(kind: str) -> Callable[[float], float]:
    """Non-decreasing concave transform applied to summed scores."""
    try:
        return SCORE_FUNCTIONS[kind]
    except KeyError:
        raise InvalidSpec(f"unknown score function {kind!r}") from None


_ENUM_CAP = 22  # brute force enumerates C(n, k) subsets; keep n at desk scale


class SubmodularInstance:
    """Monotone submodular set function on ground set {1..n}, f(empty) = 0."""

    def __init__(self, n: int, evaluate: Callable[[frozenset], float], kind: str = "custom"):
        if n < 1:
            raise InvalidSpec("ground set must be non-empty")
        self.n = n
        self.kind = kind
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
        return cls(len(w), lambda s: float(sum(w[i - 1] for i in s)), kind="modular")

    @classmethod
    def budget_additive(cls, weights: Sequence[float], cap: float) -> "SubmodularInstance":
        w = np.asarray(weights, dtype=np.float64)
        if (w < 0).any() or cap < 0:
            raise InvalidSpec("weights and cap must be non-negative")
        return cls(
            len(w), lambda s: float(min(cap, sum(w[i - 1] for i in s))), kind="budget_additive"
        )

    @classmethod
    def coverage(cls, element_sets: Sequence[Iterable[int]]) -> "SubmodularInstance":
        covers = [frozenset(e) for e in element_sets]
        return cls(
            len(covers),
            lambda s: float(len(frozenset().union(*(covers[i - 1] for i in s)) if s else ())),
            kind="coverage",
        )

    @classmethod
    def concave_of_modular(
        cls, weights: Mapping[int, float] | Sequence[float], h: Callable[[float], float]
    ) -> "SubmodularInstance":
        """f(S) = h(sum of weights) - h(0) for a non-decreasing concave h."""
        if isinstance(weights, Mapping):
            tokens = sorted(weights)
            w = [float(weights[t]) for t in tokens]
        else:
            w = [float(x) for x in weights]
        if any(x < 0 for x in w):
            raise InvalidSpec("concave-of-modular weights must be non-negative")
        base = h(0.0)
        return cls(
            len(w), lambda s: float(h(sum(w[i - 1] for i in s)) - base), kind="concave_of_modular"
        )

    # -- certification ---------------------------------------------------------

    def _all_subsets(self, cap: int) -> list[frozenset]:
        if self.n > cap:
            raise TooLarge(f"exhaustive certification capped at n={cap}")
        universe = range(1, self.n + 1)
        return [frozenset(c) for r in range(self.n + 1) for c in combinations(universe, r)]

    def certify_submodular(self, cap: int = 8) -> bool:
        """Exhaustive diminishing-returns check; refuses ground sets > cap."""
        subsets = self._all_subsets(cap)
        for big in subsets:
            for small in subsets:
                if not small <= big:
                    continue
                for x in range(1, self.n + 1):
                    if x in big:
                        continue
                    lhs = self.value(small | {x}) - self.value(small)
                    rhs = self.value(big | {x}) - self.value(big)
                    if lhs < rhs - 1e-12:
                        return False
        return True

    def certify_monotone(self, cap: int = 8) -> bool:
        for s in self._all_subsets(cap):
            base = self.value(s)
            for x in range(1, self.n + 1):
                if x not in s and self.value(s | {x}) < base - 1e-12:
                    return False
        return True


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
        raise BadBudget(f"budget must be in [1, {instance.n}], got {k}")
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
        raise BadBudget(f"budget must be in [1, {instance.n}], got {k}")
    if instance.n > _ENUM_CAP:
        raise TooLarge(f"enumeration capped at n={_ENUM_CAP}, got {instance.n}")
    best_set, best_val = None, -math.inf
    for combo in combinations(range(1, instance.n + 1), k):
        v = instance.value(combo)
        if v > best_val:
            best_set, best_val = frozenset(combo), v
    return Selection(selected=best_set, value=best_val)


class NoisyOracle:
    """Marginal-gain oracle with additive error bounded by eps.

    Queries are deterministic in (seed, set, element) so repeated queries
    agree. ``adversarial=True`` pins every answer at an extreme edge
    (exactly +/- eps) instead of uniform noise.
    """

    def __init__(self, instance: SubmodularInstance, eps: float, seed: int = 0, adversarial: bool = False):
        if not (math.isfinite(eps) and eps >= 0):
            raise InvalidSpec(f"eps must be finite and >= 0, got {eps}")
        self.instance = instance
        self.eps = eps
        self.seed = seed
        self.adversarial = adversarial

    def _unit_noise(self, subset: frozenset, element: int) -> float:
        payload = struct.pack(f"<q{len(subset) + 1}q", self.seed, *sorted(subset), element)
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        u = int.from_bytes(digest, "little") / 2**64
        return 2.0 * u - 1.0

    def query(self, subset: Iterable[int], element: int) -> float:
        s = frozenset(int(t) for t in subset)
        gain = self.instance.marginal(s, element)
        unit = self._unit_noise(s, element)
        noise = self.eps * (math.copysign(1.0, unit) if self.adversarial else unit)
        return gain + noise


def robust_greedy(oracle: NoisyOracle, k: int) -> Selection:
    """Greedy on noisy marginal gains; value reported under the true f."""
    return _greedy(oracle.instance, k, oracle.query)


def robust_greedy_floor(opt_value: float, k: int, eps: float) -> float:
    """Guaranteed value under eps-noisy gains: (1-1/e)*opt - k(2-1/e)*eps."""
    return GREEDY_RATIO * opt_value - k * (2.0 - 1.0 / math.e) * eps


def attention_score_instance(
    scores: Mapping[int, float], score_fn: str = "identity"
) -> tuple[SubmodularInstance, list[int]]:
    """Wrap accumulated scores as a selection objective.

    Returns the instance over ground set {1..m} plus the token list mapping
    ground element j to its token. ``h(sum of scores)`` is shifted by
    ``-h(0)`` so the instance keeps f(empty) = 0; the shift never changes
    any argmax. With h = identity the objective is modular and greedy
    selection is exactly top-k by score.
    """
    tokens = sorted(scores)
    h = score_function(score_fn)
    weights = [scores[t] for t in tokens]
    return SubmodularInstance.concave_of_modular(weights, h), tokens

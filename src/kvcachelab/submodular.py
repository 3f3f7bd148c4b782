"""Executable checks for greedy selection over (dynamic) submodular objectives.

Three layers:

* static instances (modular, budget-additive, coverage, concave-of-modular)
  with an exhaustive diminishing-returns certifier and a brute-force
  optimum, against which greedy's (1 - 1/e) guarantee and the noisy-oracle
  variant's degraded bound are verified;
* a noisy marginal-gain oracle with a bounded additive error, driving the
  robust greedy selection;
* a step-indexed family of set functions over a growing ground set, with a
  condition checker that replays the induction argument behind running
  greedy under drift: if per-step monotonicity, bounded per-step value
  drift (theta), bounded optimum drift (gamma) and bounded approximation
  error (eps0) all hold, the selected sets keep value at least
  (1 - 1/e) * (1-theta)^i * (1-gamma)^i * opt_i - i*eps0.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import BadBudget, InvalidSpec, SequenceViolation, TooLarge

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

    def certify_submodular(self, cap: int = 8) -> bool:
        """Exhaustive diminishing-returns check; refuses ground sets > cap."""
        if self.n > cap:
            raise TooLarge(f"exhaustive certification capped at n={cap}")
        universe = range(1, self.n + 1)
        subsets = [frozenset(c) for r in range(self.n + 1) for c in combinations(universe, r)]
        for big in subsets:
            for small in subsets:
                if not small <= big:
                    continue
                for x in universe:
                    if x in big:
                        continue
                    lhs = self.value(small | {x}) - self.value(small)
                    rhs = self.value(big | {x}) - self.value(big)
                    if lhs < rhs - 1e-12:
                        return False
        return True

    def certify_monotone(self, cap: int = 8) -> bool:
        if self.n > cap:
            raise TooLarge(f"exhaustive certification capped at n={cap}")
        universe = range(1, self.n + 1)
        subsets = [frozenset(c) for r in range(self.n + 1) for c in combinations(universe, r)]
        for s in subsets:
            base = self.value(s)
            for x in universe:
                if x not in s and self.value(s | {x}) < base - 1e-12:
                    return False
        return True


@dataclass(frozen=True)
class Selection:
    """A selected set with its objective value (and pick order for greedy)."""

    selected: frozenset[int]
    value: float
    order: tuple[int, ...] = ()


def greedy(instance: SubmodularInstance, k: int) -> Selection:
    """Pick k elements by maximal value gain, lowest index on ties."""
    if not 1 <= k <= instance.n:
        raise BadBudget(f"budget must be in [1, {instance.n}], got {k}")
    chosen: frozenset[int] = frozenset()
    order: list[int] = []
    for _ in range(k):
        best_elem, best_val = None, -math.inf
        for j in range(1, instance.n + 1):
            if j in chosen:
                continue
            v = instance.value(chosen | {j})
            if v > best_val:
                best_elem, best_val = j, v
        chosen = chosen | {best_elem}
        order.append(best_elem)
    return Selection(selected=chosen, value=instance.value(chosen), order=tuple(order))


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
        if eps < 0:
            raise InvalidSpec("eps must be >= 0")
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
    instance = oracle.instance
    if not 1 <= k <= instance.n:
        raise BadBudget(f"budget must be in [1, {instance.n}], got {k}")
    chosen: frozenset[int] = frozenset()
    order: list[int] = []
    for _ in range(k):
        best_elem, best_val = None, -math.inf
        for j in range(1, instance.n + 1):
            if j in chosen:
                continue
            v = oracle.query(chosen, j)
            if v > best_val:
                best_elem, best_val = j, v
        chosen = chosen | {best_elem}
        order.append(best_elem)
    return Selection(selected=chosen, value=instance.value(chosen), order=tuple(order))


def robust_greedy_floor(opt_value: float, k: int, eps: float) -> float:
    """Guaranteed value under eps-noisy gains: (1-1/e)*opt - k(2-1/e)*eps."""
    return GREEDY_RATIO * opt_value - k * (2.0 - 1.0 / math.e) * eps


# --- dynamic families -----------------------------------------------------------

class DynamicFamily:
    """Step-indexed set functions F(Z, i, T) over a growing ground set.

    At step i the conditioning set Z is the current selection (a subset of
    {1..i-1}) and T ranges over subsets of {1..i}. ``approx`` is an optional
    inexact evaluator standing in for a score oracle with bounded error.
    """

    def __init__(
        self,
        n: int,
        exact: Callable[[frozenset, int, frozenset], float],
        approx: Callable[[frozenset, int, frozenset], float] | None = None,
    ):
        self.n = n
        self._exact = exact
        self._approx = approx

    def exact(self, conditioning: frozenset, i: int, subset: frozenset) -> float:
        return float(self._exact(conditioning, i, subset))

    def approx(self, conditioning: frozenset, i: int, subset: frozenset) -> float:
        if self._approx is None:
            return self.exact(conditioning, i, subset)
        return float(self._approx(conditioning, i, subset))


def expand_sequence(family: DynamicFamily, k: int, use_approx: bool = False) -> list[frozenset]:
    """Run the one-in/one-out greedy construction over all n steps.

    Returns [S_1, ..., S_n] with S_i a subset of {1..i-1}: below budget the
    incoming token joins outright; at budget the kept set maximizes the
    (approximate) step function over single-removal candidates, which may
    refuse the incoming token itself.
    """
    evaluate = family.approx if use_approx else family.exact
    sets: list[frozenset] = []
    current: frozenset = frozenset()
    for i in range(1, family.n + 1):
        sets.append(current)
        grown = current | {i}
        if len(current) < k:
            current = grown
            continue
        best_keep, best_val = None, -math.inf
        for victim in sorted(grown):
            keep = grown - {victim}
            v = evaluate(current, i, keep)
            if v > best_val:
                best_keep, best_val = keep, v
        current = best_keep
    return sets


def dynamic_opt(family: DynamicFamily, i: int, k: int) -> float:
    """Best f_{X,i}(Y) over X within {1..i-1}, Y within {1..i}, |Y \\ X| <= 1.

    Exhaustive by design; sizes are capped by the budget so desk-scale
    families stay enumerable.
    """
    best = -math.inf
    prior = list(range(1, i))
    for r in range(min(k, len(prior)) + 1):
        for xs in combinations(prior, r):
            x = frozenset(xs)
            newcomers = [None] + [e for e in range(1, i + 1) if e not in x]
            for extra in newcomers:
                for q in range(len(x) + 1):
                    for kept in combinations(sorted(x), q):
                        y = frozenset(kept) | ({extra} if extra is not None else frozenset())
                        if len(y) > k:
                            continue
                        v = family.exact(x, i, y)
                        if v > best:
                            best = v
    return best


@dataclass(frozen=True)
class StepConditions:
    """Condition verdicts and the value-trajectory check at one step."""

    index: int
    set_ok: bool
    budget_ok: bool
    delta_ok: bool
    monotone_ok: bool
    dynamic1_ok: bool
    dynamic2_ok: bool
    approx_ok: bool
    value: float
    bound: float
    value_ok: bool

    @property
    def conditions_ok(self) -> bool:
        return (
            self.set_ok
            and self.budget_ok
            and self.delta_ok
            and self.monotone_ok
            and self.dynamic1_ok
            and self.dynamic2_ok
            and self.approx_ok
        )


@dataclass(frozen=True)
class DynamicConditionReport:
    steps: tuple[StepConditions, ...]
    theta: float
    gamma: float
    eps0: float

    @property
    def all_conditions_ok(self) -> bool:
        return all(s.conditions_ok for s in self.steps)

    @property
    def trajectory_ok(self) -> bool:
        return all(s.value_ok for s in self.steps)

    def first_violation(self) -> tuple[int, str] | None:
        for s in self.steps:
            for name in ("set", "budget", "delta", "monotone", "dynamic1", "dynamic2", "approx", "value"):
                if not getattr(s, f"{name}_ok"):
                    return s.index, name
        return None


def _monotone_pointwise(family: DynamicFamily, conditioning: frozenset, i: int, k: int) -> bool:
    """Monotonicity of f_{S_i,i} over the budget-relevant range (|X| <= k+1)."""
    universe = range(1, i + 1)
    for r in range(min(k + 1, i) + 1):
        for xs in combinations(universe, r):
            x = frozenset(xs)
            base = family.exact(conditioning, i, x)
            for e in x:
                if family.exact(conditioning, i, x - {e}) > base + 1e-12:
                    return False
    return True


def check_dynamic_conditions(
    family: DynamicFamily,
    sets: Sequence[frozenset],
    k: int,
    theta: float,
    gamma: float,
    eps0: float = 0.0,
    start_index: int = 1,
    check_monotone: bool = True,
) -> DynamicConditionReport:
    """Verify the drift conditions and the implied value trajectory.

    ``sets[j]`` is the selection entering step ``start_index + j``. Per-step
    checks: the set lives in the allowed prefix within budget and moves by
    at most one element; the step function is monotone over the relevant
    range; the step value has not sagged by more than theta relative to the
    previous step's function; the enumerated optimum has not grown faster
    than 1/(1-gamma); the approximate evaluator stays within eps0 below the
    exact one. The value trajectory check compares each step's achieved
    value (the first step is self-evaluated as the induction base) against
    (1-1/e) * (1-theta)^i * (1-gamma)^i * opt_i - i*eps0.

    Raises SequenceViolation when consecutive sets differ by more than one
    new element (the one-in/one-out contract).
    """
    if not sets:
        raise InvalidSpec("need at least one step")
    opts = {}
    for j, s in enumerate(sets):
        i = start_index + j
        opts[i] = dynamic_opt(family, i, k)
    results: list[StepConditions] = []
    for j, s in enumerate(sets):
        i = start_index + j
        prev = sets[j - 1] if j > 0 else None
        set_ok = all(1 <= t <= i - 1 for t in s)
        budget_ok = len(s) <= k
        if prev is not None and len(s - prev) > 1:
            raise SequenceViolation(f"step {i}: set gained {len(s - prev)} elements")
        delta_ok = prev is None or len(s - prev) <= 1
        monotone_ok = (not check_monotone) or _monotone_pointwise(family, s, i, k)
        if prev is None:
            dynamic1_ok = True
            value = family.exact(s, i, s)
        else:
            prev_val = family.exact(prev, i - 1, s)
            cur_val = family.exact(s, i, s)
            dynamic1_ok = cur_val >= (1.0 - theta) * prev_val - 1e-12
            value = prev_val
        nxt = start_index + j + 1
        if nxt in opts:
            dynamic2_ok = opts[i] >= (1.0 - gamma) * opts[nxt] - 1e-12
        else:
            dynamic2_ok = True
        approx_ok = True
        if family._approx is not None:
            universe = range(1, i + 1)
            for r in range(min(k, i) + 1):
                for xs in combinations(universe, r):
                    x = frozenset(xs)
                    if family.exact(s, i, x) < family.approx(s, i, x) - eps0 - 1e-12:
                        approx_ok = False
                        break
                if not approx_ok:
                    break
        bound = GREEDY_RATIO * (1.0 - theta) ** i * (1.0 - gamma) ** i * opts[i] - i * eps0
        value_ok = value >= bound - 1e-12
        results.append(
            StepConditions(
                index=i,
                set_ok=set_ok,
                budget_ok=budget_ok,
                delta_ok=delta_ok,
                monotone_ok=monotone_ok,
                dynamic1_ok=dynamic1_ok,
                dynamic2_ok=dynamic2_ok,
                approx_ok=approx_ok,
                value=value,
                bound=bound,
                value_ok=value_ok,
            )
        )
    return DynamicConditionReport(steps=tuple(results), theta=theta, gamma=gamma, eps0=eps0)


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

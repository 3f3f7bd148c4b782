"""Budget-constrained KV-cache decoding with pluggable eviction policies.

The library simulates transformer decode steps over recorded or synthetic
(Q, K) traces while a fixed-size cache evicts at most one token per step,
measures what each policy destroys relative to full attention, and ships an
executable verification lab for greedy's guarantees on static submodular
objectives and the softmax-regression numerics that motivate heavy-hitter
caching.

One decode path carries every result: :func:`run_policies` keeps the cache
in slot-aligned arrays, steps any number of (policy, budget) cells over one
trace in one pass (:func:`run_policy` is its one-cell call) and returns each
cell's eviction schedule ``evicted_at`` (the step at which each token left
the cache), and :func:`deviation_reports` scores any number of schedules
against the exact attention map in one pass over its causal row blocks;
:func:`heavy_hitter_profile` reads full attention's accumulated scores off
the same blocks.

Every export loads on first use, so ``import kvcachelab`` imports neither
numpy nor any submodule until a name is asked for.
"""

import importlib

__version__ = "0.1.0"

# module -> the names the package re-exports from it: the one export list
_EXPORTS = {
    "errors": ("KVCacheLabError",),
    "metrics": ("DeviationReport", "HeavyHitterProfile", "deviation_reports", "heavy_hitter_profile", "trace_sparsity"),
    "policies": ("POLICY_KINDS", "PolicyConfig", "decide", "run_policies", "run_policy"),
    "trace": ("AttentionTrace", "SyntheticTraceSpec", "generate_trace", "load_trace", "save_trace"),
    "regression": ("LossBreakdown", "NewtonResult", "RegressionProblem", "gradient", "hessian", "loss",
                   "newton_solve", "random_problem"),
    "submodular": ("GREEDY_RATIO", "NoisyOracle", "Selection", "SubmodularInstance", "brute_force_opt", "greedy",
                   "robust_greedy", "robust_greedy_floor", "verify_greedy"),
}
_LAB = ("regression", "submodular")  # the theory lab, which the decode commands never load
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# a star import loads the decode modules, not the lab
__all__ = [name for module, names in _EXPORTS.items() if module not in _LAB for name in names]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        value = globals()[name] = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Budget-constrained KV-cache decoding with pluggable eviction policies.

The library simulates transformer decode steps over recorded or synthetic
(Q, K) traces while a fixed-size cache evicts at most one token per step,
measures what each policy destroys relative to full attention, and ships an
executable verification lab for greedy's guarantees on static submodular
objectives and the softmax-regression numerics that motivate heavy-hitter
caching.

One decode path carries every result: :func:`run_policies` keeps the cache
in slot-aligned arrays, steps any number of (policy, budget) cells over one
trace in one pass (:func:`run_policy` is its one-cell call) and records each
cell's eviction schedule (the step at which each token left the cache), and
:mod:`kvcachelab.metrics` scores any number of schedules against the exact
attention map, which :func:`exact_blocks` yields in causal row blocks.
"""

import importlib

from .attention import exact_blocks
from .errors import KVCacheLabError
from .metrics import (
    DeviationReport,
    GoodDistributionCheck,
    HeavyHitterProfile,
    QuantizationSpec,
    SparsityReport,
    check_good_distribution,
    heavy_hitter_profile,
    retained_mass,
    trace_sparsity,
)
from .policies import (
    POLICY_KINDS,
    PolicyConfig,
    SimulationRecord,
    decide,
    run_policies,
    run_policy,
)
from .trace import (
    AttentionTrace,
    SyntheticTraceSpec,
    generate_trace,
    load_trace,
    save_trace,
)

__version__ = "0.1.0"

# The theory lab loads on first use, so the decode commands never import it;
# each lab module's __all__ names what the package re-exports from it.
_LAB_MODULES = ("regression", "submodular")


def __getattr__(name: str):
    if not name.startswith("_"):
        for lab in _LAB_MODULES:
            module = importlib.import_module(f".{lab}", __name__)
            if name in module.__all__:
                value = globals()[name] = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Budget-constrained KV-cache decoding with pluggable eviction policies.

The library simulates transformer decode steps over recorded or synthetic
(Q, K) traces while a fixed-size cache evicts at most one token per step,
measures what each policy destroys relative to full attention, and ships an
executable verification lab for greedy's guarantees on static submodular
objectives and the softmax-regression numerics that motivate heavy-hitter
caching.

One decode path carries every result: :func:`run_policy` keeps the cache as
per-token arrays and records its eviction schedule (one event per step, and
the step at which each token left), and :mod:`kvcachelab.metrics` scores any
number of schedules against the exact attention map, which
:func:`exact_blocks` yields in causal row blocks.
"""

from .attention import exact_blocks
from .errors import KVCacheLabError
from .metrics import (
    DeviationReport,
    GoodDistributionCheck,
    HeavyHitterProfile,
    MemoryFootprint,
    QuantizationSpec,
    SparsityReport,
    check_good_distribution,
    heavy_hitter_profile,
    memory_footprint,
    retained_mass,
    trace_sparsity,
)
from .policies import (
    POLICY_KINDS,
    EvictionEvent,
    PolicyConfig,
    SimulationRecord,
    decide,
    events_to_jsonl,
    run_policy,
)
from .regression import (
    LossBreakdown,
    NewtonResult,
    RegressionProblem,
    check_hessian_lipschitz,
    gradient,
    hessian,
    loss,
    newton_solve,
    random_problem,
)
from .submodular import (
    GREEDY_RATIO,
    NoisyOracle,
    Selection,
    SubmodularInstance,
    attention_score_instance,
    brute_force_opt,
    greedy,
    robust_greedy,
    robust_greedy_floor,
    score_function,
)
from .trace import (
    AttentionTrace,
    SyntheticTraceSpec,
    generate_trace,
    load_trace,
    save_trace,
)

__version__ = "0.1.0"

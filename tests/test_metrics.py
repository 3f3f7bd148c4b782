"""Sparsity, deviation, heavy-hitter profile and memory accounting."""

import numpy as np
import pytest

import kvcachelab as kl
import reference_engine as ref
from kvcachelab.errors import InvalidSpec
from kvcachelab.metrics import trace_sparsity
from kvcachelab.trace import TRACE_KINDS


def _one_hot_trace(n, gain=10.0):
    """Rows attend (almost) only to themselves: Q_i . K_j = gain^2 * [i == j]."""
    eye = np.eye(n) * gain
    return kl.AttentionTrace(q=eye, k=eye)


# --- trace sparsity ------------------------------------------------------------

def test_trace_sparsity_one_hot_rows():
    n = 64
    per_row = trace_sparsity(_one_hot_trace(n), threshold_frac=0.01)
    # every padded row has n-1 entries below threshold out of n
    np.testing.assert_allclose(per_row, (n - 1) / n, atol=1e-12)


@pytest.mark.parametrize("kind", TRACE_KINDS)
def test_trace_sparsity_matches_row_loop(kind):
    # n = 257 spans three exact blocks, the last one partial
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=257, d=16, kind=kind, seed=4))
    for frac in (0.01, 0.2):
        assert np.array_equal(trace_sparsity(t, frac), ref.trace_sparsity(t, frac))


@pytest.mark.parametrize("frac", [0.0, 1.0, 1.5])
def test_trace_sparsity_rejects_threshold_outside_unit_interval(frac):
    with pytest.raises(InvalidSpec):
        trace_sparsity(_one_hot_trace(4), threshold_frac=frac)


# --- retained mass / TV ----------------------------------------------------------

def test_full_policy_has_null_deviation():
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=20, d=4, seed=1))
    rep = kl.deviation_reports(t, [kl.run_policy(t, kl.PolicyConfig(kind="topk", budget=20))])[0]
    np.testing.assert_allclose(rep.retained, 1.0, atol=1e-12)
    np.testing.assert_allclose(rep.tv, 0.0, atol=1e-12)
    assert rep.mean_retained == pytest.approx(1.0)


def test_schedule_that_evicts_nothing_is_exactly_full_attention():
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=300, d=8, kind="power-law-keys", seed=2))
    local = kl.run_policy(t, kl.PolicyConfig(kind="local", budget=30))
    full, shared = kl.deviation_reports(t, [np.full(t.n, t.n + 1), local])
    assert (full.retained == 1.0).all() and (full.tv == 0.0).all() and not np.signbit(full.tv).any()
    # a run's numbers do not depend on which runs share the pass
    alone = kl.deviation_reports(t, [local])[0]
    assert shared.retained.tobytes() == alone.retained.tobytes() and shared.tv.tobytes() == alone.tv.tobytes()


@pytest.mark.parametrize("first", [127, 128])
def test_first_eviction_at_the_edge_of_an_exact_block(first):
    # n = 257 gives 127-row exact blocks: the first eviction lands on the
    # first block's last row (step 127) or on the next block's first row
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=257, d=8, kind="power-law-keys", seed=4))
    cfg = kl.PolicyConfig(kind="local", budget=first - 1)
    rep = kl.deviation_reports(t, [kl.run_policy(t, cfg)])[0]
    # nothing is gone before the first eviction, and token 1's mass is from it on
    assert (rep.tv[:first - 1] == 0.0).all() and rep.tv[first - 1] > 0.0
    _, tv = ref.retained_mass(t, ref.run_policy(t, cfg))
    np.testing.assert_allclose(rep.tv, tv, rtol=0, atol=64 * np.finfo(np.float64).eps)


def test_singleton_cache_retained_mass_is_self_weight():
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=12, d=4, seed=5))
    rep = kl.deviation_reports(t, [kl.run_policy(t, kl.PolicyConfig(kind="local", budget=1))])[0]
    for i in range(1, 13):
        self_weight = ref.softmax_over(t, i, np.arange(1, i + 1))[-1]
        assert rep.retained[i - 1] == pytest.approx(self_weight, abs=1e-12)
        assert 0.0 < rep.retained[i - 1] <= 1.0
        assert 0.0 <= rep.tv[i - 1] < 1.0


def test_trace_mismatch_detected():
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=12, d=4, seed=5))
    other = kl.generate_trace(kl.SyntheticTraceSpec(n=10, d=4, seed=5))
    evicted_at = kl.run_policy(t, kl.PolicyConfig(kind="local", budget=3))
    with pytest.raises(InvalidSpec):
        kl.deviation_reports(other, [evicted_at])


def test_h2o_beats_local_on_power_law_trace():
    t = kl.generate_trace(
        kl.SyntheticTraceSpec(n=256, d=16, kind="power-law-keys", power_exponent=1.0, seed=3)
    )
    k = 51
    h2o, loc = kl.deviation_reports(t, kl.run_policies(t, [kl.PolicyConfig(kind="h2o", budget=k),
                                                             kl.PolicyConfig(kind="local", budget=k)]))
    assert h2o.mean_retained > loc.mean_retained


def test_retained_mass_never_negative():
    # off-cache exact mass rounds above 1 at step 4 of this run (1 - off
    # gives -2.2e-16 there); the retained mass is clamped to 0
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=4, d=2, kind="power-law-keys", seed=17))
    rep = kl.deviation_reports(t, [kl.run_policy(t, kl.PolicyConfig(kind="local", budget=1))])[0]
    assert (rep.retained >= 0.0).all()
    assert rep.retained[3] == 0.0


# --- heavy-hitter profile ----------------------------------------------------------

# The profile sums GEMM blocks of exact weights where a decode adds one gemv
# softmax per step, so a token's score may differ from the decode's in the
# last bits, by up to a few ulps per step it accumulates over; bounded here
# from the dtype and n alone, absolute on each token's score (a relative
# bound fails on tiny scores).
def profile_atol(n):
    return 64 * n * np.finfo(np.float64).eps


def _full_scores(trace):
    """Full attention's accumulated scores, from the oracle's decode."""
    # a window as long as the trace evicts nothing
    return ref.run_policy(trace, kl.PolicyConfig(kind="local", budget=trace.n)).final_scores


@pytest.mark.parametrize("n", [1, 257])  # 257: three exact blocks, the last one partial
@pytest.mark.parametrize("kind", TRACE_KINDS)
def test_profile_scores_match_a_full_attention_decode(kind, n):
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=n, d=64, kind=kind, seed=6))
    profile = kl.heavy_hitter_profile(t)
    want = _full_scores(t)
    assert sorted(profile.tokens.tolist()) == sorted(want) == list(range(1, n + 1))
    # per token, not per rank: near-ties may order the ranks differently
    gap = np.abs(profile.curve - [want[tok] for tok in profile.tokens.tolist()])
    assert gap.max() <= profile_atol(n)


def test_profile_uniform_trace_top_decile_near_ten_percent():
    # exactly uniform attention: all logits zero
    t = kl.AttentionTrace(q=np.zeros((128, 4)), k=np.zeros((128, 4)))
    profile = kl.heavy_hitter_profile(t)
    assert profile.top_shares[0.10] == pytest.approx(0.10, abs=0.02)
    assert profile.top_shares[1.0] == pytest.approx(1.0, abs=1e-9)


def test_profile_power_law_concentration():
    t = kl.generate_trace(
        kl.SyntheticTraceSpec(n=128, d=16, kind="power-law-keys", power_exponent=1.0, seed=0)
    )
    profile = kl.heavy_hitter_profile(t)
    assert profile.top_shares[0.10] > 0.5
    assert profile.curve.shape == (128,)
    assert (np.diff(profile.normalized) <= 1e-12).all()  # sorted descending


def test_profile_single_token():
    t = kl.AttentionTrace(q=np.ones((1, 2)), k=np.ones((1, 2)))
    profile = kl.heavy_hitter_profile(t)
    assert profile.top_shares[0.10] == pytest.approx(1.0)


# --- (alpha, tau, k)-good support families ----------------------------------------------
#
# A family of non-negative vectors is (alpha, tau, k)-good for a core set S_0
# of size k when every vector's tau-support {j : v_j >= tau} contains S_0 and
# exceeds it by at most alpha*k coordinates. Then S_0 survives the
# intersection of the supports, and their union exceeds S_0 by at most
# alpha*k per vector.

def _support(v, tau):
    return {int(j) + 1 for j in np.flatnonzero(v >= tau)}


def test_good_distribution_clean_case():
    core = {2, 5}
    samples = [np.array([0.0, 0.5, 0.0, 0.0, 0.9, 0.0]) for _ in range(4)]  # the support is inclusive
    supports = [_support(v, 0.5) for v in samples]
    assert all(s == core for s in supports)
    assert set.union(*supports) - core == set()


def test_good_distribution_missing_core_coordinate():
    core = {2, 5}
    good = np.array([0.0, 0.8, 0.0, 0.0, 0.9, 0.0])
    bad = np.array([0.0, 0.8, 0.0, 0.0, 0.1, 0.0])  # coordinate 5 below tau
    assert not core <= set.intersection(*(_support(v, 0.5) for v in (good, bad)))


def test_good_distribution_matches_bruteforce_on_random_instances():
    rng = np.random.default_rng(12)
    for _ in range(50):
        m = int(rng.integers(4, 21))
        n_samples = int(rng.integers(1, 12))
        tau = float(rng.uniform(0.2, 0.8))
        alpha = float(rng.uniform(0.0, 2.0))
        core = set(int(x) + 1 for x in rng.choice(m, size=rng.integers(1, min(m, 5) + 1), replace=False))
        outside = np.array([j for j in range(1, m + 1) if j not in core], dtype=np.int64)
        k = len(core)
        samples = []
        for _ in range(n_samples):
            # a good sample: the core above tau, at most alpha*k others at it
            v = rng.random(m) * tau
            v[[j - 1 for j in core]] = tau + rng.random(k)
            extra = rng.choice(outside, size=rng.integers(0, min(len(outside), int(alpha * k)) + 1), replace=False)
            v[extra - 1] = tau
            samples.append(v)
        supports = [_support(v, tau) for v in samples]
        assert all(core <= s and len(s - core) <= alpha * k for s in supports)
        assert core <= set.intersection(*supports)
        assert len(set.union(*supports) - core) <= alpha * k * n_samples

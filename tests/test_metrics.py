"""Sparsity, deviation, heavy-hitter profile and memory accounting."""

import numpy as np
import pytest

import kvcachelab as kl
import reference_engine as ref
from kvcachelab.errors import DimensionMismatch, InvalidSpec, TraceMismatch
from kvcachelab.metrics import support_at, trace_sparsity
from kvcachelab.trace import TRACE_KINDS


def _one_hot_trace(n, gain=10.0):
    """Rows attend (almost) only to themselves: Q_i . K_j = gain^2 * [i == j]."""
    eye = np.eye(n) * gain
    return kl.AttentionTrace(q=eye, k=eye)


# --- trace sparsity ------------------------------------------------------------

def test_trace_sparsity_one_hot_rows():
    n = 64
    report = trace_sparsity(_one_hot_trace(n), threshold_frac=0.01)
    # every padded row has n-1 entries below threshold out of n
    np.testing.assert_allclose(report.per_row, (n - 1) / n, atol=1e-12)
    assert report.mean == pytest.approx((n - 1) / n)


@pytest.mark.parametrize("kind", TRACE_KINDS)
def test_trace_sparsity_matches_row_loop(kind):
    # n = 257 spans three exact blocks, the last one partial
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=257, d=16, kind=kind, seed=4))
    for frac in (0.01, 0.2):
        assert np.array_equal(trace_sparsity(t, frac).per_row, ref.trace_sparsity(t, frac))


@pytest.mark.parametrize("frac", [0.0, 1.0, 1.5])
def test_trace_sparsity_rejects_threshold_outside_unit_interval(frac):
    with pytest.raises(InvalidSpec):
        trace_sparsity(_one_hot_trace(4), threshold_frac=frac)


# --- retained mass / TV ----------------------------------------------------------

def test_full_policy_has_null_deviation():
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=20, d=4, seed=1))
    rec = kl.run_policy(t, kl.PolicyConfig(kind="topk", budget=20))
    rep = kl.retained_mass(t, rec)
    np.testing.assert_allclose(rep.retained, 1.0, atol=1e-12)
    np.testing.assert_allclose(rep.tv, 0.0, atol=1e-12)
    assert rep.mean_retained == pytest.approx(1.0)


def test_singleton_cache_retained_mass_is_self_weight():
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=12, d=4, seed=5))
    rec = kl.run_policy(t, kl.PolicyConfig(kind="local", budget=1))
    rep = kl.retained_mass(t, rec)
    for i in range(1, 13):
        self_weight = ref.softmax_over(t, i, np.arange(1, i + 1))[-1]
        assert rep.retained[i - 1] == pytest.approx(self_weight, abs=1e-12)
        assert 0.0 < rep.retained[i - 1] <= 1.0
        assert 0.0 <= rep.tv[i - 1] < 1.0


def test_trace_mismatch_detected():
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=12, d=4, seed=5))
    other = kl.generate_trace(kl.SyntheticTraceSpec(n=10, d=4, seed=5))
    rec = kl.run_policy(t, kl.PolicyConfig(kind="local", budget=3))
    with pytest.raises(TraceMismatch):
        kl.retained_mass(other, rec)


def test_h2o_beats_local_on_power_law_trace():
    t = kl.generate_trace(
        kl.SyntheticTraceSpec(n=256, d=16, kind="power-law-keys", power_exponent=1.0, seed=3)
    )
    k = 51
    h2o = kl.retained_mass(t, kl.run_policy(t, kl.PolicyConfig(kind="h2o", budget=k)))
    loc = kl.retained_mass(t, kl.run_policy(t, kl.PolicyConfig(kind="local", budget=k)))
    assert h2o.mean_retained > loc.mean_retained


def test_retained_mass_never_negative():
    # off-cache exact mass rounds above 1 at step 4 of this run (1 - off
    # gives -2.2e-16 there); the retained mass is clamped to 0
    t = kl.generate_trace(kl.SyntheticTraceSpec(n=4, d=2, kind="power-law-keys", seed=17))
    rep = kl.retained_mass(t, kl.run_policy(t, kl.PolicyConfig(kind="local", budget=1)))
    assert (rep.retained >= 0.0).all()
    assert rep.retained[3] == 0.0


# --- heavy-hitter profile ----------------------------------------------------------

def _full_scores(trace):
    # a window as long as the trace evicts nothing
    rec = kl.run_policy(trace, kl.PolicyConfig(kind="local", budget=trace.n))
    return rec.final_scores


def test_profile_uniform_trace_top_decile_near_ten_percent():
    # exactly uniform attention: all logits zero
    t = kl.AttentionTrace(q=np.zeros((128, 4)), k=np.zeros((128, 4)))
    profile = kl.heavy_hitter_profile(_full_scores(t), 128)
    assert profile.share(0.10) == pytest.approx(0.10, abs=0.02)
    assert profile.top_shares[1.0] == pytest.approx(1.0, abs=1e-9)


def test_profile_power_law_concentration():
    t = kl.generate_trace(
        kl.SyntheticTraceSpec(n=128, d=16, kind="power-law-keys", power_exponent=1.0, seed=0)
    )
    profile = kl.heavy_hitter_profile(_full_scores(t), 128)
    assert profile.share(0.10) > 0.5
    assert profile.curve.shape == (128,)
    assert (np.diff(profile.normalized) <= 1e-12).all()  # sorted descending


def test_profile_single_token():
    t = kl.AttentionTrace(q=np.ones((1, 2)), k=np.ones((1, 2)))
    profile = kl.heavy_hitter_profile(_full_scores(t), 1)
    assert profile.share(0.10) == pytest.approx(1.0)


# --- (alpha, tau, k)-good support checks -----------------------------------------------

def test_good_distribution_clean_case():
    core = {2, 5}
    samples = [np.array([0.0, 0.8, 0.0, 0.0, 0.9, 0.0]) for _ in range(4)]
    check = kl.check_good_distribution(samples, core, tau=0.5, alpha=0.5)
    assert check.all_good and check.intersection_ok and check.union_ok
    assert check.union_excess == 0


def test_good_distribution_missing_core_coordinate():
    core = {2, 5}
    bad = np.array([0.0, 0.8, 0.0, 0.0, 0.1, 0.0])  # coordinate 5 below tau
    check = kl.check_good_distribution([bad], core, tau=0.5, alpha=0.5)
    assert not check.all_good
    assert check.core_ok == (False,)


def test_good_distribution_matches_bruteforce_on_random_instances():
    rng = np.random.default_rng(12)
    for _ in range(50):
        m = int(rng.integers(4, 21))
        n_samples = int(rng.integers(1, 12))
        tau = float(rng.uniform(0.2, 0.8))
        alpha = float(rng.uniform(0.0, 2.0))
        core = set(int(x) + 1 for x in rng.choice(m, size=rng.integers(1, min(m, 5) + 1), replace=False))
        samples = [rng.random(m) * (rng.random(m) < 0.4) for _ in range(n_samples)]
        check = kl.check_good_distribution(samples, core, tau=tau, alpha=alpha)
        # naive per-element double loop
        union_excess = 0
        seen = set()
        for v, c_ok, e_ok, e_cnt in zip(samples, check.core_ok, check.excess_ok, check.excess_counts):
            supp = {j + 1 for j in range(m) if v[j] >= tau}
            assert c_ok == core.issubset(supp)
            excess = {j for j in supp if j not in core}
            assert e_cnt == len(excess)
            assert e_ok == (len(excess) <= alpha * len(core))
            seen |= excess
        assert check.union_excess == len(seen)
        assert check.union_ok == (len(seen) <= alpha * len(core) * n_samples)


def test_good_distribution_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        kl.check_good_distribution([np.zeros(3), np.zeros(4)], {1}, tau=0.5, alpha=1.0)


def test_support_at_inclusive():
    assert support_at(np.array([0.5, 0.49]), 0.5) == frozenset({1})

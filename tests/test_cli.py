"""Command-line workflows: outputs, exit codes, reproducibility."""

import argparse
import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import kvcachelab as kl
from kvcachelab.cli import build_parser, main, resolve_budget, write_csv
from kvcachelab.trace import TRACE_KINDS
from test_trace import MALFORMED_JSON, dominant_key_trace


def run(*argv) -> int:
    return main([str(a) for a in argv])


def _gen(tmp_path, name="t.kvt", kind="power-law-keys", n=48, d=8, seed=5):
    path = tmp_path / name
    assert run("gen-trace", "--n", n, "--d", d, "--kind", kind, "--seed", seed,
               "--out", path, "--out-dir", tmp_path / "gen") == 0
    return path


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_budget_flag_forms():
    assert resolve_budget("64", 100) == 64
    assert resolve_budget("20%", 100) == 20
    assert resolve_budget("20%", 256) == 51
    assert resolve_budget("1%", 50) == 2  # floored, minimum 2
    # floored exactly, where float arithmetic lands just below the integer
    for n in (100, 200):
        for pct in (29, 57, 58):
            assert resolve_budget(f"{pct}%", n) == pct * n // 100
    assert resolve_budget("0.29%", 10000) == 29
    assert resolve_budget("12.5%", 80) == 10
    with pytest.raises(Exception):
        resolve_budget("zap", 100)


def test_gen_trace_deterministic(tmp_path):
    a = _gen(tmp_path, "a.kvt")
    b = _gen(tmp_path, "b.kvt")
    assert a.read_bytes() == b.read_bytes()


def test_simulate_full_policy_all_retained(tmp_path):
    trace = _gen(tmp_path)
    out = tmp_path / "sim"
    assert run("simulate", "--trace", trace, "--policy", "h2o", "--budget", "100%",
               "--out-dir", out) == 0
    rows = _read_csv(out / "simulate.steps.csv")
    assert len(rows) == 48
    assert all(float(r["retained_mass"]) == 1.0 for r in rows)
    assert all(r["evicted"] == "" for r in rows)
    summary = json.loads((out / "simulate.summary.json").read_text())
    assert summary["mean_retained_mass"] == 1.0


def test_simulate_summary_counts_refusals(tmp_path):
    trace = _gen(tmp_path)
    refusals = {}
    for policy in ("h2_only", "local"):
        out = tmp_path / policy
        assert run("simulate", "--trace", trace, "--policy", policy, "--out-dir", out) == 0
        summary = json.loads((out / "simulate.summary.json").read_text())
        # a refused step names its own incoming token as the victim
        rows = _read_csv(out / "simulate.steps.csv")
        assert summary["refusals"] == sum(r["evicted"] == r["i"] for r in rows)
        refusals[policy] = summary["refusals"]
    assert refusals["h2_only"] > 0
    assert refusals["local"] == 0


@pytest.mark.parametrize("kind", TRACE_KINDS)
def test_h2o_refuses_nothing_with_a_recency_window(tmp_path, kind):
    # the incoming position is always in a window of r >= 1 positions
    trace = _gen(tmp_path, kind=kind)
    for budget, frac in (("20%", "0.5"), ("8", "0.125"), ("8", "1.0")):
        out = tmp_path / f"h2o-{budget}-{frac}"
        assert run("simulate", "--trace", trace, "--policy", "h2o", "--budget", budget,
                   "--recent-frac", frac, "--out-dir", out) == 0
        summary = json.loads((out / "simulate.summary.json").read_text())
        assert summary["evictions"] == 48 - resolve_budget(budget, 48)
        assert summary["refusals"] == 0


def test_local_evicts_every_token_at_age_budget(tmp_path):
    trace = _gen(tmp_path)
    for budget in (3, 10):
        out = tmp_path / f"local-{budget}"
        assert run("simulate", "--trace", trace, "--policy", "local", "--budget", budget,
                   "--out-dir", out) == 0
        # a window of k tokens evicts token t at step t + k
        rows = [r for r in _read_csv(out / "simulate.steps.csv") if r["evicted"]]
        assert len(rows) == 48 - budget
        assert all(int(r["i"]) - int(r["evicted"]) == budget for r in rows)
        summary = json.loads((out / "simulate.summary.json").read_text())
        assert summary["mean_eviction_age"] == budget


def test_mean_eviction_age_is_null_without_evicted_cached_tokens(tmp_path):
    trace = _gen(tmp_path, kind="uniform-gaussian")
    # no eviction at a full budget; only refusals where the greedy refuses every incoming token
    for policy, budget in (("local", "100%"), ("h2_only", "8")):
        out = tmp_path / policy
        assert run("simulate", "--trace", trace, "--policy", policy, "--budget", budget,
                   "--out-dir", out) == 0
        summary = json.loads((out / "simulate.summary.json").read_text())
        assert summary["refusals"] == (40 if policy == "h2_only" else 0)
        assert summary["mean_eviction_age"] is None


def _reference_cell(value) -> str:
    """The CSV cell formatting that ``write_csv`` must keep byte for byte."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def test_write_csv_cells_keep_their_formatting(tmp_path):
    floats = [0.1, 1 / 3, 1e-300, 5e-324, 1e16, 123456789012345680.0, -0.0, 2.0, float("inf"), float("nan")]
    with np.errstate(over="ignore"):  # 1e16 overflows float16
        rows = [
            [x, np.float64(x), np.float32(x), np.float16(x), int(x) if np.isfinite(x) else 7,
             "", np.int64(3), True]
            for x in floats
        ]
    path = tmp_path / "cells.csv"
    write_csv(path, ["py", "f64", "f32", "f16", "int", "empty", "i64", "bool"], rows)
    want = ["py,f64,f32,f16,int,empty,i64,bool"]
    want.extend(",".join(_reference_cell(c) for c in row) for row in rows)
    assert path.read_text(encoding="utf-8") == "\n".join(want) + "\n"


def test_simulate_missing_trace_is_config_error(tmp_path):
    assert run("simulate", "--policy", "h2o", "--out-dir", tmp_path) == 2


def test_simulate_nonexistent_trace_is_io_error(tmp_path):
    assert run("simulate", "--trace", tmp_path / "nope.kvt", "--out-dir", tmp_path) == 3


def test_simulate_bad_budget_is_config_error(tmp_path):
    trace = _gen(tmp_path)
    assert run("simulate", "--trace", trace, "--budget", "x", "--out-dir", tmp_path) == 2


def test_compare_grid_and_full_row_equality(tmp_path):
    trace = _gen(tmp_path, n=40)
    out = tmp_path / "cmp"
    assert run("compare", "--trace", trace, "--policies", "h2o,local,sink_local,topk",
               "--out-dir", out) == 0
    rows = _read_csv(out / "compare.csv")
    assert len(rows) == 4 * 5  # every policy at every budget of the default grid
    assert all(float(r["memory_ratio"]) == int(r["budget"]) / 40 for r in rows)
    at_full = [r for r in rows if r["budget_spec"] == "100%"]
    assert [r.pop("policy") for r in at_full] == ["h2o", "local", "sink_local", "topk"]
    # a budget that covers the trace is full attention, whatever the policy
    assert all(r == at_full[0] for r in at_full)
    assert float(at_full[0]["mean_retained_mass"]) == 1.0 and float(at_full[0]["mean_tv"]) == 0.0


def test_compare_h2o_beats_sink_on_mid_sequence_heavy_trace(tmp_path):
    t = dominant_key_trace(96, 8, position=48, seed=0)
    path = tmp_path / "mid.kvt"
    kl.save_trace(t, path)
    out = tmp_path / "cmp2"
    assert run("compare", "--trace", path, "--policies", "h2o,sink_local",
               "--budgets", "20%", "--out-dir", out) == 0
    rows = {r["policy"]: float(r["mean_retained_mass"]) for r in _read_csv(out / "compare.csv")}
    assert rows["h2o"] > rows["sink_local"]


def test_compare_deduplicates_policies(tmp_path, capsys):
    trace = _gen(tmp_path, n=24)
    out = tmp_path / "cmp3"
    assert run("compare", "--trace", trace, "--policies", "h2o,local,h2o",
               "--budgets", "20%", "--out-dir", out) == 0
    rows = _read_csv(out / "compare.csv")
    assert [r["policy"] for r in rows] == ["h2o", "local"]


def test_compare_ignores_kve_workers(tmp_path, monkeypatch):
    trace = _gen(tmp_path, n=40)
    argv = ("compare", "--trace", trace, "--policies", "h2o,local,h2_only")
    assert run(*argv, "--out-dir", tmp_path / "plain") == 0
    monkeypatch.setenv("KVE_WORKERS", "abc")
    assert run(*argv, "--out-dir", tmp_path / "env") == 0
    assert (tmp_path / "env" / "compare.csv").read_bytes() == (tmp_path / "plain" / "compare.csv").read_bytes()


def test_compare_cells_equal_simulate_summaries(tmp_path):
    # one exact pass shared by every cell gives each cell its single-run numbers
    trace = _gen(tmp_path, n=40)
    assert run("compare", "--trace", trace, "--policies", "h2o,local,h2_only",
               "--out-dir", tmp_path / "cmp") == 0
    rows = _read_csv(tmp_path / "cmp" / "compare.csv")
    assert len(rows) == 15
    for r in rows:
        out = tmp_path / f"sim-{r['policy']}-{r['budget_spec']}"
        assert run("simulate", "--trace", trace, "--policy", r["policy"],
                   "--budget", r["budget_spec"], "--out-dir", out) == 0
        summary = json.loads((out / "simulate.summary.json").read_text())
        assert float(r["mean_retained_mass"]) == summary["mean_retained_mass"]
        assert float(r["mean_tv"]) == summary["mean_tv"]


def test_compare_needs_two_policies(tmp_path):
    trace = _gen(tmp_path, n=24)
    for policies in ("h2o", "h2o,h2o"):
        assert run("compare", "--trace", trace, "--policies", policies, "--out-dir", tmp_path) == 2
    assert not (tmp_path / "compare.csv").exists()


def test_sparsity_one_hot_trace(tmp_path):
    n = 32
    eye = np.eye(n) * 10.0
    t = kl.AttentionTrace(q=eye, k=eye)
    path = tmp_path / "hot.kvt"
    kl.save_trace(t, path)
    out = tmp_path / "sp"
    assert run("sparsity", "--trace", path, "--out-dir", out) == 0
    summary = json.loads((out / "sparsity.summary.json").read_text())
    assert summary["mean_sparsity"] == pytest.approx((n - 1) / n)


@pytest.mark.parametrize("frac", ["0", "1", "1.5"])
def test_sparsity_threshold_outside_unit_interval_is_config_error(tmp_path, frac):
    trace = _gen(tmp_path, n=8)
    assert run("sparsity", "--trace", trace, "--threshold-frac", frac,
               "--out-dir", tmp_path / "sp") == 2


@pytest.mark.parametrize("text", MALFORMED_JSON.values(), ids=MALFORMED_JSON.keys())
def test_malformed_json_trace_is_io_error(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run("simulate", "--trace", path, "--out-dir", tmp_path / "o") == 3


def test_profile_outputs_shares(tmp_path):
    trace = _gen(tmp_path, n=64)
    out = tmp_path / "prof"
    assert run("profile", "--trace", trace, "--out-dir", out) == 0
    summary = json.loads((out / "profile.summary.json").read_text())
    assert summary["top_100pct_share"] == pytest.approx(1.0, abs=1e-9)
    assert summary["top_10pct_share"] > 0.4


def test_submodular_verify_zero_violations(tmp_path):
    out = tmp_path / "sub"
    assert run("submodular-verify", "--instances", 40, "--seed", 1, "--out-dir", out) == 0
    report = json.loads((out / "submodular.report.json").read_text())
    assert report["violations"] == 0
    assert report["worst_ratio"] >= report["guarantee"] - 1e-9


def test_regress_reaches_tolerance(tmp_path):
    out = tmp_path / "reg"
    assert run("regress", "--n", 10, "--d", 4, "--seed", 3, "--tol", "1e-10",
               "--out-dir", out) == 0
    rows = _read_csv(out / "regress.csv")
    assert float(rows[-1]["grad_norm"]) <= 1e-10
    summary = json.loads((out / "regress.summary.json").read_text())
    assert summary["converged"] is True


def test_rerun_reproduces_bytes(tmp_path):
    trace = _gen(tmp_path)
    first = tmp_path / "r1"
    second = tmp_path / "r2"
    assert run("simulate", "--trace", trace, "--policy", "h2o", "--budget", "25%",
               "--out-dir", first) == 0
    assert run("rerun", first / "simulate.manifest.json", "--out-dir", second) == 0
    assert (first / "simulate.steps.csv").read_bytes() == (second / "simulate.steps.csv").read_bytes()
    assert (first / "simulate.summary.json").read_bytes() == (second / "simulate.summary.json").read_bytes()


@pytest.mark.parametrize("manifest", [
    "[1, 2]",
    '"str"',
    '{"command": 5}',
    '{"command": "simulate", "config": []}',
    '{"command": "bogus"}',
    '{"command": "rerun"}',
    '{"command": "rerun", "config": {"manifest": "bad.manifest.json"}}',
    '{"command": "simulate", "config": {"nope": 1}}',
], ids=["list", "string", "int-command", "list-config", "unknown-command", "rerun",
        "rerun-with-manifest", "unknown-flag"])
def test_rerun_bad_manifest_is_config_error(tmp_path, manifest):
    path = tmp_path / "bad.manifest.json"
    path.write_text(manifest)
    assert run("rerun", path, "--out-dir", tmp_path / "o") == 2


@pytest.mark.parametrize("argv", [
    ("gen-trace", "--n", "0", "--d", "4"),
    ("gen-trace", "--n", "8", "--d", "4", "--exponent", "-1"),
    ("regress", "--n", "2", "--d", "4"),
    ("regress", "--n", "0", "--d", "0"),
    ("regress", "--n", "3", "--d", "0"),
    ("submodular-verify", "--instances", "2", "--eps", "-1"),
    ("simulate", "--policy", "full", "--budget", "20%"),
    ("compare", "--policies", "full,h2o"),
    ("gen-trace", "--n", "8", "--d", "4", "--seed", "-1"),
    ("submodular-verify", "--instances", "2", "--seed", "-1"),
    ("regress", "--seed", "-1"),
    ("submodular-verify", "--instances", "-5"),
    ("submodular-verify", "--instances", "2", "--eps", "nan"),
    ("submodular-verify", "--instances", "2", "--eps", "inf"),
    ("regress", "--tol", "nan"),
    ("regress", "--tol", "-1"),
    ("gen-trace", "--n", "8", "--d", "4", "--kind", "power-law-keys", "--exponent", "nan"),
], ids=["n0", "negative-exponent", "n-below-d", "n0-d0", "d0", "negative-eps", "full-below-n",
        "compare-full", "gen-trace-negative-seed", "submodular-negative-seed",
        "regress-negative-seed", "negative-instances", "nan-eps", "inf-eps", "nan-tol",
        "negative-tol", "nan-exponent"])
def test_library_spec_errors_are_config_errors(tmp_path, argv):
    if argv[0] == "gen-trace":
        argv += ("--out", tmp_path / "t.kvt")
    elif argv[0] in ("simulate", "compare"):
        argv += ("--trace", _gen(tmp_path))
    assert run(*argv, "--out-dir", tmp_path / "o") == 2


def _round_trip_argv(tmp_path):
    """Each subcommand with every flag away from its default."""
    trace = _gen(tmp_path)
    policy_flags = ("--recent-frac", "0.25", "--sink", "2", "--stride", "4")
    return {
        "gen-trace": ("--n", 40, "--d", 6, "--kind", "power-law-keys", "--exponent", 1.5,
                      "--seed", 9, "--out", tmp_path / "rt.kvt"),
        "simulate": ("--trace", trace, "--policy", "sink_local", "--budget", "30%", *policy_flags),
        "compare": ("--trace", trace, "--policies", "h2o,sink_local,sparse_strided",
                    "--budgets", "25%,12", *policy_flags),
        "sparsity": ("--trace", trace, "--threshold-frac", 0.05),
        "profile": ("--trace", trace),
        "submodular-verify": ("--instances", 20, "--eps", 0.2, "--seed", 4),
        "regress": ("--n", 8, "--d", 3, "--seed", 2, "--tol", "1e-8"),
    }


def test_rerun_round_trips_every_flag(tmp_path):
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    cases = _round_trip_argv(tmp_path)
    assert set(cases) == set(subparsers.choices) - {"rerun"}
    for command, argv in cases.items():
        first, second = tmp_path / f"{command}-1", tmp_path / f"{command}-2"
        argv = [str(a) for a in (*argv, "--out-dir", first)]
        parsed = vars(parser.parse_args([command, *argv]))
        for action in subparsers.choices[command]._actions:
            if action.option_strings and action.dest != "help":
                assert action.option_strings[0] in argv, (command, action.dest)
                assert parsed[action.dest] != action.default, (command, action.dest)
        assert run(command, *argv) == 0
        manifest = json.loads((first / f"{command}.manifest.json").read_text())
        produced = {Path(p).name: Path(p).read_bytes() for p in manifest["outputs"]}
        for p in manifest["outputs"]:
            Path(p).unlink()
        assert run("rerun", first / f"{command}.manifest.json", "--out-dir", second) == 0
        replay = json.loads((second / f"{command}.manifest.json").read_text())
        assert replay["config"] == manifest["config"]
        assert {Path(p).name: Path(p).read_bytes() for p in replay["outputs"]} == produced


def test_commands_do_not_mutate_inputs(tmp_path):
    trace = _gen(tmp_path)
    before = hashlib.sha256(trace.read_bytes()).hexdigest()
    run("simulate", "--trace", trace, "--policy", "local", "--out-dir", tmp_path / "o1")
    run("sparsity", "--trace", trace, "--out-dir", tmp_path / "o2")
    run("profile", "--trace", trace, "--out-dir", tmp_path / "o3")
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == before


def test_manifest_contents(tmp_path):
    trace = _gen(tmp_path)
    out = tmp_path / "m"
    run("simulate", "--trace", trace, "--policy", "h2o", "--budget", "30%", "--out-dir", out)
    manifest = json.loads((out / "simulate.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["config"]["policy"] == "h2o"
    assert manifest["config"]["budget"] == "30%"
    assert manifest["tool_version"] == kl.__version__
    assert str(trace) in manifest["inputs"]

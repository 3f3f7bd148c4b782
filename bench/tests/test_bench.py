"""Self-tests of the benchmark: tiny runs, check sensitivity, tracing, rerun.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import json
import time
from dataclasses import replace

import pytest

import checks
import run
import spans
from workloads import BUDGET_GRID, WORKLOADS

TINY = {name: replace(w, n=48, d=8) for name, w in WORKLOADS.items()}


def _generate(workload, tmp_path):
    env = run.make_env()
    trace, _ = run.setup(workload, seed=3, work=tmp_path, env=env, started=time.perf_counter(), reps=1)
    return env, workload.commands(trace, tmp_path / "out")


def _run_commands(cmds, env, tmp_path):
    for cmd in cmds:
        wall, cpu, rss, code, timed_out = run.run_cli(cmd.argv, env.child_env, tmp_path / "cmd.log", 60.0)
        assert code == 0 and not timed_out, (tmp_path / "cmd.log").read_text()


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_run_of_every_workload(name, traced, tmp_path, monkeypatch):
    monkeypatch.setenv("KVE_WORKERS", "1")  # restored after run_workload overrides it
    record = run.run_workload(TINY[name], seed=3, seconds=0, traced=traced,
                              min_reps=1, setup_reps=2, state_dir=tmp_path)
    assert record["failed"] == 0, [r["failures"] for r in record["reps"]]
    units = run.PER_LAYER_UNITS if traced else run.END_TO_END_UNITS
    assert list(record["metrics"]) == list(units)
    values = {k: m["value"] for k, m in record["metrics"].items()}
    if traced:
        assert values["cli.main.s"] > 0 and values["trace.bytes_read"] > 0
        steps = 15 * 48 if name == "sweep" else 48 * (3 if name == "decode" else 1)
        assert values["policies.steps"] == steps
        assert 0 < values["tracing.child_coverage"] <= 1.0
    else:
        assert all(v > 0 for v in values.values())
    assert list((tmp_path / "results").glob("*.json"))
    assert not list(tmp_path.glob("work-*"))


def test_corrupted_tv_cell_is_caught(tmp_path):
    env, cmds = _generate(TINY["decode"], tmp_path)
    cmd = cmds[0]
    _run_commands([cmd], env, tmp_path)
    assert cmd.check(cmd.out_dir) == []
    csv_path = cmd.out_dir / "simulate.steps.csv"
    lines = csv_path.read_text().splitlines()
    cells = lines[30].split(",")
    cells[-1] = repr(float(cells[-1]) + 1e-6)
    lines[30] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")
    failures = cmd.check(cmd.out_dir)
    assert any("tv == 1 - retained" in f for f in failures), failures
    # a retained mass below 0 by more than rounding is caught even when tv agrees
    cells[-2:] = ["-1e-09", repr(1.0 + 1e-9)]
    lines[30] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")
    assert any("0 <= retained <= 1" in f for f in cmd.check(cmd.out_dir))


def test_corrupted_compare_row_is_caught(tmp_path):
    env, cmds = _generate(TINY["sweep"], tmp_path)
    _run_commands(cmds, env, tmp_path)
    cmd = cmds[0]
    csv_path = cmd.out_dir / "compare.csv"
    lines = csv_path.read_text().splitlines()
    lines[5], lines[6] = lines[6], lines[5]
    csv_path.write_text("\n".join(lines) + "\n")
    assert any("cell order" in f for f in cmd.check(cmd.out_dir))


def test_missing_wrapper_target_reports_zero_calls(tmp_path, monkeypatch):
    monkeypatch.setenv("KVE_WORKERS", "1")
    env, cmds = _generate(TINY["decode"], tmp_path)
    cli = run.import_cli(env)
    targets = [t for t in spans.TARGETS if t[0] != "policies.decide"]
    targets.append(("policies.decide", "kvcachelab.policies", "no_longer_exists", None))
    tracer = spans.Tracer(targets=targets)
    with tracer:
        rep = run.inprocess_rep(cli, cmds)
    assert rep.failed == 0, rep.failures
    assert tracer.missing == ["policies.decide"]
    recorded, counters = tracer.take()
    layers = spans.layer_metrics(recorded, counters, rep.wall_s)
    assert layers["policies.decide.calls"] == 0 and layers["policies.decide.s"] == 0.0
    assert layers["cache.swap.calls"] > 0
    assert not hasattr(cli.main, "__wrapped__")  # uninstalled


def test_self_time_counts_overlapping_children_once():
    spans_ = [
        (1, None, "cli.main", 1, 0, 100),
        (2, 1, "policies.run_policy", 2, 10, 60),
        (3, 1, "policies.run_policy", 3, 20, 70),
        (4, 2, "attention.masked_step", 2, 10, 30),
    ]
    totals = spans.span_totals(spans_)
    assert totals["cli.main"]["self_s"] == pytest.approx(40e-9)
    assert totals["policies.run_policy"]["s"] == pytest.approx(100e-9)
    assert totals["policies.run_policy"]["self_s"] == pytest.approx(80e-9)


@pytest.mark.parametrize("name", sorted(TINY))
def test_rerun_reproduces_csvs(name, tmp_path):
    env, cmds = _generate(TINY[name], tmp_path)
    _run_commands(cmds, env, tmp_path)
    for cmd in cmds:
        manifests = list(cmd.out_dir.glob("*.manifest.json"))
        assert len(manifests) == 1
        replay = tmp_path / "replay" / cmd.label
        rerun_argv = ["rerun", str(manifests[0]), "--out-dir", str(replay)]
        _run_commands([replace(cmd, argv=tuple(rerun_argv))], env, tmp_path)
        csvs = sorted(p.name for p in cmd.out_dir.glob("*.csv"))
        assert csvs
        for csv_name in csvs:
            assert (replay / csv_name).read_bytes() == (cmd.out_dir / csv_name).read_bytes()


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_budget_for_matches_cli_rounding():
    from kvcachelab.cli import resolve_budget

    for n in (48, 1024, 2048):
        for spec in BUDGET_GRID:
            assert checks.budget_for(spec, n) == resolve_budget(spec, n)

"""End-to-end and per-layer benchmark of the ``kvcachelab`` CLI.

Run from the repository root:

    python3 bench/run.py --workload decode --seed 0 --seconds 30 --trace 0

``--workload`` is ``decode``, ``sweep``, ``fullcache`` or ``all`` (see
``workloads.py`` for what each runs and why). The load is a closed loop
with one client: this process runs a workload's commands one after another,
each in a fresh interpreter, and repeats the whole workload until
``--seconds`` have passed (at least three times).

Set-up generates the workload's trace with ``kvcachelab gen-trace`` from
``--seed``, several times; every copy must be byte-identical. The program
only ever receives the generated file.

``--trace 0`` measures end to end, with no tracing: the median over
repetitions of wall time, steps per second, child CPU time (user plus
system, from ``os.wait4``) and the largest child peak RSS, plus the median
set-up time. ``--trace 1`` runs the same commands in-process, alternating
untraced and traced repetitions; the traced ones wrap the library's layer
functions from outside (``spans.py``) and report per-layer medians.

Every command's outputs are checked (``checks.py``). A command fails when it
exits non-zero, times out, or fails a check; failures are printed to
stderr and counted. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. A record of the run
(machine, versions, ``KVE_WORKERS``, seed, commit, trace sizes, every
repetition) is written under ``.kvbench/results/``, together with the spans
of the last traced repetition.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import spans
from workloads import WORKLOADS, Command, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".kvbench"

SETUP_REPS = 5
MIN_REPS = 3
IMPORT_REPS = 5
# A run must end within 180 s even when the program under test has become
# much slower or hangs: no repetition starts after STOP_AFTER_S, and a child
# still running at KILL_AFTER_S (both from the start of the run) is killed.
STOP_AFTER_S = 140.0
KILL_AFTER_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "steps_per_s": "steps/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "policies.run_policy.s": "s",
    "policies.run_policy.self_s": "s",
    "policies.update_scores.s": "s",
    "policies.decide.s": "s",
    "policies.decide.calls": "count",
    "policies.steps": "steps",
    "attention.masked_step.s": "s",
    "attention.masked_step.self_s": "s",
    "attention.softmax_over.s": "s",
    "attention.exact_row.calls": "count",
    "attention.logits_decode": "products",
    "attention.logits_metrics": "products",
    "metrics.retained_mass.s": "s",
    "metrics.retained_mass.self_s": "s",
    "metrics.trace_sparsity.s": "s",
    "metrics.heavy_hitter_profile.s": "s",
    "cache.admit.calls": "count",
    "cache.swap.calls": "count",
    "cache.refusals": "count",
    "cache.refusal_share": "share",
    "trace.load_trace.s": "s",
    "trace.bytes_read": "bytes",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "cli.write.s": "s",
    "cli.bytes_written": "bytes",
    "cli.import_s": "s",
    "tracing.child_coverage": "share",
    "tracing.traced_wall_s": "s",
    "tracing.untraced_wall_s": "s",
    "tracing.overhead_frac": "share",
}


class BenchError(Exception):
    """The benchmark cannot run: no source, or set-up failed."""


@dataclass
class Rep:
    """One repetition of a workload's commands."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    ops: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def count(self, failures: list[str]) -> None:
        self.ops += 1
        self.failed += bool(failures)
        self.failures.extend(failures)


@dataclass
class Env:
    """What the program runs under; recorded next to the numbers."""

    workers: int
    nproc: int
    child_env: dict[str, str]


# -- helpers -------------------------------------------------------------------

def make_env() -> Env:
    nproc = len(os.sched_getaffinity(0))
    workers = min(2, nproc)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["KVE_WORKERS"] = str(workers)
    return Env(workers=workers, nproc=nproc, child_env=env)


def run_cli(argv, env: dict[str, str], log_path: Path, timeout: float):
    """Run ``kvcachelab`` in a fresh interpreter; return (wall, cpu, rss_mb, exit code, timed out)."""
    expired = threading.Event()
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "kvcachelab.cli", *argv],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
        )

        def kill() -> None:
            expired.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode, expired.is_set()


def _tail(path: Path, lines: int = 3) -> str:
    try:
        text = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    except OSError:
        return ""
    return " | ".join(text[-lines:])


def check_command(cmd: Command, code, timed_out: bool, log: str) -> list[str]:
    if timed_out:
        return [f"{cmd.label}: timed out"]
    if code != 0:
        return [f"{cmd.label}: exit code {code}: {log}"]
    return cmd.check(cmd.out_dir)


def time_left(started: float) -> float:
    """Timeout for a child started now: until KILL_AFTER_S into the run."""
    return max(1.0, started + KILL_AFTER_S - time.perf_counter())


def repeat(run_once, seconds: float, started: float, min_reps: int) -> list:
    results = []
    start = time.perf_counter()
    while True:
        results.append(run_once())
        now = time.perf_counter()
        if now - started >= STOP_AFTER_S or (now - start >= seconds and len(results) >= min_reps):
            return results


# -- set-up ----------------------------------------------------------------------

def preflight() -> None:
    if not (SRC / "kvcachelab" / "cli.py").is_file():
        raise BenchError(f"no kvcachelab source under {SRC}; run from a full checkout")


def setup(workload: Workload, seed: int, work: Path, env: Env, started: float, reps: int = SETUP_REPS):
    """Generate the workload's trace ``reps`` times; return its path and the times."""
    trace = work / workload.trace_name
    times = []
    for k in range(reps):
        path = trace if k == 0 else work / f"setup-{k}{workload.trace_suffix}"
        argv = workload.gen_argv(seed, path, work / "gen-trace")
        wall, _, _, code, timed_out = run_cli(argv, env.child_env, work / "gen-trace.log", time_left(started))
        if code != 0 or timed_out:
            raise BenchError(f"gen-trace failed (exit {code}): {_tail(work / 'gen-trace.log')}")
        times.append(wall)
        if k:
            same = path.read_bytes() == trace.read_bytes()
            path.unlink()
            if not same:
                raise BenchError("gen-trace gave different files for the same seed")
    return trace, times


# -- end to end (subprocesses, no tracing) ---------------------------------------

def subprocess_rep(cmds: list[Command], env: Env, work: Path, started: float) -> Rep:
    rep = Rep()
    for cmd in cmds:
        shutil.rmtree(cmd.out_dir, ignore_errors=True)
        log = work / f"{cmd.label}.log"
        wall, cpu, rss, code, timed_out = run_cli(cmd.argv, env.child_env, log, time_left(started))
        rep.wall_s += wall
        rep.cpu_s += cpu
        rep.peak_rss_mb = max(rep.peak_rss_mb, rss)
        rep.count(check_command(cmd, code, timed_out, _tail(log)))
    return rep


def end_to_end(cmds, env, work, seconds, started, min_reps=MIN_REPS):
    reps = repeat(lambda: subprocess_rep(cmds, env, work, started), seconds, started, min_reps)
    steps = sum(c.steps for c in cmds)
    wall = statistics.median(r.wall_s for r in reps)
    metrics = {
        "wall_s": wall,
        "steps_per_s": steps / wall,
        "cpu_s": statistics.median(r.cpu_s for r in reps),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in reps),
    }
    return metrics, reps, None


# -- per layer (in-process, traced against untraced) -------------------------------

def import_cli(env: Env):
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ["KVE_WORKERS"] = str(env.workers)
    cli = importlib.import_module("kvcachelab.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "kvcachelab").resolve():
        raise BenchError(f"imported kvcachelab from {cli.__file__}, not from {SRC}")
    return cli


def import_seconds(env: Env, started: float, reps: int = IMPORT_REPS) -> list[float]:
    """Time ``import kvcachelab.cli`` in fresh interpreters."""
    code = "import time; t = time.perf_counter(); import kvcachelab.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(reps):
        try:
            done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env.child_env,
                                  capture_output=True, text=True, timeout=time_left(started))
        except subprocess.TimeoutExpired:
            raise BenchError("importing kvcachelab.cli timed out") from None
        if done.returncode != 0:
            raise BenchError(f"cannot import kvcachelab.cli: {done.stderr.strip()[-300:]}")
        times.append(float(done.stdout.strip()))
    return times


def inprocess_rep(cli, cmds: list[Command]) -> Rep:
    rep = Rep()
    for cmd in cmds:
        shutil.rmtree(cmd.out_dir, ignore_errors=True)
        start = time.perf_counter()
        try:
            code, log = cli.main(list(cmd.argv)), ""
        except Exception as exc:  # a crash of one command is a failed operation
            code, log = None, "".join(traceback.format_exception_only(exc)).strip()
        rep.wall_s += time.perf_counter() - start
        rep.count(check_command(cmd, code, False, log))
    return rep


def per_layer(cmds, env, work, seconds, started, min_reps=MIN_REPS):
    imports = import_seconds(env, started)
    cli = import_cli(env)
    tracer = spans.Tracer()
    untraced, traced, layers = [], [], []
    last_spans: list[tuple] = []

    def once():
        nonlocal last_spans
        untraced.append(inprocess_rep(cli, cmds))
        with tracer:
            rep = inprocess_rep(cli, cmds)
        recorded, counters = tracer.take()
        traced.append(rep)
        layers.append(spans.layer_metrics(recorded, counters, rep.wall_s))
        last_spans = recorded
        return rep

    repeat(once, seconds, started, min_reps)
    # median_low: every value is one repetition's measurement, counts stay integers
    metrics = {name: statistics.median_low(m[name] for m in layers) for name in layers[0]}
    traced_wall = statistics.median(r.wall_s for r in traced)
    untraced_wall = statistics.median(r.wall_s for r in untraced)
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["tracing.traced_wall_s"] = traced_wall
    metrics["tracing.untraced_wall_s"] = untraced_wall
    metrics["tracing.overhead_frac"] = traced_wall / untraced_wall - 1.0
    if tracer.missing:
        print(f"tracing: targets not found, reported as 0 calls: {', '.join(tracer.missing)}", file=sys.stderr)
    spans_path = work / "spans.jsonl.gz"
    spans.write_spans(spans_path, last_spans)
    return metrics, untraced + traced, spans_path


# -- one workload ------------------------------------------------------------------

def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool,
                 min_reps: int = MIN_REPS, setup_reps: int = SETUP_REPS,
                 state_dir: Path = STATE_DIR) -> dict:
    """Set up, measure and check one workload; return its run record."""
    started = time.perf_counter()
    env = make_env()
    work = state_dir / f"work-{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        trace, setup_times = setup(workload, seed, work, env, started, setup_reps)
        cmds = workload.commands(trace, work / "out")
        measure = per_layer if traced else end_to_end
        metrics, reps, spans_path = measure(cmds, env, work, seconds, started, min_reps)
        if not traced:
            metrics["setup_s"] = statistics.median(setup_times)
        units = PER_LAYER_UNITS if traced else END_TO_END_UNITS
        ops = sum(r.ops for r in reps)
        failed = sum(r.failed for r in reps)
        record = {
            "workload": workload.name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(traced),
            "commit": git_commit(),
            "nproc": env.nproc,
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "kve_workers": env.workers,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "trace_file": {"name": trace.name, "kind": workload.kind, "n": workload.n,
                           "d": workload.d, "bytes": trace.stat().st_size},
            "commands": [" ".join(c.argv) for c in cmds],
            "steps_per_rep": sum(c.steps for c in cmds),
            "setup_s": setup_times,
            "reps": [asdict(r) for r in reps],
            "ops": ops,
            "failed": failed,
            "ops_failed_share": failed / ops,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        }
        results = state_dir / "results"
        results.mkdir(parents=True, exist_ok=True)
        stem = f"{workload.name}-seed{seed}-trace{int(traced)}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
        if spans_path is not None:
            record["spans_file"] = str(shutil.move(spans_path, results / f"{stem}.spans.jsonl.gz"))
        (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_report(record: dict) -> None:
    t = record["trace_file"]
    print(f"== {record['workload']}  seed={record['seed']}  trace={record['trace']}  "
          f"reps={len(record['reps'])}  KVE_WORKERS={record['kve_workers']}  nproc={record['nproc']}  "
          f"python={record['python']}  numpy={record['numpy']}  commit={record['commit']}")
    print(f"   trace file {t['name']}: {t['kind']} n={t['n']} d={t['d']} {t['bytes']} bytes")
    for name, m in record["metrics"].items():
        print(f"   {name:32s} {m['value']:>16.6g} {m['unit']}")
    print(f"   {'ops':32s} {record['ops']:>16d} count")
    print(f"   {'ops_failed_share':32s} {record['ops_failed_share']:>16.6g} share")
    for reps in record["reps"]:
        for message in reps["failures"]:
            print(f"check failed: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args(argv)
    try:
        preflight()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        records = []
        for name in names:
            record = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            print_report(record)
            records.append(record)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in records for k, m in r["metrics"].items()}
    failed = sum(r["failed"] for r in records)
    result = {
        "correct": failed == 0,
        "attempted": sum(r["ops"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: which trace each one generates and which CLI
commands it runs over that trace.

Each workload stresses a different layer of ``kvcachelab``:

``decode``
    ``simulate --budget 20%`` for h2o, local and topk on a power-law-keys
    binary trace. Every step after warm-up evicts, so the decode loop
    (``masked_step``, ``update_scores``, ``decide``, ``swap``) dominates and
    no exact attention is shared between the three commands.
``sweep``
    One ``compare`` over h2o, local and h2_only times the default budget
    grid on a uniform-gaussian binary trace. The 15 cells recompute the same
    exact attention rows and run on the CLI's worker pool; budgets range
    from admit-only (100%) to evict-heavy (4%).
``fullcache``
    ``profile`` then ``sparsity`` on a sink-dominant JSON trace. The full
    policy only admits, so ``decide`` never runs, the attended set grows to
    n, and JSON parsing is the only place where trace loading costs time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks

# The CLI's default compare grid, passed explicitly so that the amount of
# work stays fixed even if the default changes.
BUDGET_GRID = ("4%", "10%", "20%", "60%", "100%")
DECODE_POLICIES = ("h2o", "local", "topk")
SWEEP_POLICIES = ("h2o", "local", "h2_only")


@dataclass(frozen=True)
class Command:
    """One CLI invocation plus the check of the files it writes."""

    label: str
    argv: tuple[str, ...]
    out_dir: Path
    steps: int
    check: Callable[[Path], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    n: int
    d: int
    trace_suffix: str
    build: Callable[["Workload", Path, Path], list[Command]]

    @property
    def trace_name(self) -> str:
        return f"{self.name}-trace{self.trace_suffix}"

    def gen_argv(self, seed: int, trace_path: Path, out_dir: Path) -> tuple[str, ...]:
        return (
            "gen-trace", "--n", str(self.n), "--d", str(self.d), "--kind", self.kind,
            "--seed", str(seed), "--out", str(trace_path), "--out-dir", str(out_dir),
        )

    def commands(self, trace_path: Path, out_root: Path) -> list[Command]:
        return self.build(self, trace_path, out_root)


def _decode(w: Workload, trace: Path, out_root: Path) -> list[Command]:
    budget = checks.budget_for("20%", w.n)
    cmds = []
    for policy in DECODE_POLICIES:
        out = out_root / f"simulate-{policy}"
        argv = ("simulate", "--trace", str(trace), "--policy", policy, "--budget", "20%",
                "--out-dir", str(out))
        check = partial(checks.check_simulate, n=w.n, policy=policy, budget=budget)
        cmds.append(Command(f"simulate-{policy}", argv, out, w.n, check))
    return cmds


def _sweep(w: Workload, trace: Path, out_root: Path) -> list[Command]:
    out = out_root / "compare"
    argv = ("compare", "--trace", str(trace), "--policies", ",".join(SWEEP_POLICIES),
            "--budgets", ",".join(BUDGET_GRID), "--out-dir", str(out))
    check = partial(checks.check_compare, n=w.n, policies=SWEEP_POLICIES, grid=BUDGET_GRID)
    cells = len(SWEEP_POLICIES) * len(BUDGET_GRID)
    return [Command("compare", argv, out, w.n * cells, check)]


def _fullcache(w: Workload, trace: Path, out_root: Path) -> list[Command]:
    cmds = []
    for name, check in (("profile", checks.check_profile), ("sparsity", checks.check_sparsity)):
        out = out_root / name
        argv = (name, "--trace", str(trace), "--out-dir", str(out))
        cmds.append(Command(name, argv, out, w.n, partial(check, n=w.n)))
    return cmds


WORKLOADS = {
    w.name: w
    for w in (
        Workload("decode", "power-law-keys", 2048, 64, ".kvt", _decode),
        Workload("sweep", "uniform-gaussian", 1024, 64, ".kvt", _sweep),
        Workload("fullcache", "sink-dominant", 2048, 64, ".json", _fullcache),
    )
}

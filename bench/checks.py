"""Output checks for the CLI commands the benchmark runs.

Each ``check_*`` function reads the files one command wrote and returns a
list of failure messages; an empty list means every check passed. The
checks hold under either retained-mass definition (post-eviction set or
attended set) and either H2O recency window, so they stay valid while the
simulator changes:

* TV distance to a renormalised restriction equals the off-cache mass, so
  ``tv == 1 - retained`` on every row whatever set is scored;
* cache sizes, eviction counts and budgets follow from n and the budget
  alone;
* a full cache retains all mass, and full-attention scores sum to n.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

TV_TOL = 1e-9
# Retained mass is written as 1 - (off-cache mass); when nearly all mass is
# off-cache that sum rounds above 1 and the CLI writes -2.2e-16. Allow a
# few ulps of rounding outside [0, 1], nothing more.
RANGE_TOL = 1e-12
MEAN_TOL = 1e-9
EXACT_TOL = 1e-12
SCORE_SUM_TOL = 1e-6


def budget_for(spec: str, n: int) -> int:
    """Budget the CLI resolves for ``spec``: a count, or floor(frac * n), at least 2."""
    if spec.endswith("%"):
        return max(2, int(spec[:-1]) * n // 100)
    return int(spec)


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _mean(values: list[float]) -> float:
    return math.fsum(values) / len(values) if values else math.nan


class _Failures:
    """Collects messages, keeping the first few per check name."""

    LIMIT = 3

    def __init__(self, label: str):
        self.label = label
        self.messages: list[str] = []
        self._counts: dict[str, int] = {}

    def add(self, check: str, detail: str) -> None:
        seen = self._counts.get(check, 0)
        self._counts[check] = seen + 1
        if seen < self.LIMIT:
            self.messages.append(f"{self.label}: {check}: {detail}")


def _load(fail: _Failures, reader, path: Path):
    try:
        return reader(path)
    except (OSError, ValueError) as exc:
        fail.add("readable", f"{path.name}: {exc}")
        return None


def check_simulate(out_dir: Path, n: int, policy: str, budget: int) -> list[str]:
    fail = _Failures(f"simulate {policy}")
    rows = _load(fail, _read_csv, out_dir / "simulate.steps.csv")
    summary = _load(fail, _read_json, out_dir / "simulate.summary.json")
    if rows is None or summary is None:
        return fail.messages
    if len(rows) != n:
        fail.add("row count", f"{len(rows)} rows, expected {n}")
    retained, tv, evictions = [], [], 0
    try:
        for expect_i, row in enumerate(rows, start=1):
            i = int(row["i"])
            r, t = float(row["retained_mass"]), float(row["tv"])
            retained.append(r)
            tv.append(t)
            if i != expect_i:
                fail.add("step order", f"row {expect_i} has i={i}")
            if int(row["cache_size"]) != min(i, budget):
                fail.add("cache_size == min(i, budget)", f"i={i}: {row['cache_size']}")
            evicted_empty = row["evicted"] == ""
            if evicted_empty != (i <= budget):
                fail.add("evicted empty iff i <= budget", f"i={i}: evicted={row['evicted']!r}")
            evictions += not evicted_empty
            if not -RANGE_TOL <= r <= 1.0 + RANGE_TOL:
                fail.add("0 <= retained <= 1", f"i={i}: {r!r}")
            if not abs(t - (1.0 - r)) <= TV_TOL:
                fail.add("tv == 1 - retained", f"i={i}: tv={t!r}, retained={r!r}")
    except (KeyError, TypeError, ValueError) as exc:
        fail.add("parse", f"simulate.steps.csv: {exc!r}")
        return fail.messages
    if evictions != n - budget:
        fail.add("evictions == n - budget", f"{evictions} evicted cells, expected {n - budget}")
    expected = {"policy": policy, "budget": budget, "n": n, "evictions": n - budget}
    for key, value in expected.items():
        if summary.get(key) != value:
            fail.add(f"summary {key}", f"{summary.get(key)!r}, expected {value!r}")
    for key, column in (("mean_retained_mass", retained), ("mean_tv", tv)):
        got = summary.get(key)
        if not isinstance(got, (int, float)) or not abs(got - _mean(column)) <= MEAN_TOL:
            fail.add(f"summary {key} == CSV mean", f"{got!r} vs {_mean(column)!r}")
    return fail.messages


def check_compare(out_dir: Path, n: int, policies: tuple[str, ...], grid: tuple[str, ...]) -> list[str]:
    fail = _Failures("compare")
    rows = _load(fail, _read_csv, out_dir / "compare.csv")
    if rows is None:
        return fail.messages
    cells = [(p, b) for p in policies for b in grid]
    if len(rows) != len(cells):
        fail.add("one row per cell", f"{len(rows)} rows, expected {len(cells)}")
    try:
        for row, (policy, spec) in zip(rows, cells):
            where = f"{policy}@{spec}"
            if (row["policy"], row["budget_spec"]) != (policy, spec):
                fail.add("cell order", f"expected {where}, got {row['policy']}@{row['budget_spec']}")
                continue
            budget = budget_for(spec, n)
            r, t = float(row["mean_retained_mass"]), float(row["mean_tv"])
            if int(row["budget"]) != budget:
                fail.add("budget == max(2, floor(frac*n))", f"{where}: {row['budget']}, expected {budget}")
            if not abs(float(row["memory_ratio"]) - budget / n) <= EXACT_TOL:
                fail.add("memory_ratio == budget/n", f"{where}: {row['memory_ratio']}")
            if not -RANGE_TOL <= r <= 1.0 + RANGE_TOL:
                fail.add("0 <= retained <= 1", f"{where}: {r!r}")
            if budget >= n and not (abs(r - 1.0) <= EXACT_TOL and abs(t) <= EXACT_TOL):
                fail.add("full budget retains all", f"{where}: retained={r!r}, tv={t!r}")
            if not abs(t - (1.0 - r)) <= TV_TOL:
                fail.add("mean_tv == 1 - mean_retained", f"{where}: tv={t!r}, retained={r!r}")
    except (KeyError, TypeError, ValueError) as exc:
        fail.add("parse", f"compare.csv: {exc!r}")
    return fail.messages


def check_profile(out_dir: Path, n: int) -> list[str]:
    fail = _Failures("profile")
    rows = _load(fail, _read_csv, out_dir / "profile.csv")
    if rows is None:
        return fail.messages
    try:
        ranks = [int(r["rank"]) for r in rows]
        tokens = [int(r["token"]) for r in rows]
        scores = [float(r["accumulated_score"]) for r in rows]
        lift = [float(r["uniform_lift"]) for r in rows]
    except (KeyError, TypeError, ValueError) as exc:
        fail.add("parse", f"profile.csv: {exc!r}")
        return fail.messages
    if ranks != list(range(1, len(rows) + 1)):
        fail.add("ranks 1..n in order", f"{len(rows)} rows")
    if sorted(tokens) != list(range(1, n + 1)):
        fail.add("tokens are a permutation of 1..n", f"{len(tokens)} tokens, {len(set(tokens))} distinct")
    total = math.fsum(scores)
    if not abs(total - n) <= SCORE_SUM_TOL:
        fail.add("scores sum to n", f"{total!r}, expected {n}")
    for rank, (a, b) in enumerate(zip(lift, lift[1:]), start=1):
        if b > a:
            fail.add("uniform_lift non-increasing", f"rank {rank + 1}: {b!r} > {a!r}")
    return fail.messages


def check_sparsity(out_dir: Path, n: int) -> list[str]:
    fail = _Failures("sparsity")
    rows = _load(fail, _read_csv, out_dir / "sparsity.csv")
    summary = _load(fail, _read_json, out_dir / "sparsity.summary.json")
    if rows is None or summary is None:
        return fail.messages
    try:
        index = [int(r["row"]) for r in rows]
        values = [float(r["sparsity"]) for r in rows]
    except (KeyError, TypeError, ValueError) as exc:
        fail.add("parse", f"sparsity.csv: {exc!r}")
        return fail.messages
    if index != list(range(1, n + 1)):
        fail.add("n rows in order", f"{len(rows)} rows, expected {n}")
    for i, s in zip(index, values):
        if not 0.0 <= s <= 1.0:
            fail.add("0 <= sparsity <= 1", f"row {i}: {s!r}")
    if values and not abs(values[0] - (n - 1) / n) <= EXACT_TOL:
        fail.add("row 1 == (n-1)/n", f"{values[0]!r}")
    got = summary.get("mean_sparsity")
    if not isinstance(got, (int, float)) or not abs(got - _mean(values)) <= MEAN_TOL:
        fail.add("summary mean == CSV mean", f"{got!r} vs {_mean(values)!r}")
    return fail.messages

"""Command-line front end.

One executable, one subcommand per workflow:

    kvcachelab gen-trace  --n 256 --d 16 --kind power-law-keys --seed 7 --out trace.kvt
    kvcachelab simulate   --trace trace.kvt --policy h2o --budget 20% --out-dir out/
    kvcachelab compare    --trace trace.kvt --policies h2o,local --out-dir out/
    kvcachelab sparsity   --trace trace.kvt --out-dir out/
    kvcachelab profile    --trace trace.kvt --out-dir out/
    kvcachelab submodular-verify --instances 500 --out-dir out/
    kvcachelab regress    --n 10 --d 4 --seed 3 --tol 1e-10 --out-dir out/
    kvcachelab rerun      out/<name>.manifest.json --out-dir elsewhere/

Every run writes a manifest JSON next to its outputs recording the fully
resolved configuration; ``rerun`` replays a manifest and must reproduce the
CSV outputs byte for byte. Exit codes: 0 success, 2 configuration error
(argparse's own usage errors, and ``InvalidSpec``: a bad flag value or
manifest, or a spec the library rejects), 3 I/O error (``OSError`` and
``MalformedTrace``), 4 any other library error. A ``regress`` that does not
converge exits 0 and writes ``"converged": false``.

Budgets accept an absolute count (``--budget 64``) or a fraction of the
trace length (``--budget 20%``, floor-rounded, minimum 2). ``compare``
decodes all of its (policy, budget) cells in one pass (local and sink_local
in closed form, the others through a shared fill and then in lockstep per
cache size; see :mod:`kvcachelab.policies`), which returns each cell's
eviction schedule, then measures every cell in one shared pass over the
exact attention map; ``simulate`` makes the same passes for its one run,
so a cell's numbers equal the matching ``simulate`` summary. Budget specs
that resolve to one budget, in ``--budgets`` or in its default grid on a
short trace, are one cell.
``profile`` decodes nothing: it reads full attention's accumulated scores
off the exact attention map.

The CLI runs on one OpenBLAS thread: it sets ``OPENBLAS_NUM_THREADS=1``
before numpy loads unless the environment already sets it, so
``OPENBLAS_NUM_THREADS=2 kvcachelab ...`` runs two.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Iterable

# Each decode step is one small gemv, far too small for a second BLAS
# thread; OpenBLAS reads this only when numpy is first imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .errors import InvalidSpec, KVCacheLabError, MalformedTrace
from .metrics import deviation_reports, heavy_hitter_profile, trace_sparsity
from .policies import POLICY_KINDS, PolicyConfig, resolve_budget, run_policies, run_policy
from .trace import TRACE_KINDS, SyntheticTraceSpec, generate_trace, load_trace, save_trace


_FLOATS = (float, np.floating)


def write_csv(path: Path, header: list[str], rows: Iterable[Iterable]) -> None:
    """Write an iterable of rows as CSV, one line at a time: floats as their
    shortest round-trip repr, the rest as ``str``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [repr(float(cell)) if isinstance(cell, _FLOATS) else str(cell) for cell in row]
            fh.write(",".join(cells) + "\n")


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_manifest(out_dir: Path, command: str, config: dict, inputs: list[str], outputs: list[str], seed, started: float) -> Path:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "tool_version": __version__,
        "inputs": inputs,
        "outputs": outputs,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    path = out_dir / f"{command}.manifest.json"
    write_json(path, manifest)
    return path


def _policy_from_args(kind: str, budget: int, args) -> PolicyConfig:
    return PolicyConfig(
        kind=kind, budget=budget, recent_frac=args.recent_frac, sink=args.sink, stride=args.stride
    )


# --- subcommands ------------------------------------------------------------

def cmd_gen_trace(args) -> list[str]:
    spec = SyntheticTraceSpec(
        n=args.n, d=args.d, kind=args.kind, power_exponent=args.exponent, seed=args.seed
    )
    trace = generate_trace(spec)
    save_trace(trace, args.out)
    return [args.out]


def cmd_simulate(args) -> list[str]:
    trace = load_trace(args.trace)
    budget = resolve_budget(args.budget, trace.n)
    policy = _policy_from_args(args.policy, budget, args)
    evicted_at = run_policy(trace, policy)
    report = deviation_reports(trace, [evicted_at])[0]
    out = Path(args.out_dir)
    n = trace.n
    # each token's age when it left the cache, 0 for a refused token
    age = evicted_at - np.arange(1, n + 1)
    evicted = evicted_at <= n
    displaced = evicted & (age > 0)  # evicted from the cache, not refused
    # each step's victim, 0 while the cache fills
    victim = np.zeros(n + 1, dtype=np.int64)
    victim[evicted_at[evicted]] = np.flatnonzero(evicted) + 1
    # the cache grows by one token per step until it reaches the budget
    rows = (
        (i, min(i, budget), v or "", r, tv)
        for i, v, r, tv in zip(range(1, n + 1), victim[1:].tolist(), report.retained.tolist(), report.tv.tolist())
    )
    steps_csv = out / "simulate.steps.csv"
    write_csv(steps_csv, ["i", "cache_size", "evicted", "retained_mass", "tv"], rows)
    summary = out / "simulate.summary.json"
    write_json(
        summary,
        {
            "policy": policy.kind,
            "budget": budget,
            "n": trace.n,
            "mean_retained_mass": report.mean_retained,
            "mean_tv": report.mean_tv,
            "evictions": int(np.count_nonzero(evicted)),
            "refusals": int(np.count_nonzero(age == 0)),
            "mean_eviction_age": float(age[displaced].mean()) if displaced.any() else None,
        },
    )
    return [str(steps_csv), str(summary)]


def _distinct_items(text: str, flag: str, least: int, key=str) -> list[str]:
    """The non-empty items of a comma list, in order; an item whose ``key``
    repeats an earlier item's is dropped with a warning."""
    items = [item.strip() for item in text.split(",") if item.strip()]
    first = {}
    for item in items:
        first.setdefault(key(item), item)
    distinct = list(first.values())
    if len(distinct) < least:
        raise InvalidSpec(f"{flag} needs at least {least} distinct comma-separated entries")
    if len(distinct) != len(items):
        print(f"warning: duplicate {flag} entries removed", file=sys.stderr)
    return distinct


def cmd_compare(args) -> list[str]:
    trace = load_trace(args.trace)
    policies = _distinct_items(args.policies, "--policies", 2)
    # specs that resolve to one budget ("20%,60" at n=300, 4% and 10% below n=30) are one cell
    budgets = _distinct_items(args.budgets, "--budgets", 1, key=lambda b: resolve_budget(b, trace.n))
    cells = []
    for kind in policies:
        for b in budgets:
            cells.append((b, _policy_from_args(kind, resolve_budget(b, trace.n), args)))
    reports = deviation_reports(trace, run_policies(trace, [policy for _, policy in cells]))
    rows = [
        [policy.kind, b, policy.budget, report.mean_retained, report.mean_tv, min(policy.budget, trace.n) / trace.n]
        for (b, policy), report in zip(cells, reports)
    ]
    out = Path(args.out_dir)
    path = out / "compare.csv"
    write_csv(
        path,
        ["policy", "budget_spec", "budget", "mean_retained_mass", "mean_tv", "memory_ratio"],
        rows,
    )
    return [str(path)]


def cmd_sparsity(args) -> list[str]:
    trace = load_trace(args.trace)
    per_row = trace_sparsity(trace, threshold_frac=args.threshold_frac)
    out = Path(args.out_dir)
    path = out / "sparsity.csv"
    write_csv(path, ["row", "sparsity"], ((i + 1, s) for i, s in enumerate(per_row)))
    summary = out / "sparsity.summary.json"
    write_json(summary, {"mean_sparsity": float(per_row.mean()), "threshold_frac": args.threshold_frac})
    return [str(path), str(summary)]


def cmd_profile(args) -> list[str]:
    profile = heavy_hitter_profile(load_trace(args.trace))
    out = Path(args.out_dir)
    path = out / "profile.csv"
    rows = (
        (rank + 1, int(tok), score, norm)
        for rank, (tok, score, norm) in enumerate(
            zip(profile.tokens, profile.curve, profile.normalized)
        )
    )
    write_csv(path, ["rank", "token", "accumulated_score", "uniform_lift"], rows)
    summary = out / "profile.summary.json"
    write_json(summary, {f"top_{int(frac * 100)}pct_share": share for frac, share in profile.top_shares.items()})
    return [str(path), str(summary)]


def cmd_submodular_verify(args) -> list[str]:
    # the theory lab is imported only by the commands that run it
    from .submodular import verify_greedy

    path = Path(args.out_dir) / "submodular.report.json"
    write_json(path, verify_greedy(args.instances, args.eps, args.seed))
    return [str(path)]


def cmd_regress(args) -> list[str]:
    from .regression import newton_solve, random_problem

    problem = random_problem(n=args.n, d=args.d, seed=args.seed)
    result = newton_solve(problem, tol=args.tol)
    out = Path(args.out_dir)
    path = out / "regress.csv"
    rows = [[s.iteration, s.loss, s.grad_norm, s.min_eig] for s in result.states]
    write_csv(path, ["iter", "loss", "grad_norm", "min_eig"], rows)
    summary = out / "regress.summary.json"
    write_json(
        summary,
        {
            "n": args.n,
            "d": args.d,
            "seed": args.seed,
            "tol": args.tol,
            "converged": result.converged,
            "iterations": result.iterations,
            "final_grad_norm": result.states[-1].grad_norm,
        },
    )
    return [str(path), str(summary)]


# --- wiring --------------------------------------------------------------------

def non_negative_int(text: str) -> int:
    """argparse type for seeds (numpy rejects negatives) and counts."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def _add_policy_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--recent-frac", type=float, default=0.5)
    p.add_argument("--sink", type=int, default=4)
    p.add_argument("--stride", type=int, default=8)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kvcachelab",
        description="Budget-constrained KV-cache decoding, policy comparison and theory checks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, trace=True):
        p = sub.add_parser(name, help=help)
        if trace:
            p.add_argument("--trace", required=True)
        p.add_argument("--out-dir", default="./out")
        p.set_defaults(func=func)
        return p

    p = command("gen-trace", cmd_gen_trace, "write a synthetic trace file", trace=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--kind", default="uniform-gaussian", choices=TRACE_KINDS)
    p.add_argument("--exponent", type=float, default=1.0)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--out", required=True)

    p = command("simulate", cmd_simulate, "run one eviction policy over a trace")
    p.add_argument("--policy", default="h2o", choices=list(POLICY_KINDS))
    p.add_argument("--budget", default="20%")
    _add_policy_flags(p)

    p = command("compare", cmd_compare, "sweep policies over a budget grid")
    p.add_argument("--policies", default="h2o,local")
    p.add_argument("--budgets", default="4%,10%,20%,60%,100%", help="comma list, e.g. 4%%,20%%,64")
    _add_policy_flags(p)

    p = command("sparsity", cmd_sparsity, "per-row sparsity of exact attention")
    p.add_argument("--threshold-frac", type=float, default=0.01)

    command("profile", cmd_profile, "heavy-hitter profile under full attention")

    p = command("submodular-verify", cmd_submodular_verify, "greedy bound sweep vs brute force", trace=False)
    p.add_argument("--instances", type=non_negative_int, default=500)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--seed", type=non_negative_int, default=0)

    p = command("regress", cmd_regress, "Newton-solve a random softmax regression", trace=False)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--tol", type=float, default=1e-10)

    p = sub.add_parser("rerun", help="replay a manifest byte-identically")
    p.add_argument("manifest")
    p.add_argument("--out-dir")

    return parser


def _dispatch(args, argv_command: str) -> int:
    started = time.perf_counter()
    outputs = args.func(args)
    out_dir = Path(args.out_dir)
    config = {k: v for k, v in vars(args).items() if k not in ("func", "command", "out_dir")}
    inputs = [str(args.trace)] if getattr(args, "trace", None) else []
    write_manifest(out_dir, argv_command, config, inputs, outputs, seed=getattr(args, "seed", None), started=started)
    return 0


def _rerun(args) -> int:
    try:
        manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"manifest {args.manifest}: {exc}") from None
    if not isinstance(manifest, dict):
        raise InvalidSpec(f"manifest {args.manifest}: top level must be a JSON object")
    command = manifest.get("command")
    config = manifest.get("config", {})
    if not isinstance(command, str):
        raise InvalidSpec(f"manifest {args.manifest}: 'command' must be a string")
    if not isinstance(config, dict):
        raise InvalidSpec(f"manifest {args.manifest}: 'config' must be a JSON object")
    if command == "rerun":  # a replay always records the command it replayed
        raise InvalidSpec(f"manifest {args.manifest}: 'command' cannot be 'rerun'")
    parser = build_parser()
    argv = [command]
    for key, value in config.items():
        if value is None:
            continue
        argv.append(f"--{key.replace('_', '-')}")
        argv.append(str(value))
    if args.out_dir:
        argv.extend(["--out-dir", args.out_dir])
    try:
        replay = parser.parse_args(argv)
    except SystemExit:  # argparse has already printed why
        raise InvalidSpec(f"manifest {args.manifest}: not a valid {command!r} command line") from None
    return _dispatch(replay, command)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if args.command == "rerun":
            return _rerun(args)
        return _dispatch(args, args.command)
    except InvalidSpec as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, MalformedTrace) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except KVCacheLabError as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

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
(a bad flag or manifest, or a spec the library rejects with ``InvalidSpec``),
3 I/O error, 4 internal failure.

Budgets accept an absolute count (``--budget 64``) or a fraction of the
trace length (``--budget 20%``, floor-rounded, minimum 2). ``compare``
decodes all of its (policy, budget) cells in one pass (a shared fill, then
the cells of each cache size in lockstep; see :mod:`kvcachelab.policies`),
keeping only each run's eviction schedule, then measures every cell in one
shared pass over the exact attention map; ``simulate`` makes the same
passes for its one run, so a cell's numbers equal the matching
``simulate`` summary.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InvalidSpec, KVCacheLabError, MalformedTrace, MaxIterationsExceeded
from .metrics import (
    deviation_reports,
    heavy_hitter_profile,
    retained_mass,
    trace_sparsity,
)
from .policies import POLICY_KINDS, PolicyConfig, run_policies, run_policy
from .trace import TRACE_KINDS, SyntheticTraceSpec, generate_trace, load_trace, save_trace

DEFAULT_BUDGET_GRID = ("4%", "10%", "20%", "60%", "100%")


class UsageError(Exception):
    """Configuration problem; maps to exit code 2."""


_FLOATS = (float, np.floating)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """Write rows as CSV: floats as their shortest round-trip repr, the rest as ``str``."""
    lines = [",".join(header)]
    lines.extend(
        ",".join([repr(float(cell)) if isinstance(cell, _FLOATS) else str(cell) for cell in row])
        for row in rows
    )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_manifest(out_dir: Path, command: str, config: dict, inputs: list[str], outputs: list[str], seed, started: float) -> Path:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "tool_version": __version__,
        "inputs": inputs,
        "outputs": outputs,
        "wall_time_s": round(time.time() - started, 6),
    }
    path = out_dir / f"{command}.manifest.json"
    write_json(path, manifest)
    return path


def _floor_percent(text: str, n: int) -> int:
    """``floor(p * n / 100)`` for the decimal ``p`` in ``text``, in integers.

    ``text`` must be a string that ``float`` accepts. Float arithmetic
    would not floor exactly: ``0.29 * 100`` is 28.999999999999996.
    """
    mantissa, _, exp = text.strip().replace("_", "").lower().partition("e")
    whole, _, frac = mantissa.lstrip("+").partition(".")
    shift = int(exp or 0) - len(frac)  # p == int(whole + frac) * 10**shift
    num = int(whole + frac) * n
    return num * 10**shift // 100 if shift >= 0 else num // (100 * 10**-shift)


def resolve_budget(spec: str, n: int) -> int:
    """Absolute count, or percentage of n (floored exactly, at least 2)."""
    spec = str(spec).strip()
    try:
        if spec.endswith("%"):
            if not 0.0 < float(spec[:-1]) <= 100.0:
                raise ValueError
            return max(2, _floor_percent(spec[:-1], n))
        value = int(spec)
    except ValueError:
        raise UsageError(f"--budget {spec!r} is neither an integer nor a percentage") from None
    if value < 1:
        raise UsageError(f"--budget must be >= 1, got {value}")
    return value


def _ensure_out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


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


def _mean_eviction_age(record) -> float | None:
    """Mean of ``evicted_at[t - 1] - t`` over the evicted cached tokens.

    Refused tokens (evicted at their own step) are not counted; None when
    no cached token was evicted.
    """
    age = record.evicted_at - np.arange(1, record.n + 1)
    evicted = (age > 0) & (record.evicted_at <= record.n)
    return float(age[evicted].mean()) if evicted.any() else None


def cmd_simulate(args) -> list[str]:
    trace = load_trace(args.trace)
    budget = resolve_budget(args.budget, trace.n)
    policy = _policy_from_args(args.policy, budget, args)
    record = run_policy(trace, policy)
    report = retained_mass(trace, record)
    out = _ensure_out_dir(args)
    # the cache grows by one token per step until it reaches the budget
    rows = [
        [ev.step, min(ev.step, budget), "" if ev.evicted is None else ev.evicted, r, tv]
        for ev, r, tv in zip(record.events, report.retained.tolist(), report.tv.tolist())
    ]
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
            "evictions": sum(1 for ev in record.events if ev.evicted is not None),
            # victims that were the incoming token itself
            "refusals": sum(1 for ev in record.events if ev.evicted == ev.admitted),
            "mean_eviction_age": _mean_eviction_age(record),
        },
    )
    return [str(steps_csv), str(summary)]


def cmd_compare(args) -> list[str]:
    trace = load_trace(args.trace)
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    deduped = list(dict.fromkeys(policies))
    if len(deduped) < 2:
        raise UsageError("--policies needs at least two distinct comma-separated names")
    if len(deduped) != len(policies):
        print("warning: duplicate policy names removed", file=sys.stderr)
    budgets = [b.strip() for b in (args.budgets.split(",") if args.budgets else DEFAULT_BUDGET_GRID)]
    cells = []
    for kind in deduped:
        if kind not in POLICY_KINDS:
            raise UsageError(f"--policies contains unknown policy {kind!r}")
        for b in budgets:
            cells.append((b, _policy_from_args(kind, resolve_budget(b, trace.n), args)))
    schedules = [record.evicted_at for record in run_policies(trace, [policy for _, policy in cells])]
    reports = deviation_reports(trace, schedules)
    rows = [
        [policy.kind, b, policy.budget, report.mean_retained, report.mean_tv, policy.budget / trace.n]
        for (b, policy), report in zip(cells, reports)
    ]
    out = _ensure_out_dir(args)
    path = out / "compare.csv"
    write_csv(
        path,
        ["policy", "budget_spec", "budget", "mean_retained_mass", "mean_tv", "memory_ratio"],
        rows,
    )
    return [str(path)]


def cmd_sparsity(args) -> list[str]:
    trace = load_trace(args.trace)
    report = trace_sparsity(trace, threshold_frac=args.threshold_frac)
    out = _ensure_out_dir(args)
    path = out / "sparsity.csv"
    write_csv(path, ["row", "sparsity"], [[i + 1, s] for i, s in enumerate(report.per_row)])
    summary = out / "sparsity.summary.json"
    write_json(summary, {"mean_sparsity": report.mean, "threshold_frac": report.threshold_frac})
    return [str(path), str(summary)]


def cmd_profile(args) -> list[str]:
    trace = load_trace(args.trace)
    # a window as long as the trace evicts nothing
    full = run_policy(trace, PolicyConfig(kind="local", budget=trace.n))
    profile = heavy_hitter_profile(full.final_scores, trace.n)
    out = _ensure_out_dir(args)
    path = out / "profile.csv"
    rows = [
        [rank + 1, int(tok), score, norm]
        for rank, (tok, score, norm) in enumerate(
            zip(profile.tokens, profile.curve, profile.normalized)
        )
    ]
    write_csv(path, ["rank", "token", "accumulated_score", "uniform_lift"], rows)
    summary = out / "profile.summary.json"
    write_json(summary, {f"top_{int(frac * 100)}pct_share": share for frac, share in profile.top_shares.items()})
    return [str(path), str(summary)]


def _random_instance(rng: np.random.Generator):
    from .submodular import SubmodularInstance

    n = int(rng.integers(6, 13))
    k = int(rng.integers(1, 5))
    kind = ("modular", "budget_additive", "coverage")[int(rng.integers(3))]
    if kind == "modular":
        inst = SubmodularInstance.modular(rng.random(n) * 10)
    elif kind == "budget_additive":
        inst = SubmodularInstance.budget_additive(rng.random(n) * 10, cap=float(rng.random() * 15))
    else:
        universe = int(rng.integers(5, 15))
        sets = [set(rng.choice(universe, size=rng.integers(1, universe), replace=False).tolist()) for _ in range(n)]
        inst = SubmodularInstance.coverage(sets)
    return inst, k


def cmd_submodular_verify(args) -> list[str]:
    # the theory lab is imported only by the commands that run it
    from .submodular import (
        GREEDY_RATIO,
        NoisyOracle,
        brute_force_opt,
        greedy,
        robust_greedy,
        robust_greedy_floor,
    )

    rng = np.random.default_rng(args.seed)
    violations = 0
    worst_ratio = 1.0
    eps = args.eps
    for _ in range(args.instances):
        inst, k = _random_instance(rng)
        opt = brute_force_opt(inst, k)
        sel = greedy(inst, k)
        if opt.value > 0:
            worst_ratio = min(worst_ratio, sel.value / opt.value)
        if sel.value < GREEDY_RATIO * opt.value - 1e-9:
            violations += 1
        noisy = robust_greedy(NoisyOracle(inst, eps=eps, seed=int(rng.integers(2**62))), k)
        if noisy.value < robust_greedy_floor(opt.value, k, eps) - 1e-9:
            violations += 1
    out = _ensure_out_dir(args)
    path = out / "submodular.report.json"
    write_json(
        path,
        {
            "instances": args.instances,
            "noise_eps": eps,
            "violations": violations,
            "worst_ratio": worst_ratio,
            "guarantee": GREEDY_RATIO,
        },
    )
    return [str(path)]


def cmd_regress(args) -> list[str]:
    from .regression import newton_solve, random_problem

    problem = random_problem(n=args.n, d=args.d, seed=args.seed)
    try:
        result = newton_solve(problem, tol=args.tol)
    except MaxIterationsExceeded as exc:  # keep the partial trajectory in the CSV
        result = exc.trajectory
    out = _ensure_out_dir(args)
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
    p.add_argument("--recent-frac", dest="recent_frac", type=float, default=0.5)
    p.add_argument("--sink", type=int, default=4)
    p.add_argument("--stride", type=int, default=8)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kvcachelab",
        description="Budget-constrained KV-cache decoding, policy comparison and theory checks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-trace", help="write a synthetic trace file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--kind", default="uniform-gaussian", choices=TRACE_KINDS)
    p.add_argument("--exponent", type=float, default=1.0)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--out-dir", dest="out_dir", default="./out")
    p.set_defaults(func=cmd_gen_trace)

    p = sub.add_parser("simulate", help="run one eviction policy over a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--policy", default="h2o", choices=list(POLICY_KINDS))
    p.add_argument("--budget", default="20%")
    _add_policy_flags(p)
    p.add_argument("--out-dir", dest="out_dir", default="./out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="sweep policies over a budget grid")
    p.add_argument("--trace", required=True)
    p.add_argument("--policies", default="h2o,local")
    p.add_argument("--budgets", default=None, help="comma list, e.g. 4%%,20%%,64")
    _add_policy_flags(p)
    p.add_argument("--out-dir", dest="out_dir", default="./out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sparsity", help="per-row sparsity of exact attention")
    p.add_argument("--trace", required=True)
    p.add_argument("--threshold-frac", dest="threshold_frac", type=float, default=0.01)
    p.add_argument("--out-dir", dest="out_dir", default="./out")
    p.set_defaults(func=cmd_sparsity)

    p = sub.add_parser("profile", help="heavy-hitter profile under full attention")
    p.add_argument("--trace", required=True)
    p.add_argument("--out-dir", dest="out_dir", default="./out")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("submodular-verify", help="greedy bound sweep vs brute force")
    p.add_argument("--instances", type=non_negative_int, default=500)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--out-dir", dest="out_dir", default="./out")
    p.set_defaults(func=cmd_submodular_verify)

    p = sub.add_parser("regress", help="Newton-solve a random softmax regression")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out-dir", dest="out_dir", default="./out")
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("rerun", help="replay a manifest byte-identically")
    p.add_argument("manifest")
    p.add_argument("--out-dir", dest="out_dir", default=None)
    p.set_defaults(func=None)

    return parser


def _args_config(args) -> dict:
    skip = {"func", "command", "out_dir"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def _dispatch(args, argv_command: str) -> int:
    started = time.time()
    outputs = args.func(args)
    out_dir = Path(getattr(args, "out_dir", "./out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    config = _args_config(args)
    inputs = [str(args.trace)] if getattr(args, "trace", None) else []
    write_manifest(
        out_dir,
        argv_command,
        config,
        inputs,
        outputs,
        seed=getattr(args, "seed", None),
        started=started,
    )
    return 0


def _rerun(args) -> int:
    try:
        manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise UsageError(f"manifest {args.manifest}: {exc}") from None
    if not isinstance(manifest, dict):
        raise UsageError(f"manifest {args.manifest}: top level must be a JSON object")
    command = manifest.get("command")
    config = manifest.get("config", {})
    if not isinstance(command, str):
        raise UsageError(f"manifest {args.manifest}: 'command' must be a string")
    if not isinstance(config, dict):
        raise UsageError(f"manifest {args.manifest}: 'config' must be a JSON object")
    if command == "rerun":  # a replay always records the command it replayed
        raise UsageError(f"manifest {args.manifest}: 'command' cannot be 'rerun'")
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
        raise UsageError(f"manifest {args.manifest}: not a valid {command!r} command line") from None
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
    except (UsageError, InvalidSpec) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, MalformedTrace) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except (KVCacheLabError, AssertionError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

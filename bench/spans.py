"""Outside-in tracing of ``kvcachelab``: wrappers, spans and layer metrics.

The tracer replaces each target function at every module attribute bound
to that function object (and methods on their class), so calls made
through ``from .x import f`` bindings are seen too. Library code is not
edited. A target that does not exist is skipped and reports 0 calls.

Spans stay in memory as ``(id, parent, name, thread, start_ns, end_ns)``
tuples in per-thread buffers; the span stack is per thread as well, because
``compare`` runs cells on a worker pool. A span opened on a thread whose
stack is empty takes as parent the outermost span open on the thread that
installed the tracer: the benchmark is the only client, so that span
(``cli.main``) caused the work handed to the pool.

Probes attached to some targets count work at the same boundary:
q·k products per ``softmax_over`` call, split by whether a
``masked_step`` (decode) or a ``metrics.*`` span is on the stack; trace
steps per ``run_policy``; refused admissions per ``swap``; bytes read by
``load_trace`` and written by the CLI's writers.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path


def _products(st, args, kwargs, result) -> None:
    tokens = args[2] if len(args) > 2 else kwargs.get("tokens")
    count = len(tokens)
    names = [name for _, name in st.stack]
    if "attention.masked_step" in names:
        st.counters["attention.logits_decode"] += count
    elif any(name.startswith("metrics.") for name in names):
        st.counters["attention.logits_metrics"] += count


def _steps(st, args, kwargs, result) -> None:
    trace = args[0] if args else kwargs.get("trace")
    st.counters["policies.steps"] += trace.n


def _refusal(st, args, kwargs, result) -> None:
    evicted = getattr(result, "evicted", None)
    if evicted is not None and evicted == getattr(result, "admitted", None):
        st.counters["cache.refusals"] += 1


def _file_size(path) -> int:
    try:
        return os.stat(path).st_size
    except (OSError, TypeError, ValueError):
        return 0


def _bytes_read(st, args, kwargs, result) -> None:
    st.counters["trace.bytes_read"] += _file_size(args[0] if args else kwargs.get("path"))


def _bytes_written(st, args, kwargs, result) -> None:
    st.counters["cli.bytes_written"] += _file_size(args[0] if args else kwargs.get("path"))


# (span name, module, attribute path, probe)
TARGETS = (
    ("trace.load_trace", "kvcachelab.trace", "load_trace", _bytes_read),
    ("attention.softmax_over", "kvcachelab.attention", "softmax_over", _products),
    ("attention.exact_row", "kvcachelab.attention", "exact_row", None),
    ("attention.masked_step", "kvcachelab.attention", "masked_step", None),
    ("cache.admit", "kvcachelab.cache", "CacheState.admit", None),
    ("cache.swap", "kvcachelab.cache", "CacheState.swap", _refusal),
    ("policies.run_policy", "kvcachelab.policies", "run_policy", _steps),
    ("policies.update_scores", "kvcachelab.policies", "update_scores", None),
    ("policies.decide", "kvcachelab.policies", "decide", None),
    ("metrics.retained_mass", "kvcachelab.metrics", "retained_mass", None),
    ("metrics.trace_sparsity", "kvcachelab.metrics", "trace_sparsity", None),
    ("metrics.heavy_hitter_profile", "kvcachelab.metrics", "heavy_hitter_profile", None),
    ("cli.main", "kvcachelab.cli", "main", None),
    ("cli.write_csv", "kvcachelab.cli", "write_csv", _bytes_written),
    ("cli.write_json", "kvcachelab.cli", "write_json", _bytes_written),
    ("cli.write_manifest", "kvcachelab.cli", "write_manifest", None),
)

WRITERS = ("cli.write_csv", "cli.write_json", "cli.write_manifest")
PACKAGE = "kvcachelab"


class _ThreadState:
    def __init__(self, thread: int):
        self.thread = thread
        self.stack: list[tuple[int, str]] = []
        self.spans: list[tuple] = []
        self.counters: defaultdict[str, int] = defaultdict(int)


class Tracer:
    """Install wrappers around ``targets`` and collect their spans."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.missing: list[str] = []
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self._owner: int | None = None
        self._root: int | None = None

    # -- installation ---------------------------------------------------------

    def install(self) -> "Tracer":
        self._owner = threading.get_ident()
        self.missing = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for name, module_name, attr_path, probe in self.targets:
            owner, attr, original = self._resolve(module_name, attr_path)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, probe)
            if owner is not None:  # a method: patch the class attribute
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        return self

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _resolve(self, module_name: str, attr_path: str):
        module = sys.modules.get(module_name)
        if module is None:
            return None, None, None
        *owners, attr = attr_path.split(".")
        owner = module
        for part in owners:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None, None
        original = vars(owner).get(attr) if owners else getattr(owner, attr, None)
        if not callable(original):
            return None, None, None
        return (owner if owners else None), attr, original

    def _patch(self, target, attr: str, wrapper) -> None:
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, wrapper)

    # -- recording --------------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            self._local.state = st
            self._states.append(st)
        return st

    def _wrap(self, name: str, fn, probe):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            parent = stack[-1][0] if stack else tracer._root
            sid = next(tracer._ids)
            outermost = not stack and st.thread == tracer._owner
            if outermost:
                tracer._root = sid
            stack.append((sid, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if outermost:
                    tracer._root = None
                st.spans.append((sid, parent, name, st.thread, start, end))
            if probe is not None:
                probe(st, args, kwargs, result)
            return result

        return wrapper

    def take(self) -> tuple[list[tuple], dict[str, int]]:
        """Return and clear the spans and counters recorded so far."""
        spans: list[tuple] = []
        counters: dict[str, int] = defaultdict(int)
        for st in list(self._states):
            spans.extend(st.spans)
            st.spans = []
            for key, value in st.counters.items():
                counters[key] += value
            st.counters.clear()
        spans.sort()
        return spans, dict(counters)


# -- layer metrics -------------------------------------------------------------

def _union_ns(intervals: list[tuple[int, int]]) -> int:
    covered, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def span_totals(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds, and self seconds.

    Self time is a span's duration minus the part of its interval that its
    child spans cover (children on other threads included), so overlapping
    children are not counted twice.
    """
    children: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
    for sid, parent, name, thread, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "child_s": 0.0})
    for sid, parent, name, thread, start, end in spans:
        duration = end - start
        inner = _union_ns(children.get(sid, []))
        entry = totals[name]
        entry["calls"] += 1
        entry["s"] += duration / 1e9
        entry["self_s"] += (duration - inner) / 1e9
        entry["child_s"] += inner / 1e9
    return dict(totals)


def outermost_seconds(spans: list[tuple], names) -> float:
    """Total time of spans named in ``names`` that have no such ancestor."""
    names = set(names)
    name_of = {s[0]: s[2] for s in spans}
    parent_of = {s[0]: s[1] for s in spans}
    total = 0
    for sid, parent, name, thread, start, end in spans:
        if name not in names:
            continue
        while parent is not None and name_of.get(parent) not in names:
            parent = parent_of.get(parent)
        if parent is None:
            total += end - start
    return total / 1e9


def layer_metrics(spans: list[tuple], counters: dict[str, int], wall_s: float) -> dict[str, float]:
    """The per-layer metrics the benchmark reports for one traced repetition."""
    totals = span_totals(spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "child_s": 0.0}

    def t(name: str) -> dict[str, float]:
        return totals.get(name, empty)

    swaps = t("cache.swap")["calls"]
    refusals = counters.get("cache.refusals", 0)
    main = t("cli.main")
    return {
        "policies.run_policy.s": t("policies.run_policy")["s"],
        "policies.run_policy.self_s": t("policies.run_policy")["self_s"],
        "policies.update_scores.s": t("policies.update_scores")["s"],
        "policies.decide.s": t("policies.decide")["s"],
        "policies.decide.calls": t("policies.decide")["calls"],
        "policies.steps": counters.get("policies.steps", 0),
        "attention.masked_step.s": t("attention.masked_step")["s"],
        "attention.masked_step.self_s": t("attention.masked_step")["self_s"],
        "attention.softmax_over.s": t("attention.softmax_over")["s"],
        "attention.exact_row.calls": t("attention.exact_row")["calls"],
        "attention.logits_decode": counters.get("attention.logits_decode", 0),
        "attention.logits_metrics": counters.get("attention.logits_metrics", 0),
        "metrics.retained_mass.s": t("metrics.retained_mass")["s"],
        "metrics.retained_mass.self_s": t("metrics.retained_mass")["self_s"],
        "metrics.trace_sparsity.s": t("metrics.trace_sparsity")["s"],
        "metrics.heavy_hitter_profile.s": t("metrics.heavy_hitter_profile")["s"],
        "cache.admit.calls": t("cache.admit")["calls"],
        "cache.swap.calls": swaps,
        "cache.refusals": refusals,
        "cache.refusal_share": refusals / swaps if swaps else 0.0,
        "trace.load_trace.s": t("trace.load_trace")["s"],
        "trace.bytes_read": counters.get("trace.bytes_read", 0),
        "cli.main.s": main["s"],
        "cli.main.self_s": main["self_s"],
        "cli.write.s": outermost_seconds(spans, WRITERS),
        "cli.bytes_written": counters.get("cli.bytes_written", 0),
        "tracing.child_coverage": main["child_s"] / wall_s if wall_s > 0 else 0.0,
    }


def write_spans(path: Path, spans: list[tuple]) -> None:
    """Write spans as gzipped JSON lines: id, parent, name, thread, start_ns, end_ns."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for sid, parent, name, thread, start, end in spans:
            fh.write(json.dumps([sid, parent, name, thread, start, end]) + "\n")

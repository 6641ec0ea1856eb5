"""Span recorder for the traced run, and the per-layer figures drawn from it.

The recorder wraps public names of dscfw modules in each importer's
namespace (``run`` as seen from ``peel``, for instance), so every call the
clustering makes through that name records a span: its name, its thread,
its parent span, and wall and thread-CPU clocks at both ends. A call on a
thread with no open span of its own (a multistart pool thread) takes the
caller thread's innermost open span as its parent, so pool solves attach
to the pass whose pool started them. Wrappers exist only between
``install`` and ``restore``; the timed runs never see them.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

GOOD_STEPS = {"FwGood", "AwayGood", "PairwiseGood"}
OP = "bench.op"  # the span the benchmark opens around one clustering


def _describe_run(args, kwargs, result) -> dict:
    _x, trace, reason = result
    kinds = [getattr(rec.kind, "value", rec.kind) for rec in trace]
    return {"steps": len(kinds),
            "good": sum(k in GOOD_STEPS for k in kinds),
            "max_iters": getattr(reason, "value", reason) == "MaxIters"}


def _describe_multistart(args, kwargs, result) -> dict:
    clustering, passes = result
    return {"passes": passes, "clusters": len(clustering.clusters)}


def _describe_load_csv(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


# (module, name in that module, span name, describer). Spans are named
# <layer>.<what>; the layer is a module of dscfw, or "bench".
WRAPS = [
    ("dscfw.data", "pairwise_euclidean", "data.pairwise_euclidean", None),
    ("dscfw.data", "minimax_distances", "data.minimax_distances", None),
    ("dscfw.data", "max_transform", "data.max_transform", None),
    ("workloads", "gauss_similarity", "data.similarity", None),
    ("dscfw.data", "new_similarity_matrix", "matrix.validate", None),
    ("dscfw.matrix", "new_similarity_matrix", "matrix.validate", None),
    ("dscfw.peel", "new_similarity_matrix", "matrix.validate", None),
    ("dscfw.cli", "load_matrix_csv", "matrix.load_csv", _describe_load_csv),
    ("dscfw.peel", "run", "solvers.run", _describe_run),
    ("dscfw.multistart", "run", "solvers.run", _describe_run),
    ("dscfw.solvers", "run", "solvers.run", _describe_run),
    ("dscfw.peel", "peel", "peel.peel", None),
    ("dscfw.cli", "peel", "peel.peel", None),
    ("dscfw.multistart", "multistart_cluster", "multistart.cluster",
     _describe_multistart),
    ("dscfw.multistart", "two_step_dpp_sample", "multistart.sample", None),
    ("dscfw.multistart", "uniform_block_sample", "multistart.sample", None),
    ("dscfw.multistart", "ThreadPoolExecutor", "multistart.pool", None),
    ("dscfw.cli", "main", "cli.main", None),
    ("dscfw.cli", "save_trace_csv", "cli.save_trace", None),
]


def wrapped_targets() -> list:
    """The objects WRAPS names, as their modules hold them now (None where
    the module or the name is missing)."""
    out = []
    for module, attr, _, _ in WRAPS:
        try:
            out.append(getattr(importlib.import_module(module), attr, None))
        except ImportError:
            out.append(None)
    return out


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    thread: int
    t0: float
    cpu0: float
    t1: float = 0.0
    cpu1: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    @property
    def wait(self) -> float:
        """Wall time not spent on this thread's CPU."""
        return max(0.0, self.dur - (self.cpu1 - self.cpu0))


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root = self._stack()  # the stack of the thread that made us

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        outer = stack or self._root
        parent = outer[-1].sid if outer else None
        with self._lock:
            span = Span(len(self.spans), parent, name, threading.get_ident(),
                        time.perf_counter(), time.thread_time())
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        span.cpu1 = time.thread_time()
        self._stack().pop()

    def install(self) -> None:
        for module, attr, name, describe in WRAPS:
            try:
                mod = importlib.import_module(module)
                orig = getattr(mod, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module}.{attr}")
                continue
            setattr(mod, attr, self._wrap(orig, name, describe))
            self._patches.append((mod, attr, orig))

    def restore(self) -> None:
        while self._patches:
            mod, attr, orig = self._patches.pop()
            setattr(mod, attr, orig)

    def _wrap(self, orig, name: str, describe):
        rec = self
        if isinstance(orig, type):
            # A context-manager class (the pool): its with-block is the span.
            class Traced(orig):
                def __enter__(self):
                    self._span = rec.open(name)
                    return super().__enter__()

                def __exit__(self, *exc):
                    try:
                        return super().__exit__(*exc)
                    finally:
                        rec.close(self._span)

            return Traced

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            span = rec.open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                rec.close(span)
            if describe is not None:
                span.attrs.update(describe(args, kwargs, result))
            return result

        return traced

    def as_records(self) -> list[dict]:
        return [{"id": s.sid, "parent": s.parent, "name": s.name,
                 "thread": s.thread, "t0": s.t0, "t1": s.t1,
                 "cpu_s": s.cpu1 - s.cpu0, **s.attrs} for s in self.spans]


def _attribute(op: Span, members: list[Span], depth: dict[int, int]) -> dict:
    """Split the op's wall time among its spans: each instant goes to the
    deepest span open at that instant. The shares sum to the op's duration;
    a span's share is its self time, except that an instant covered by two
    pool solves at once goes to only one of them."""
    cuts = sorted({min(max(t, op.t0), op.t1)
                   for s in members for t in (s.t0, s.t1)})
    share: dict[int, float] = defaultdict(float)
    for a, b in zip(cuts, cuts[1:]):
        mid = (a + b) / 2.0
        owner = max((s for s in members if s.t0 <= mid < s.t1),
                    key=lambda s: depth[s.sid])
        share[owner.sid] += b - a
    return share


def layer_figures(rec: Recorder) -> tuple[dict[str, float], dict]:
    """Per-clustering figures from the traced ops, averaged over ops, and
    a breakdown of the median op's wall time by layer."""
    children: dict[int | None, list[Span]] = defaultdict(list)
    for s in rec.spans:
        children[s.parent].append(s)
    ops = [s for s in rec.spans if s.name == OP]
    if not ops:
        return {}, {}
    totals: dict[str, float] = defaultdict(float)
    attributed: list[float] = []
    layers_by_op: list[dict[str, float]] = []
    for op in ops:
        members, depth = [], {}
        todo = [(op, 0)]
        while todo:
            span, d = todo.pop()
            members.append(span)
            depth[span.sid] = d
            todo.extend((c, d + 1) for c in children[span.sid])
        parent_name = {s.sid: s.name for s in members}
        share = _attribute(op, members, depth)
        layers: dict[str, float] = defaultdict(float)
        for s in members:
            layers[s.name.split(".", 1)[0]] += share[s.sid]
            totals[f"self:{s.name}"] += share[s.sid]
            totals[f"dur:{s.name}"] += s.dur
            totals[f"count:{s.name}"] += 1
            if s.name == "solvers.run":
                under = parent_name.get(s.parent, "")
                totals["run_cpu"] += s.cpu1 - s.cpu0
                totals["steps"] += s.attrs.get("steps", 0)
                totals["good"] += s.attrs.get("good", 0)
                totals["max_iters"] += s.attrs.get("max_iters", False)
                if under == "peel.peel":
                    totals["peel_rounds"] += 1
                if under.startswith("multistart."):
                    totals["ms_solves"] += 1
                    totals["ms_wait"] += s.wait
                if under == "cli.main":
                    totals["cli_trace_solve"] += s.dur
            for key in ("passes", "clusters", "bytes"):
                totals[f"{key}:{s.name}"] += s.attrs.get(key, 0)
        attributed.append(1.0 - layers.pop("bench", 0.0) / op.dur)
        layers_by_op.append(dict(layers, op_s=op.dur))
    k = len(ops)
    t = defaultdict(float, {key: v / k for key, v in totals.items()})
    steps, solves, rounds = totals["steps"], totals["ms_solves"], t["peel_rounds"]
    figures = {
        "data.minimax_distances_s": t["self:data.minimax_distances"],
        "data.pairwise_euclidean_s": t["self:data.pairwise_euclidean"],
        "data.max_transform_s": t["self:data.max_transform"],
        "data.similarity_s": t["dur:data.similarity"],
        "matrix.validate_s": t["self:matrix.validate"],
        "matrix.validate_calls": t["count:matrix.validate"],
        "matrix.load_csv_s": t["self:matrix.load_csv"],
        "matrix.load_csv_bytes": t["bytes:matrix.load_csv"],
        "solvers.run_s": t["self:solvers.run"],
        "solvers.runs": t["count:solvers.run"],
        "solvers.steps": t["steps"],
        "solvers.us_per_step": 1e6 * totals["run_cpu"] / steps if steps else 0.0,
        "solvers.max_iters_stops": t["max_iters"],
        "solvers.good_step_ratio": totals["good"] / steps if steps else 0.0,
        "peel.rounds": rounds,
        "peel.self_s": t["self:peel.peel"],
        "peel.self_s_per_round":
            t["self:peel.peel"] / rounds if rounds else 0.0,
        "multistart.passes": t["passes:multistart.cluster"],
        "multistart.solves": t["ms_solves"],
        "multistart.accepted_ratio":
            totals["clusters:multistart.cluster"] / solves
            if solves else 0.0,
        "multistart.sample_s": t["self:multistart.sample"],
        "multistart.self_s": t["self:multistart.cluster"]
        + t["self:multistart.pool"],
        "multistart.solve_wait_s": t["ms_wait"],
        "cli.main_s": t["dur:cli.main"],
        "cli.self_s": t["self:cli.main"],
        "cli.trace_solve_s": t["cli_trace_solve"],
        "cli.save_trace_s": t["self:cli.save_trace"],
        "trace.cluster_s_p50": statistics.median(op.dur for op in ops),
        "trace.attributed_ratio": statistics.median(attributed),
    }
    median_op = sorted(layers_by_op, key=lambda d: d["op_s"])[(k - 1) // 2]
    return figures, median_op

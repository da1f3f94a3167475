"""Span recorder and layer wrappers for the traced benchmark run.

The library has no instrumentation of its own, so the traced run wraps
the public functions each layer exposes, at the lookup site its caller
uses (``from ..kernels import pairwise_kernel`` binds the name in
``repro.core.metrics``, so the wrapper goes there).  Every wrapped call
becomes a span: name, start, end and the span that was open when it
began on the same thread.  A span's self time is its duration minus the
durations of its direct children, so within one thread the self times
of a tree add up to its root's duration; :meth:`Tracer.check_self_times`
verifies that for every root.

Spans stay in memory and are written once, at the end, as JSON lines and
as a Chrome trace-event file (``chrome://tracing`` or Perfetto open it).
Only the first ``keep`` spans are stored individually; every span, kept
or not, feeds the per-name aggregates the per-layer metrics come from.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import threading
import time
from collections import defaultdict

perf = time.perf_counter


class _Frame:
    __slots__ = ("name", "layer", "start", "child", "index", "parent_index",
                 "root")

    def __init__(self, name, layer, index, parent_index, root):
        self.name = name
        self.layer = layer
        self.start = 0.0
        self.child = 0.0
        self.index = index
        self.parent_index = parent_index
        self.root = root


class _Root:
    __slots__ = ("self_sum",)

    def __init__(self):
        self.self_sum = 0.0


class Tracer:
    """In-memory span recorder shared by every thread of one process."""

    def __init__(self, keep: int = 100_000):
        self.keep = keep
        self.t0 = perf()
        self._tls = threading.local()
        self._lock = threading.Lock()
        self.records: "list[tuple | None]" = []
        self.dropped = 0
        #: span name -> [count, total seconds, self seconds, seconds in
        #: outermost spans of that name (a nested call is not counted twice)]
        self.by_name: "dict[str, list]" = defaultdict(
            lambda: [0, 0.0, 0.0, 0.0])
        #: layer -> seconds inside outermost spans of that layer
        self.layer_s: "dict[str, float]" = defaultdict(float)
        self.counters: "dict[str, float]" = defaultdict(float)
        #: (name, duration, sum of self times in its tree) per root span
        self.roots: "list[tuple[str, float, float]]" = []

    def _state(self):
        st = getattr(self._tls, "stack", None)
        if st is None:
            st = self._tls.stack = []
            self._tls.depth = defaultdict(int)  # open spans per layer / name
        return st, self._tls.depth

    def begin(self, name: str) -> _Frame:
        stack, depth = self._state()
        layer = name.split(".", 1)[0]
        parent = stack[-1] if stack else None
        with self._lock:
            if len(self.records) < self.keep:
                index = len(self.records)
                self.records.append(None)
            else:
                index = -1
                self.dropped += 1
        frame = _Frame(name, layer, index, parent.index if parent else -1,
                       parent.root if parent else _Root())
        depth[layer] += 1
        depth[name] += 1
        stack.append(frame)
        frame.start = perf()
        return frame

    def end(self, frame: _Frame) -> float:
        end = perf()
        stack, depth = self._state()
        stack.pop()
        dur = end - frame.start
        self_s = dur - frame.child
        frame.root.self_sum += self_s
        depth[frame.layer] -= 1
        depth[frame.name] -= 1
        if stack:
            stack[-1].child += dur
        with self._lock:
            agg = self.by_name[frame.name]
            agg[0] += 1
            agg[1] += dur
            agg[2] += self_s
            if depth[frame.name] == 0:
                agg[3] += dur
            if depth[frame.layer] == 0:
                self.layer_s[frame.layer] += dur
            if not stack:
                self.roots.append((frame.name, dur, frame.root.self_sum))
            if frame.index >= 0:
                self.records[frame.index] = (
                    frame.name, threading.get_ident(), frame.start - self.t0,
                    end - self.t0, frame.parent_index, self_s)
        return dur

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = max(self.counters.get(name, 0.0), value)

    # -- reading ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.by_name[name][0] if name in self.by_name else 0

    def total(self, name: str) -> float:
        """Seconds inside outermost spans of ``name``."""
        return self.by_name[name][3] if name in self.by_name else 0.0

    def self_time(self, name: str) -> float:
        return self.by_name[name][2] if name in self.by_name else 0.0

    def check_self_times(self) -> "list[str]":
        """Roots whose tree's self times do not add up to their duration."""
        bad = []
        for name, dur, self_sum in self.roots:
            if abs(self_sum - dur) > 1e-6 * max(1.0, dur):
                bad.append(f"{name}: self sum {self_sum:.9f} != wall {dur:.9f}")
        return bad

    def export(self) -> dict:
        """Aggregates as plain data (the traced server hands these over)."""
        return {
            "by_name": {k: list(v) for k, v in self.by_name.items()},
            "layer_s": dict(self.layer_s),
            "counters": dict(self.counters),
            "roots": [list(r) for r in self.roots],
        }

    def merge(self, doc: dict) -> None:
        """Fold another process's :meth:`export` into this tracer."""
        for k, v in doc["by_name"].items():
            agg = self.by_name[k]
            for i in range(4):
                agg[i] += v[i]
        for k, v in doc["layer_s"].items():
            self.layer_s[k] += v
        for k, v in doc["counters"].items():
            if k.endswith("_peak"):
                self.counters[k] = max(self.counters.get(k, 0.0), v)
            else:
                self.counters[k] += v
        self.roots.extend(tuple(r) for r in doc["roots"])

    def write(self, stem: str) -> "tuple[str, str]":
        """Write the kept spans as ``<stem>.jsonl`` and ``<stem>.trace.json``."""
        os.makedirs(os.path.dirname(stem) or ".", exist_ok=True)
        jsonl, chrome = stem + ".jsonl", stem + ".trace.json"
        events = []
        pid = os.getpid()
        with open(jsonl, "w") as fh:
            for i, rec in enumerate(self.records):
                if rec is None:
                    continue  # still open when written (cannot happen at end)
                name, tid, start, end, parent, self_s = rec
                fh.write(json.dumps({
                    "id": i, "name": name, "tid": tid, "start": start,
                    "end": end, "parent": parent, "self": self_s}) + "\n")
                events.append({
                    "name": name, "ph": "X", "pid": pid, "tid": tid,
                    "ts": start * 1e6, "dur": (end - start) * 1e6,
                    "args": {"id": i, "parent": parent}})
        with open(chrome, "w") as fh:
            json.dump({"traceEvents": events,
                       "otherData": {"dropped_spans": self.dropped}}, fh)
        return jsonl, chrome


class _SpanContext:
    __slots__ = ("tracer", "name", "frame")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.frame = self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.end(self.frame)
        return False


# ---------------------------------------------------------------------------
# Layer wrappers
# ---------------------------------------------------------------------------


def _spanned(tracer: Tracer, name: str, fn, observe=None):
    """``fn`` inside a span; ``observe(args, kwargs, result)`` records counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(frame)
        if observe is not None:
            observe(args, kwargs, out)
        return out

    return wrapper


class Patches:
    """Replaced attributes, restorable in reverse order."""

    def __init__(self):
        self._undo: "list[tuple[object, str, object]]" = []

    def replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def _wrap(patches: Patches, tracer: Tracer, owner, attr: str, name: str,
          observe=None) -> None:
    static = inspect.getattr_static(owner, attr)
    if isinstance(static, classmethod):
        fn = _spanned(tracer, name, static.__func__, observe)
        patches.replace(owner, attr, classmethod(fn))
    else:
        patches.replace(owner, attr, _spanned(tracer, name, static, observe))


def install(tracer: Tracer) -> Patches:
    """Wrap every layer boundary of the chain the benchmark measures."""
    import numpy as np

    from repro.api import session as api_session
    from repro.api.session import KCenterSession
    from repro.core import mbc as core_mbc
    from repro.core import metrics as core_metrics
    from repro.core import greedy as core_greedy
    from repro.geometry.grid import GridLevel, PointGrid, PointGridHierarchy
    from repro.mpc import tasks as mpc_tasks
    from repro.mpc import two_round
    from repro.sketches.f0 import F0Estimator
    from repro.sketches.sparse_recovery import SSparseRecovery
    from repro.store.spool import StoreSource
    from repro.streaming import dynamic as dyn
    from repro.streaming import insertion_only as ins

    p = Patches()

    # repro.store: one span per chunk pulled from a store
    chunks = StoreSource.chunks

    def traced_chunks(self, *args, **kwargs):
        it = chunks(self, *args, **kwargs)
        while True:
            frame = tracer.begin("store.read")
            try:
                item = next(it, None)
            finally:
                tracer.end(frame)
            if item is None:
                return
            pts, w = item
            tracer.count("store.chunks")
            tracer.count("store.bytes",
                         pts.nbytes + (0 if w is None else w.nbytes))
            yield item

    p.replace(StoreSource, "chunks", traced_chunks)

    # repro.api: the session facade
    for attr, name in (("extend", "api.extend"), ("delete_many", "api.delete"),
                       ("solve", "api.solve"), ("coreset", "api.coreset"),
                       ("save", "api.save"), ("load", "api.load")):
        _wrap(p, tracer, KCenterSession, attr, name)

    # repro.streaming: the streaming structures under the backends
    def streaming_gauges(args, kwargs, out):
        algo = args[0]
        tracer.peak("streaming.stored_peak", algo.size)
        tracer.peak("streaming.doublings_peak", algo.doublings)

    _wrap(p, tracer, ins.InsertionOnlyCoreset, "extend", "streaming.extend",
          streaming_gauges)
    _wrap(p, tracer, ins.InsertionOnlyCoreset, "coreset", "streaming.coreset")
    _wrap(p, tracer, dyn.DynamicCoreset, "extend", "streaming.extend")
    _wrap(p, tracer, dyn.DynamicCoreset, "delete_many", "streaming.delete")
    _wrap(p, tracer, dyn.DynamicCoreset, "coreset", "streaming.coreset")

    # repro.sketches: linear sketch updates and decodes
    for cls in (SSparseRecovery, F0Estimator):
        _wrap(p, tracer, cls, "update", "sketches.update")
    _wrap(p, tracer, SSparseRecovery, "update_many", "sketches.update")
    _wrap(p, tracer, SSparseRecovery, "decode", "sketches.decode")
    _wrap(p, tracer, F0Estimator, "at_most", "sketches.decode")

    # repro.core.greedy: the radius search, at each caller's lookup site
    def greedy_counts(args, kwargs, res):
        stats = res.stats or {}
        tracer.count("greedy.decisions", stats.get("decisions", 0))
        tracer.count("greedy.grid_builds", stats.get("grid_builds", 0))
        tracer.count("greedy.grid_reuses", stats.get("grid_reuses", 0))
        tracer.count("greedy.grid_calls", res.path == "grid")

    greedy = _spanned(tracer, "greedy.call", core_greedy.charikar_greedy,
                      greedy_counts)
    for mod in (api_session, core_mbc, mpc_tasks):
        p.replace(mod, "charikar_greedy", greedy)

    # repro.core.mbc: mini-ball coverings (offline, MPC, recompression)
    def mbc_counts(args, kwargs, res):
        tracer.count("mbc.points_in", len(args[0]))
        tracer.count("mbc.points_out", res.size)

    mbc = _spanned(tracer, "mbc.call", core_mbc.mbc_construction, mbc_counts)
    for mod in (two_round, mpc_tasks):
        p.replace(mod, "mbc_construction", mbc)
    p.replace(ins, "update_coreset",
              _spanned(tracer, "mbc.call", core_mbc.update_coreset, mbc_counts))

    # repro.geometry: grid builds and the hierarchy's level lookups
    def grid_count(args, kwargs, out):
        tracer.count("grid.builds")

    _wrap(p, tracer, PointGrid, "build", "grid.build", grid_count)
    _wrap(p, tracer, PointGridHierarchy, "grid_for", "grid.for")
    _wrap(p, tracer, GridLevel, "cell_ids", "grid.cells")

    # repro.kernels: dense blocks and sparse pair distances
    def dense_counts(args, kwargs, out):
        a, b = np.atleast_2d(args[1]), np.atleast_2d(args[2])
        tracer.count("kernel.pairs", out.size)
        tracer.count("kernel.bytes", a.nbytes + b.nbytes + out.nbytes)

    def sparse_counts(args, kwargs, out):
        pts, rows, cols = args[1], args[2], args[3]
        d = np.shape(pts)[1]
        tracer.count("kernel.pairs", out.size)
        tracer.count("kernel.bytes", out.size * (2 * d * 8 + 8)
                     + np.asarray(rows).nbytes + np.asarray(cols).nbytes)

    p.replace(core_metrics, "pairwise_kernel",
              _spanned(tracer, "kernel.dense", core_metrics.pairwise_kernel,
                       dense_counts))
    p.replace(core_greedy, "pair_distances",
              _spanned(tracer, "kernel.sparse", core_greedy.pair_distances,
                       sparse_counts))

    # repro.mpc + repro.engine: per-machine tasks inside each round's map
    task_log = []

    def timed_task(fn):
        @functools.wraps(fn)
        def task(args):
            frame = tracer.begin("mpc.task")
            try:
                return fn(args)
            finally:
                task_log.append(tracer.end(frame))
        return task

    for attr in ("radius_vector_task", "mbc_task"):
        p.replace(two_round, attr, timed_task(getattr(two_round, attr)))
    map_machines = two_round.map_machines

    def traced_map(*args, **kwargs):
        first = len(task_log)
        frame = tracer.begin("engine.map")
        try:
            return map_machines(*args, **kwargs)
        finally:
            wall = tracer.end(frame)
            times = task_log[first:]
            if times:
                mean = sum(times) / len(times)
                tracer.count("mpc.round_max_task_s", max(times))
                tracer.count("mpc.straggler_sum", max(times) / mean if mean > 0 else 1.0)
                tracer.count("mpc.maps")
                tracer.count("engine.overhead_s", wall - sum(times))

    p.replace(two_round, "map_machines", traced_map)

    # repro.persist: snapshot writes and reads behind save()/load()
    def saved_bytes(args, kwargs, path):
        tracer.count("persist.bytes", os.path.getsize(path))

    def loaded_bytes(args, kwargs, out):
        tracer.count("persist.bytes", os.path.getsize(args[0]))

    p.replace(api_session, "write_snapshot",
              _spanned(tracer, "persist.write", api_session.write_snapshot,
                       saved_bytes))
    p.replace(api_session, "read_snapshot",
              _spanned(tracer, "persist.read", api_session.read_snapshot,
                       loaded_bytes))
    return p


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: per-layer metric name -> unit (the order BENCHMARK.json lists them in)
LAYER_UNITS = {
    "store.chunks": "count", "store.read_s": "s", "store.bytes": "bytes",
    "api.extend_calls": "count", "api.extend_self_s": "s",
    "api.solve_calls": "count", "api.solve_self_s": "s", "api.coreset_s": "s",
    "streaming.extend_s": "s", "streaming.delete_s": "s",
    "streaming.coreset_s": "s", "streaming.stored": "points",
    "streaming.doublings": "count",
    "sketches.update_s": "s", "sketches.decode_s": "s", "sketches.cells": "count",
    "greedy.calls": "count", "greedy.s": "s", "greedy.decisions": "count",
    "greedy.grid_builds": "count", "greedy.grid_reuses": "count",
    "greedy.grid_path_share": "ratio",
    "mbc.calls": "count", "mbc.s": "s", "mbc.kept_ratio": "ratio",
    "grid.builds": "count", "grid.s": "s",
    "kernel.calls": "count", "kernel.s": "s", "kernel.pairs": "count",
    "kernel.bytes": "bytes", "kernel.pairs_per_call": "count",
    "mpc.rounds": "count", "mpc.tasks": "count", "mpc.task_s": "s",
    "mpc.round_max_task_s": "s", "mpc.straggler_ratio": "ratio",
    "engine.overhead_s": "s",
    "persist.saves": "count", "persist.save_s": "s", "persist.loads": "count",
    "persist.load_s": "s", "persist.bytes": "bytes",
    "serve.requests": "count", "serve.server_s": "s", "serve.evictions": "count",
    "serve.restores": "count", "serve.client_minus_server_s": "s",
    "wire.encode_s": "s", "wire.bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(t: Tracer, overhead_ratio: float) -> "dict[str, float]":
    """The per-layer metrics of one traced unit, from spans and counters."""
    c = t.counters
    greedy_calls = t.calls("greedy.call")
    kernel_calls = t.calls("kernel.dense") + t.calls("kernel.sparse")
    maps = c.get("mpc.maps", 0.0)
    out = {
        "store.chunks": c.get("store.chunks", 0.0),
        "store.read_s": t.total("store.read"),
        "store.bytes": c.get("store.bytes", 0.0),
        "api.extend_calls": t.calls("api.extend"),
        "api.extend_self_s": t.self_time("api.extend"),
        "api.solve_calls": t.calls("api.solve"),
        "api.solve_self_s": t.self_time("api.solve"),
        "api.coreset_s": t.total("api.coreset"),
        "streaming.extend_s": t.total("streaming.extend"),
        "streaming.delete_s": t.total("streaming.delete"),
        "streaming.coreset_s": t.total("streaming.coreset"),
        "streaming.stored": c.get("streaming.stored_peak", 0.0),
        "streaming.doublings": c.get("streaming.doublings_peak", 0.0),
        "sketches.update_s": t.total("sketches.update"),
        "sketches.decode_s": t.total("sketches.decode"),
        "sketches.cells": c.get("sketches.cells_peak", 0.0),
        "greedy.calls": greedy_calls,
        "greedy.s": t.layer_s.get("greedy", 0.0),
        "greedy.decisions": c.get("greedy.decisions", 0.0),
        "greedy.grid_builds": c.get("greedy.grid_builds", 0.0),
        "greedy.grid_reuses": c.get("greedy.grid_reuses", 0.0),
        "greedy.grid_path_share": _ratio(c.get("greedy.grid_calls", 0.0),
                                         greedy_calls),
        "mbc.calls": t.calls("mbc.call"),
        "mbc.s": t.layer_s.get("mbc", 0.0),
        "mbc.kept_ratio": _ratio(c.get("mbc.points_out", 0.0),
                                 c.get("mbc.points_in", 0.0)),
        "grid.builds": c.get("grid.builds", 0.0),
        "grid.s": t.layer_s.get("grid", 0.0),
        "kernel.calls": kernel_calls,
        "kernel.s": t.layer_s.get("kernel", 0.0),
        "kernel.pairs": c.get("kernel.pairs", 0.0),
        "kernel.bytes": c.get("kernel.bytes", 0.0),
        "kernel.pairs_per_call": _ratio(c.get("kernel.pairs", 0.0), kernel_calls),
        "mpc.rounds": c.get("mpc.rounds", 0.0),
        "mpc.tasks": t.calls("mpc.task"),
        "mpc.task_s": t.total("mpc.task"),
        "mpc.round_max_task_s": c.get("mpc.round_max_task_s", 0.0),
        "mpc.straggler_ratio": _ratio(c.get("mpc.straggler_sum", 0.0), maps),
        "engine.overhead_s": c.get("engine.overhead_s", 0.0),
        "persist.saves": t.calls("persist.write"),
        "persist.save_s": t.total("persist.write"),
        "persist.loads": t.calls("persist.read"),
        "persist.load_s": t.total("persist.read"),
        "persist.bytes": c.get("persist.bytes", 0.0),
        "serve.requests": c.get("serve.requests", 0.0),
        "serve.server_s": c.get("serve.server_s", 0.0),
        "serve.evictions": c.get("serve.evictions", 0.0),
        "serve.restores": c.get("serve.restores", 0.0),
        "serve.client_minus_server_s": c.get("serve.client_s", 0.0)
        - c.get("serve.server_s", 0.0),
        "wire.encode_s": t.total("wire.encode"),
        "wire.bytes": c.get("wire.bytes", 0.0),
        "trace.overhead_ratio": overhead_ratio,
    }
    return {k: float(v) for k, v in out.items()}

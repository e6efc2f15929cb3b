"""Outside-in span tracer for one ``repro`` job.

The tracer wraps public functions of the ``repro`` modules from the
benchmark's own files; nothing under ``src/`` knows it exists.  A wrapper
is installed at every attribute a caller resolves the function through:
the defining module, every ``repro`` module that imported the name with
``from ... import``, and the class for methods.

Two record kinds exist:

* a **span** (name, start, end, parent, job id, counts) per call of a
  layer-boundary function, kept in memory and written once at the end;
* a **kernel aggregate** for hot calls (replay, LB, DTW, compile, trace
  signatures): count and busy time are added to the innermost open span
  instead of recording one span per call.  Kernel busy time is exclusive
  of nested kernels, so the aggregates of one span add up.

Calls made in forked pool workers or on other threads pass straight
through: an outside tracer cannot see in-worker time (the program's own
counters, read from the executor when it closes, fill those counts).

:func:`layer_metrics` turns the span list into the ``<layer>.<metric>``
numbers the benchmark reports; it is a pure function so the tests can
feed it canned spans.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import os
import pickle
import pkgutil
import threading
import time
from typing import Any, Callable

__all__ = [
    "Tracer",
    "install",
    "self_times",
    "layer_of",
    "layer_metrics",
    "PER_LAYER_METRICS",
]

ROOT = "process"


class Tracer:
    """In-memory span recorder for the main thread of one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.pid = os.getpid()
        self.tid = threading.get_ident()
        self.spans: list[dict[str, Any]] = []
        self.counters: dict[str, float] = {}
        #: Program counters captured in-process (executor stats at close).
        self.snapshots: dict[str, Any] = {}
        #: Wrap targets that do not exist in this version of the program.
        self.missing: list[str] = []
        self.job: str | None = None
        self._stack: list[int] = []
        self._kernel_nested: list[float] = []
        self.open(ROOT)

    def active(self) -> bool:
        return os.getpid() == self.pid and threading.get_ident() == self.tid

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append(
            {
                "name": name,
                "start": self.clock(),
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "job": self.job,
                "counts": {},
                "kernels": {},
            }
        )
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index]["end"] = self.clock()
        if self._stack and self._stack[-1] == index:
            self._stack.pop()
        elif index in self._stack:
            self._stack.remove(index)

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def hook(self, name: str, fn: Callable | None, *args) -> Any:
        """Call a counting hook; a hook that no longer fits the program
        is recorded once under ``missing`` and never breaks the job."""
        if fn is None:
            return None
        try:
            return fn(*args)
        except Exception:  # noqa: BLE001 - the traced job must go on
            label = f"count hook of {name}"
            if label not in self.missing:
                self.missing.append(label)
            return None

    def finish(self) -> dict[str, Any]:
        """Close every open span; the JSON-ready trace document."""
        while self._stack:
            self.close(self._stack[-1])
        return {
            "spans": self.spans,
            "counters": self.counters,
            "snapshots": self.snapshots,
            "missing": self.missing,
        }

    # -- wrappers ------------------------------------------------------

    def span_wrapper(
        self,
        name: str,
        fn: Callable,
        counts: Callable[..., dict[str, float]] | None = None,
        before: Callable[..., Any] | None = None,
        job_of: Callable[..., str | None] | None = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active():
                return fn(*args, **kwargs)
            token = tracer.hook(name, before, args, kwargs)
            previous_job = tracer.job
            if job_of is not None:
                tracer.job = tracer.hook(name, job_of, args, kwargs)
            index = tracer.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.close(index)
                tracer.job = previous_job
                _add(
                    tracer.spans[index]["counts"],
                    tracer.hook(name, counts, args, kwargs, result, token)
                    or {},
                )

        return wrapper

    def kernel_wrapper(
        self,
        name: str,
        fn: Callable,
        counts: Callable[..., dict[str, float]] | None = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active():
                return fn(*args, **kwargs)
            tracer._kernel_nested.append(0.0)
            started = tracer.clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = tracer.clock() - started
                nested = tracer._kernel_nested.pop()
                if tracer._kernel_nested:
                    tracer._kernel_nested[-1] += elapsed
                tracer.add_kernel(
                    name,
                    elapsed - nested,
                    tracer.hook(name, counts, args, kwargs, result) or {},
                )

        return wrapper

    def add_kernel(
        self, name: str, busy: float, extra: dict[str, float]
    ) -> None:
        """Aggregate one kernel call into the innermost open span."""
        owner = self.spans[self._stack[-1]] if self._stack else self.spans[0]
        agg = owner["kernels"].setdefault(name, {"calls": 0, "busy_s": 0.0})
        agg["calls"] += 1
        agg["busy_s"] += busy
        _add(agg, extra)


def _add(target: dict[str, float], extra: dict[str, float]) -> None:
    for key, value in extra.items():
        target[key] = target.get(key, 0) + value


# ----------------------------------------------------------------------
# What to wrap.  Each entry: (module, attribute path, kind, record name,
# counts hook).  Kinds: "span", "kernel", "count" (a counter bump only).


def _acks(args, kwargs, result, token):
    return {"acks": len(result.acks)} if result is not None else {}


def _bytes_read(args, kwargs, result, token):
    path = args[0] if args else kwargs.get("path")
    try:
        return {"bytes": os.path.getsize(path)}
    except (OSError, TypeError):
        return {}


def _touched(args, kwargs, result, token):
    if result is None:
        return {}
    return {"touched": sum(action.touched for action in result.repairs)}


def _segments(args, kwargs, result, token):
    return {"segments": len(result)} if result is not None else {}


def _generated_before(args, kwargs):
    return args[0].generated


def _generated(args, kwargs, result, token):
    return {"sketches": args[0].generated - token}


def _tasks(args, kwargs, result, token):
    groups = args[1] if len(args) > 1 else kwargs.get("groups", ())
    return {"tasks": sum(len(group) for group in groups)}


def _tasks_flat(args, kwargs, result, token):
    sketches = args[1] if len(args) > 1 else kwargs.get("sketches", ())
    return {"tasks": len(sketches)}


def _file_bytes(args, kwargs, result, token):
    try:
        return {"bytes": os.path.getsize(args[0].path)}
    except (OSError, AttributeError):
        return {}


def _service_job(args, kwargs):
    return args[1].job.job_id


def _replay_batch(args, kwargs, result):
    assignments = args[1] if len(args) > 1 else kwargs["assignments"]
    table = args[2] if len(args) > 2 else kwargs["table"]
    return {"lanes": len(assignments), "rows": len(table) * len(assignments)}


def _replay_one(args, kwargs, result):
    table = args[1] if len(args) > 1 else kwargs["table"]
    return {"lanes": 1, "rows": len(table)}


def _dtw_cells(args, kwargs, result):
    budget = kwargs.get("budget", 128)
    cells = min(len(args[0]), budget) * min(len(args[1]), budget)
    return {"lanes": 1, "cells": cells}


def _dtw_batch_cells(args, kwargs, result):
    lanes, n = args[0].shape
    return {"lanes": lanes, "cells": lanes * n * len(args[1])}


def _sketch_segments(args, kwargs, result, token):
    segments = args[2] if len(args) > 2 else kwargs.get("segments", ())
    return {"segments": len(segments)}


TARGETS: tuple[tuple, ...] = (
    ("repro.netsim.simulator", "simulate", "span", "netsim.simulate", _acks),
    ("repro.trace.collect", "collect_traces", "span", "netsim.collect", None),
    ("repro.classify.gordon", "GordonClassifier.classify", "span",
     "classify.classify", None),
    ("repro.classify.ccanalyzer", "CcaAnalyzer.classify", "span",
     "classify.classify", None),
    ("repro.classify.base", "ReferenceLibrary._ensure_built", "span",
     "classify.library", None),
    ("repro.classify.features", "trace_signature", "kernel",
     "classify.signature", None),
    ("repro.trace.io", "load_traces", "span", "io.load", _bytes_read),
    ("repro.trace.triage", "triage_traces", "span", "triage.traces", None),
    ("repro.trace.triage", "triage_trace", "span", "triage.trace", _touched),
    ("repro.trace.segmentation", "segment_trace", "span", "segment.trace",
     _segments),
    ("repro.trace.selection", "select_diverse_segments", "span",
     "select.diverse", None),
    ("repro.synth.pool", "BucketPool.draw", "span", "enumerate.draw",
     (_generated_before, _generated)),
    ("repro.dsl.compiled", "compile_handler", "kernel", "compile", None),
    ("repro.dsl.compiled", "compile_sketch_vector", "kernel", "compile",
     None),
    ("repro.synth.replay", "replay_batch", "kernel", "replay",
     _replay_batch),
    ("repro.synth.replay", "replay_handler", "kernel", "replay",
     _replay_one),
    ("repro.distance.lb", "lb_kim", "kernel", "lb", None),
    ("repro.distance.lb", "lb_keogh", "kernel", "lb", None),
    ("repro.distance.lb", "keogh_envelope", "kernel", "lb", None),
    ("repro.distance.lb", "keogh_envelope_batch", "kernel", "lb", None),
    ("repro.distance.dtw", "dtw_distance", "kernel", "dtw", _dtw_cells),
    ("repro.distance.dtw", "dtw_distance_batch", "kernel", "dtw",
     _dtw_batch_cells),
    ("repro.synth.scoring", "Scorer.score_sketch", "span",
     "scoring.sketch", _sketch_segments),
    ("repro.synth.scoring", "Scorer.score_handler", "span",
     "scoring.handler", None),
    ("repro.synth.scoring", "Scorer.prepare_segments", "span",
     "scoring.prepare", None),
    ("repro.runtime.executors", "SerialExecutor.score", "span",
     "executor.wave", _tasks_flat),
    ("repro.runtime.executors", "SerialExecutor.score_grouped", "span",
     "executor.wave", _tasks),
    ("repro.runtime.executors", "PooledExecutor.score", "span",
     "executor.wave", _tasks_flat),
    ("repro.runtime.executors", "PooledExecutor.score_grouped", "span",
     "executor.wave", _tasks),
    ("repro.runtime.executors", "SerialExecutor.adopt_scorer", "count",
     "scheduler.adoptions", None),
    ("repro.runtime.executors", "PooledExecutor.adopt_scorer", "count",
     "scheduler.adoptions", None),
    ("repro.synth.refinement", "drive", "span", "refine.drive", None),
    ("repro.runtime.scheduler", "Scheduler.step", "span", "scheduler.step",
     None),
    ("repro.runtime.scheduler", "Scheduler._service", "span",
     "scheduler.turn", None),
    ("repro.runtime.scheduler", "Scheduler._dispatch_slice", "span",
     "scheduler.slice", None),
    ("repro.runtime.checkpoint", "CheckpointWriter.write", "span",
     "checkpoint.write", _file_bytes),
    ("repro.runtime.checkpoint", "CheckpointLease.renew", "count",
     "lease.renewals", None),
    ("repro.service", "JobLedger.write", "count", "service.ledger_writes",
     None),
    ("repro.service", "FleetServer.run", "span", "service.run", None),
)


def _resolve(module_name: str, path: str):
    module = importlib.import_module(module_name)
    owner: Any = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return module, owner, parts[-1], getattr(owner, parts[-1])


def _import_all() -> list[Any]:
    """Import every ``repro`` module (except the ``__main__`` entry)."""
    import repro

    modules = [repro]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        try:
            modules.append(importlib.import_module(info.name))
        except ImportError:
            continue  # an optional dependency is missing: nothing to wrap
    return modules


def install(tracer: Tracer) -> None:
    """Wrap every target in :data:`TARGETS` (missing ones are recorded)."""
    modules = _import_all()
    for module_name, path, kind, name, hook in TARGETS:
        try:
            _, owner, attr, original = _resolve(module_name, path)
        except (ImportError, AttributeError):
            tracer.missing.append(f"{module_name}.{path}")
            continue
        if kind == "kernel":
            wrapped = tracer.kernel_wrapper(name, original, hook)
        elif kind == "count":
            wrapped = _counting(tracer, name, original)
        else:
            before, counts = (
                hook if isinstance(hook, tuple) else (None, hook)
            )
            job_of = _service_job if path == "Scheduler._service" else None
            wrapped = tracer.span_wrapper(
                name, original, counts=counts, before=before, job_of=job_of
            )
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                elif isinstance(value, dict):
                    # Registries such as ``repro.distance.base.METRICS``.
                    for entry, member in list(value.items()):
                        if member is original:
                            value[entry] = wrapped
    _install_executor_snapshots(tracer)
    _install_broadcast_bytes(tracer)


def _counting(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.active():
            tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper


def _install_executor_snapshots(tracer: Tracer) -> None:
    """Read the program's own cache/scoring counters before an executor
    closes; they include pool workers, which no outside wrapper sees."""
    try:
        from repro.runtime import executors
    except ImportError:
        return
    for cls_name in ("SerialExecutor", "PooledExecutor"):
        cls = getattr(executors, cls_name, None)
        if cls is None or not hasattr(cls, "stats"):
            tracer.missing.append(f"repro.runtime.executors.{cls_name}.stats")
            continue
        original = cls.close

        @functools.wraps(original)
        def close(self, *args, _original=original, **kwargs):
            if tracer.active() and getattr(self, "_pool", True) is not None:
                try:
                    cache, scoring = self.stats()
                except Exception:  # noqa: BLE001 - a broken pool must close
                    cache, scoring = None, None
                if scoring is not None:
                    tracer.snapshots["scoring"] = dataclasses.asdict(scoring)
                if cache is not None:
                    tracer.snapshots["cache"] = dataclasses.asdict(cache)
            return _original(self, *args, **kwargs)

        cls.close = close


def _install_broadcast_bytes(tracer: Tracer) -> None:
    """Count the bytes each worker broadcast ships (pickled size)."""
    try:
        from repro.runtime.executors import PooledExecutor
    except ImportError:
        return
    original = getattr(PooledExecutor, "_broadcast", None)
    if original is None:
        tracer.missing.append("repro.runtime.executors.PooledExecutor._broadcast")
        return

    @functools.wraps(original)
    def broadcast(self, payload, *args, **kwargs):
        if tracer.active() and payload is not None:
            try:
                size = len(pickle.dumps(payload))
            except Exception:  # noqa: BLE001 - unpicklable: the call fails too
                size = 0
            tracer.count("executor.broadcast_bytes", size * self.workers)
        return original(self, payload, *args, **kwargs)

    PooledExecutor._broadcast = broadcast


# ----------------------------------------------------------------------
# Analysis: self time, layers, and the per-layer metric table.


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[dict[str, Any]]) -> list[float]:
    """Each span's duration minus the part its children cover.

    Children are the spans naming it as parent plus its aggregated kernel
    busy time.  Child intervals are clipped to the parent and merged, so
    overlapping or out-of-order children are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span["parent"]
        if parent is None:
            continue
        start = max(span["start"], spans[parent]["start"])
        end = min(span["end"], spans[parent]["end"])
        if end > start:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, span in enumerate(spans):
        covered = _union_length(children.get(index, []))
        kernels = sum(agg["busy_s"] for agg in span["kernels"].values())
        result.append(max(span["end"] - span["start"] - covered - kernels, 0.0))
    return result


def layer_of(name: str) -> str:
    """Layer of a span or kernel name: the part before the first dot."""
    return name.split(".", 1)[0]


#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER_METRICS: dict[str, str] = {
    "netsim.calls": "count",
    "netsim.acks": "count",
    "netsim.busy_frac": "fraction",
    "netsim.acks_per_s": "1/s",
    "classify.busy_frac": "fraction",
    "classify.self_frac": "fraction",
    "classify.library_builds": "count",
    "classify.signatures": "count",
    "io.load_frac": "fraction",
    "io.bytes_read": "bytes",
    "triage.busy_frac": "fraction",
    "triage.records_touched": "count",
    "segment.busy_frac": "fraction",
    "segment.segments": "count",
    "select.calls": "count",
    "select.busy_frac": "fraction",
    "enumerate.sketches": "count",
    "enumerate.busy_frac": "fraction",
    "compile.calls": "count",
    "compile.busy_frac": "fraction",
    "replay.calls": "count",
    "replay.lanes": "count",
    "replay.rows": "count",
    "replay.busy_frac": "fraction",
    "lb.calls": "count",
    "lb.pruned": "count",
    "lb.busy_frac": "fraction",
    "dtw.calls": "count",
    "dtw.cells": "count",
    "dtw.abandoned": "count",
    "dtw.busy_frac": "fraction",
    "scoring.sketches": "count",
    "scoring.candidates": "count",
    "scoring.pruned_frac": "fraction",
    "scoring.self_frac": "fraction",
    "cache.lookups": "count",
    "cache.hit_frac": "fraction",
    "executor.waves": "count",
    "executor.tasks": "count",
    "executor.wait_frac": "fraction",
    "executor.occupancy": "fraction",
    "executor.broadcast_bytes": "bytes",
    "executor.shm_bytes": "bytes",
    "refine.iterations": "count",
    "refine.handlers": "count",
    "refine.search_frac": "fraction",
    "refine.exhaustive_frac": "fraction",
    "refine.heldout_ratio": "ratio",
    "scheduler.slices": "count",
    "scheduler.preemptions": "count",
    "scheduler.adoptions": "count",
    "scheduler.inline_frac": "fraction",
    "checkpoint.writes": "count",
    "checkpoint.bytes": "bytes",
    "checkpoint.busy_frac": "fraction",
    "lease.renewals": "count",
    "service.ledger_writes": "count",
    "service.claim_idle_frac": "fraction",
    "trace.coverage_frac": "fraction",
    "trace.overhead_frac": "fraction",
}


#: Per-layer metrics that are a time divided by the traced wall time.
TIME_SHARES = frozenset(
    name
    for name in PER_LAYER_METRICS
    if name.endswith("_frac")
    and name
    not in {
        "scoring.pruned_frac",
        "cache.hit_frac",
        "trace.coverage_frac",
        "trace.overhead_frac",
    }
)


def layer_metrics(
    trace: dict[str, Any], program: dict[str, Any], wall_s: float
) -> dict[str, float]:
    """The per-layer table from one traced job.

    *trace* is :meth:`Tracer.finish`'s document; *program* holds counts
    the job itself reported (``phase_seconds``, ``iterations``,
    ``handlers``, ``preemptions``); *wall_s* is the traced job's wall
    time.  Layer times are reported as shares of *wall_s* (``_frac``), so
    a layer that did no work reads 0 without posing as a timing.  Every
    metric in
    :data:`PER_LAYER_METRICS` except ``trace.overhead_frac`` and
    ``refine.heldout_ratio`` (which need the untraced runs and the
    held-out corpus) is returned.
    """
    spans = trace["spans"]
    selfs = self_times(spans)
    busy: dict[str, float] = {}  # outermost spans of a layer, by name
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    kernels: dict[str, dict[str, float]] = {}
    layer_self: dict[str, float] = {}
    for index, span in enumerate(spans):
        name = span["name"]
        duration = span["end"] - span["start"]
        layer = layer_of(name)
        layer_self[layer] = layer_self.get(layer, 0.0) + selfs[index]
        calls[name] = calls.get(name, 0) + 1
        parent = span["parent"]
        if parent is None or spans[parent]["name"] != name:
            busy[name] = busy.get(name, 0.0) + duration
        for key, value in span["counts"].items():
            counts[f"{name}:{key}"] = counts.get(f"{name}:{key}", 0) + value
        for kernel, agg in span["kernels"].items():
            into = kernels.setdefault(kernel, {})
            _add(into, agg)
            kernel_layer = layer_of(kernel)
            layer_self[kernel_layer] = (
                layer_self.get(kernel_layer, 0.0) + agg["busy_s"]
            )

    def kernel(name: str, key: str) -> float:
        return kernels.get(name, {}).get(key, 0)

    def layer_busy(layer: str) -> float:
        """Wall time inside any span of *layer*, nested ones once."""
        return _union_length(
            [
                (span["start"], span["end"])
                for span in spans
                if layer_of(span["name"]) == layer
            ]
        )

    def nested_in(names: set[str], child: str) -> float:
        """Time spans named *child* spent inside spans named *names*."""
        total = 0.0
        for span in spans:
            if span["name"] != child:
                continue
            parent = span["parent"]
            while parent is not None:
                if spans[parent]["name"] in names:
                    total += span["end"] - span["start"]
                    break
                parent = spans[parent]["parent"]
        return total

    scoring = trace.get("snapshots", {}).get("scoring") or {}
    cache = trace.get("snapshots", {}).get("cache") or {}
    counters = trace.get("counters", {})
    phases = program.get("phase_seconds") or {}

    acks = counts.get("netsim.simulate:acks", 0)
    netsim_busy = busy.get("netsim.simulate", 0.0)
    classify_busy = busy.get("classify.classify", 0.0)
    libraries = [
        index
        for index, span in enumerate(spans)
        if span["name"] == "classify.library"
        and any(
            other["parent"] == index and layer_of(other["name"]) == "netsim"
            for other in spans
        )
    ]
    # Concretizations each parent-side sketch replayed: replay lanes in
    # the sketch's subtree over its working-set size.
    subtree_lanes: dict[int, float] = {}
    for index, span in enumerate(spans):
        lanes = span["kernels"].get("replay", {}).get("lanes", 0)
        node: int | None = index
        while lanes and node is not None:
            if spans[node]["name"] == "scoring.sketch":
                subtree_lanes[node] = subtree_lanes.get(node, 0) + lanes
                break
            node = spans[node]["parent"]
    candidates = sum(
        lanes / max(spans[index]["counts"].get("segments", 1), 1)
        for index, lanes in subtree_lanes.items()
    )
    replayed = kernel("replay", "lanes")
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    turns = {
        index
        for index, span in enumerate(spans)
        if span["name"] == "scheduler.turn"
    }
    slice_time = sum(
        span["end"] - span["start"]
        for span in spans
        if span["name"] == "scheduler.slice" and span["parent"] in turns
    )
    turn_time = sum(
        spans[index]["end"] - spans[index]["start"] for index in turns
    )
    covered = sum(
        value for layer, value in layer_self.items() if layer != ROOT
    )

    def share(seconds: float) -> float:
        return seconds / wall_s if wall_s > 0 else 0.0

    return {
        "netsim.calls": calls.get("netsim.simulate", 0),
        "netsim.acks": acks,
        "netsim.busy_frac": share(netsim_busy),
        "netsim.acks_per_s": acks / netsim_busy if netsim_busy else 0.0,
        "classify.busy_frac": share(classify_busy),
        "classify.self_frac": share(
            max(
                classify_busy
                - nested_in({"classify.classify"}, "netsim.collect"),
                0.0,
            )
        ),
        "classify.library_builds": len(libraries),
        "classify.signatures": kernel("classify.signature", "calls"),
        "io.load_frac": share(busy.get("io.load", 0.0)),
        "io.bytes_read": counts.get("io.load:bytes", 0),
        "triage.busy_frac": share(layer_busy("triage")),
        "triage.records_touched": counts.get("triage.trace:touched", 0),
        "segment.busy_frac": share(busy.get("segment.trace", 0.0)),
        "segment.segments": counts.get("segment.trace:segments", 0),
        "select.calls": calls.get("select.diverse", 0),
        "select.busy_frac": share(busy.get("select.diverse", 0.0)),
        "enumerate.sketches": counts.get("enumerate.draw:sketches", 0),
        "enumerate.busy_frac": share(busy.get("enumerate.draw", 0.0)),
        "compile.calls": kernel("compile", "calls"),
        "compile.busy_frac": share(kernel("compile", "busy_s")),
        "replay.calls": kernel("replay", "calls"),
        "replay.lanes": kernel("replay", "lanes"),
        "replay.rows": kernel("replay", "rows"),
        "replay.busy_frac": share(kernel("replay", "busy_s")),
        "lb.calls": kernel("lb", "calls"),
        "lb.pruned": scoring.get("lb_pruned", 0),
        "lb.busy_frac": share(kernel("lb", "busy_s")),
        "dtw.calls": kernel("dtw", "calls"),
        "dtw.cells": kernel("dtw", "cells"),
        "dtw.abandoned": scoring.get("dp_abandoned", 0),
        "dtw.busy_frac": share(kernel("dtw", "busy_s")),
        "scoring.sketches": calls.get("scoring.sketch", 0),
        "scoring.candidates": candidates,
        "scoring.pruned_frac": (
            1.0 - kernel("dtw", "lanes") / replayed if replayed else 0.0
        ),
        "scoring.self_frac": share(layer_self.get("scoring", 0.0)),
        "cache.lookups": lookups,
        "cache.hit_frac": cache.get("hits", 0) / lookups if lookups else 0.0,
        "executor.waves": sum(
            1
            for span in spans
            if span["name"] == "executor.wave"
            and (
                span["parent"] is None
                or spans[span["parent"]]["name"] != "executor.wave"
            )
        ),
        "executor.tasks": counts.get("executor.wave:tasks", 0),
        "executor.wait_frac": share(layer_self.get("executor", 0.0)),
        "executor.occupancy": scoring.get("mean_occupancy", 0.0),
        "executor.broadcast_bytes": counters.get(
            "executor.broadcast_bytes", 0
        ),
        "executor.shm_bytes": scoring.get("shm_bytes", 0),
        "refine.iterations": program.get("iterations", 0),
        "refine.handlers": program.get("handlers", 0),
        "refine.search_frac": share(phases.get("refinement", 0.0)),
        "refine.exhaustive_frac": share(phases.get("exhaustive", 0.0)),
        "scheduler.slices": calls.get("scheduler.slice", 0),
        "scheduler.preemptions": program.get("preemptions", 0),
        "scheduler.adoptions": counters.get("scheduler.adoptions", 0),
        "scheduler.inline_frac": share(max(turn_time - slice_time, 0.0)),
        "checkpoint.writes": calls.get("checkpoint.write", 0),
        "checkpoint.bytes": counts.get("checkpoint.write:bytes", 0),
        "checkpoint.busy_frac": share(busy.get("checkpoint.write", 0.0)),
        "lease.renewals": counters.get("lease.renewals", 0),
        "service.ledger_writes": counters.get("service.ledger_writes", 0),
        "service.claim_idle_frac": share(
            max(
                busy.get("service.run", 0.0)
                - nested_in({"service.run"}, "scheduler.step"),
                0.0,
            )
        ),
        "trace.coverage_frac": share(covered),
    }

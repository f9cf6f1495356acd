"""Spans recorded from outside the program, around calls into its layers.

:meth:`Tracer.instrument` replaces public functions and methods of the
``repro`` package with wrappers that open a span per call, and
:meth:`Tracer.restore` puts the originals back; nothing under ``src/``
knows about it.  Spans stay in memory and are written out at the end of
the run as Chrome trace-event JSON (viewable in Perfetto or
``chrome://tracing``).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    job: Optional[str] = None
    thread: int = 0
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _minimize_counts(result) -> Dict[str, float]:
    stats = result.statistics
    return {
        "conflicts": result.conflicts,
        "propagations": stats.get("propagations", 0),
        "iterations": result.iterations,
    }


def _dp_counts(result) -> Dict[str, float]:
    return {"transitions": result.statistics.get("transitions_evaluated", 0)}


#: Module-level functions: (layer, module, attribute, counts from result).
#: A function is replaced under every ``repro`` module that bound it.
FUNCTIONS = (
    ("arch.tables", "repro.arch.cache", "shared_permutation_table", None),
    ("arch.tables", "repro.arch.cache", "shared_connected_subsets", None),
    ("encoding.build", "repro.exact.sat_mapper", "build_encoding",
     lambda encoding: {"clauses": encoding.num_clauses}),
)

#: Methods: (layer, module, class, method, counts from result).
METHODS = (
    ("sweep", "repro.exact.sat_mapper", "SATMapper", "map", None),
    ("reconstruct", "repro.exact.sat_mapper", "SATMapper", "build_mapping_result", None),
    ("sat.solve", "repro.sat.optimize", "OptimizingSolver", "minimize", _minimize_counts),
    ("dp.map", "repro.exact.dp_mapper", "DPMapper", "map", _dp_counts),
    ("pipeline.seed", "repro.pipeline.bounds", "BoundProviderChain", "resolve_seed", None),
    ("pipeline.seed", "repro.pipeline.bounds", "BoundProviderChain", "resolve_artifacts", None),
    ("store.get", "repro.service.store", "ResultStore", "get", None),
    ("store.put", "repro.service.store", "ResultStore", "put", None),
    ("store.artifact_get", "repro.service.store", "ResultStore", "get_artifact", None),
    ("store.artifact_put", "repro.service.store", "ResultStore", "put_artifact", None),
)


class Tracer:
    """In-memory span recorder with per-thread parent stacks.

    Every workload drives one job at a time, so :attr:`job` (set by
    :meth:`job_span`) names the job of every span opened meanwhile, on any
    thread; a span opened on a thread with an empty stack (the service's
    executor threads) gets the job's root span as parent.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.job: Optional[str] = None
        self._root: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []
        self._epoch = time.perf_counter()

    # -- recording -------------------------------------------------------
    @contextmanager
    def span(self, name: str, counts: Optional[Dict[str, float]] = None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1].span_id if stack else self._root
        record = Span(
            span_id=next(self._ids), name=name, start=time.perf_counter(),
            parent=parent, job=self.job, thread=threading.get_ident(),
            counts=counts if counts is not None else {},
        )
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    @contextmanager
    def job_span(self, job_id: str):
        """Root span of one job; spans on other threads attach to it."""
        self.job = job_id
        with self.span("job") as root:
            self._root = root.span_id
            try:
                yield root
            finally:
                self._root = None
                self.job = None

    def _wrap(self, layer: str, fn: Callable, counter) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(layer) as record:
                result = fn(*args, **kwargs)
                if counter is not None:
                    record.counts.update(counter(result))
                return result

        return traced

    # -- installing --------------------------------------------------------
    def instrument(self) -> None:
        """Wrap every layer entry point listed in FUNCTIONS and METHODS."""
        for layer, module_name, attribute, counter in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attribute)
            traced = self._wrap(layer, original, counter)
            for name, module in list(sys.modules.items()):
                if name.startswith("repro") and vars(module).get(attribute) is original:
                    self._patch(module, attribute, traced)
        for layer, module_name, class_name, method, counter in METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            self._patch(cls, method, self._wrap(layer, cls.__dict__[method], counter))

    def _patch(self, owner: Any, attribute: str, value: Any) -> None:
        self._patched.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    # -- analysis --------------------------------------------------------
    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the durations of its child spans."""
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        return {
            span.span_id: max(0.0, span.duration - child_time[span.span_id])
            for span in self.spans
        }

    def layer_table(self, in_jobs: Optional[bool] = None) -> Dict[str, Dict[str, float]]:
        """Per layer: calls, total and self seconds, summed counts.

        *in_jobs* keeps only spans inside (True) or outside (False) job
        spans -- set-up and oracle work run outside; None keeps all.
        """
        self_time = self.self_times()
        table: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            if in_jobs is not None and (span.job is not None) != in_jobs:
                continue
            row = table.setdefault(
                span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["total_s"] += span.duration
            row["self_s"] += self_time[span.span_id]
            for key, value in span.counts.items():
                row[key] = row.get(key, 0) + value
        return table

    def write_chrome(self, path) -> None:
        threads: Dict[int, int] = {}
        events = []
        for span in sorted(self.spans, key=lambda s: s.start):
            tid = threads.setdefault(span.thread, len(threads) + 1)
            args: Dict[str, Any] = {"span": span.span_id, "parent": span.parent}
            if span.job is not None:
                args["job"] = span.job
            args.update(span.counts)
            events.append({
                "name": span.name, "ph": "X", "pid": 1, "tid": tid,
                "ts": (span.start - self._epoch) * 1e6,
                "dur": span.duration * 1e6, "args": args,
            })
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


#: Spans that wrap a call without being a layer of their own; their self
#: time is the share of map_s no named layer claims.
WRAPPERS = ("job", "sweep")


def format_table(workload: str, tracer: Tracer, map_s: float) -> str:
    """Human-readable per-layer tables: self time, share of map_s, counts."""
    lines = [f"per-layer table: {workload} (traced map_s {map_s:.3f} s)"]
    for title, table in (
        ("inside jobs", tracer.layer_table(in_jobs=True)),
        ("outside jobs: set-up and oracle, not in map_s", tracer.layer_table(in_jobs=False)),
    ):
        if not table:
            continue
        lines.append(f"  {title}")
        lines.append(f"  {'layer':<20}{'calls':>7}{'self_s':>10}{'of map_s':>10}  counts")
        for name in sorted(table, key=lambda n: -table[n]["self_s"]):
            row = table[name]
            share = f"{row['self_s'] / map_s:.1%}" if map_s > 0 and title == "inside jobs" else "-"
            counts = ", ".join(
                f"{key}={row[key]:g}" for key in sorted(row)
                if key not in ("calls", "total_s", "self_s")
            )
            lines.append(f"  {name:<20}{row['calls']:>7}{row['self_s']:>10.3f}{share:>10}  {counts}")
        if title == "inside jobs" and map_s > 0:
            unclaimed = sum(table.get(name, {}).get("self_s", 0.0) for name in WRAPPERS)
            lines.append(f"  unattributed (self time of {' + '.join(WRAPPERS)}): "
                         f"{unclaimed:.3f} s, {unclaimed / map_s:.1%} of map_s")
    return "\n".join(lines)

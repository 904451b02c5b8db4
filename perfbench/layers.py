"""The traced run: spans at every layer boundary, and a per-layer split.

Spans are recorded from the benchmark's own code.  While tracing is on,
:func:`instrument` wraps the public entry points of each layer
(``parse_program``, ``build_cfg``, ``compile_cfg``,
``FixpointEngine.analyze``, ``Analyzer.analyze``, ``AnalysisJob.key``,
``IncrementalAnalyzer.analyze``) where their callers look them up, and
restores them afterwards; nothing under ``src/`` changes.  ``core``
time is read from the stats collector (operator self times plus full
closures) as a delta across each span.

Work done in other processes cannot carry spans home, so it is
attributed from what the results report: a batch job's or a pooled
serve procedure's ``seconds`` (analysis, including ``core``) and
``octagon_seconds`` (``core``).  A batch runs two workers at once, so
their time enters the table divided by the worker count, as a share of
wall time.

A layer's self time is its span's duration minus its child spans and
the ``core`` time inside it.  The rows -- frontend, analysis, core,
service, serve -- plus ``unattributed_ms`` (the benchmark's own loop and
answer checks) sum to the traced wall time.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional

import workloads

LAYERS = ("frontend", "analysis", "core", "service", "serve")
OPS = ("assign", "meet_constraint", "forget", "join", "widening",
       "narrowing", "is_leq")
CLOSURE_KINDS = ("dense", "decomposed", "sparse", "incremental")
#: Collector counters reported per layer; all repeat exactly.
COUNTERS = {
    "analysis.plans_compiled": "plans_compiled",
    "analysis.fixpoint_runs": "fixpoint_runs",
    "analysis.plan_exec": "plan_exec",
    "core.closure_cells": "closure_cells",
    "core.kernel_calls": "kernel_calls",
    "core.cow_clones": "cow_clones",
    "core.copies_avoided": "copies_avoided",
}
TIERS = ("memory", "disk", "computed")

#: Every per-layer metric and its unit, in report order.  Each workload
#: prints all of them; a layer it never reaches reads 0.
METRICS: Dict[str, str] = {
    "frontend.parse_ms": "ms", "frontend.cfg_ms": "ms",
    "analysis.plan_ms": "ms", "analysis.fixpoint_ms": "ms",
    "analysis.fixpoint_self_ms": "ms",
    "analysis.plans_compiled": "count", "analysis.fixpoint_runs": "count",
    "analysis.plan_exec": "count",
    **{f"core.op_ms.{op}": "ms" for op in OPS},
    **{f"core.closure_ms.{kind}": "ms" for kind in CLOSURE_KINDS},
    **{f"core.closures.{kind}": "count" for kind in CLOSURE_KINDS},
    "core.incremental_cells": "count", "core.closure_cells": "count",
    "core.kernel_calls": "count", "core.cow_clones": "count",
    "core.copies_avoided": "count", "core.dbm_peak_bytes": "bytes",
    "service.compute_ms": "ms", "service.overhead_ms_per_job": "ms",
    "service.key_ms": "ms", "service.job_bytes_shipped": "bytes",
    "service.bytes_shipped": "bytes", "service.worker_peak_rss_mb": "MB",
    "serve.ping_ms": "ms", "serve.server_ms.warm": "ms",
    "serve.server_ms.edit": "ms", "serve.wire_ms.warm": "ms",
    "serve.inproc_ms.warm": "ms", "serve.pool_ms.edit": "ms",
    **{f"serve.tier.{tier}.{kind}": "count"
       for tier in TIERS for kind in ("warm", "edit")},
    **{f"layer.{layer}_ms": "ms" for layer in LAYERS},
    "unattributed_ms": "ms", "traced_wall_ms": "ms",
    "obs.trace_overhead": "ratio", "host.probe_ms": "ms",
}

#: Metrics that count work rather than time it: two runs of one seed
#: must report them identically.
DETERMINISTIC = tuple(
    name for name, unit in METRICS.items()
    if unit == "count" or name == "core.dbm_peak_bytes")


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    unit: int
    core_s: float


def core_seconds(collector) -> float:
    """Octagon time a collector has seen: operator self time plus full
    closures (which run outside any operator timer)."""
    return collector.total_seconds + collector.closure_seconds


class Recorder:
    """Keeps spans in memory.  Parents come from a per-thread stack; a
    span opened on a thread with an empty stack (a server handler
    thread) hangs under the current ``root`` span, the client request
    that caused it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.unit = 0
        self.root: Optional[int] = None
        self._ids = itertools.count()
        self._tls = threading.local()

    def call(self, name: str, layer: str, fn, *args, root: bool = False,
             **kwargs):
        from repro.core import stats

        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        parent = stack[-1] if stack else self.root
        sid = next(self._ids)
        collector = stats.active_collector()
        core0 = core_seconds(collector) if collector is not None else 0.0
        stack.append(sid)
        if root:
            self.root = sid
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if root:
                self.root = None
            core = (core_seconds(collector) - core0
                    if collector is not None else 0.0)
            self.spans.append(Span(sid, name, layer, start, end, parent,
                                   self.unit, core))

    def self_times(self) -> Dict[str, float]:
        """Seconds per layer: each span's duration minus its children
        and the ``core`` time inside it; ``core`` gets the latter."""
        child_s: Dict[int, float] = {}
        child_core: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                child_s[span.parent] = (child_s.get(span.parent, 0.0)
                                        + span.end - span.start)
                child_core[span.parent] = (child_core.get(span.parent, 0.0)
                                           + span.core_s)
        totals = {layer: 0.0 for layer in LAYERS}
        for span in self.spans:
            own_core = span.core_s - child_core.get(span.id, 0.0)
            totals[span.layer] += (span.end - span.start
                                   - child_s.get(span.id, 0.0) - own_core)
            totals["core"] += own_core
        return totals

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump([asdict(span) for span in self.spans], fh)


@contextmanager
def instrument(recorder: Recorder) -> Iterator[None]:
    """Wrap each layer's entry points for the duration of the block."""
    from repro.analysis import analyzer, fixpoint
    from repro.serve import incremental
    from repro.service.job import AnalysisJob

    points = [
        (analyzer, "parse_program", "parse", "frontend"),
        (incremental, "parse_program", "parse", "frontend"),
        (analyzer, "build_cfg", "cfg", "frontend"),
        (fixpoint, "compile_cfg", "plan", "analysis"),
        (fixpoint.FixpointEngine, "analyze", "fixpoint", "analysis"),
        (analyzer.Analyzer, "analyze", "analyze", "analysis"),
        (AnalysisJob, "key", "key", "service"),
        (incremental.IncrementalAnalyzer, "analyze", "incremental", "serve"),
    ]
    saved = []
    for owner, attr, name, layer in points:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))

        def wrapper(*args, _fn=original, _name=name, _layer=layer, **kw):
            return recorder.call(_name, _layer, _fn, *args, **kw)

        setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def _median_ms(values: List[float]) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0


def _add_counters(total: Dict[str, int], counters: Dict[str, int]) -> None:
    for name, value in counters.items():
        if name == "dbm_peak_bytes":  # a high-water mark, not a sum
            total[name] = max(total.get(name, 0), value)
        else:
            total[name] = total.get(name, 0) + value


def _set_counters(metrics: Dict[str, float], total: Dict[str, int]) -> None:
    for metric, name in COUNTERS.items():
        metrics[metric] = total.get(name, 0)
    metrics["core.dbm_peak_bytes"] = total.get("dbm_peak_bytes", 0)


def _oneshot_metrics(metrics: Dict[str, float], collectors: list) -> None:
    counters: Dict[str, int] = {}
    for col in collectors:
        _add_counters(counters, col.counter_summary())
        for op in OPS:
            metrics[f"core.op_ms.{op}"] += (
                col.op_self_seconds.get(op, 0.0) * 1000.0)
        for rec in col.closures:
            if rec.kind in CLOSURE_KINDS:
                metrics[f"core.closure_ms.{rec.kind}"] += rec.seconds * 1000.0
                metrics[f"core.closures.{rec.kind}"] += 1
            if rec.kind == "incremental":
                metrics["core.incremental_cells"] += (2 * rec.n) ** 2
    _set_counters(metrics, counters)


def _batch_metrics(out, metrics: Dict[str, float],
                   rows: Dict[str, float], recorder: Recorder) -> None:
    batches = out.records
    workers = workloads.POOL_WORKERS
    jobs = sum(len(names) for names, _, _ in batches)
    compute = oct_s = wall = 0.0
    counters: Dict[str, int] = {}
    for names, batch, seconds in batches:
        wall += seconds
        for result in batch.results:
            compute += result.seconds
            oct_s += result.octagon_seconds
            for op in OPS:
                metrics[f"core.op_ms.{op}"] += (
                    result.op_self_seconds.get(op, 0.0) * 1000.0)
        _add_counters(counters, batch.counters())
    _set_counters(metrics, counters)
    n = len(batches)
    metrics["service.compute_ms"] = compute * 1000.0 / n
    metrics["service.overhead_ms_per_job"] = (
        (wall * workers - compute) * 1000.0 / jobs)
    metrics["service.key_ms"] = recorder.total("key") * 1000.0 / n
    metrics["service.job_bytes_shipped"] = (
        counters.get("job_bytes_shipped", 0) / n)
    metrics["service.bytes_shipped"] = counters.get("bytes_shipped", 0) / n
    # Worker time, as a share of wall time: it ran two jobs at once.
    rows["service"] -= compute / workers
    rows["analysis"] += (compute - oct_s) / workers
    rows["core"] += oct_s / workers


def _serve_metrics(workload, out, units, metrics: Dict[str, float],
                   rows: Dict[str, float]) -> None:
    server_ms: Dict[str, List[float]] = {"warm": [], "edit": []}
    wire: List[float] = []
    pool: List[float] = []
    counters: Dict[str, int] = {}
    for unit, response, latency in out.records:
        if response is None:
            continue  # counted as failed
        doc = response["result"]
        server_ms[unit.kind].append(response["request_seconds"])
        if unit.kind == "warm":
            wire.append(latency - response["request_seconds"])
        else:
            pool.append(response["request_seconds"] - doc["seconds"])
        for tier, count in response["tiers"].items():
            metrics[f"serve.tier.{tier}.{unit.kind}"] += count
        _add_counters(counters, doc["counters"])
        # Pooled procedures ran in a worker process, inside this
        # request's serve span.
        rows["serve"] -= doc["seconds"]
        rows["analysis"] += doc["seconds"] - doc["octagon_seconds"]
        rows["core"] += doc["octagon_seconds"]
    _set_counters(metrics, counters)
    metrics["serve.server_ms.warm"] = _median_ms(server_ms["warm"])
    metrics["serve.server_ms.edit"] = _median_ms(server_ms["edit"])
    metrics["serve.wire_ms.warm"] = _median_ms(wire)
    metrics["serve.pool_ms.edit"] = _median_ms(pool)
    # Outside the traced window: a bare round trip, and the warm
    # requests again with no socket in between.
    pings = []
    for _ in range(200):
        start = time.perf_counter()
        workload.client.ping()
        pings.append(time.perf_counter() - start)
    metrics["serve.ping_ms"] = _median_ms(pings)
    inproc = []
    for unit in [u for u in units if u.kind == "warm"][:500]:
        start = time.perf_counter()
        workload.server.analyzer.analyze(unit.source, label=unit.program)
        inproc.append(time.perf_counter() - start)
    metrics["serve.inproc_ms.warm"] = _median_ms(inproc)


def traced_run(workload, base_units: List, units: List,
               trace_path: Optional[str] = None) -> Dict[str, float]:
    """Replay ``base_units`` untraced, then ``units`` traced; returns
    every per-layer metric.  The workload must be set up.  The two
    sequences are the same work (serve-edit's second one writes other
    edit values, so that its edits compute again)."""
    from repro.core import stats

    base = workloads.replay(workload, base_units)
    serve = isinstance(workload, workloads.Serve)
    recorder = Recorder()
    collectors: list = []

    def wrap(fn, *args, **kwargs):
        recorder.unit += 1
        if isinstance(workload, workloads.OneShot):
            with stats.collecting() as collector:
                result = fn(*args)
            collectors.append(collector)
            return result
        if serve:
            return recorder.call("request", "serve", fn, *args, root=True,
                                 **kwargs)
        return recorder.call("batch", "service", fn, *args, **kwargs)

    with instrument(recorder):
        out = workloads.replay(workload, units, wrap)
    rows = recorder.self_times()
    metrics = {name: 0.0 for name in METRICS}
    metrics["frontend.parse_ms"] = recorder.total("parse") * 1000.0
    metrics["frontend.cfg_ms"] = recorder.total("cfg") * 1000.0
    metrics["analysis.plan_ms"] = recorder.total("plan") * 1000.0
    fixpoint = recorder.total("fixpoint")
    fixpoint_core = sum(s.core_s for s in recorder.spans
                        if s.name == "fixpoint")
    metrics["analysis.fixpoint_ms"] = fixpoint * 1000.0
    # Plan compiles run inside the fixpoint span.
    metrics["analysis.fixpoint_self_ms"] = (
        fixpoint - fixpoint_core - recorder.total("plan")) * 1000.0
    if isinstance(workload, workloads.OneShot):
        _oneshot_metrics(metrics, collectors)
    elif isinstance(workload, workloads.Batch):
        _batch_metrics(out, metrics, rows, recorder)
    else:
        _serve_metrics(workload, out, units, metrics, rows)
    for layer in LAYERS:
        metrics[f"layer.{layer}_ms"] = rows[layer] * 1000.0
    metrics["traced_wall_ms"] = out.wall_s * 1000.0
    metrics["unattributed_ms"] = (out.wall_s - sum(rows.values())) * 1000.0
    metrics["obs.trace_overhead"] = out.wall_s / base.wall_s
    if trace_path is not None:
        recorder.write(trace_path)
    return metrics


def table(metrics: Dict[str, float]) -> str:
    """The per-layer table: self time per layer, rows summing to the
    traced wall time."""
    wall = metrics["traced_wall_ms"]
    lines = [f"{'layer':<14}{'self ms':>12}{'share':>9}"]
    for layer in LAYERS:
        value = metrics[f"layer.{layer}_ms"]
        lines.append(f"{layer:<14}{value:>12.1f}{value / wall:>9.1%}")
    value = metrics["unattributed_ms"]
    lines.append(f"{'unattributed':<14}{value:>12.1f}{value / wall:>9.1%}")
    lines.append(f"{'traced wall':<14}{wall:>12.1f}{1:>9.1%}")
    lines.append(f"trace overhead: {metrics['obs.trace_overhead']:.3f}x "
                 "the untraced replay")
    return "\n".join(lines)

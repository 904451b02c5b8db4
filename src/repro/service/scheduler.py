"""Batch execution: cache and journal around a supervised worker pool.

:func:`run_batch` is the service's execution engine.  Design points:

* **One pool.**  With ``workers > 1`` every job runs on a
  :class:`~repro.service.pool.WorkerSupervisor` built for the batch --
  the same supervised pool the analysis daemon uses, so batch jobs get
  its heartbeats, deadline kills, respawn backoff, shared-memory sweeps
  and trace propagation.  The batch process never computes a job
  itself: a worker that dies only costs a respawn.
* **Failure taxonomy.**  ``timeout`` is a per-attempt limit whose clock
  starts when a worker takes the job.  It clamps the job's time budget,
  so an analysis that honours its budget answers ``degraded`` (sound)
  in time; one that ignores it is killed at the deadline plus the
  pool's grace and reported ``outcome="timeout"`` (not retried: the
  same input would time out again).  A job that raises, or whose worker
  dies (segfault, OOM-kill), is retried up to ``retries`` times and
  then reported ``outcome="error"`` with the traceback or exit code.
  The batch itself always completes with one result per job, in input
  order.
* **Inline mode.**  ``workers=1`` runs every job in the calling
  process -- no fork, deterministic output ordering, breakpoints work.
  ``timeout`` applies as the same time-budget clamp (nothing can kill
  a job that ignores it); retries still apply.  Tests assert that
  inline and parallel runs produce identical verdicts and bounds.
* **Cache short-circuit.**  With a :class:`ResultCache`, each job's
  key is looked up before anything is submitted; hits come back
  ``cached=True`` and only misses are scheduled.  Completed ``ok``
  results are stored as they arrive, so even an interrupted batch
  warms the cache.
"""

from __future__ import annotations

import os
import queue
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import JobRaised
from ..obs import events, trace
from . import transport
from .cache import ResultCache
from .job import (
    OUTCOME_ERROR,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
    AnalysisJob,
    JobResult,
    execute_job,
)
from .journal import BatchJournal
from .pool import WorkerSupervisor


@dataclass
class BatchResult:
    """One completed batch: per-job results (input order) + totals."""

    results: List[JobResult]
    wall_seconds: float
    workers: int
    cache_hits: int = 0
    cache_misses: int = 0
    #: Jobs served from the batch journal during ``--resume``.
    resumed: int = 0
    #: Parent-side transport counter deltas for this batch
    #: (``bytes_shipped``, ``bytes_zero_copy``, ``shm_blocks_*``) --
    #: measured where the pipes terminate, so they exist even for jobs
    #: whose workers died mid-ship.
    transport: Dict[str, int] = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def all_completed(self) -> bool:
        """Every job produced a sound answer (``ok`` or ``degraded``)."""
        return all(r.completed for r in self.results)

    @property
    def checks_total(self) -> int:
        return sum(r.checks_total for r in self.results)

    @property
    def checks_verified(self) -> int:
        return sum(r.checks_verified for r in self.results)

    def outcome_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for r in self.results:
            counts[r.outcome] = counts.get(r.outcome, 0) + 1
        return counts

    def counters(self) -> Dict[str, int]:
        """Hot-path counters summed over all non-cached job results,
        plus the batch's parent-side transport counters."""
        total: Dict[str, int] = {}
        for r in self.results:
            if r.cached:
                continue
            for name, value in r.counters.items():
                total[name] = total.get(name, 0) + value
        for name, value in self.transport.items():
            total[name] = total.get(name, 0) + value
        return total

    def op_timings(self) -> Dict[str, Dict]:
        """Per-operator timing decomposition summed over the jobs that
        actually executed this run (cached results are prior work)."""
        seconds: Dict[str, float] = {}
        self_seconds: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        for r in self.results:
            if r.cached:
                continue
            for name, value in r.op_seconds.items():
                seconds[name] = seconds.get(name, 0.0) + value
            for name, value in r.op_self_seconds.items():
                self_seconds[name] = self_seconds.get(name, 0.0) + value
            for name, value in r.op_calls.items():
                calls[name] = calls.get(name, 0) + value
        return {"op_seconds": seconds, "op_self_seconds": self_seconds,
                "op_calls": calls}

    def merged_histograms(self) -> Dict[str, Dict]:
        """Histogram snapshots merged across non-cached job results."""
        from ..obs import metrics
        merged = metrics.merge_histogram_dicts(
            [r.histograms for r in self.results
             if not r.cached and r.histograms])
        return {key: data.to_dict() for key, data in merged.items()}


def default_workers() -> int:
    return os.cpu_count() or 1


def _timeout_result(job: AnalysisJob, timeout: float, attempt: int) -> JobResult:
    return JobResult(key=job.key(), label=job.label, domain=job.domain,
                     outcome=OUTCOME_TIMEOUT, seconds=float(timeout),
                     attempts=attempt,
                     error=f"exceeded {timeout:g}s wall-clock timeout")


def _error_result(job: AnalysisJob, message: str, attempt: int) -> JobResult:
    return JobResult(key=job.key(), label=job.label, domain=job.domain,
                     outcome=OUTCOME_ERROR, attempts=attempt, error=message)


def _trace_job(job: AnalysisJob, result: JobResult,
               started: float, ended: float) -> None:
    """Give a finished job its own lane in the parent's trace.

    The job span is emitted from parent-side measurements (it exists
    even when the worker died or timed out), and any spans the worker
    shipped back in ``result.trace_events`` are re-parented onto the
    same lane, where they nest under the job span by time containment.
    """
    if not trace.enabled():
        return
    lane = trace.new_lane(f"job {job.label or job.key()[:8]}")
    trace.emit("job", started, ended, tid=lane,
               args={"label": job.label, "outcome": result.outcome,
                     "attempts": result.attempts})
    if result.trace_events:
        trace.adopt(result.trace_events, lane)


def run_batch(
    jobs: Sequence[AnalysisJob],
    *,
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    cache: Optional[ResultCache] = None,
    journal: Optional[BatchJournal] = None,
    resume: bool = False,
    worker: Callable[[AnalysisJob], JobResult] = execute_job,
) -> BatchResult:
    """Run ``jobs`` through the service; one result per job, in order.

    ``workers=None`` uses :func:`default_workers` (``os.cpu_count()``),
    capped at the number of jobs.  ``timeout`` is per attempt, counted
    from dispatch.  ``retries`` is the number of *extra* attempts
    granted after a job raises or its worker dies; timeouts are final.
    ``worker`` runs each job (in the pool's processes, or inline).

    With a ``journal``, every finished job is appended durably as it
    completes.  ``resume=True`` first serves jobs already journalled by
    a previous (killed) run of the same batch; ``resume=False`` rotates
    any stale journal aside and starts fresh.
    """
    jobs = list(jobs)
    if workers is None:
        workers = default_workers()
    workers = max(1, min(int(workers), max(len(jobs), 1)))
    start = time.perf_counter()

    results: List[Optional[JobResult]] = [None] * len(jobs)
    cache_hits = cache_misses = resumed = 0
    done = {}
    if journal is not None:
        if resume:
            done = journal.load()
        else:
            journal.rotate()
    pending: List[int] = []
    for idx, job in enumerate(jobs):
        key = job.key()
        prior = done.get(key)
        if prior is not None:
            prior.resumed = True
            results[idx] = prior
            resumed += 1
            continue
        if cache is not None:
            hit = cache.get(key)
            if hit is not None:
                results[idx] = hit
                cache_hits += 1
                # Journal cache hits too: resume must not depend on the
                # cache still being present (or enabled) later.
                if journal is not None:
                    journal.record(hit)
                continue
            cache_misses += 1
        pending.append(idx)

    events.info("batch_start", jobs=len(jobs), scheduled=len(pending),
                workers=workers, cache_hits=cache_hits, resumed=resumed)
    transport.sweep_orphans()
    transport_before = transport.transport_counters()
    with trace.span("batch", jobs=len(jobs), workers=workers):
        try:
            if workers == 1:
                _run_inline(jobs, pending, results, timeout=timeout,
                            retries=retries, cache=cache, journal=journal,
                            worker=worker)
            elif pending:
                _run_on_pool(jobs, pending, results, workers=workers,
                             timeout=timeout, retries=retries, cache=cache,
                             journal=journal, worker=worker)
        finally:
            if journal is not None:
                journal.close()

    assert all(r is not None for r in results)
    transport_after = transport.transport_counters()
    batch = BatchResult(results=list(results),
                        wall_seconds=time.perf_counter() - start,
                        workers=workers,
                        cache_hits=cache_hits, cache_misses=cache_misses,
                        resumed=resumed,
                        transport={name: transport_after[name] - before
                                   for name, before in transport_before.items()})
    events.info("batch_done", wall_seconds=round(batch.wall_seconds, 6),
                **batch.outcome_counts())
    return batch


def _finish(jobs, results, idx: int, result: JobResult, started: float, *,
            timeout, cache, journal) -> None:
    """Record one finished job: trace lane, event, result slot, store."""
    job = jobs[idx]
    if timeout is not None:
        # The clamped budget entered the computed key; the result
        # belongs to the job as submitted (an ``ok`` answer under a
        # tighter budget is identical to the unclamped one).
        result.key = job.key()
    _trace_job(job, result, started, time.perf_counter())
    if result.outcome == OUTCOME_TIMEOUT:
        events.warning("job_timeout", label=job.label, timeout=timeout,
                       attempts=result.attempts)
    elif result.outcome == OUTCOME_ERROR:
        events.error("job_failed", label=job.label, attempts=result.attempts,
                     error=(result.error or "").strip().rsplit("\n", 1)[-1])
    events.info("job_done", label=job.label, outcome=result.outcome,
                attempts=result.attempts, seconds=round(result.seconds, 6))
    results[idx] = result
    if cache is not None and result.outcome == OUTCOME_OK:
        cache.put(job.key(), result)
    if journal is not None:
        journal.record(result)


def _run_inline(jobs, pending, results, *, timeout, retries, cache, journal,
                worker) -> None:
    """``workers=1``: execute in the calling process, no fork."""
    for idx in pending:
        job = jobs[idx]
        attempt = 1
        events.debug("job_start", label=job.label, attempt=attempt)
        started = time.perf_counter()
        while True:
            try:
                # The same clamp the pool applies at dispatch.
                result = worker(job.with_deadline(
                    None if timeout is None else time.monotonic() + timeout))
                result.attempts = attempt
                break
            except Exception:
                if attempt <= retries:
                    attempt += 1
                    events.warning("job_retry", label=job.label,
                                   attempt=attempt)
                    continue
                result = _error_result(job, traceback.format_exc(), attempt)
                break
        _finish(jobs, results, idx, result, started, timeout=timeout,
                cache=cache, journal=journal)


def _run_on_pool(jobs, pending, results, *, workers, timeout, retries, cache,
                 journal, worker) -> None:
    """``workers > 1``: submit everything to a supervised pool built for
    this batch, then record results in the order they arrive."""
    # The batch process never computes a job: the breaker (which would
    # turn worker failures into in-process runs) cannot trip, and a
    # job whose workers keep dying fails on its own retry budget.
    pool = WorkerSupervisor(min(workers, len(pending)), retries=retries,
                            breaker_threshold=sys.maxsize, worker=worker)
    arrived: "queue.SimpleQueue" = queue.SimpleQueue()
    try:
        pool.start()
        tickets = {}
        for idx in pending:
            events.debug("job_start", label=jobs[idx].label, attempt=1)
            tickets[pool.submit(jobs[idx], timeout=timeout,
                                on_done=arrived.put)] = idx
        for _ in range(len(tickets)):
            ticket = arrived.get()
            idx = tickets[ticket]
            job, attempts = jobs[idx], max(1, ticket.attempts)
            if ticket.result is not None:
                result = ticket.result
                result.attempts = attempts
                result.shm_arena = ticket.arena
            elif ticket.fallback == "expired":
                result = _timeout_result(job, timeout, attempts)
            elif isinstance(ticket.error, JobRaised):
                result = _error_result(job, ticket.error.traceback, attempts)
            elif ticket.error is not None:
                result = _error_result(job, str(ticket.error), attempts)
            else:
                result = _error_result(
                    job, f"worker pool unavailable ({ticket.fallback})",
                    attempts)
            _finish(jobs, results, idx, result, ticket.dispatched,
                    timeout=timeout, cache=cache, journal=journal)
    finally:
        pool.shutdown()

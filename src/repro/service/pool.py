"""Supervised worker pool: the one place analysis jobs leave the process.

Both the batch service (:func:`repro.service.scheduler.run_batch` with
``workers > 1``) and the analysis daemon (``serve --pool N``) run their
jobs on a :class:`WorkerSupervisor`: long-lived child processes fed
over pipes, with the memory and disk tiers left in the parent.

* **Process isolation.**  Jobs travel to workers over the two-lane
  transport (:func:`repro.service.transport.send_payload` with
  :func:`~repro.service.transport.wrap_job` envelopes); results come
  back the same way, shared-memory lane included.  A worker that
  segfaults, gets OOM-killed, or wedges costs one respawn, never the
  submitting process.
* **Supervision.**  One loop thread multiplexes every worker's result
  pipe and process sentinel through ``multiprocessing.connection.wait``.
  Workers heartbeat from a side thread; a busy worker that stops
  heartbeating is presumed wedged, killed, and its job retried.  Dead
  workers are reaped, their shared-memory segments swept
  (:func:`~repro.service.transport.sweep_worker`), and respawned under
  capped exponential backoff.
* **Deadlines.**  A job dispatched with a deadline -- the submitter's
  absolute ``deadline``, or a per-attempt ``timeout`` whose clock
  starts at dispatch -- gets its ``time_budget`` clamped to the time
  remaining (:func:`repro.core.budget.clamp_to_deadline`), so the
  worker's own degradation ladder returns a sound ``degraded`` result
  before the deadline.  A worker that ignores its budget (a genuine
  wedge) is killed at ``deadline + grace`` and the job resolves with
  the ``expired`` fallback.
* **Circuit breaker.**  Sustained failures (``breaker_threshold``
  consecutive crashes/hangs) open a breaker: for ``breaker_cooldown``
  seconds every submission resolves with the ``breaker`` fallback
  (with a visible ``serve_breaker_open`` event) instead of flapping
  through respawn storms.

:meth:`WorkerSupervisor.submit` queues a job and returns its ticket
without blocking; the ticket resolves with a result, an error
(:class:`~repro.errors.WorkerDied` or :class:`~repro.errors.JobRaised`
beyond the retry budget) or a fallback reason.  What a fallback means
is the submitter's call: batch reports ``expired`` as a timeout and
never computes in its own process, while :meth:`WorkerSupervisor.execute`
-- the :class:`~repro.serve.incremental.IncrementalAnalyzer` executor
contract ``(job, deadline) -> (JobResult, external)`` -- computes every
fallback inline in the parent (an expired one under a sliver budget,
so it degrades at once).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import threading
import time
import traceback
from collections import deque
from multiprocessing import connection as mp_connection
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..errors import JobRaised, WorkerDied
from ..obs import events, metrics, trace
from ..testing import faults
from . import transport
from .job import AnalysisJob, JobResult, execute_job

metrics.REGISTRY.counter("worker_restarts",
                         "Pool workers respawned after a failure")
metrics.REGISTRY.counter("worker_crashes",
                         "Pool workers that died mid-supervision")
metrics.REGISTRY.counter("worker_hangs",
                         "Pool workers killed as wedged "
                         "(deadline or heartbeat expiry)")
metrics.REGISTRY.counter("serve_breaker_opens",
                         "Circuit-breaker openings (pool fell back to "
                         "inline execution)")
metrics.REGISTRY.counter("serve_pool_jobs",
                         "Jobs completed by supervised pool workers")
metrics.REGISTRY.counter("serve_pool_inline",
                         "Jobs the supervisor executed inline "
                         "(breaker open, expired deadline, shutdown)")

#: Wait after ``terminate()`` before escalating to ``kill()``.
_KILL_GRACE_S = 2.0

_IDLE, _BUSY, _DEAD = "idle", "busy", "dead"


def _terminate(proc) -> None:
    """``terminate()``, then ``kill()`` if the grace period runs out."""
    proc.terminate()
    proc.join(_KILL_GRACE_S)
    if proc.is_alive():
        proc.kill()
        proc.join()


def _context():
    """Prefer ``fork`` (cheap, nothing to pickle); else the default.

    Under a non-fork start method a custom ``worker`` callable must be
    module-level so it pickles into the child.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _worker_loop(job_recv, res_send, hb_interval: float, parent_pid: int,
                 worker: Callable[[AnalysisJob], JobResult]) -> None:
    """Child-process entry: serve jobs until told (or unable) to exit.

    The result pipe is shared by job results and heartbeats, so sends
    are serialized by a lock; the heartbeat thread keeps beating while
    a fixpoint runs (the GIL is released often enough), which is
    exactly the liveness signal the parent wants -- a worker that stops
    beating while busy is wedged below Python, not merely slow.
    """
    pid = os.getpid()
    segment = transport.segment_name(parent_pid, pid)
    send_lock = threading.Lock()

    def send(payload: tuple) -> None:
        with send_lock:
            transport.send_payload(res_send, payload, segment=segment)

    stop_hb = threading.Event()

    def heartbeats() -> None:
        while not stop_hb.wait(hb_interval):
            if os.getppid() != parent_pid:
                # Orphaned: the supervisor died without retiring us.
                # Exit so we release every inherited fd (socket lock
                # included) instead of lingering forever.
                os._exit(0)
            try:
                send(("hb", pid))
            except (OSError, ValueError):
                return

    try:
        send(("ready", pid))
    except (OSError, ValueError):
        return
    threading.Thread(target=heartbeats, daemon=True).start()

    while True:
        try:
            payload, arena = transport.recv_payload(job_recv, count=False)
        except (EOFError, OSError):
            break
        try:
            if payload[0] == "exit":
                break
            _, seq, wrapped, directives = payload
            job, ctx = transport.unwrap_job_ctx(wrapped)
        finally:
            if arena is not None:
                arena.release()
        if ctx is not None and "trace" not in job.telemetry:
            # The dispatching daemon is tracing this request: arm the
            # job so execute_job opens a span session and returns the
            # events with the result.  The telemetry tuple is excluded
            # from the cache key, so this changes nothing downstream.
            job = dataclasses.replace(job,
                                      telemetry=job.telemetry + ("trace",))
        if directives.get("kill"):
            # Injected chaos: die the way a segfault does, mid-job.
            os._exit(13)
        if directives.get("hang"):
            # Injected chaos: wedge below the budget machinery -- stop
            # heartbeating and never return.  The parent must kill us.
            stop_hb.set()
            time.sleep(3600)
        try:
            result = worker(job)
        except BaseException:
            try:
                send(("err", seq, traceback.format_exc()))
            except (OSError, ValueError):
                break
            continue
        try:
            send(("done", seq, result))
        except (OSError, ValueError):
            break


class _PoolJob:
    """One submitted job's ticket: the rendezvous between the
    submitting thread and the loop thread."""

    __slots__ = ("job", "deadline", "timeout", "cutoff", "seq", "attempts",
                 "dispatched", "done", "result", "arena", "error",
                 "fallback", "ctx", "on_done")

    def __init__(self, job: AnalysisJob, deadline: Optional[float],
                 timeout: Optional[float],
                 ctx: Optional[trace.TraceContext] = None,
                 on_done: Optional[Callable[["_PoolJob"], None]] = None,
                 ) -> None:
        self.job = job
        self.deadline = deadline
        self.timeout = timeout
        #: The running attempt's deadline: ``deadline`` tightened by
        #: ``timeout`` counted from dispatch (set by the loop thread).
        self.cutoff: Optional[float] = deadline
        self.seq = 0
        self.ctx = ctx
        self.on_done = on_done
        self.attempts = 0
        #: ``perf_counter`` at the latest dispatch (submission until
        #: then), the start of the job's trace span.
        self.dispatched = time.perf_counter()
        self.done = threading.Event()
        self.result: Optional[JobResult] = None
        self.arena = None
        self.error: Optional[BaseException] = None
        #: Set instead of a result when the pool did not finish the
        #: job: ``"expired"`` (its deadline passed) or ``"breaker"``/
        #: ``"shutdown"`` (pool unavailable).
        self.fallback: Optional[str] = None

    def resolve(self) -> None:
        self.done.set()
        if self.on_done is not None:
            self.on_done(self)


class _Worker:
    """Parent-side bookkeeping for one pool slot."""

    __slots__ = ("idx", "proc", "pid", "job_conn", "res_conn", "state",
                 "current", "busy_since", "last_hb", "fails", "respawn_at")

    def __init__(self, idx: int) -> None:
        self.idx = idx
        self.proc = None
        self.pid: Optional[int] = None
        self.job_conn = None
        self.res_conn = None
        self.state = _DEAD
        self.current: Optional[_PoolJob] = None
        self.busy_since = 0.0
        self.last_hb = 0.0
        self.fails = 0
        self.respawn_at: Optional[float] = None


class WorkerSupervisor:
    """A supervised pool of analysis worker processes.

    Thread safety: submitting threads only touch the pending queue,
    the wake pipe, and counters (all under one lock); every worker's
    state belongs to the loop thread alone.
    """

    def __init__(self, pool_size: int, *, retries: int = 2,
                 heartbeat_interval: float = 0.5,
                 heartbeat_timeout: float = 10.0,
                 deadline_grace: float = 0.5,
                 breaker_threshold: int = 5,
                 breaker_cooldown: float = 30.0,
                 backoff_base: float = 0.05,
                 backoff_cap: float = 2.0,
                 worker: Callable[[AnalysisJob], JobResult] = execute_job,
                 ) -> None:
        self.pool_size = max(1, int(pool_size))
        self.retries = max(0, int(retries))
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.deadline_grace = deadline_grace
        self.breaker_threshold = max(1, int(breaker_threshold))
        self.breaker_cooldown = breaker_cooldown
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        #: The job runner inside each worker (and for inline fallbacks).
        self.worker = worker

        self._lock = threading.Lock()
        self._pending: Deque[_PoolJob] = deque()
        self._workers: List[_Worker] = []
        self._seq = 0
        self._started = False
        #: Why the pool stopped taking jobs (``"shutdown"`` or
        #: ``"breaker"`` after a loop crash); ``None`` while it does.
        self._closed: Optional[str] = None
        self._stopping = threading.Event()
        self._loop_thread: Optional[threading.Thread] = None
        self._wake_r, self._wake_w = os.pipe()
        self._ctx = _context()

        self._consecutive_failures = 0
        self._breaker_open_until = 0.0
        self._breaker_was_open = False
        self.counters: Dict[str, int] = {
            "worker_restarts": 0,
            "worker_crashes": 0,
            "worker_hangs": 0,
            "serve_breaker_opens": 0,
            "serve_pool_jobs": 0,
            "serve_pool_inline": 0,
        }

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Spawn the pool and the supervision loop (idempotent).

        Call *before* binding listening sockets: forked workers must
        not inherit the daemon's listener or client connections.
        """
        if self._started:
            return
        self._started = True
        for idx in range(self.pool_size):
            worker = _Worker(idx)
            self._spawn(worker)
            self._workers.append(worker)
        self._loop_thread = threading.Thread(
            target=self._loop, name="serve-supervisor", daemon=True)
        self._loop_thread.start()
        events.info("serve_pool_started", workers=self.pool_size)

    def _spawn(self, worker: _Worker) -> None:
        job_recv, job_send = self._ctx.Pipe(duplex=False)
        res_recv, res_send = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_loop,
            args=(job_recv, res_send, self.heartbeat_interval, os.getpid(),
                  self.worker),
            daemon=True)
        proc.start()
        job_recv.close()
        res_send.close()
        worker.proc = proc
        worker.pid = proc.pid
        worker.job_conn = job_send
        worker.res_conn = res_recv
        worker.state = _IDLE
        worker.current = None
        worker.last_hb = time.monotonic()
        worker.respawn_at = None

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop the loop, retire every worker, sweep their segments."""
        if not self._started:
            return
        self._stopping.set()
        self._wake()
        if self._loop_thread is not None:
            self._loop_thread.join(timeout)
        for worker in self._workers:
            self._retire(worker)
        events.info("serve_pool_stopped",
                    restarts=self.counters["worker_restarts"],
                    crashes=self.counters["worker_crashes"])

    def _retire(self, worker: _Worker) -> None:
        """Ask one worker to exit; escalate to terminate/kill; sweep."""
        proc, pid = worker.proc, worker.pid
        if proc is None:
            return
        try:
            transport.send_payload(worker.job_conn, ("exit",))
        except (OSError, ValueError):
            pass
        self._close_conns(worker)
        proc.join(_KILL_GRACE_S)
        if proc.is_alive():
            _terminate(proc)
        transport.sweep_worker(pid)
        worker.proc = None
        worker.state = _DEAD

    @staticmethod
    def _close_conns(worker: _Worker) -> None:
        for conn in (worker.job_conn, worker.res_conn):
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
        worker.job_conn = worker.res_conn = None

    # -- submission (any thread) ----------------------------------------
    def submit(self, job: AnalysisJob, *, deadline: Optional[float] = None,
               timeout: Optional[float] = None,
               on_done: Optional[Callable[[_PoolJob], None]] = None,
               ) -> _PoolJob:
        """Queue ``job`` without blocking; returns its ticket.

        ``deadline`` is an absolute :func:`time.monotonic` instant;
        ``timeout`` a per-attempt limit in seconds whose clock starts
        when a worker takes the job, so time spent queued never counts.
        ``on_done(ticket)`` runs on the loop thread once the ticket
        resolves (immediately, on this thread, when the pool is not
        taking jobs).
        """
        # Capture the request's trace identity on the submitting thread
        # -- it rides the submission envelope so the worker's spans
        # carry the same trace id, and retries re-parent under it.
        ctx = trace.current_context() if trace.enabled() else None
        pool_job = _PoolJob(job, deadline, timeout, ctx, on_done)
        unavailable = "breaker" if self._breaker_is_open() else None
        with self._lock:
            self._seq += 1
            pool_job.seq = self._seq
            if not self._started or self._stopping.is_set():
                unavailable = "shutdown"
            unavailable = unavailable or self._closed
            if unavailable is None:
                self._pending.append(pool_job)
        if unavailable is not None:
            pool_job.fallback = unavailable
            pool_job.resolve()
        else:
            self._wake()
        return pool_job

    def execute(self, job: AnalysisJob,
                deadline: Optional[float] = None) -> Tuple[JobResult, bool]:
        """Run ``job`` on the pool; ``(result, computed_out_of_process)``.

        Falls back to inline in-parent execution when the breaker is
        open, the pool is not running, or the job's deadline expired
        (the inline run then has a sliver budget and degrades
        immediately -- a sound answer, on time).  Raises
        :class:`~repro.errors.WorkerDied` when workers died under the
        job, or :class:`~repro.errors.JobRaised` when it raised, beyond
        the retry budget.
        """
        pool_job = self.submit(job, deadline=deadline)
        while not pool_job.done.wait(0.5):
            if (self._loop_thread is None
                    or not self._loop_thread.is_alive()):
                # The supervision loop itself died: never strand the
                # request -- compute it here.
                return self._inline(job, deadline), False
        if pool_job.fallback is not None:
            return self._inline(job, deadline), False
        if pool_job.error is not None:
            raise pool_job.error
        result = pool_job.result
        result.shm_arena = pool_job.arena
        return result, True

    def _inline(self, job: AnalysisJob,
                deadline: Optional[float]) -> JobResult:
        with self._lock:
            self.counters["serve_pool_inline"] += 1
        return self.worker(job.with_deadline(deadline))

    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"x")
        except OSError:
            pass

    # -- breaker -------------------------------------------------------
    def _breaker_is_open(self) -> bool:
        with self._lock:
            open_now = time.monotonic() < self._breaker_open_until
            closed = self._breaker_was_open and not open_now
            if closed:
                self._breaker_was_open = False
        if closed:
            # The cooldown lapsed: the first check after expiry logs the
            # close so log artifacts show the full open/close history.
            events.info("serve_breaker_closed",
                        cooldown_seconds=self.breaker_cooldown)
        return open_now

    def breaker_open(self) -> bool:
        """Public read of the breaker state (status surface)."""
        return self._breaker_is_open()

    def _record_failure(self, kind: str) -> None:
        """One crash/hang: count it, maybe open the breaker (loop thread)."""
        with self._lock:
            self.counters[kind] += 1
            self._consecutive_failures += 1
            tripped = (self._consecutive_failures >= self.breaker_threshold
                       and time.monotonic() >= self._breaker_open_until)
            if tripped:
                self._breaker_open_until = (time.monotonic()
                                            + self.breaker_cooldown)
                self._consecutive_failures = 0
                self._breaker_was_open = True
                self.counters["serve_breaker_opens"] += 1
        if tripped:
            events.warning("serve_breaker_open",
                           cooldown_seconds=self.breaker_cooldown,
                           threshold=self.breaker_threshold)
            # Everything queued goes inline: the submitters must not
            # wait out a respawn storm.
            with self._lock:
                stranded = list(self._pending)
                self._pending.clear()
            for pool_job in stranded:
                pool_job.fallback = "breaker"
                pool_job.resolve()

    def _record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self.counters["serve_pool_jobs"] += 1

    # -- supervision loop ----------------------------------------------
    def _loop(self) -> None:
        try:
            while True:
                if self._stopping.is_set():
                    self._fail_pending("shutdown")
                    return
                self._respawn_due()
                self._expire_pending()
                self._assign_pending()
                ready = mp_connection.wait(self._watch_list(),
                                           timeout=self._wait_timeout())
                self._drain_wake(ready)
                self._collect(ready)
                self._kill_expired()
        except Exception:
            # A supervision bug must not strand submitters: they poll
            # loop-thread liveness and fall back to inline execution.
            events.error("serve_pool_loop_crashed",
                         error=traceback.format_exc().strip().splitlines()[-1])
            self._fail_pending("loop-crash")
            raise

    def _watch_list(self) -> list:
        watch: list = [self._wake_r]
        for worker in self._workers:
            if worker.state == _DEAD:
                continue
            watch.append(worker.res_conn)
            watch.append(worker.proc.sentinel)
        return watch

    def _wait_timeout(self) -> float:
        now = time.monotonic()
        horizon = now + 0.5
        for worker in self._workers:
            if worker.state == _BUSY:
                job = worker.current
                if job is not None and job.cutoff is not None:
                    horizon = min(horizon,
                                  job.cutoff + self.deadline_grace)
                horizon = min(horizon,
                              worker.last_hb + self.heartbeat_timeout)
            elif worker.state == _DEAD and worker.respawn_at is not None:
                horizon = min(horizon, worker.respawn_at)
        return max(0.0, horizon - now)

    def _drain_wake(self, ready) -> None:
        if self._wake_r in ready:
            try:
                os.read(self._wake_r, 4096)
            except OSError:
                pass

    def _expire_pending(self) -> None:
        """Resolve queued jobs whose deadline passed before dispatch:
        the submitter decides what an expired job means instead of
        waiting for a worker that cannot deliver on time anyway."""
        now = time.monotonic()
        expired: List[_PoolJob] = []
        with self._lock:
            keep: Deque[_PoolJob] = deque()
            for pool_job in self._pending:
                if (pool_job.deadline is not None
                        and now >= pool_job.deadline):
                    expired.append(pool_job)
                else:
                    keep.append(pool_job)
            self._pending = keep
        for pool_job in expired:
            pool_job.fallback = "expired"
            pool_job.resolve()

    def _assign_pending(self) -> None:
        for worker in self._workers:
            if worker.state != _IDLE:
                continue
            with self._lock:
                if not self._pending:
                    return
                pool_job = self._pending.popleft()
            self._dispatch(worker, pool_job)

    def _dispatch(self, worker: _Worker, pool_job: _PoolJob) -> None:
        pool_job.attempts += 1
        directives: Dict[str, bool] = {}
        if faults.fire_once("serve_worker_kill", pool_job.job.label):
            directives["kill"] = True
        if faults.fire_once("serve_worker_hang", pool_job.job.label):
            directives["hang"] = True
        pool_job.cutoff = pool_job.deadline
        if pool_job.timeout is not None:
            attempt_end = time.monotonic() + pool_job.timeout
            pool_job.cutoff = (attempt_end if pool_job.deadline is None
                               else min(pool_job.deadline, attempt_end))
        job = pool_job.job.with_deadline(pool_job.cutoff)
        pool_job.dispatched = time.perf_counter()
        try:
            transport.send_payload(
                worker.job_conn,
                ("job", pool_job.seq,
                 transport.wrap_job(job, pool_job.ctx), directives),
                segment=transport.job_segment_name(os.getpid(), worker.pid),
                count_prefix="job_")
        except (OSError, ValueError):
            # Worker died before reading: the sentinel path reaps it
            # and requeues this job.
            pass
        now = time.monotonic()
        worker.state = _BUSY
        worker.current = pool_job
        worker.busy_since = now
        worker.last_hb = now

    def _collect(self, ready) -> None:
        for worker in list(self._workers):
            if worker.state == _DEAD:
                continue
            signalled = (worker.res_conn in ready
                         or worker.proc.sentinel in ready)
            if not signalled:
                continue
            while worker.state != _DEAD and worker.res_conn.poll():
                try:
                    payload, arena = transport.recv_payload(worker.res_conn)
                except (EOFError, OSError):
                    self._reap_crashed(worker)
                    break
                self._handle_message(worker, payload, arena)
            if worker.state != _DEAD and not worker.proc.is_alive():
                self._reap_crashed(worker)

    def _handle_message(self, worker: _Worker, payload: tuple,
                        arena) -> None:
        kind = payload[0]
        worker.last_hb = time.monotonic()
        if kind in ("hb", "ready"):
            return
        pool_job = worker.current
        if pool_job is None or payload[1] != pool_job.seq:
            return  # stale answer from a dispatch we already gave up on
        worker.current = None
        worker.state = _IDLE
        worker.fails = 0
        if kind == "done":
            pool_job.result = payload[2]
            pool_job.arena = arena
            self._record_success()
            pool_job.resolve()
        else:  # "err": the job raised in the worker; worker is healthy
            if pool_job.attempts <= self.retries:
                self._note_retry(pool_job, "job-error", worker)
                with self._lock:
                    self._pending.append(pool_job)
            else:
                pool_job.error = JobRaised(payload[2])
                pool_job.resolve()

    def _reap_crashed(self, worker: _Worker) -> None:
        """A worker died under supervision: reap, sweep, respawn, retry."""
        exitcode = worker.proc.exitcode
        worker.proc.join()
        pool_job, delay = self._bury(worker)
        events.warning("serve_worker_died", pid=worker.pid, slot=worker.idx,
                       exitcode=exitcode, respawn_in=round(delay, 3),
                       label=pool_job.job.label if pool_job else None)
        self._record_failure("worker_crashes")
        if pool_job is not None:
            self._requeue_or_fail(pool_job,
                                  WorkerDied(exitcode, stage="mid-job"),
                                  worker=worker)

    def _bury(self, worker: _Worker) -> Tuple[Optional[_PoolJob], float]:
        """Clean up after a reaped worker and schedule its respawn;
        returns the job it was running and the backoff delay."""
        self._close_conns(worker)
        transport.sweep_worker(worker.pid)
        pool_job, worker.current = worker.current, None
        worker.proc = None
        worker.state = _DEAD
        worker.fails += 1
        delay = min(self.backoff_cap,
                    self.backoff_base * (2 ** (worker.fails - 1)))
        worker.respawn_at = time.monotonic() + delay
        return pool_job, delay

    def _requeue_or_fail(self, pool_job: _PoolJob,
                         error: BaseException,
                         worker: Optional[_Worker] = None) -> None:
        expired = (pool_job.cutoff is not None
                   and time.monotonic() >= pool_job.cutoff)
        if expired:
            pool_job.fallback = "expired"
            pool_job.resolve()
        elif self._breaker_is_open():
            pool_job.fallback = "breaker"
            pool_job.resolve()
        elif pool_job.attempts <= self.retries:
            self._note_retry(pool_job, "worker-died", worker)
            with self._lock:
                self._pending.append(pool_job)
        else:
            pool_job.error = error
            pool_job.resolve()

    def _note_retry(self, pool_job: _PoolJob, cause: str,
                    worker: Optional[_Worker] = None) -> None:
        """One retry decision: structured event plus a trace marker.

        The marker is a zero-duration span on the originating request's
        lane (``ctx.parent``), so the respawned attempt's spans and the
        retry itself both sit under the same ``serve_request`` -- the
        trace shows the kill/retry/redo sequence end to end.
        """
        trace_id = pool_job.ctx.trace_id if pool_job.ctx else None
        events.warning("serve_job_retry", label=pool_job.job.label,
                       attempt=pool_job.attempts + 1, cause=cause,
                       worker_slot=worker.idx if worker else None,
                       worker_pid=worker.pid if worker else None,
                       trace_id=trace_id)
        if pool_job.ctx is not None and trace.enabled():
            now = time.perf_counter()
            trace.emit("serve_job_retry", now, now,
                       tid=pool_job.ctx.parent or None,
                       args={"trace_id": trace_id,
                             "label": pool_job.job.label,
                             "attempt": pool_job.attempts + 1,
                             "cause": cause})

    def _kill_expired(self) -> None:
        """Kill busy workers past their job deadline or heartbeat window."""
        now = time.monotonic()
        for worker in self._workers:
            if worker.state != _BUSY:
                continue
            pool_job = worker.current
            over_deadline = (
                pool_job is not None and pool_job.cutoff is not None
                and now >= pool_job.cutoff + self.deadline_grace)
            hb_stale = now - worker.last_hb >= self.heartbeat_timeout
            if not (over_deadline or hb_stale):
                continue
            self._kill_worker(worker,
                              "deadline" if over_deadline else "heartbeat")

    def _kill_worker(self, worker: _Worker, why: str) -> None:
        _terminate(worker.proc)
        pool_job, delay = self._bury(worker)
        events.warning("serve_worker_killed", pid=worker.pid, slot=worker.idx,
                       reason=why,
                       label=pool_job.job.label if pool_job else None,
                       respawn_in=round(delay, 3))
        self._record_failure("worker_hangs")
        if pool_job is not None:
            self._requeue_or_fail(
                pool_job,
                WorkerDied(-9, stage=f"killed as wedged ({why})"),
                worker=worker)

    def _respawn_due(self) -> None:
        now = time.monotonic()
        for worker in self._workers:
            if (worker.state == _DEAD and worker.respawn_at is not None
                    and now >= worker.respawn_at):
                self._spawn(worker)
                with self._lock:
                    self.counters["worker_restarts"] += 1
                events.info("serve_worker_respawned", pid=worker.pid,
                            slot=worker.idx)

    def _fail_pending(self, why: str) -> None:
        fallback = "shutdown" if why == "shutdown" else "breaker"
        with self._lock:
            self._closed = fallback
            stranded = list(self._pending)
            self._pending.clear()
        for worker in self._workers:
            pool_job, worker.current = worker.current, None
            if pool_job is not None:
                stranded.append(pool_job)
        for pool_job in stranded:
            pool_job.fallback = fallback
            pool_job.resolve()

    # -- observability -------------------------------------------------
    def counter_summary(self) -> Dict[str, int]:
        with self._lock:
            out = dict(self.counters)
        out["serve_pool_size"] = self.pool_size
        out["serve_pool_alive"] = sum(1 for w in self._workers
                                      if w.state != _DEAD)
        return out

    def worker_table(self) -> List[Dict[str, object]]:
        """Best-effort snapshot of every pool slot (status surface).

        Worker state belongs to the loop thread; this reads it without
        coordination, so a row can be a step stale -- fine for an ops
        view, never used for control decisions.
        """
        now = time.monotonic()
        rows: List[Dict[str, object]] = []
        for worker in self._workers:
            current = worker.current
            rows.append({
                "slot": worker.idx,
                "pid": worker.pid,
                "state": worker.state,
                "label": current.job.label if current is not None else None,
                "busy_seconds": (round(now - worker.busy_since, 3)
                                 if worker.state == _BUSY else 0.0),
                "fails": worker.fails,
                "respawn_in": (round(max(0.0, worker.respawn_at - now), 3)
                               if (worker.state == _DEAD
                                   and worker.respawn_at is not None)
                               else None),
            })
        return rows


__all__ = ["WorkerSupervisor"]

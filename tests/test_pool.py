"""Batch on the supervised worker pool.

``run_batch`` with ``workers > 1`` runs every job on a
:class:`~repro.service.pool.WorkerSupervisor`.  These tests pin what
that path promises beyond the scheduler tests in ``test_service.py``:

* a per-job ``timeout`` is a per-attempt budget whose clock starts at
  dispatch, applied as the same time-budget clamp at ``workers=1``;
* a job that raises leaves a healthy worker and is reported as an
  error with its traceback (batch) or an ``internal`` cause (serve),
  never as a dead worker;
* worker deaths are absorbed by the pool: no inline fallback or
  breaker ever runs a job in the batch process, and no shared-memory
  segment survives the batch.
"""

import os
import threading
import time

import pytest

from repro.errors import JobRaised
from repro.serve import AnalysisServer, ServeClient, ServeError
from repro.service import run_batch, suite_jobs
from repro.service.job import AnalysisJob, execute_job
from repro.service.pool import WorkerSupervisor
from repro.service.transport import SHM_PREFIX
from repro.testing import faults

OK_SOURCE = "x = [0, 4]; y = x + 1; assert(y <= 5);"

#: Seconds each job of the dispatch-clock test sleeps before analysing.
NAP_S = 0.2


def _raising_worker(job):
    raise RuntimeError(f"boom {job.label}")


def _napping_worker(job):
    time.sleep(NAP_S)
    return execute_job(job)


def _shm_entries():
    if not os.path.isdir("/dev/shm"):
        return []
    return [e for e in os.listdir("/dev/shm") if e.startswith(SHM_PREFIX)]


@pytest.fixture(autouse=True)
def disarm_faults():
    yield
    faults.clear()


class TestTimeout:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_tiny_timeout_degrades_at_any_width(self, workers):
        """``gwsfmlau`` needs ~0.1 s unbudgeted and degrades in a few
        ms under a 5 ms budget: the same ``degraded`` answer whether
        the clamp happens inline or at pool dispatch."""
        (job,) = [j for j in suite_jobs("small") if j.label == "gwsfmlau"]
        batch = run_batch([job, AnalysisJob(source=OK_SOURCE, label="tiny")],
                          workers=workers, timeout=0.005)
        result = batch.results[0]
        assert result.outcome == "degraded"
        assert result.key == job.key()  # the clamp does not fork the key

    def test_clock_starts_at_dispatch(self):
        """Eight jobs on two workers take four rounds of ``NAP_S``:
        longer than the timeout, though each job alone fits in it.
        Queued jobs must not expire."""
        jobs = [AnalysisJob(source=OK_SOURCE + f"\nz = {i};", label=f"j{i}")
                for i in range(8)]
        timeout = 3 * NAP_S
        batch = run_batch(jobs, workers=2, timeout=timeout,
                          worker=_napping_worker)
        assert batch.wall_seconds > timeout
        assert batch.outcome_counts() == {"ok": 8}


class TestRaisedJob:
    def test_batch_reports_traceback(self):
        batch = run_batch([AnalysisJob(source=OK_SOURCE, label="bad")],
                          workers=2, retries=0, worker=_raising_worker)
        (result,) = batch.results
        assert result.outcome == "error"
        assert "Traceback" in result.error
        assert "RuntimeError: boom bad" in result.error
        assert "worker died" not in result.error

    def test_pool_raises_job_raised_and_keeps_worker(self):
        sup = WorkerSupervisor(1, retries=0, worker=_raising_worker)
        sup.start()
        try:
            with pytest.raises(JobRaised) as info:
                sup.execute(AnalysisJob(source=OK_SOURCE, label="bad"))
            assert "boom bad" in info.value.traceback
            counters = sup.counter_summary()
            assert counters["worker_crashes"] == 0
            assert counters["worker_restarts"] == 0
        finally:
            sup.shutdown()

    def test_serve_cause_is_internal(self, tmp_path):
        srv = AnalysisServer(str(tmp_path / "serve.sock"), workers=1,
                             pool=1, use_cache=False)
        srv.supervisor.worker = _raising_worker  # before the pool forks
        srv.start()
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            with ServeClient(srv.socket_path) as client:
                with pytest.raises(ServeError) as info:
                    client.analyze(OK_SOURCE, label="bad")
                assert info.value.code == "internal"
                assert "boom" in str(info.value)
                assert client.stats()["counters"]["worker_crashes"] == 0
        finally:
            srv.stop()
            thread.join(timeout=30)
        assert not thread.is_alive()


class TestWorkerDeaths:
    def test_killed_victims_fail_alone(self):
        """Six crashing jobs exceed the pool's default breaker threshold;
        batch must still report each as a dead worker (not fall back
        inline, which would run ``os._exit`` in this process) and
        finish the bystander on the respawned pool."""
        victims = [AnalysisJob(source=OK_SOURCE + f"\nz = {i};",
                               label="victim") for i in range(6)]
        jobs = victims + [AnalysisJob(source=OK_SOURCE, label="bystander")]
        with faults.injected("worker_kill", "victim"):
            batch = run_batch(jobs, workers=2, retries=0)
        *killed, bystander = batch.results
        assert bystander.ok
        assert [r.outcome for r in killed] == ["error"] * 6
        assert all("worker died" in r.error for r in killed)
        assert _shm_entries() == []

"""Chaos tests for the supervised analysis server.

These drive the serve fault points (``serve_worker_kill``,
``serve_worker_hang``, ``serve_conn_reset``) plus real signals against
the daemon, and assert the robustness contract of the supervisor PR:

* with faults armed, every affected request still completes -- with the
  *correct* result (retry after respawn) or a structurally *degraded*
  one (deadline exceeded), never a hang or a crash of the daemon;
* verdicts after recovery are identical to a clean run;
* every recovery path leaves ``/dev/shm`` empty and the worker pool
  healthy (respawn counters pin that the fault actually fired);
* overload sheds structured ``overloaded`` responses and client
  retries converge;
* SIGTERM is a graceful drain: in-flight work completes, then the
  socket file and shm are swept;
* two daemons racing onto one socket path resolve to exactly one.
"""

import os
import signal
import socket as socketlib
import subprocess
import sys
import threading
import time

import pytest

from repro.obs import events
from repro.serve import AnalysisServer, ServeClient, ServeError, wait_ready
from repro.service.pool import WorkerSupervisor
from repro.service.job import AnalysisJob, execute_job
from repro.testing import faults

TWO_PROCS = """\
proc f {
  x = [0, 4];
  y = x + 1;
  assert(y <= 5);
}
proc g {
  i = 0;
  while (i < 9) { i = i + 1; }
  assert(i >= 9);
}
"""


def _slow_source(nvars: int = 130, loops: int = 200) -> str:
    """One wide procedure: a fixpoint that takes a visible fraction of
    a second (octagon closure is cubic in the variable count)."""
    decls = "; ".join(f"v{k} = [0, {k + 1}]" for k in range(nvars))
    bumps = " ".join(f"v{k} = v{k} + 1;" for k in range(nvars))
    return (f"proc p0 {{ {decls}; i = 0;"
            f" while (i < {loops}) {{ i = i + 1; {bumps} }}"
            f" assert (i >= {loops}); }}")


def _shm_entries():
    if not os.path.isdir("/dev/shm"):
        return []
    return [e for e in os.listdir("/dev/shm") if e.startswith("repro_shm")]


def _verdicts(checks):
    """Normalize CheckVerdict dataclasses / serialized triples alike."""
    out = []
    for check in checks:
        if isinstance(check, (list, tuple)):
            proc, cond, ok = check
        else:
            proc, cond, ok = check.procedure, check.cond_text, check.verified
        out.append((proc, cond, bool(ok)))
    return sorted(out)


def _baseline_verdicts(source):
    return _verdicts(execute_job(AnalysisJob(source=source)).checks)


@pytest.fixture(autouse=True)
def disarm_faults():
    yield
    faults.clear()


# ----------------------------------------------------------------------
# supervisor unit level
# ----------------------------------------------------------------------
class TestSupervisor:
    def _sup(self, **kw):
        kw.setdefault("backoff_base", 0.01)
        kw.setdefault("backoff_cap", 0.05)
        sup = WorkerSupervisor(kw.pop("pool", 1), **kw)
        sup.start()
        return sup

    def test_kill_recovery_counts_and_verdicts(self):
        sup = self._sup(pool=2)
        try:
            job = AnalysisJob(source=TWO_PROCS, label="kill-me")
            faults.inject("serve_worker_kill")
            result, external = sup.execute(job)
            assert external
            assert _verdicts(result.checks) == _baseline_verdicts(TWO_PROCS)
            counters = sup.counter_summary()
            assert counters["worker_crashes"] >= 1
            deadline = time.monotonic() + 10
            while (sup.counter_summary()["worker_restarts"] < 1
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert sup.counter_summary()["worker_restarts"] >= 1
        finally:
            sup.shutdown()
        assert _shm_entries() == []

    def test_hang_with_deadline_degrades(self):
        sup = self._sup(pool=1, deadline_grace=0.2)
        try:
            faults.inject("serve_worker_hang")
            result, external = sup.execute(
                AnalysisJob(source=TWO_PROCS),
                deadline=time.monotonic() + 0.4)
            # The wedged worker is killed at deadline + grace and the
            # submitter synthesizes an answer from the sliver of budget
            # left -- structurally degraded, never a hang.
            assert result.outcome in ("ok", "degraded")
            assert sup.counter_summary()["worker_hangs"] >= 1
            # The pool is healthy again afterwards.
            result2, _ = sup.execute(AnalysisJob(source=TWO_PROCS))
            assert _verdicts(result2.checks) == _baseline_verdicts(TWO_PROCS)
        finally:
            sup.shutdown()
        assert _shm_entries() == []

    def test_hang_without_deadline_reaped_by_heartbeat(self):
        sup = self._sup(pool=1, heartbeat_interval=0.1,
                        heartbeat_timeout=0.8)
        try:
            faults.inject("serve_worker_hang")
            result, external = sup.execute(AnalysisJob(source=TWO_PROCS))
            # Heartbeat staleness kills the wedge; the retry computes
            # the real answer on the respawned worker.
            assert external
            assert _verdicts(result.checks) == _baseline_verdicts(TWO_PROCS)
            assert sup.counter_summary()["worker_hangs"] >= 1
        finally:
            sup.shutdown()
        assert _shm_entries() == []

    def test_lifecycle_events_carry_worker_identity(self):
        """Respawn/kill/retry diagnostics name the worker they concern:
        an operator reading the event log can follow one slot's story."""
        sup = self._sup(pool=1)
        try:
            with events.capture() as captured:
                faults.inject("serve_worker_kill")
                result, external = sup.execute(
                    AnalysisJob(source=TWO_PROCS, label="traced-kill"))
                assert external
                deadline = time.monotonic() + 10
                while (sup.counter_summary()["worker_restarts"] < 1
                       and time.monotonic() < deadline):
                    time.sleep(0.05)
            by_name = {}
            for event in captured:
                by_name.setdefault(event.name, []).append(event.fields)
            died = by_name["serve_worker_died"][0]
            assert died["slot"] == 0 and isinstance(died["pid"], int)
            assert died["label"] == "traced-kill"
            retry = by_name["serve_job_retry"][0]
            assert retry["cause"] == "worker-died"
            assert retry["label"] == "traced-kill"
            assert retry["worker_pid"] == died["pid"]
            respawned = by_name["serve_worker_respawned"][0]
            assert respawned["slot"] == 0
            assert respawned["pid"] != died["pid"]
        finally:
            sup.shutdown()

    def test_breaker_emits_open_and_close_events(self):
        sup = self._sup(pool=1, retries=0, breaker_threshold=1,
                        breaker_cooldown=0.2)
        try:
            with events.capture() as captured:
                faults.inject("serve_worker_kill")
                # The crash trips the threshold-1 breaker mid-job; the
                # submitter falls back inline and still answers.
                result, external = sup.execute(
                    AnalysisJob(source=TWO_PROCS))
                assert not external
                assert result.outcome == "ok"
                assert sup.breaker_open()
                time.sleep(0.3)
                # The first read after cooldown expiry logs the close.
                assert not sup.breaker_open()
            names = [event.name for event in captured]
            assert "serve_breaker_open" in names
            assert "serve_breaker_closed" in names
            assert names.index("serve_breaker_open") < names.index(
                "serve_breaker_closed")
        finally:
            sup.shutdown()

    def test_breaker_opens_and_falls_back_inline(self):
        sup = self._sup(pool=1, retries=0, breaker_threshold=2,
                        breaker_cooldown=60.0)
        try:
            job = AnalysisJob(source=TWO_PROCS)
            faults.inject("serve_worker_kill")
            with pytest.raises(Exception):
                sup.execute(job)  # first crash: no retries, job fails
            faults.inject("serve_worker_kill")
            result, external = sup.execute(job)
            # Second consecutive crash trips the breaker mid-job; the
            # submitter falls back to in-process execution and the
            # caller still gets the correct answer.
            assert not external
            assert _verdicts(result.checks) == _baseline_verdicts(TWO_PROCS)
            assert sup.breaker_open()
            counters = sup.counter_summary()
            assert counters["serve_breaker_opens"] == 1
            assert counters["serve_pool_inline"] >= 1
            # While the breaker is open every job runs inline.
            result2, external2 = sup.execute(job)
            assert not external2
            assert result2.outcome == "ok"
        finally:
            sup.shutdown()
        assert _shm_entries() == []


# ----------------------------------------------------------------------
# server level, in-process
# ----------------------------------------------------------------------
@pytest.fixture
def pool_server(tmp_path):
    srv = AnalysisServer(str(tmp_path / "serve.sock"), workers=2, pool=2,
                         use_cache=False)
    srv.start()
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.stop()
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert _shm_entries() == []


class TestServeWorkerChaos:
    def test_worker_kill_recovers_with_identical_verdicts(self, pool_server):
        faults.inject("serve_worker_kill")
        with ServeClient(pool_server.socket_path) as client:
            response = client.analyze(TWO_PROCS, label="victim")
            assert response["ok"]
            assert response["result"]["outcome"] == "ok"
            assert (_verdicts(response["result"]["checks"])
                    == _baseline_verdicts(TWO_PROCS))
            counters = client.stats()["counters"]
            assert counters["worker_crashes"] >= 1
            # The daemon is untouched: same pid still answering.
            assert client.ping()["pong"]

    def test_hang_past_deadline_returns_degraded_taxonomy(self, pool_server):
        faults.inject("serve_worker_hang")
        with ServeClient(pool_server.socket_path, timeout=120) as client:
            response = client.analyze(TWO_PROCS, deadline_ms=600)
            # Deadline exceeded is an *answer* (the degradation
            # taxonomy), not an error or a hang.
            assert response["ok"]
            assert response["result"]["outcome"] in ("ok", "degraded")
            counters = client.stats()["counters"]
            assert counters["worker_hangs"] >= 1
            # A clean resubmit recomputes and converges on the truth.
            clean = client.analyze(TWO_PROCS)
            assert clean["result"]["outcome"] == "ok"
            assert (_verdicts(clean["result"]["checks"])
                    == _baseline_verdicts(TWO_PROCS))

    def test_warm_resubmit_stays_zero_fixpoint_with_pool(self, pool_server):
        with ServeClient(pool_server.socket_path) as client:
            cold = client.analyze(TWO_PROCS)
            assert cold["tiers"]["computed"] == 2
            assert cold["result"]["counters"]["fixpoint_runs"] >= 2
            warm = client.analyze(TWO_PROCS)
            # The memory LRU serves the resubmit without touching the
            # pool: zero fixpoints, zero compiled plans.
            assert warm["tiers"] == {"memory": 2, "disk": 0, "computed": 0}
            assert warm["result"]["counters"]["fixpoint_runs"] == 0
            assert warm["result"]["counters"]["plans_compiled"] == 0


class TestServeConnChaos:
    def _server(self, tmp_path, **kw):
        srv = AnalysisServer(str(tmp_path / "serve.sock"), use_cache=False,
                             **kw)
        srv.start()
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        return srv, thread

    def _teardown(self, srv, thread):
        srv.stop()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert _shm_entries() == []

    def test_conn_reset_client_retry_converges(self, tmp_path):
        srv, thread = self._server(tmp_path)
        try:
            faults.inject("serve_conn_reset")
            with ServeClient(srv.socket_path, retries=2) as client:
                # The server drops the connection after computing the
                # response; the client reconnects and the retry is
                # served from the memory LRU.
                response = client.analyze(TWO_PROCS)
                assert response["ok"]
                assert (_verdicts(response["result"]["checks"])
                        == _baseline_verdicts(TWO_PROCS))
        finally:
            self._teardown(srv, thread)

    def test_conn_reset_without_retries_surfaces(self, tmp_path):
        srv, thread = self._server(tmp_path)
        try:
            faults.inject("serve_conn_reset")
            with ServeClient(srv.socket_path, retries=0) as client:
                with pytest.raises(Exception):
                    client.analyze(TWO_PROCS)
        finally:
            self._teardown(srv, thread)

    def test_idle_timeout_disconnects_stalled_client(self, tmp_path):
        srv, thread = self._server(tmp_path, idle_timeout=0.5)
        try:
            stalled = socketlib.socket(socketlib.AF_UNIX,
                                       socketlib.SOCK_STREAM)
            try:
                stalled.connect(srv.socket_path)
                # Half a frame, then silence: the regression this PR
                # fixes left this handler blocked forever.
                stalled.sendall((64).to_bytes(4, "big") + b"par")
                stalled.settimeout(10.0)
                assert stalled.recv(1) == b""  # server hung up on us
            finally:
                stalled.close()
            assert srv.idle_closed >= 1
            # The daemon itself is fine.
            with ServeClient(srv.socket_path) as client:
                assert client.ping()["pong"]
                counters = client.stats()["counters"]
                assert counters["serve_idle_closed"] >= 1
        finally:
            self._teardown(srv, thread)

    def test_overload_sheds_and_retries_converge(self, tmp_path):
        srv, thread = self._server(tmp_path, workers=1, queue_depth=0)
        source = _slow_source()
        results, errors = [], []

        def one_client():
            try:
                with ServeClient(srv.socket_path, retries=20,
                                 timeout=120) as client:
                    results.append(client.analyze(source))
            except Exception as exc:  # noqa: BLE001 -- collected below
                errors.append(exc)

        try:
            threads = [threading.Thread(target=one_client)
                       for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not errors
            assert len(results) == 4
            assert all(r["result"]["outcome"] == "ok" for r in results)
            # With one worker and no queue, concurrent clients MUST
            # have been shed at least once -- and their retries then
            # converged on the answer above.
            assert srv.errors_by_cause["overloaded"] >= 1
        finally:
            self._teardown(srv, thread)

    def test_overloaded_error_is_structured(self, tmp_path):
        srv, thread = self._server(tmp_path, workers=1, queue_depth=0)
        source = _slow_source()
        try:
            blocker = ServeClient(srv.socket_path, timeout=120)
            shed = ServeClient(srv.socket_path, retries=0)
            try:
                background = threading.Thread(
                    target=blocker.analyze, args=(source,), daemon=True)
                background.start()
                deadline = time.monotonic() + 30
                caught = None
                while time.monotonic() < deadline and caught is None:
                    try:
                        shed.analyze(TWO_PROCS)
                        time.sleep(0.01)  # blocker not admitted yet
                    except ServeError as exc:
                        caught = exc
                assert caught is not None, "no shed observed"
                assert caught.code == "overloaded"
                assert caught.retry_after_ms >= 50
                background.join(timeout=60)
            finally:
                blocker.close()
                shed.close()
        finally:
            self._teardown(srv, thread)


# ----------------------------------------------------------------------
# process level: real signals, real subprocesses
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestServeProcessChaos:
    def _spawn(self, tmp_path, *extra, name="serve.sock"):
        sock = tmp_path / name
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--socket", str(sock), *extra],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, env=env)
        return proc, sock

    def test_sigterm_drains_inflight_request(self, tmp_path):
        proc, sock = self._spawn(tmp_path, "--pool", "2", "--workers", "2")
        wait_ready(str(sock), timeout=30)
        source = _slow_source(nvars=170)
        box = {}

        def run_request():
            with ServeClient(str(sock), timeout=120, retries=0) as client:
                box["response"] = client.analyze(source)

        requester = threading.Thread(target=run_request)
        requester.start()
        time.sleep(0.4)  # let the request be admitted and dispatched
        os.kill(proc.pid, signal.SIGTERM)
        requester.join(timeout=120)
        assert not requester.is_alive()
        # The drain let the in-flight analysis finish and the reply
        # reach the client before the process exited.
        assert box["response"]["ok"]
        assert box["response"]["result"]["outcome"] == "ok"
        assert proc.wait(timeout=60) == 0
        proc.stderr.close()
        assert not sock.exists()
        assert _shm_entries() == []

    def test_startup_race_resolves_to_one_server(self, tmp_path):
        a, sock = self._spawn(tmp_path)
        b, _ = self._spawn(tmp_path)
        survivor = loser = None
        try:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                done = [p for p in (a, b) if p.poll() is not None]
                if done:
                    loser = done[0]
                    survivor = b if loser is a else a
                    break
                time.sleep(0.05)
            assert loser is not None, "neither server gave way"
            assert loser.returncode == 2
            assert "another server is live" in loser.stderr.read()
            # Exactly one server remains, and it works.
            assert survivor.poll() is None
            wait_ready(str(sock), timeout=30)
            os.kill(survivor.pid, signal.SIGTERM)
            assert survivor.wait(timeout=60) == 0
        finally:
            for p in (a, b):
                if p.poll() is None:
                    p.kill()
                    p.wait()
                p.stderr.close()
        assert not sock.exists()
        assert _shm_entries() == []

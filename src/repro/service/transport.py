"""Zero-copy transport for the worker pool's pipes.

Pool workers (:mod:`repro.service.pool`) used to ship results with
default-protocol ``Connection.send`` pickling: every DBM a job kept
crossed the pipe as
an in-band copy inside the pickle stream, then again into the parent's
deserialised object -- two full copies of data that is pure
``float64`` and already contiguous.  This module replaces that with a
two-lane envelope:

* **Inline lane** (small results).  ``pickle.dumps(payload,
  protocol=5, buffer_callback=...)`` splits the payload into a pickle
  *body* and the raw out-of-band buffers (protocol 5, PEP 574).  Both
  ship over the pipe with ``send_bytes`` -- still a copy, but exactly
  one, with no protocol-0/2 escaping of binary data.
* **Shared-memory lane** (large results).  When the out-of-band bytes
  reach :data:`SHM_THRESHOLD`, the worker concatenates them into one
  :class:`multiprocessing.shared_memory.SharedMemory` segment and
  ships only the pickle body plus ``(segment name, buffer lengths)``.
  The parent attaches the segment and unpickles with ``buffers=``
  views *into the mapping*, so the result's arrays are backed by the
  shared pages -- the DBM floats are written once by the worker and
  never copied again.

Shared-memory lifetime protocol (POSIX semantics):

1. The worker creates the segment under the deterministic name
   ``repro_shm_<parent pid>_<worker pid>`` and immediately
   *unregisters* it from its own ``resource_tracker`` -- otherwise the
   tracker would unlink the segment when the worker exits, racing the
   parent's attach.
2. The parent attaches, then unlinks the name **immediately**: an
   attached POSIX mapping survives the unlink, so the arrays stay
   valid for as long as the parent holds the :class:`ShmArena`, while
   the name can never leak past this point.
3. Failure windows are covered by janitors keyed on the deterministic
   name: :func:`sweep_worker` (parent, after killing or reaping a dead
   worker) and :func:`sweep_orphans` (batch start, plus segments whose
   creating batch process no longer exists).  The worker itself
   unlinks on a failed send.

Every lane is counted (parent side, where the batch summary lives):
``bytes_shipped`` is what actually crossed the pipe, ``bytes_zero_copy``
is what moved through shared memory instead, and
``shm_blocks_created``/``shm_blocks_attached`` audit the lifetime
protocol (a created block that is never attached is a leak candidate).
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import re
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Optional, Tuple

from ..obs import events, metrics

#: Prefix of every segment name this module creates (janitor key).
SHM_PREFIX = "repro_shm"

#: Out-of-band payload size (bytes) at which the shared-memory lane
#: engages.  Below this the segment setup (shm_open + mmap + two
#: syscalls to unlink) costs more than one memcpy through the pipe.
SHM_THRESHOLD = 64 * 1024

#: Job source size (bytes) at which submission wraps the text in a
#: :class:`_Blob` so it rides the out-of-band buffer lanes instead of
#: the pickle body.  Below this the wrapper costs more than it saves.
JOB_BLOB_THRESHOLD = 4 * 1024

_SEG_RE = re.compile(rf"^{SHM_PREFIX}_(\d+)_(\d+)(?:_job)?$")

#: Process-wide ablation switch (bench): False forces the inline lane.
#: Module global so a ``fork`` start method propagates it to workers.
_ZERO_COPY = True

# Parent-side transport counters, snapshotted per batch by the
# scheduler (module globals like the kernel/COW counters: the recv
# path runs once per job, but the batch summary wants process deltas,
# not per-collector events).
_COUNTS: Dict[str, int] = {
    "bytes_shipped": 0,
    "bytes_zero_copy": 0,
    "shm_blocks_created": 0,
    "shm_blocks_attached": 0,
    "shm_blocks_swept": 0,
    # Submission (parent -> worker) lane, counted on the parent where
    # the batch summary lives -- the worker's own counters die with it.
    "job_bytes_shipped": 0,
    "job_bytes_zero_copy": 0,
    "job_shm_blocks_created": 0,
}

metrics.register_counter_source(lambda: dict(_COUNTS))
metrics.REGISTRY.counter(
    "bytes_shipped", "Bytes that crossed a worker result pipe")
metrics.REGISTRY.counter(
    "bytes_zero_copy",
    "Result bytes moved through shared memory instead of the pipe")
metrics.REGISTRY.counter(
    "shm_blocks_created", "Shared-memory result segments created by workers")
metrics.REGISTRY.counter(
    "shm_blocks_attached", "Shared-memory result segments attached and consumed")
metrics.REGISTRY.counter(
    "shm_blocks_swept", "Orphaned shared-memory segments removed by janitors")
metrics.REGISTRY.counter(
    "job_bytes_shipped", "Bytes that crossed a job submission pipe")
metrics.REGISTRY.counter(
    "job_bytes_zero_copy",
    "Job submission bytes moved through shared memory instead of the pipe")
metrics.REGISTRY.counter(
    "job_shm_blocks_created",
    "Shared-memory submission segments created for workers")


def set_zero_copy(flag: bool) -> None:
    """Enable/disable the shared-memory lane (bench ablation knob)."""
    global _ZERO_COPY
    _ZERO_COPY = bool(flag)


def zero_copy_enabled() -> bool:
    return _ZERO_COPY


def transport_counters() -> Dict[str, int]:
    """Snapshot of the parent-side transport counters."""
    return dict(_COUNTS)


def segment_name(parent_pid: int, worker_pid: int) -> str:
    return f"{SHM_PREFIX}_{parent_pid}_{worker_pid}"


def job_segment_name(parent_pid: int, worker_pid: int) -> str:
    """Submission-lane segment for one worker.

    Distinct from :func:`segment_name` because the two lanes can be in
    flight at once for the same (parent, worker) pair: the parent ships
    the job while the previous attempt's result segment may still be
    unreaped after a crash.
    """
    return f"{SHM_PREFIX}_{parent_pid}_{worker_pid}_job"


#: Segments whose mapping could not be closed yet because a consumer
#: still holds a view into them (already unlinked -- only the mapping
#: lingers).  Kept referenced so their ``__del__`` never runs against
#: live exports; retried opportunistically.
_DEFERRED_CLOSE: List[shared_memory.SharedMemory] = []


def _retry_deferred_close() -> None:
    global _DEFERRED_CLOSE
    still_open = []
    for seg in _DEFERRED_CLOSE:
        try:
            seg.close()
        except BufferError:
            still_open.append(seg)
    _DEFERRED_CLOSE = still_open


class ShmArena:
    """Keeps a consumed result's shared-memory mapping alive.

    The unpickled arrays are views into the segment, so the arena must
    outlive every array it backs; the pool parks it on the
    :class:`~repro.service.job.JobResult` it transported.  ``release``
    drops the views and closes the mapping; it tolerates the
    ``BufferError`` CPython raises when someone still holds a view
    (the mapping then lives until the views are garbage-collected).
    """

    def __init__(self, segment: shared_memory.SharedMemory,
                 views: List[memoryview]) -> None:
        self._segment = segment
        self._views = views

    @property
    def nbytes(self) -> int:
        return self._segment.size

    def release(self) -> None:
        for view in self._views:
            view.release()
        self._views = []
        segment, self._segment = self._segment, None
        if segment is None:
            return
        try:
            segment.close()
        except BufferError:
            # A consumer kept a live view (e.g. a DBM array it is still
            # reading); park the segment so its mapping stays valid and
            # its destructor never races the export.
            _DEFERRED_CLOSE.append(segment)

    def __del__(self) -> None:  # best effort; release() is the real path
        try:
            self.release()
        except Exception:
            pass


class _Blob:
    """Protocol-5 wrapper routing a ``bytes`` payload out-of-band.

    Plain ``bytes``/``str`` always pickle *in-band* (only objects
    exposing the buffer protocol through ``PickleBuffer`` go
    out-of-band), so a large job source would ride the pickle body no
    matter what lane the envelope picks.  Wrapping it in a ``_Blob``
    hands the bytes to the buffer lanes: over shared memory the text is
    written once by the sender and materialised once by the receiver.
    """

    __slots__ = ("_data",)

    def __init__(self, data) -> None:
        self._data = data

    def bytes(self) -> bytes:
        data = self._data
        return data if isinstance(data, bytes) else bytes(data)

    def __reduce_ex__(self, protocol):
        if protocol >= 5:
            return (_Blob, (pickle.PickleBuffer(self._data),))
        return (_Blob, (self.bytes(),))


# ----------------------------------------------------------------------
# sender side (worker results, parent job submissions)
# ----------------------------------------------------------------------
def send_payload(conn, payload: object, *, segment: Optional[str] = None,
                 count_prefix: Optional[str] = None) -> None:
    """Ship ``payload`` over ``conn``: protocol-5 body + buffer lanes.

    ``segment`` names the shared-memory segment should the zero-copy
    lane engage; the default is the worker-result name
    ``repro_shm_<parent pid>_<own pid>``.  With ``count_prefix`` the
    *sender* bumps ``<prefix>bytes_shipped``/``<prefix>bytes_zero_copy``
    /``<prefix>shm_blocks_created`` -- used by the submission lane,
    whose receiver (the worker) cannot report counters back.
    """
    buffers: List[pickle.PickleBuffer] = []
    body = pickle.dumps(payload, protocol=5, buffer_callback=buffers.append)
    raws = [buf.raw() for buf in buffers]
    total = sum(raw.nbytes for raw in raws)
    if _ZERO_COPY and 0 < total and total >= SHM_THRESHOLD:
        name = (segment if segment is not None
                else segment_name(os.getppid(), os.getpid()))
        try:
            seg = shared_memory.SharedMemory(name=name, create=True,
                                             size=total)
        except (FileExistsError, OSError):
            seg = None  # pid-reuse collision or no /dev/shm: inline lane
        if seg is not None:
            # The worker exits right after this send; stop its resource
            # tracker from unlinking the segment out from under the
            # parent's attach.
            try:
                resource_tracker.unregister(seg._name, "shared_memory")
            except Exception:
                pass
            offset = 0
            lengths = []
            for raw in raws:
                seg.buf[offset:offset + raw.nbytes] = raw
                offset += raw.nbytes
                lengths.append(raw.nbytes)
            for buf in buffers:
                buf.release()
            try:
                wire = pickle.dumps(("shm", name, lengths, body), protocol=5)
                conn.send_bytes(wire)
            except BaseException:
                # The receiver will never attach; reclaim the name now.
                # Low-level unlink: ``seg.unlink()`` would also send the
                # tracker an unregister for a name we already unregistered.
                _raw_unlink(seg._name)
                raise
            finally:
                seg.close()
            if count_prefix is not None:
                _COUNTS[count_prefix + "bytes_shipped"] += len(wire)
                _COUNTS[count_prefix + "bytes_zero_copy"] += total
                _COUNTS[count_prefix + "shm_blocks_created"] += 1
            return
    # The envelope itself must pickle, and memoryviews do not: the
    # inline lane materialises each buffer once (the copy the shm lane
    # exists to avoid) and ships them beside the body.
    envelope = pickle.dumps(("inline", body, [bytes(raw) for raw in raws]),
                            protocol=5)
    for buf in buffers:
        buf.release()
    conn.send_bytes(envelope)
    if count_prefix is not None:
        _COUNTS[count_prefix + "bytes_shipped"] += len(envelope)


def wrap_job(job, ctx=None) -> tuple:
    """Envelope one job for the submission lane.

    Large source text is wrapped in a :class:`_Blob` so it rides the
    zero-copy buffer lanes instead of the pickle body; small jobs pass
    through untouched.  ``ctx`` (a :class:`~repro.obs.trace.TraceContext`
    or ``None``) rides as a trailing envelope element so the
    submitter's trace identity crosses the pipe with the job it belongs
    to.  The wrapped form is opaque: the worker pool embeds it in its
    job message, ships that with :func:`send_payload`, and the worker
    decodes it with :func:`unwrap_job_ctx`.
    """
    source = getattr(job, "source", None)
    if isinstance(source, str) and len(source) >= JOB_BLOB_THRESHOLD:
        stripped = dataclasses.replace(job, source="")
        envelope = ("src-blob", stripped, _Blob(source.encode("utf-8")))
    else:
        envelope = ("plain", job)
    if ctx is not None:
        envelope = envelope + (ctx,)
    return envelope


def unwrap_job_ctx(payload: tuple):
    """Reconstitute ``(job, trace context)`` from a job envelope.

    The context element is optional on the wire (ctx-free senders emit
    the bare two/three-element envelope), so both forms decode here.
    """
    if payload[0] == "src-blob":
        job, blob = payload[1], payload[2]
        ctx = payload[3] if len(payload) > 3 else None
        return (dataclasses.replace(job,
                                    source=blob.bytes().decode("utf-8")),
                ctx)
    return payload[1], (payload[2] if len(payload) > 2 else None)


# ----------------------------------------------------------------------
# receiver side
# ----------------------------------------------------------------------
def recv_payload(conn, *, count: bool = True) -> Tuple[object, Optional[ShmArena]]:
    """Receive one envelope; returns ``(payload, arena)``.

    ``arena`` is ``None`` on the inline lane.  On the shared-memory
    lane the segment is unlinked *before* this function returns (step 2
    of the lifetime protocol); the returned arena is the only thing
    keeping the payload's buffers mapped.  ``count=False`` skips the
    receive-side counters -- the submission lane counts on the sender,
    where the batch summary lives.
    """
    _retry_deferred_close()
    wire = conn.recv_bytes()
    if count:
        _COUNTS["bytes_shipped"] += len(wire)
    envelope = pickle.loads(wire)
    if envelope[0] == "inline":
        _, body, raws = envelope
        return pickle.loads(body, buffers=raws), None
    _, name, lengths, body = envelope
    if count:
        _COUNTS["shm_blocks_created"] += 1
    # Attaching registers the segment with this process's resource
    # tracker (CPython registers on attach, not only on create); the
    # unlink below sends the matching unregister, so no extra tracker
    # bookkeeping is needed here.
    seg = shared_memory.SharedMemory(name=name)
    if count:
        _COUNTS["shm_blocks_attached"] += 1
    views: List[memoryview] = []
    offset = 0
    for length in lengths:
        views.append(seg.buf[offset:offset + length])
        offset += length
        if count:
            _COUNTS["bytes_zero_copy"] += length
    payload = pickle.loads(body, buffers=views)
    # Unlink immediately: the attached mapping (held by the arena)
    # survives; the *name* can no longer leak whatever happens next.
    try:
        seg.unlink()
    except FileNotFoundError:
        pass
    return payload, ShmArena(seg, views)


# ----------------------------------------------------------------------
# janitors
# ----------------------------------------------------------------------
def _raw_unlink(tracked_name: str) -> None:
    """``shm_unlink`` without resource-tracker traffic (see callers)."""
    try:
        from _posixshmem import shm_unlink
    except ImportError:
        return
    try:
        shm_unlink(tracked_name)
    except FileNotFoundError:
        pass


def _unlink_segment(name: str) -> bool:
    try:
        seg = shared_memory.SharedMemory(name=name)
    except (FileNotFoundError, OSError):
        return False
    try:
        seg.unlink()  # attach registered it; unlink unregisters
    finally:
        seg.close()
    _COUNTS["shm_blocks_swept"] += 1
    events.warning("shm_segment_swept", segment=name)
    return True


def sweep_worker(worker_pid: Optional[int],
                 parent_pid: Optional[int] = None) -> bool:
    """Reclaim the segment of one dead/killed worker, if it left one.

    Called by the pool whenever a worker dies without delivering a
    result (kill, timeout, crash): the worker may have created its
    result segment and been killed inside the send window, or died
    before attaching the submission segment the parent created for it.
    """
    if worker_pid is None:
        return False
    parent = parent_pid or os.getpid()
    swept = _unlink_segment(segment_name(parent, worker_pid))
    swept = _unlink_segment(job_segment_name(parent, worker_pid)) or swept
    return swept


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return False
    return True


def sweep_orphans(shm_dir: str = "/dev/shm") -> int:
    """Reclaim every segment whose creating batch no longer runs.

    Scans the POSIX shm directory for this module's deterministic names
    and unlinks any whose *parent* pid is dead (a previous batch that
    crashed) or equals this process (a previous batch in this process:
    by the time a new batch starts, no worker of ours is in flight).
    Returns the number of segments reclaimed; a no-op where the shm
    filesystem is not exposed as a directory.
    """
    try:
        entries = os.listdir(shm_dir)
    except OSError:
        return 0
    swept = 0
    for entry in entries:
        match = _SEG_RE.match(entry)
        if match is None:
            continue
        parent_pid = int(match.group(1))
        if parent_pid == os.getpid() or not _pid_alive(parent_pid):
            if _unlink_segment(entry):
                swept += 1
    return swept

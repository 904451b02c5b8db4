"""Batch analysis service: jobs, scheduler, persistent result cache.

The one-shot :class:`~repro.analysis.analyzer.Analyzer` answers a single
``analyze(source)`` call; production traffic looks like the paper's own
evaluation instead -- *many* independent programs (Table 3 runs 17
benchmarks end to end) whose mutual independence makes them
embarrassingly parallel and whose results are worth reusing across
runs.  This subsystem is that batch layer:

* :mod:`repro.service.job` -- the job model: an :class:`AnalysisJob`
  (source + domain + options) with a content-addressed key, and a
  structured, picklable :class:`JobResult` carrying verdicts, exit
  boxes, timings and the hot-path memory counters.
* :mod:`repro.service.scheduler` -- :func:`run_batch`: cache and
  journal around the worker pool, per-job deadlines counted from
  dispatch, bounded retries for transient failures, and an inline
  (no-fork) mode at ``workers=1``.
* :mod:`repro.service.pool` -- :class:`WorkerSupervisor`: the one
  supervised pool of long-lived worker processes, shared by batch and
  the analysis daemon (heartbeats, deadline kills, respawn backoff,
  circuit breaker).
* :mod:`repro.service.transport` -- the pool's pipe format: protocol-5
  pickles with a shared-memory lane for large results.
* :mod:`repro.service.cache` -- :class:`ResultCache`: a
  content-addressed JSON-on-disk store, version-stamped so stale
  entries self-invalidate.
* :mod:`repro.service.journal` -- :class:`BatchJournal`: an
  append-only, fsync'd JSONL record of finished jobs, making batches
  resumable after a mid-run kill (``python -m repro batch --resume``).
* :mod:`repro.service.suite` -- :func:`run_suite`: the whole
  17-benchmark suite through the service, the execution path shared by
  the CLI (``python -m repro batch``) and the benchmark harness.
"""

from .cache import ResultCache
from .job import AnalysisJob, CheckVerdict, JobResult, ProcedureSummary, execute_job
from .journal import BatchJournal, batch_id
from .scheduler import BatchResult, run_batch
from .suite import run_suite, suite_jobs
from .validate import CrossValidationReport, ProgramValidation, cross_validate

__all__ = [
    "AnalysisJob",
    "BatchJournal",
    "BatchResult",
    "CheckVerdict",
    "CrossValidationReport",
    "JobResult",
    "ProgramValidation",
    "ProcedureSummary",
    "ResultCache",
    "batch_id",
    "cross_validate",
    "execute_job",
    "run_batch",
    "run_suite",
    "suite_jobs",
]

"""Per-procedure incremental analysis with tiered result caching.

This is the server's engine: the per-run pipeline (parse, CFG build,
plan compile, fixpoint) becomes a per-*changed-procedure* pipeline.
The unit of caching drops from the whole file (the batch service's
granularity) to one procedure, addressed by the SHA-256 of its
canonical pretty-printed source (:mod:`repro.frontend.fingerprint`)
combined with the analyzer options through the ordinary
:meth:`AnalysisJob.key` machinery.

Soundness of the decomposition: the analyzer treats procedures
independently (no interprocedural state -- ``Analyzer.analyze`` runs
each procedure's CFG to fixpoint in isolation), and the pretty printer
round-trips through the parser, so analyzing the canonical
single-procedure source is bit-identical to that procedure's slice of
a whole-file analysis.  Resubmitting a file where one procedure
changed therefore re-parses the file (cheap) and re-analyzes exactly
the changed procedure; everything else is assembled from caches.

Cache tiers, checked in order per procedure:

1. **memory** -- an in-process LRU of :class:`JobResult`\\ s keyed by
   the per-procedure job key.  Hits cost a dict lookup: no parse of
   the procedure, no CFG, no plan compile, no fixpoint.
2. **disk** -- the PR 2 persistent :class:`ResultCache` (same keys:
   a per-procedure job is just a job).  Hits are promoted to memory.
3. **computed** -- :func:`execute_job` in-process; ``ok`` results are
   written through to both tiers.

Invalidation is purely content-addressed: an edited procedure renders
to different canonical source, gets a different key, and simply never
matches the old entries (which age out of the LRU).  Option changes
(domain, widening, budgets, kernel backend) enter the key the same
way.  Only ``ok`` results are cached -- degraded/timeout outcomes are
re-attempted on every request, like the disk cache already does.

Parsed ASTs are kept hot in a second small LRU keyed by the raw source
digest, so a repeated identical submission skips the parser too.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

from ..core import stats
from ..frontend.ast_nodes import Program
from ..frontend.parser import parse_program
from ..obs import metrics, trace
from ..service.cache import ResultCache
from ..service.job import OUTCOME_DEGRADED, OUTCOME_OK, AnalysisJob, JobResult, execute_job

metrics.REGISTRY.counter("serve_procs_memory",
                         "Server procedures served from the in-memory LRU")
metrics.REGISTRY.counter("serve_procs_disk",
                         "Server procedures served from the disk cache")
metrics.REGISTRY.counter("serve_procs_computed",
                         "Server procedures analyzed from scratch")
metrics.REGISTRY.counter("serve_ast_hits",
                         "Server submissions parsed from the AST LRU")

#: Analyzer options a client may set per request.  ``label`` and
#: ``telemetry`` are handled separately; ``keep_invariants`` is
#: excluded because DBM payloads do not fit the JSON response schema.
REQUEST_OPTIONS = (
    "domain", "widening_delay", "narrowing_steps", "widening_thresholds",
    "integer_mode", "compile_transfer", "time_budget", "iteration_budget",
    "cell_budget", "kernel_backend", "sparse_threshold",
)

TIERS = ("memory", "disk", "computed")


def _result_weight(result) -> int:
    """Byte weight of a cached result: the size of its JSON document
    (the same schema cache entries use), a faithful proxy for what the
    entry would cost at rest."""
    import json

    from ..core.serialize import job_result_to_dict

    return len(json.dumps(job_result_to_dict(result),
                          separators=(",", ":")))


class _LRU:
    """A tiny LRU dict; capacity in entries, occupancy also in bytes.

    ``weigh`` (optional) maps a value to its byte weight; entries then
    contribute to :attr:`bytes`, the occupancy the server's ``status``
    command reports.  Eviction stays entry-count based -- the weights
    are bookkeeping, not pressure.
    """

    def __init__(self, capacity: int, weigh=None) -> None:
        self.capacity = max(1, int(capacity))
        self._weigh = weigh
        self._data: "OrderedDict[str, object]" = OrderedDict()
        self._weights: Dict[str, int] = {}
        self.bytes = 0

    def get(self, key: str):
        try:
            self._data.move_to_end(key)
            return self._data[key]
        except KeyError:
            return None

    def put(self, key: str, value) -> None:
        if self._weigh is not None:
            self.bytes += int(self._weigh(value)) - self._weights.get(key, 0)
            self._weights[key] = int(self._weigh(value))
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            evicted, _ = self._data.popitem(last=False)
            self.bytes -= self._weights.pop(evicted, 0)

    def __len__(self) -> int:
        return len(self._data)


def normalize_options(options: Optional[dict]) -> dict:
    """Validate and coerce a request's analyzer options.

    Unknown keys are rejected (a typo must not silently analyze with
    defaults and cache under the wrong key); ``widening_thresholds``
    arrives as a JSON list and becomes the tuple the job expects.
    """
    out = dict(options or {})
    unknown = sorted(set(out) - set(REQUEST_OPTIONS))
    if unknown:
        raise ValueError(f"unknown analyzer option(s): {', '.join(unknown)}")
    if "widening_thresholds" in out:
        out["widening_thresholds"] = tuple(
            float(t) for t in out["widening_thresholds"])
    return out


class IncrementalAnalyzer:
    """Tiered per-procedure analysis shared by all server connections.

    Thread safety: LRU and counter access is serialized by one lock;
    the analysis itself runs outside it, so concurrent requests only
    contend for microseconds.  Two threads computing the same key race
    benignly -- results are deterministic and writes idempotent.
    """

    def __init__(self, cache: Optional[ResultCache] = None, *,
                 lru_procedures: int = 1024, lru_programs: int = 64,
                 executor: Optional[Callable[
                     [AnalysisJob, Optional[float]],
                     Tuple[JobResult, bool]]] = None) -> None:
        #: Compute-tier strategy: ``executor(job, deadline)`` returns
        #: ``(result, external)`` where ``external`` marks a result
        #: computed out-of-process (its counters are not in this
        #: thread's stats collector).  ``None`` runs
        #: :func:`execute_job` inline -- PR 7 behavior; the worker
        #: pool's :meth:`~repro.service.pool.WorkerSupervisor.execute`
        #: is the pooled strategy.
        self.executor = executor
        self.cache = cache
        self._results = _LRU(lru_procedures, weigh=_result_weight)
        self._programs = _LRU(lru_programs)
        self._lock = threading.Lock()
        self.tier_counts: Dict[str, int] = {tier: 0 for tier in TIERS}
        self.ast_hits = 0
        self.ast_misses = 0

    # ------------------------------------------------------------------
    def _parse(self, source: str) -> Program:
        digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
        with self._lock:
            program = self._programs.get(digest)
        if program is not None:
            with self._lock:
                self.ast_hits += 1
            stats.bump("serve_ast_hits")
            return program
        with trace.span("parse"):
            program = parse_program(source)
        with self._lock:
            self.ast_misses += 1
            self._programs.put(digest, program)
        return program

    def _lookup(self, key: str) -> Tuple[Optional[JobResult], Optional[str]]:
        """Memory then disk; returns (result, tier) or (None, None)."""
        with self._lock:
            result = self._results.get(key)
        if result is not None:
            return result, "memory"
        if self.cache is not None:
            result = self.cache.get(key)
            if result is not None:
                with self._lock:
                    self._results.put(key, result)
                return result, "disk"
        return None, None

    def _analyze_procedure(self, job: AnalysisJob,
                           deadline: Optional[float] = None,
                           ) -> Tuple[JobResult, str, bool]:
        """Tier walk for one procedure; ``(result, tier, external)``.

        Cache lookups and stores always use the job's *original* key:
        a deadline only tightens the time budget of this attempt, and
        an ``ok`` result under a tighter budget is bit-identical to the
        unbudgeted one (budget pressure surfaces as ``degraded``, which
        is never cached) -- so the clamp must not fork the cache key.
        """
        key = job.key()
        result, tier = self._lookup(key)
        if result is not None:
            return result, tier, False
        if self.executor is not None:
            result, external = self.executor(job, deadline)
        else:
            job = job.with_deadline(deadline)
            with trace.span("compute", procedure=job.label):
                result = execute_job(job)
            external = False
        # Fresh computations carry their span batch on the result --
        # collected by execute_job's trace session, in a pool worker or
        # right here -- and it is adopted exactly once, at the moment
        # the result is fresh: cache hits return the same object later,
        # and re-adopting would duplicate the (stale) spans.
        if trace.enabled() and result.trace_events:
            ctx = trace.current_context()
            trace.adopt_into_current(
                result.trace_events,
                trace_id=ctx.trace_id if ctx is not None else None)
        if result.outcome == OUTCOME_OK:
            result.key = key
            with self._lock:
                self._results.put(key, result)
            if self.cache is not None:
                self.cache.put(key, result)
        return result, "computed", external

    # ------------------------------------------------------------------
    def analyze(self, source: str, *, label: str = "",
                options: Optional[dict] = None,
                deadline: Optional[float] = None) -> Tuple[JobResult, dict]:
        """Analyze ``source``, reusing every unchanged procedure.

        Returns ``(result, info)``: a whole-file :class:`JobResult`
        assembled from the per-procedure results (verdicts and bounds
        identical to a one-shot analysis of the same source), and an
        ``info`` dict with the cache-tier breakdown -- ``tiers`` totals
        plus a ``procedures`` list of ``[name, tier]`` in program
        order.  ``result.counters`` holds this *request's* work only
        (registry-enumerated deltas: a fully warm request shows zero
        ``plans_compiled`` and zero ``fixpoint_runs``); the collector
        stack is thread-local, so per-event counters stay exact under
        concurrent requests, while global-source counters (module-wide
        tallies like the COW clone counts) can still include concurrent
        threads' work.  ``result.seconds``
        sums the freshly computed procedures' analysis time -- cached
        procedures contribute zero, which is the point.

        ``deadline`` is an absolute :func:`time.monotonic` instant:
        every computed procedure's time budget is clamped to the time
        remaining (inline or through the pool executor), so the request
        answers by the deadline with the degradation taxonomy instead
        of overrunning.
        """
        options = normalize_options(options)
        with stats.collecting() as collector:
            program = self._parse(source)
            per_proc: List[Tuple[JobResult, str, bool]] = []
            for proc in program.procedures:
                job = AnalysisJob.for_procedure(proc, **options)
                per_proc.append(self._analyze_procedure(job, deadline))
        tiers = {tier: 0 for tier in TIERS}
        proc_tiers = []
        for (result, tier, _), proc in zip(per_proc, program.procedures):
            tiers[tier] += 1
            proc_tiers.append([proc.name, tier])
        with self._lock:
            for tier, count in tiers.items():
                self.tier_counts[tier] += count
        for tier, count in tiers.items():
            if count:
                stats.bump(f"serve_procs_{tier}", count)
        whole = AnalysisJob(source=source, label=label, **options)
        merged = self._merge(whole, per_proc, collector)
        info = {"tiers": tiers, "procedures": proc_tiers}
        return merged, info

    def _merge(self, whole: AnalysisJob,
               per_proc: List[Tuple[JobResult, str, bool]],
               collector) -> JobResult:
        results = [r for r, _, _ in per_proc]
        fresh = [r for r, tier, _ in per_proc if tier == "computed"]
        degraded = any(r.outcome == OUTCOME_DEGRADED for r in results)
        rungs: Dict[str, str] = {}
        for r in results:
            rungs.update(r.rungs)
        backend = (results[0].kernel_backend if results
                   else whole.resolved_backend())
        # Work done by pool workers happened outside this thread's
        # collector; fold those results' own counters in so a cold
        # pooled request still reports its fixpoints and compiles
        # (and a warm request still reports all zeros).
        counters = collector.counter_summary()
        for r, tier, external in per_proc:
            if tier == "computed" and external:
                for name, value in r.counters.items():
                    counters[name] = counters.get(name, 0) + value
        return JobResult(
            key=whole.key(),
            label=whole.label,
            domain=whole.domain,
            outcome=OUTCOME_DEGRADED if degraded else OUTCOME_OK,
            seconds=sum(r.seconds for r in fresh),
            octagon_seconds=sum(r.octagon_seconds for r in fresh),
            compile_transfer=whole.compile_transfer,
            checks=[c for r in results for c in r.checks],
            procedures=[p for r in results for p in r.procedures],
            counters=counters,
            rungs=rungs,
            kernel_backend=backend,
            cached=bool(results) and not fresh,
        )

    # ------------------------------------------------------------------
    def lru_occupancy(self) -> Tuple[int, int]:
        """(entries, bytes) of the in-memory result LRU."""
        with self._lock:
            return len(self._results), self._results.bytes

    def counter_summary(self) -> Dict[str, int]:
        with self._lock:
            out = {f"serve_procs_{tier}": count
                   for tier, count in self.tier_counts.items()}
            out["serve_ast_hits"] = self.ast_hits
            out["serve_ast_misses"] = self.ast_misses
            out["serve_lru_entries"] = len(self._results)
            out["serve_lru_bytes"] = self._results.bytes
            out["serve_ast_entries"] = len(self._programs)
        if self.cache is not None:
            out.update(self.cache.counter_summary())
        return out


__all__ = [
    "IncrementalAnalyzer",
    "REQUEST_OPTIONS",
    "TIERS",
    "normalize_options",
]

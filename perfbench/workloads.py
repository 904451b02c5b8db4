"""The benchmark's four workloads, each a closed loop with one caller.

Every workload turns ``(seed, seconds)`` into a fixed sequence of
*units* -- analyze calls, batch jobs or serve requests -- and replays
it.  A run is never cut off by time: the sequence length depends only
on ``seconds`` (through the nominal unit costs below), so two runs of
one seed time exactly the same samples, and two seeds time the same
multiset of work in a different order.

``oneshot``
    In-process ``Analyzer().analyze`` over the 17 suite programs at
    ``scale=paper``, in passes whose order comes from the seed.  Most of
    its time is octagon operators (``core``); it never touches
    ``service`` or ``serve``.
``batch``
    ``run_batch`` over the 17 suite jobs at ``scale=small`` with two
    workers and no cache, batches back to back.  Fork-per-job, pickling
    and transport dominate; ``core`` does little.
``serve-edit``
    An in-process ``AnalysisServer(pool=2)`` with a private disk cache
    and one client connection, at ``scale=paper``.  After the cold
    population, requests alternate between warm resubmits of an
    unchanged program (memory tier) and one-procedure edits (one
    procedure computed in a pool worker).  Each run edits every suite
    procedure equally often.  End-to-end latency is the edit class.
``serve-warm``
    The same server at ``scale=small``, warm resubmits only: the
    request path of ``serve`` (socket, protocol, tier lookup, merge) with
    no analysis behind it.  End-to-end latency is the warm class.
"""

from __future__ import annotations

import gc
import math
import os
import random
import shutil
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import golden

#: Where serve workloads keep their socket and disk cache, relative to
#: the working directory (a relative socket path stays clear of the
#: 108-byte ``sun_path`` limit however deep the checkout is).
WORK_DIR = ".perfbench"

#: Samples each latency class needs: at least ten beyond the p90.
MIN_SAMPLES = 110

POOL_WORKERS = 2

#: Variable the edit appends to a procedure; no suite program uses it.
EDIT_VAR = "perfbench_edit"


@dataclass
class Unit:
    """One timed operation of a workload's sequence."""

    program: str
    kind: str = "call"  # oneshot, batch: call | serve: warm, edit
    source: str = ""


@dataclass
class Outcome:
    """What a replay measured."""

    latencies: Dict[str, List[float]] = field(default_factory=dict)
    wall_s: float = 0.0
    units: int = 0
    #: Batch results or serve responses, kept for the traced run only.
    records: List[tuple] = field(default_factory=list)

    def add(self, kind: str, seconds: float) -> None:
        self.latencies.setdefault(kind, []).append(seconds)


class Checker:
    """Compares answers with the golden table; counts failures."""

    def __init__(self, scale: str) -> None:
        self.table = golden.load()[scale]
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []

    def check(self, program: str, answer: Optional[golden.Answer], *,
              bounds: bool = True) -> None:
        self.attempted += 1
        want = self.table[program]
        if (answer is None or answer[0] != want["verdicts"]
                or (bounds and answer[1] != want["bounds"])):
            self.failed += 1
            if len(self.mismatches) < 5:
                self.mismatches.append(program)


def _rounds(seconds: float, round_s: float, samples_per_round: int) -> int:
    """Rounds to replay: about ``seconds`` of work at the nominal round
    cost, and never fewer than :data:`MIN_SAMPLES` samples."""
    return max(math.ceil(MIN_SAMPLES / samples_per_round),
               int(round(seconds / round_s)))


def _suite():
    from repro.workloads.suite import BENCHMARKS
    return BENCHMARKS


# ----------------------------------------------------------------------
# oneshot
# ----------------------------------------------------------------------
class OneShot:
    name = "oneshot"
    #: The unit kind whose latency ``latency_p50_ms``/``latency_p90_ms``
    #: report.
    latency_class = "call"
    scale = "paper"
    #: Nominal seconds of one pass over the suite on a 2-vCPU host.
    ROUND_S = 3.2

    def __init__(self) -> None:
        self.checker = Checker(self.scale)
        self.sources: Dict[str, str] = {}
        self.analyzer = None

    def sequence(self, seed: int, seconds: float,
                 generation: int = 0) -> List[Unit]:
        """Passes over the suite, each in a fresh seeded order."""
        names = [b.name for b in _suite()]
        rng = random.Random(seed)
        units = []
        for _ in range(_rounds(seconds, self.ROUND_S, len(names))):
            rng.shuffle(names)
            units.extend(Unit(name) for name in names)
        return units

    def setup(self) -> None:
        """Generate the sources and run one untimed warm-up pass."""
        from repro.analysis.analyzer import Analyzer

        self.sources = {b.name: b.source(self.scale) for b in _suite()}
        self.analyzer = Analyzer()
        for name, source in self.sources.items():
            self.checker.check(name, golden.from_analysis(
                self.analyzer.analyze(source)))
            settle()

    def run_unit(self, unit: Unit, out: Outcome,
                 wrap: Optional[Callable] = None) -> None:
        source = self.sources[unit.program]
        start = time.perf_counter()
        result = (self.analyzer.analyze(source) if wrap is None
                  else wrap(self.analyzer.analyze, source))
        out.add(unit.kind, time.perf_counter() - start)
        self.checker.check(unit.program, golden.from_analysis(result))

    def replay(self, units: List[Unit], out: Outcome,
               wrap: Optional[Callable] = None) -> None:
        for unit in units:
            self.run_unit(unit, out, wrap)
            settle()

    def teardown(self) -> None:
        pass


# ----------------------------------------------------------------------
# batch
# ----------------------------------------------------------------------
class _Turnaround:
    """Stands in for ``run_batch``'s journal: ``record`` is called as
    each job's result arrives, which stamps the job's turnaround."""

    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.seconds: List[float] = []

    def rotate(self) -> None:
        pass

    def record(self, result) -> None:
        self.seconds.append(time.perf_counter() - self.start)

    def close(self) -> None:
        pass


class Batch:
    name = "batch"
    latency_class = "call"
    scale = "small"
    #: Nominal seconds of one 17-job batch with two workers.
    ROUND_S = 0.65

    def __init__(self) -> None:
        self.checker = Checker(self.scale)
        self.jobs: Dict[str, object] = {}

    def sequence(self, seed: int, seconds: float,
                 generation: int = 0) -> List[Unit]:
        """Batches in the rotations of one seeded job order, a multiple
        of 17 of them: each job takes every queue position equally
        often, so turnaround percentiles do not hinge on where the seed
        put the largest jobs."""
        names = [b.name for b in _suite()]
        random.Random(seed).shuffle(names)
        n = len(names)
        rounds = n * math.ceil(_rounds(seconds, self.ROUND_S, n) / n)
        return [Unit(name) for r in range(rounds)
                for name in names[r % n:] + names[:r % n]]

    def setup(self) -> None:
        """Build the jobs and run one untimed warm-up batch."""
        self.jobs = {b.name: b.job(self.scale) for b in _suite()}
        self._batch(list(self.jobs), Outcome())

    def _batch(self, names: List[str], out: Outcome) -> object:
        from repro.service.scheduler import run_batch

        clock = _Turnaround()
        batch = run_batch([self.jobs[name] for name in names],
                          workers=POOL_WORKERS, cache=None, journal=clock)
        for seconds in clock.seconds:
            out.add("call", seconds)
        for name, result in zip(names, batch.results):
            self.checker.check(name, golden.from_job(result)
                               if result.outcome == "ok" else None)
        return batch

    def replay(self, units: List[Unit], out: Outcome,
               wrap: Optional[Callable] = None) -> None:
        """Batches are the units of a replay: one per 17 consecutive jobs."""
        per = len(self.jobs)
        for first in range(0, len(units), per):
            names = [u.program for u in units[first:first + per]]
            if wrap is None:
                self._batch(names, out)
            else:
                start = time.perf_counter()
                batch = wrap(self._batch, names, out)
                out.records.append((names, batch,
                                    time.perf_counter() - start))
            settle()

    def teardown(self) -> None:
        pass


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def edit_source(source: str, procedure: int, value: int) -> str:
    """``source`` with ``perfbench_edit = value;`` appended to the body
    of its ``procedure``-th procedure, rendered canonically.  The other
    procedures keep their canonical text, so the server computes only
    the edited one; the fresh variable leaves every verdict unchanged."""
    from repro.frontend.ast_nodes import Assign, Block, Num, Procedure
    from repro.frontend.parser import parse_program
    from repro.frontend.pretty import pretty

    program = parse_program(source)
    proc = program.procedures[procedure]
    program.procedures[procedure] = Procedure(
        proc.name, Block(proc.body.statements + [Assign(EDIT_VAR, Num(value))]))
    return pretty(program)


class Serve:
    """An in-process analysis server with one client connection."""

    name = "serve-edit"
    latency_class = "edit"
    scale = "paper"
    #: Nominal seconds of one round: every suite procedure edited once,
    #: interleaved with as many warm resubmits.
    ROUND_S = 4.5
    edits = True

    def __init__(self) -> None:
        self.checker = Checker(self.scale)
        self.sources: Dict[str, str] = {}
        self.server = None
        self.client = None
        self._thread: Optional[threading.Thread] = None
        self._dir: Optional[str] = None

    def sequence(self, seed: int, seconds: float,
                 generation: int = 0) -> List[Unit]:
        """Warm and edit requests, alternating.  Edits cover every suite
        procedure once per round in seeded order; warm requests cycle
        through a seeded permutation of the programs.  Each edit writes a
        value unique to ``generation``, so a second replay with another
        generation computes its edits again (the other workloads write
        nothing and ignore it)."""
        from repro.frontend.parser import parse_program

        sources = {b.name: b.source(self.scale) for b in _suite()}
        procs = [(name, idx) for name, src in sources.items()
                 for idx in range(len(parse_program(src).procedures))]
        names = list(sources)
        rng = random.Random(seed)
        per_round = len(procs) if self.edits else len(names)
        rounds = _rounds(seconds, self.ROUND_S, per_round)
        units: List[Unit] = []
        serial = generation * 1_000_000
        for _ in range(rounds):
            rng.shuffle(names)
            if not self.edits:
                units.extend(Unit(n, "warm", sources[n]) for n in names)
                continue
            rng.shuffle(procs)
            for i, (name, idx) in enumerate(procs):
                warm = names[i % len(names)]
                units.append(Unit(warm, "warm", sources[warm]))
                serial += 1
                units.append(Unit(name, "edit",
                                  edit_source(sources[name], idx, serial)))
        return units

    def setup(self) -> None:
        """Start the server and its pool, wait until it answers, then
        analyze every suite program once through the socket (cold)."""
        from repro.serve import AnalysisServer, ServeClient
        from repro.serve.client import wait_ready

        self.sources = {b.name: b.source(self.scale) for b in _suite()}
        self._dir = os.path.join(WORK_DIR, f"serve-{os.getpid()}")
        shutil.rmtree(self._dir, ignore_errors=True)
        os.makedirs(self._dir)
        sock = os.path.join(self._dir, "s.sock")
        self.server = AnalysisServer(
            sock, pool=POOL_WORKERS,
            cache_dir=os.path.join(self._dir, "cache"))
        self.server.start()
        self._thread = threading.Thread(target=self.server.serve_forever,
                                        daemon=True)
        self._thread.start()
        wait_ready(sock, timeout=30.0)
        self.client = ServeClient(sock, timeout=120.0, retries=0)
        for name, source in self.sources.items():
            self.run_unit(Unit(name, "warm", source), Outcome())
            settle()

    def run_unit(self, unit: Unit, out: Outcome,
                 wrap: Optional[Callable] = None) -> None:
        start = time.perf_counter()
        try:
            response = (self.client.analyze(unit.source, label=unit.program)
                        if wrap is None else
                        wrap(self.client.analyze, unit.source,
                             label=unit.program))
        except Exception as exc:  # noqa: BLE001 -- counted as a failure
            print(f"{unit.kind} {unit.program}: {exc!r}", file=sys.stderr)
            response = None
        latency = time.perf_counter() - start
        out.add(unit.kind, latency)
        doc = response["result"] if response else None
        answer = (golden.from_response(doc)
                  if doc is not None and doc["outcome"] == "ok" else None)
        # An edit adds a variable, so only its verdicts are golden.
        self.checker.check(unit.program, answer, bounds=unit.kind == "warm")
        if wrap is not None:
            out.records.append((unit, response, latency))

    def replay(self, units: List[Unit], out: Outcome,
               wrap: Optional[Callable] = None) -> None:
        for unit in units:
            self.run_unit(unit, out, wrap)
            settle()

    def teardown(self) -> None:
        """Close the connection, stop the server (which retires the pool
        workers) and wait for its thread; remove the socket and cache."""
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.stop("benchmark done")
            if self._thread is not None:
                self._thread.join(60.0)
                if self._thread.is_alive():
                    raise RuntimeError("analysis server did not stop")
            self.server = None
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None


class ServeWarm(Serve):
    name = "serve-warm"
    latency_class = "warm"
    scale = "small"
    #: Nominal seconds of one round of 17 warm resubmits.
    ROUND_S = 0.017
    edits = False


WORKLOADS = {cls.name: cls for cls in (OneShot, Batch, Serve, ServeWarm)}


def replay(workload, units: List[Unit], wrap: Optional[Callable] = None,
           ) -> Outcome:
    """Time ``units`` against a set-up workload; ``wrap`` (the traced
    run's) is called as ``wrap(fn, *args)`` around each unit's call into
    the system.

    The analyzer leaves cyclic garbage behind, so when a full collection
    fires -- and with it the peak RSS -- would otherwise depend on the
    order of the units.  Each workload calls :func:`settle` after every
    unit, outside the unit's latency and inside the timed window."""
    out = Outcome()
    start = time.perf_counter()
    workload.replay(units, out, wrap)
    out.wall_s = time.perf_counter() - start
    out.units = len(units)
    return out


def settle() -> None:
    """Collect the cyclic garbage left since the last call and freeze
    what survives, so the next collection scans only new objects."""
    gc.collect()
    gc.freeze()


def timed_setup(workload) -> float:
    start = time.perf_counter()
    workload.setup()
    seconds = time.perf_counter() - start
    settle()
    return seconds


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile (NumPy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def beyond(values: List[float], q: float) -> int:
    """Samples strictly above the ``q`` quantile."""
    cut = quantile(values, q)
    return sum(1 for v in values if v > cut)

"""Golden answers: per-program assertion verdicts and exit-bound digests.

An answer is two things about one analysed program:

* ``verdicts`` -- ``[procedure, assertion text, verified]`` for every
  assertion, in program order;
* ``bounds`` -- the SHA-256 of every procedure's exit box
  (``[name, reachable, [[lo, hi], ...]]``, infinities as ``null``).

The same answer can be read off an in-process
:class:`~repro.analysis.analyzer.AnalysisResult`, a batch
:class:`~repro.service.job.JobResult` or a serve response document, so
all three paths are checked against one committed file.

Regenerate ``golden.json`` (only when the analyzer's answers are meant
to change) with::

    python3 perfbench/golden.py
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")

#: Suite scales the workloads run at; each has its own golden table.
SCALES = ("paper", "small")

Answer = Tuple[List[list], str]


def _bound(value: Optional[float]) -> Optional[float]:
    if value is None or math.isinf(value):
        return None
    return float(value)


def _digest(procedures: Sequence[tuple]) -> str:
    canon = [[name, bool(reachable),
              [[_bound(lo), _bound(hi)] for lo, hi in box]]
             for name, reachable, box in procedures]
    payload = json.dumps(canon, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def from_analysis(result) -> Answer:
    """The answer of an in-process ``AnalysisResult``."""
    verdicts = [[c.procedure, c.cond_text, bool(c.verified)]
                for c in result.checks]
    procedures = []
    for proc in result.procedures:
        state = proc.invariant_at_exit()
        reachable = not state.is_bottom()
        procedures.append((proc.name, reachable,
                           state.to_box() if reachable else []))
    return verdicts, _digest(procedures)


def from_job(result) -> Answer:
    """The answer of a batch ``JobResult``."""
    verdicts = [[c.procedure, c.cond_text, bool(c.verified)]
                for c in result.checks]
    return verdicts, _digest([(p.name, p.reachable, p.box)
                              for p in result.procedures])


def from_response(doc: dict) -> Answer:
    """The answer of a serve ``analyze`` response's ``result`` document."""
    verdicts = [[proc, text, bool(ok)] for proc, text, ok in doc["checks"]]
    return verdicts, _digest([(p["name"], p["reachable"], p["box"])
                              for p in doc["procedures"]])


def load() -> Dict[str, Dict[str, dict]]:
    """``{scale: {program: {"verdicts": [...], "bounds": hex}}}``."""
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def record() -> Dict[str, Dict[str, dict]]:
    """Analyze every suite program at every scale; the golden table."""
    from repro.analysis.analyzer import Analyzer
    from repro.workloads.suite import BENCHMARKS

    table: Dict[str, Dict[str, dict]] = {}
    for scale in SCALES:
        table[scale] = {}
        for bench in BENCHMARKS:
            verdicts, bounds = from_analysis(
                Analyzer().analyze(bench.source(scale)))
            table[scale][bench.name] = {"verdicts": verdicts,
                                        "bounds": bounds}
    return table


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")

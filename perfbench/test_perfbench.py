"""The benchmark's own tests (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/test_perfbench.py

* The golden file is vouched for by concrete executions: no verified
  assertion is violated by a sampled run, and every completed run ends
  inside the analyzer's exit box.
* The traced run's work counts repeat exactly for one seed, and a
  second seed keeps every golden verdict.
"""

from __future__ import annotations

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import golden  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

#: Concrete runs sampled per procedure when vouching for the golden file.
TRIES = 20


@pytest.mark.parametrize("scale", golden.SCALES)
def test_golden_answers_hold_on_concrete_runs(scale):
    from repro.analysis.analyzer import Analyzer
    from repro.frontend.interp import sample_runs
    from repro.frontend.parser import parse_program
    from repro.workloads.suite import BENCHMARKS

    table = golden.load()[scale]
    for bench in BENCHMARKS:
        source = bench.source(scale)
        result = Analyzer().analyze(source)
        want = table[bench.name]
        assert golden.from_analysis(result) == (want["verdicts"],
                                                want["bounds"]), bench.name
        procs = {p.name: p for p in parse_program(source).procedures}
        for proc in result.procedures:
            verified = {c.cond_text for c in proc.checks if c.verified}
            exit_state = proc.invariant_at_exit()
            box = (None if exit_state.is_bottom()
                   else dict(zip(proc.cfg.variables, exit_state.to_box())))
            for run in sample_runs(procs[proc.name], tries=TRIES, seed=0):
                where = f"{bench.name}/{proc.name}"
                assert not verified & set(run.assertion_failures), where
                assert box is not None, f"{where}: a run reached bottom"
                for var, value in run.env.items():
                    lo, hi = box.get(var, (-math.inf, math.inf))
                    assert lo <= value <= hi, f"{where}: {var}={value}"


def _short(workload, seed: int, generation: int = 0):
    """The first round of the seed's sequence: one pass, one batch, or
    the first 17 warm/edit pairs."""
    units = workload.sequence(seed, 0, generation)
    return units[:34] if isinstance(workload, workloads.Serve) else units[:17]


def _traced_counts(name: str, seed: int):
    workload = workloads.WORKLOADS[name]()
    workload.setup()
    try:
        metrics = layers.traced_run(workload, _short(workload, seed),
                                         _short(workload, seed, 1))
    finally:
        workload.teardown()
    assert workload.checker.failed == 0, workload.checker.mismatches
    return {key: metrics[key] for key in layers.DETERMINISTIC}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_work_counts_repeat_and_second_seed_keeps_verdicts(name):
    first = _traced_counts(name, seed=11)
    assert first == _traced_counts(name, seed=11)
    assert any(first.values())
    _traced_counts(name, seed=12)  # golden verdicts asserted inside


def test_edit_keeps_other_procedures_canonical():
    from repro.frontend.fingerprint import procedure_source
    from repro.frontend.parser import parse_program
    from repro.workloads.suite import get_benchmark

    source = get_benchmark("linux_full").source("small")
    before = parse_program(source).procedures
    after = parse_program(workloads.edit_source(source, 1, 7)).procedures
    changed = [procedure_source(a) != procedure_source(b)
               for a, b in zip(before, after)]
    assert changed == [i == 1 for i in range(len(before))]


def test_benchmark_json_names_what_the_runs_report():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers.METRICS
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)

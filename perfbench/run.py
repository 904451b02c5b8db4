#!/usr/bin/env python3
"""The repository benchmark: one workload per run.

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the analyzer is imported from
``src/``.  Human-readable lines go first; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end ones
of ``BENCHMARK.json``; with ``--trace 1`` a separate traced run
reports the per-layer ones.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Set-ups per timed run; ``setup_s`` reports their median.
SETUP_REPS = 3

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {"setup_s": "s", "throughput_per_s": "1/s",
              "latency_p50_ms": "ms", "latency_p90_ms": "ms",
              "peak_rss_mb": "MB"}


def probe_ms() -> float:
    """A fixed reference loop, for reading the host's speed regime
    beside a result.  It never scales a metric."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return (time.perf_counter() - start) * 1000.0


def peak_rss_mb() -> tuple:
    """Peak resident set, in MB, of this process and of the largest
    worker child it has reaped."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)


def host_info(probes) -> dict:
    import numpy
    from repro.core import kernels

    return {"probe_ms": probes, "ncpu": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "kernel_backend": kernels.resolve(None)}


def timed(workload, seed: int, seconds: float, import_s: float) -> dict:
    units = workload.sequence(seed, seconds)
    setups = []
    try:
        for rep in range(SETUP_REPS):
            if rep:
                workload.teardown()
            setups.append(workloads.timed_setup(workload))
        out = workloads.replay(workload, units)
    finally:
        workload.teardown()
    lat = out.latencies[workload.latency_class]
    for kind, values in sorted(out.latencies.items()):
        print(f"{kind}: n={len(values)} "
              f"p50={workloads.quantile(values, 0.5) * 1e3:.2f}ms "
              f"p90={workloads.quantile(values, 0.9) * 1e3:.2f}ms "
              f"beyond_p90={workloads.beyond(values, 0.9)}")
    rss = peak_rss_mb()
    print(f"setup reps (s): {[round(s, 3) for s in setups]} "
          f"+ imports {import_s:.3f}")
    print(f"peak rss (MB): self {rss[0]:.1f}, largest child {rss[1]:.1f}")
    values = {
        "setup_s": import_s + statistics.median(setups),
        "throughput_per_s": out.units / out.wall_s,
        "latency_p50_ms": workloads.quantile(lat, 0.5) * 1e3,
        "latency_p90_ms": workloads.quantile(lat, 0.9) * 1e3,
        "peak_rss_mb": rss[0],
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def traced(workload, seed: int, seconds: float) -> dict:
    path = os.path.join(workloads.WORK_DIR, "traces",
                        f"{workload.name}-seed{seed}.json")
    try:
        workloads.timed_setup(workload)
        values = layers.traced_run(
            workload, workload.sequence(seed, seconds),
            workload.sequence(seed, seconds, generation=1), path)
    finally:
        workload.teardown()
    values["service.worker_peak_rss_mb"] = peak_rss_mb()[1]
    print(layers.table(values))
    print(f"spans written to {path}")
    return {name: (values[name], unit)
            for name, unit in layers.METRICS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no analyzer sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import repro.analysis.analyzer  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.service.scheduler  # noqa: F401
    import_s = time.perf_counter() - T0
    probes = [probe_ms()]

    workload = workloads.WORKLOADS[args.workload]()
    if args.trace:
        metrics = traced(workload, args.seed, args.seconds)
    else:
        metrics = timed(workload, args.seed, args.seconds, import_s)
    checker = workload.checker
    probes.append(probe_ms())
    if args.trace:
        metrics["host.probe_ms"] = (statistics.median(probes), "ms")
    print("host: " + json.dumps(host_info(probes)))
    if checker.failed:
        print(f"golden mismatches: {checker.mismatches}", file=sys.stderr)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

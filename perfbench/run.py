"""CooLSM benchmark entry point.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

Workloads: ``ingest``, ``mixed`` and ``explore`` (see README.md), or
``all`` to run the three in turn; BENCHMARK.json lists ``ingest`` and
``mixed``.  Human-readable lines come first: the
environment stamp, every metric by name with its unit, and any output
check that failed.  The last line is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of an
untraced run.  With ``--trace 1`` the workload runs twice with the same
seed, traced and untraced, and the metrics are the per-layer metrics of
the traced run plus the tracing overhead of every end-to-end metric
(traced minus untraced).

Exits 2 when the checkout holds no ``src/repro`` to measure, and 3 when
a ``mixed`` run is invalid because the load generator, not the cluster,
fell behind.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

from common import (
    END_TO_END,
    WORK_ROOT,
    RunResult,
    SourceMissing,
    environment_stamp,
    require_source_tree,
)

WORKLOADS = ("ingest", "mixed", "explore")
#: The workloads BENCHMARK.json lists.  ``explore`` is left out: the
#: explorer finds real violations on about two seeds in five, so its
#: runs cannot be correct until the system is fixed (see README.md).
BENCHMARKED = ("ingest", "mixed")
#: Per-layer names of the tracing overhead (traced minus untraced).
OVERHEAD = [(f"overhead.{name}", unit) for name, unit, __ in END_TO_END]


def per_layer_metrics() -> list[tuple[str, str]]:
    from layers import PER_LAYER

    return PER_LAYER + OVERHEAD


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> RunResult:
    if name == "explore":
        from explore import run_explore

        return run_explore(seed, seconds, trace)
    from live import run_ingest, run_mixed

    work = work / name / ("traced" if trace else "plain")
    if name == "ingest":
        return run_ingest(seed, seconds, trace, work)
    return run_mixed(seed, seconds, trace, work)


def report(name: str, result: RunResult) -> None:
    print(f"== {name}: {result.attempted} attempted, {result.failed} failed")
    rows = dict(result.named)
    rows["failed_frac"] = (result.failed / max(1, result.attempted), "frac")
    for metric, (value, unit) in rows.items():
        print(f"  {metric:<28} {value:>14.4f} {unit}")
    for problem in result.problems[:10]:
        print(f"  !! {problem}")
    print("  info: " + json.dumps(result.info, sort_keys=True, default=str))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_source_tree()
    except SourceMissing as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    from live import bench_config, config_flags

    print("env: " + json.dumps(environment_stamp(config_flags(bench_config())), sort_keys=True))
    started = time.monotonic()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, False, work)
            report(name, result)
            attempted += result.attempted
            failed += result.failed
            invalid = result.info.get("invalid")
            if invalid:
                print(f"perfbench: invalid {name} run: {invalid}", file=sys.stderr)
                return 3
            prefix = f"{name}." if args.workload == "all" else ""
            if args.trace:
                traced = run_workload(name, args.seed, args.seconds, True, work)
                report(f"{name} (traced)", traced)
                attempted += traced.attempted
                failed += traced.failed
                units = dict(per_layer_metrics())
                values = dict(traced.layers)
                for metric, __, __ in END_TO_END:
                    values[f"overhead.{metric}"] = (
                        traced.end_to_end[metric] - result.end_to_end[metric]
                    )
                for metric, value in values.items():
                    metrics[prefix + metric] = {"value": value, "unit": units[metric]}
            else:
                for metric, unit, __ in END_TO_END:
                    metrics[prefix + metric] = {
                        "value": result.end_to_end[metric], "unit": unit,
                    }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    print(f"wall_s: {time.monotonic() - started:.1f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

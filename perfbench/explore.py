"""The ``explore`` workload: the in-process simulator, no sockets,
disks or other processes.

Runs ``repro.verify.Explorer(seed).explore(ROUND_SCHEDULES)`` — default
shapes, 40 ops and 2 faults per schedule — over and over until the
time is up.  Every round replays the same seed, so every round must
report no violation and the same schedule fingerprints.

Before each round one set-up is timed: a fresh interpreter imports the
simulator and the verifier and builds an explorer (traced like the run
with ``--trace 1``).  ``ops_s`` is schedules per CPU second of this
process, which the set-up interpreters do not add to; the wall-clock
rate is printed as ``schedules_s``.
"""

from __future__ import annotations

import subprocess
import sys
import time
from statistics import median

from repro.bench.metrics import percentile

from checks import check_explore
from common import BENCH_DIR, RunResult, node_env

#: Schedules per round (one ``explore`` call).
ROUND_SCHEDULES = 250
#: What one set-up does, untraced and traced.
SETUP_CODE = "import repro.verify as v; v.Explorer(0)"
TRACED_SETUP_CODE = (
    f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); "
    "from tracing import Tracer, install_explorer; install_explorer(Tracer()); " + SETUP_CODE
)


def _setup_s(trace: bool) -> float:
    started = time.monotonic()
    code = TRACED_SETUP_CODE if trace else SETUP_CODE
    subprocess.run([sys.executable, "-c", code], env=node_env(), check=True)
    return time.monotonic() - started


def run_explore(seed: int, seconds: float, trace: bool) -> RunResult:
    from repro.verify import Explorer

    tracer = None
    if trace:
        from tracing import Tracer, install_explorer

        tracer = Tracer()
        install_explorer(tracer)

    stamps: list[float] = []
    events: list[int] = []

    def on_outcome(outcome) -> None:
        stamps.append(time.monotonic())
        events.append(outcome.events_dispatched)

    fingerprints: list[list[str]] = []
    setups: list[float] = []
    ok = True
    failed = 0
    wall_ms: list[float] = []
    elapsed = cpu_s = 0.0
    try:
        while elapsed < seconds:
            setups.append(_setup_s(trace))
            started, cpu_started = time.monotonic(), time.process_time()
            stamps[:] = [started]
            report = Explorer(seed, on_outcome=on_outcome).explore(ROUND_SCHEDULES)
            elapsed += time.monotonic() - started
            cpu_s += time.process_time() - cpu_started
            wall_ms.extend((b - a) * 1e3 for a, b in zip(stamps, stamps[1:]))
            fingerprints.append([s.fingerprint for s in report.summaries])
            ok = ok and report.ok
            failed += sum(
                1 for s, first in zip(report.summaries, fingerprints[0])
                if s.violations or s.fingerprint != first
            )
    finally:
        if tracer is not None:
            tracer.restore()
    schedules = len(wall_ms)
    problems = check_explore(ok, fingerprints)
    events_per_schedule = sum(events[:ROUND_SCHEDULES]) / ROUND_SCHEDULES
    setup = median(setups)
    end_to_end = {"setup_s": setup, "ops_s": schedules / cpu_s}
    wall_ms.sort()
    named = {
        "setup_s": (setup, "s"),
        "schedules_per_cpu_s": (end_to_end["ops_s"], "1/s"),
        "schedules_s": (schedules / elapsed, "1/s"),
        "schedule_p50_ms": (percentile(wall_ms, 0.5), "ms"),
        "schedule_p99_ms": (percentile(wall_ms, 0.99), "ms"),
        "kernel.events_per_schedule": (events_per_schedule, "count"),
    }
    layers = None
    if tracer is not None:
        from layers import explore_layers

        layers = explore_layers(
            tracer.dump()["spans"], schedules, sum(events[:ROUND_SCHEDULES]),
            ROUND_SCHEDULES, cpu_s / elapsed,
        )
    # A schedule fails if it found a violation or replayed differently.
    return RunResult(
        end_to_end, named, attempted=schedules, failed=failed, problems=problems,
        layers=layers, info={"rounds": len(fingerprints), "round_schedules": ROUND_SCHEDULES,
                             "setups_s": setups},
    )

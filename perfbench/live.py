"""The live workloads: ``ingest`` (closed loop, empty cluster) and
``mixed`` (open loop over a restored durable preload).

Both run 1 Ingestor, 2 Compactors and 1 Reader as separate processes
on 127.0.0.1 with durable data dirs and ``CooLSMConfig()`` defaults,
driven by one driver process holding one
:class:`~repro.core.client.Client`.  Keys are integers in
``[0, key_range)``, so ``Partitioning.uniform`` splits them across both
Compactors; values are 100 bytes (:func:`common.make_value`).
"""

from __future__ import annotations

import asyncio
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from repro.bench.metrics import percentile
from repro.workloads.distributions import Zipfian

from checks import (
    check_exit_codes,
    check_lateness,
    check_read,
    check_readback,
    check_scan,
)
from cluster import BenchCluster, make_spec
from common import (
    USER_BYTES_PER_OP,
    WORK_ROOT,
    RunResult,
    make_value,
    source_digest,
    tree_bytes,
)

#: Throwaway launches before and after the measured loads; with the
#: loads' own launches, ``setup_s`` is the median of them all.
SETUPS_BEFORE, SETUPS_AFTER = 2, 2
#: ``ingest`` upserts per second of ``--seconds``, about the rate the
#: reference VM sustains over the first 20 s.  A run submits this fixed
#: count, not as many as fit the time: every run then crosses the same
#: flushes, minor compactions and forwards, however fast the code is, and
#: no window ends halfway through a multi-second stall on one run and just
#: before it on another.
INGEST_OPS_PER_S = 750
#: ``ingest`` loads per run, one after another, each on a fresh empty
#: cluster; ``ops_s`` is the median of their rates.  The rate of a single
#: load spread 10-30% from run to run on the reference VM.
INGEST_LOADS = 2
#: ``ingest`` client pipeline shape.
PIPELINE_DEPTH = 4
PIPELINE_MAX_BATCH = 64
#: Acked keys read back after ``ingest`` drains.
READBACK_KEYS = 200
#: ``mixed``: durable keys restored before each run (spread over the
#: whole key range, written once per checkout and source tree from a
#: fixed seed), arrival rate, op mix and scan size.
PRELOAD_KEYS = 29_000
PRELOAD_SEED = 0
MIXED_RATE = 300.0
READ_FRAC, UPSERT_FRAC = 0.5, 0.4
ZIPF_THETA = 0.99
SCAN_LIMIT = 1_000
#: A ``mixed`` run whose generator ran later than this (p99) measured
#: the driver, not the cluster, and is reported invalid.
LATE_LIMIT_MS = 100.0
#: ``mixed`` deadline per op class, from the op's due time: about five
#: times the class's p50 between flush stalls on the reference VM.
DEADLINE_MS = {"read": 10.0, "upsert": 10.0, "scan": 40.0}
#: Seconds ``mixed`` waits after the last due time for stragglers.
STRAGGLER_S = 60.0


def bench_config():
    from repro.core.config import CooLSMConfig

    return CooLSMConfig()


def config_flags(config) -> dict:
    return {
        "key_range": config.key_range,
        "memtable_entries": config.memtable_entries,
        "compaction_policy": config.compaction_policy,
        "wal_group_commit": config.wal_group_commit,
        "flow_control": config.flow_control,
        "sorted_view": config.sorted_view,
        "read_cache_capacity": config.read_cache_capacity,
    }


class Sampler:
    """CPU and ``write_bytes`` of the nodes and the driver over a window."""

    def __init__(self, cluster: BenchCluster) -> None:
        self.cluster = cluster

    def start(self) -> None:
        self.t0 = time.monotonic()
        self.cpu0 = self.cluster.cpu_s()
        self.io0 = self.cluster.write_bytes()
        self.driver0 = time.process_time()

    def stop(self) -> None:
        self.t1 = time.monotonic()
        self.cpu1 = self.cluster.cpu_s()
        self.io1 = self.cluster.write_bytes()
        self.driver1 = time.process_time()

    @property
    def window(self) -> tuple[float, float]:
        return self.t0, self.t1

    def cpu_total_s(self) -> float:
        nodes = sum(self.cpu1[n] - self.cpu0[n] for n in self.cpu0)
        return nodes + self.driver1 - self.driver0

    def write_bytes(self) -> int:
        return sum(self.io1[n] - self.io0[n] for n in self.io0)

    def cpu_util(self) -> dict[str, float]:
        length = self.t1 - self.t0
        per_role: dict[str, list[float]] = {}
        for name in self.cpu0:
            used = (self.cpu1[name] - self.cpu0[name]) / length
            per_role.setdefault(self.cluster.role(name), []).append(used)
        return {role: sum(v) / len(v) for role, v in per_role.items()}

    def driver_util(self) -> float:
        return (self.driver1 - self.driver0) / (self.t1 - self.t0)


def _timed_setups(
    work: Path, config, template: Path | None, trace: bool, count: int
) -> list[float]:
    """Launch (after restoring ``template``, if given) and stop ``count``
    throwaway clusters, traced like the run; return their set-up times."""
    times = []
    for __ in range(count):
        base = work / "setup"
        with BenchCluster(make_spec(config), base, base / "data", trace=trace) as cluster:
            times.append(_start(cluster, template))
            cluster.stop()
        shutil.rmtree(base, ignore_errors=True)
    return times


def _start(cluster: BenchCluster, template: Path | None) -> float:
    """Seconds to restore ``template`` (if any) and bring every node up."""
    started = time.monotonic()
    if template is not None:
        shutil.copytree(template, cluster.data_dir)
    cluster.start()
    return time.monotonic() - started


def _driver_tracer(trace: bool):
    """A tracer on the driver's wire codec; call ``restore`` when done."""
    if not trace:
        return None
    from tracing import Tracer, install_wire

    tracer = Tracer()
    install_wire(tracer)
    return tracer


@dataclass
class Load:
    """One measured cluster: what ``measure`` returned and how it stopped."""

    cluster: BenchCluster
    sampler: Sampler
    result: object
    unclean: list[str]
    stop_s: float


@dataclass
class TimedRun:
    setups: list[float]
    loads: list[Load]
    tracer: object


def _timed_run(
    work: Path, config, template: Path | None, trace: bool, measure, loads: int = 1
) -> TimedRun:
    """Time ``SETUPS_BEFORE`` set-ups, then launch ``loads`` clusters one
    after another (each launch timed as a set-up too), run
    ``measure(cluster, sampler)`` on each and stop it, then time
    ``SETUPS_AFTER`` set-ups.  With ``trace`` every node is traced, and so
    is the driver's wire codec while the loads run."""
    setups = _timed_setups(work, config, template, trace, SETUPS_BEFORE)
    tracer = _driver_tracer(trace)
    done = []
    try:
        for index in range(loads):
            base = work / f"run-{index}"
            cluster = BenchCluster(make_spec(config), base, base / "data", trace=trace)
            sampler = Sampler(cluster)
            with cluster:
                setups.append(_start(cluster, template))
                result = measure(cluster, sampler)
                stopping = time.monotonic()
                unclean = check_exit_codes(cluster.stop())
                stop_s = time.monotonic() - stopping
            done.append(Load(cluster, sampler, result, unclean, stop_s))
    finally:
        if tracer is not None:
            tracer.restore()
    setups += _timed_setups(work, config, template, trace, SETUPS_AFTER)
    return TimedRun(setups, done, tracer)


def _layers(cluster, sampler, tracer, driver: dict) -> dict[str, float]:
    from layers import live_layers

    driver.update(
        cpu_util=sampler.cpu_util(),
        driver_cpu_util=sampler.driver_util(),
        write_bytes=sampler.write_bytes(),
        driver_spans=tracer.dump()["spans"],
    )
    roles = {name: cluster.role(name) for name in cluster.processes}
    return live_layers(cluster.traces(), roles, sampler.window, driver)


# ----------------------------------------------------------------------
# ingest
# ----------------------------------------------------------------------
@dataclass
class IngestLoad:
    """What one ``ingest`` load submitted, acked and read back."""

    #: key -> version of its last acked upsert
    last: dict[int, int] = field(default_factory=dict)
    submitted: int = 0
    readback_ms: list[float] = field(default_factory=list)
    pipeline: object = None


def run_ingest(seed: int, seconds: float, trace: bool, work: Path) -> RunResult:
    from repro.core.client import ClientPipeline
    from repro.live.harness import ClientPool
    from repro.sim.rpc import RemoteError, RpcTimeout

    config = bench_config()
    rng = random.Random(seed)
    problems: list[str] = []
    count = round(seconds * INGEST_OPS_PER_S)

    def load(pipeline, state: IngestLoad):
        try:
            while state.submitted < count:
                key = rng.randrange(config.key_range)
                state.submitted += 1
                yield from pipeline.put(key, make_value(key, state.submitted))
                state.last[key] = state.submitted
            yield from pipeline.drain()
        except (RpcTimeout, RemoteError, ValueError) as error:
            problems.append(f"upsert batch failed: {error!r}")

    def readback(client, state: IngestLoad):
        last = state.last
        sample = random.Random(seed + 1).sample(sorted(last), min(READBACK_KEYS, len(last)))
        for key in sample:
            started = time.monotonic()
            try:
                value = yield from client.read(key)
            except (RpcTimeout, RemoteError) as error:
                problems.append(f"readback {key}: {error!r}")
                continue
            state.readback_ms.append((time.monotonic() - started) * 1e3)
            problems.extend(check_readback(key, value, last[key]))

    def measure(cluster, sampler):
        state = IngestLoad()

        async def drive():
            async with ClientPool(cluster.spec, num_clients=1) as pool:
                client = pool.clients[0]
                state.pipeline = ClientPipeline(
                    client, max_batch=PIPELINE_MAX_BATCH, depth=PIPELINE_DEPTH
                )
                sampler.start()
                await pool.run(load(state.pipeline, state))
                sampler.stop()
                await pool.run(readback(client, state))

        asyncio.run(drive())
        return state

    run = _timed_run(work, config, None, trace, measure, loads=INGEST_LOADS)
    states: list[IngestLoad] = [done.result for done in run.loads]
    for done in run.loads:
        problems.extend(done.unclean)

    acked = [state.pipeline.ops_acked for state in states]
    total_acked = max(1, sum(acked))
    rates = [n / (done.sampler.t1 - done.sampler.t0) for n, done in zip(acked, run.loads)]
    latencies_ms = sorted(x * 1e3 for state in states for x in state.pipeline.latencies)
    node_writes = sum(
        stats["io"].get("write_bytes", 0)
        for done in run.loads for stats in done.cluster.exit_stats().values()
    )
    write_amp = node_writes / (total_acked * USER_BYTES_PER_OP)
    space_amp = median(
        tree_bytes(done.cluster.data_dir) / (max(1, len(state.last)) * USER_BYTES_PER_OP)
        for done, state in zip(run.loads, states)
    )
    cpu_s = sum(done.sampler.cpu_total_s() for done in run.loads)
    ops_s = median(rates)
    end_to_end = {"setup_s": median(run.setups), "ops_s": ops_s}
    named = {
        "setup_s": (end_to_end["setup_s"], "s"),
        "upsert_ops_s": (ops_s, "1/s"),
        "cpu_ms_per_op": (cpu_s * 1e3 / total_acked, "ms"),
        "upsert_p50_ms": (percentile(latencies_ms, 0.5), "ms"),
        "upsert_p99_ms": (percentile(latencies_ms, 0.99), "ms"),
        "write_amp": (write_amp, "x"),
        "space_amp": (space_amp, "x"),
        "readback_read_p50_ms": (
            percentile(sorted(x for state in states for x in state.readback_ms), 0.5), "ms"
        ),
    }

    layers = None
    if trace:  # the first load's layers
        first, state = run.loads[0], states[0]
        layers = _layers(first.cluster, first.sampler, run.tracer, {
            "ops": max(1, acked[0]), "upserts": max(1, acked[0]),
            "batch_ops": acked[0] / max(1, state.pipeline.batches_sent),
        })
    # Failed ops: upserts never acked, plus one per readback mismatch,
    # failed batch or unclean node exit.
    submitted = sum(state.submitted for state in states)
    read_back = sum(min(READBACK_KEYS, len(state.last)) for state in states)
    return RunResult(
        end_to_end, named, attempted=submitted + read_back,
        failed=submitted - sum(acked) + len(problems),
        problems=problems, layers=layers,
        info={"upserts_acked": acked, "ops_s_per_load": rates,
              "distinct_keys": [len(state.last) for state in states],
              "setups_s": run.setups, "node_write_bytes": node_writes,
              "window_s": [done.sampler.t1 - done.sampler.t0 for done in run.loads],
              "stop_s": [done.stop_s for done in run.loads],
              "config": config_flags(config)},
    )


# ----------------------------------------------------------------------
# mixed
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class Op:
    due: float
    kind: str  # "read" | "upsert" | "scan"
    key: int
    version: int = 0


def preload_keys(key_range: int) -> list[int]:
    """The preloaded keys, sorted; fixed, so the preload can be reused."""
    return sorted(random.Random(PRELOAD_SEED).sample(range(key_range), PRELOAD_KEYS))


def mixed_schedule(seed: int, seconds: float, keys: list[int], key_range: int) -> list[Op]:
    """Poisson arrivals at ``MIXED_RATE`` over ``seconds``; the op mix is
    reads and upserts on zipfian keys (the seed picks which keys are
    hot) and scans from a uniform start."""
    rng = random.Random(seed)
    keys = list(keys)
    rng.shuffle(keys)
    zipf = Zipfian(len(keys), ZIPF_THETA)
    ops, due, version = [], 0.0, 0
    while True:
        due += rng.expovariate(MIXED_RATE)
        if due >= seconds:
            return ops
        draw = rng.random()
        if draw < READ_FRAC:
            ops.append(Op(due, "read", keys[zipf.pick(rng)]))
        elif draw < READ_FRAC + UPSERT_FRAC:
            version += 1
            ops.append(Op(due, "upsert", keys[zipf.pick(rng)], version))
        else:
            ops.append(Op(due, "scan", rng.randrange(key_range)))


def preload(config) -> Path:
    """The data dir of a drained cluster holding every preload key at
    version 0, written through the client API.  Built once per checkout
    and source tree and kept under ``WORK_ROOT``."""
    from repro.core.client import ClientPipeline
    from repro.live.harness import ClientPool

    target = WORK_ROOT / f"preload-{PRELOAD_KEYS}-{source_digest()}"
    if target.is_dir():
        return target / "data"
    base = WORK_ROOT / f"preload-building-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)

    def load(pipeline):
        for key in preload_keys(config.key_range):
            yield from pipeline.put(key, make_value(key, 0))
        yield from pipeline.drain()

    async def drive(spec):
        async with ClientPool(spec, num_clients=1) as pool:
            pipeline = ClientPipeline(pool.clients[0], max_batch=256, depth=4)
            await pool.run(load(pipeline))

    with BenchCluster(make_spec(config), base, base / "data") as cluster:
        cluster.start()
        asyncio.run(drive(cluster.spec))
        problems = check_exit_codes(cluster.stop())
    if problems:
        shutil.rmtree(base, ignore_errors=True)
        raise RuntimeError(f"preload did not drain: {problems}")
    try:
        os.rename(base, target)
    except OSError:
        if not target.is_dir():
            raise
        shutil.rmtree(base, ignore_errors=True)  # another run finished first
    return target / "data"


def run_mixed(seed: int, seconds: float, trace: bool, work: Path) -> RunResult:
    from repro.live.harness import ClientPool
    from repro.sim.rpc import RemoteError, RpcTimeout

    config = bench_config()
    template = preload(config)
    keys = preload_keys(config.key_range)
    schedule = mixed_schedule(seed, seconds, keys, config.key_range)
    written: dict[int, set[int]] = {key: {0} for key in keys}
    scheduled = dict.fromkeys(DEADLINE_MS, 0)
    for op in schedule:
        scheduled[op.kind] += 1
        if op.kind == "upsert":
            written[op.key].add(op.version)

    latency_ms: dict[str, list[float]] = {kind: [] for kind in DEADLINE_MS}
    on_time = dict.fromkeys(DEADLINE_MS, 0)
    late_ms: list[float] = []
    problems: list[str] = []
    failed = 0

    def run_op(client, kernel, op: Op, due: float):
        nonlocal failed
        try:
            if op.kind == "read":
                value = yield from client.read(op.key)
                found = check_read(op.key, value, written)
            elif op.kind == "upsert":
                yield from client.upsert(op.key, make_value(op.key, op.version))
                found = []
            else:
                rows = yield from client.analytics_query(
                    op.key, config.key_range, limit=SCAN_LIMIT
                )
                found = check_scan(rows, op.key, config.key_range, SCAN_LIMIT, written)
        except (RpcTimeout, RemoteError) as error:
            found = [f"{op.kind} {op.key}: {error!r}"]
        latency = (kernel.now - due) * 1e3
        latency_ms[op.kind].append(latency)
        if found:
            failed += 1
            problems.extend(found[:3])
        elif latency <= DEADLINE_MS[op.kind]:
            on_time[op.kind] += 1

    def generator(client, kernel):
        start = kernel.now
        spawned = []
        for op in schedule:
            due = start + op.due
            wait = due - kernel.now
            if wait > 0:
                yield kernel.timeout(wait)
            late_ms.append((kernel.now - due) * 1e3)
            spawned.append(kernel.spawn(run_op(client, kernel, op, due), "bench.op"))
        deadline = kernel.timeout(STRAGGLER_S)
        yield kernel.any_of([kernel.all_of(spawned), deadline])

    def measure(cluster, sampler):
        async def drive():
            async with ClientPool(cluster.spec, num_clients=1) as pool:
                sampler.start()
                await pool.run(generator(pool.clients[0], pool.kernel))
                sampler.stop()

        asyncio.run(drive())

    run = _timed_run(work, config, template, trace, measure)
    measured = run.loads[0]
    done = sum(len(v) for v in latency_ms.values())
    unfinished = len(schedule) - done
    if unfinished:
        problems.append(f"{unfinished} ops unfinished {STRAGGLER_S:.0f} s after the last was due")
    problems.extend(measured.unclean)
    failed += unfinished + len(measured.unclean)
    # Goodput with every op class weighted alike: the offered rate times
    # the mean, over read, upsert and scan, of the share of the class's
    # ops that succeeded within its deadline.  A class that misses every
    # deadline costs a third, however few of the ops it is.
    on_time_frac = {kind: on_time[kind] / max(1, scheduled[kind]) for kind in DEADLINE_MS}
    ops_s = len(schedule) / seconds * sum(on_time_frac.values()) / len(on_time_frac)
    end_to_end = {"setup_s": median(run.setups), "ops_s": ops_s}
    named = {
        "setup_s": (end_to_end["setup_s"], "s"),
        "goodput_ops_s": (ops_s, "1/s"),
        "cpu_ms_per_op": (measured.sampler.cpu_total_s() * 1e3 / max(1, done), "ms"),
        "p50_ms": (percentile(sorted(x for v in latency_ms.values() for x in v), 0.5), "ms"),
    }
    for kind in ("upsert", "read", "scan"):
        ordered = sorted(latency_ms[kind])
        named[f"{kind}_p50_ms"] = (percentile(ordered, 0.5), "ms")
        named[f"{kind}_p99_ms"] = (percentile(ordered, 0.99), "ms")
        named[f"{kind}_on_time_frac"] = (on_time_frac[kind], "frac")
    late_p99 = percentile(sorted(late_ms), 0.99)
    named["driver.late_ms_p99"] = (late_p99, "ms")

    layers = None
    if trace:
        layers = _layers(measured.cluster, measured.sampler, run.tracer, {
            "ops": done, "upserts": scheduled["upsert"], "late_ms_p99": late_p99,
        })
    invalid = check_lateness(late_p99, LATE_LIMIT_MS)
    return RunResult(
        end_to_end, named, attempted=len(schedule), failed=failed,
        problems=problems, layers=layers,
        info={"ops": scheduled, "setups_s": run.setups, "preload_keys": PRELOAD_KEYS,
              "rate": MIXED_RATE, "invalid": invalid[0] if invalid else None,
              "config": config_flags(config)},
    )

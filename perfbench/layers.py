"""Per-layer metrics from a traced run.

Inputs are the trace documents the node processes wrote at exit
(:mod:`tracing`), cut to the measured window, plus what the driver
measured itself (CPU per role, ``/proc/<pid>/io`` deltas, pipeline and
open-loop figures, in-process explorer spans).  The live workloads
report every metric of :data:`LIVE_LAYER`, ``explore`` every metric of
:data:`PER_LAYER`; one whose layer the workload never crosses reads 0.
"""

from __future__ import annotations

from collections import defaultdict

from repro.bench.metrics import percentile

ROLES = ("ingestor", "compactor", "reader")

#: (name, unit) of the per-layer metrics of the live workloads, grouped
#: by layer (repo module).
LIVE_LAYER: list[tuple[str, str]] = [
    # core.client
    ("client.batch_ops", "ops"),
    # live.wire
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.bytes_per_op", "B"),
    # live.transport (health gauges over each node's life)
    ("transport.bytes_per_write", "B"),
    ("transport.frames_coalesced_frac", "frac"),
    ("transport.queue_high_water", "count"),
    # core.ingestor
    ("ingestor.upsert_batch_ms_p50", "ms"),
    ("ingestor.upsert_batch_ms_p99", "ms"),
    ("ingestor.upsert_ms_p50", "ms"),
    ("ingestor.upsert_ms_p99", "ms"),
    ("ingestor.read_ms_p50", "ms"),
    ("ingestor.read_ms_p99", "ms"),
    ("ingestor.loop_lag_ms_max", "ms"),
    ("ingestor.loop_blocked_frac", "frac"),
    ("ingestor.stall_s", "s"),
    ("ingestor.forward_retries", "count"),
    ("cpu.ingestor.util", "frac"),
    # lsm.memtable
    ("memtable.put_us", "us"),
    # lsm.wal
    ("wal.append_ms_p50", "ms"),
    ("wal.append_ms_p99", "ms"),
    ("wal.appends_per_op", "count"),
    ("wal.truncate_ms_total", "ms"),
    # store.node_store
    ("store.ingestor.commit_ms_p99", "ms"),
    ("store.compactor.commit_ms_p99", "ms"),
    ("store.reader.commit_ms_p99", "ms"),
    ("store.ingestor.commit_ms_total", "ms"),
    ("store.compactor.commit_ms_total", "ms"),
    ("store.reader.commit_ms_total", "ms"),
    ("store.reader.sidecar_ms_total", "ms"),
    # file system calls made by the nodes
    ("fs.fsync_count", "count"),
    ("fs.fsync_ms_total", "ms"),
    ("fs.unlink_count", "count"),
    ("fs.unlink_ms_total", "ms"),
    ("fs.rename_ms_total", "ms"),
    ("fs.write_bytes", "B"),
    # lsm.sstable_io
    ("sstable_io.tables_written", "count"),
    ("sstable_io.write_ms_total", "ms"),
    # core.compactor + lsm.compaction
    ("compactor.forward_ms_p50", "ms"),
    ("compactor.forward_ms_p99", "ms"),
    ("compactor.read_ms_p50", "ms"),
    ("compactor.read_ms_p99", "ms"),
    ("compaction.merge_entries_per_s", "1/s"),
    ("compactor.loop_blocked_frac", "frac"),
    ("compactor.duplicate_forwards", "count"),
    ("cpu.compactor.util", "frac"),
    # core.reader
    ("reader.backup_update_ms_p50", "ms"),
    ("reader.backup_update_ms_p99", "ms"),
    ("reader.range_query_ms_p50", "ms"),
    ("reader.range_query_ms_p99", "ms"),
    ("reader.loop_lag_ms_max", "ms"),
    ("reader.loop_blocked_frac", "frac"),
    ("reader.updates_received", "count"),
    ("cpu.reader.util", "frac"),
    # lsm.sortedview
    ("sortedview.rebuild_ms_total", "ms"),
    ("sortedview.reused_segments_frac", "frac"),
    # lsm.cache (over each node's life)
    ("cache.ingestor.hit_rate", "frac"),
    ("cache.compactor.hit_rate", "frac"),
    ("cache.reader.hit_rate", "frac"),
    ("cache.evictions", "count"),
    ("cache.bloom_negative_frac", "frac"),
    # core.flow
    ("flow.admission_rejections", "count"),
    ("flow.delay_s", "s"),
    # driver
    ("driver.late_ms_p99", "ms"),
    ("cpu.driver.util", "frac"),
]
#: The layers only ``explore`` crosses.
SIM_LAYER: list[tuple[str, str]] = [
    # sim.kernel
    ("kernel.events_per_schedule", "count"),
    ("kernel.us_per_event", "us"),
    # verify
    ("explorer.run_ms_per_schedule", "ms"),
    ("explorer.check_ms_per_schedule", "ms"),
    ("explorer.generate_ms_per_schedule", "ms"),
]
PER_LAYER = LIVE_LAYER + SIM_LAYER


def _pct(values, q: float) -> float:
    return percentile(sorted(values), q)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Spans:
    """Spans of many processes, grouped by role and name."""

    def __init__(self) -> None:
        self.by_role: dict[str, dict[str, list]] = defaultdict(lambda: defaultdict(list))

    def add(self, role: str, spans, window: tuple[float, float] | None = None) -> None:
        for span in spans:
            if span is not None and (window is None or window[0] <= span[2] <= window[1]):
                self.by_role[role][span[0]].append(span)

    def of(self, name: str, role: str | None = None) -> list:
        roles = [role] if role else list(self.by_role)
        return [span for r in roles for span in self.by_role[r].get(name, ())]

    def ms(self, name: str, role: str | None = None) -> list[float]:
        return [(span[2] - span[1]) * 1e3 for span in self.of(name, role)]

    def total_ms(self, *names: str, role: str | None = None) -> float:
        return sum(sum(self.ms(name, role)) for name in names)

    def count(self, *names: str, role: str | None = None) -> int:
        return sum(len(self.of(name, role)) for name in names)

    def mean_us(self, name: str, role: str | None = None) -> float:
        durations = self.ms(name, role)
        return 1e3 * sum(durations) / len(durations) if durations else 0.0

    def amount(self, name: str, role: str | None = None) -> float:
        return sum(span[4] or 0 for span in self.of(name, role))


def self_time_ms(spans: list) -> dict[str, float]:
    """Total self time per span name: duration minus time covered by the
    span's direct children (children of a synchronous span are nested
    and sequential, so their durations do not overlap)."""
    child_ms: dict[int, float] = defaultdict(float)
    for span in spans:
        if span is not None and span[3] >= 0:
            child_ms[span[3]] += (span[2] - span[1]) * 1e3
    totals: dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        if span is not None:
            totals[span[0]] += (span[2] - span[1]) * 1e3 - child_ms.get(index, 0.0)
    return dict(totals)


def outermost_ms(spans: list, names: set[str], window: tuple[float, float]) -> float:
    """Total duration of the spans named in ``names`` that end inside
    ``window`` and do not run inside another such span (``SortedView.rebuild``
    falls back to ``SortedView.build``; that time is counted once)."""
    total = 0.0
    for span in spans:
        if span is None or span[0] not in names or not window[0] <= span[2] <= window[1]:
            continue
        parent = spans[span[3]] if span[3] >= 0 else None
        if parent is None or parent[0] not in names:
            total += (span[2] - span[1]) * 1e3
    return total


def _lag(traces: list[dict], window: tuple[float, float]) -> tuple[float, float]:
    """(max lag ms, blocked fraction) of the probes of ``traces``, averaged
    over processes for the fraction."""
    worst = 0.0
    fractions = []
    length = window[1] - window[0]
    for trace in traces:
        lags = [lag for at, lag in trace["lags"] if window[0] <= at <= window[1]]
        if lags:
            worst = max(worst, max(lags))
            fractions.append(_ratio(sum(lags), length))
    return worst * 1e3, _ratio(sum(fractions), len(fractions))


def live_layers(
    traces: dict[str, dict],
    roles: dict[str, str],
    window: tuple[float, float],
    driver: dict,
) -> dict[str, float]:
    """Per-layer metrics of a traced live run.

    ``traces`` maps node name to its trace document; ``roles`` node name
    to role; ``driver`` holds what the driver measured: ``ops`` (user ops
    in the window), ``upserts``, ``batch_ops``, ``cpu_util`` (role ->
    fraction), ``driver_cpu_util``, ``write_bytes``, ``late_ms_p99`` and
    ``driver_spans`` (the driver's own wire spans).
    """
    spans = Spans()
    by_role: dict[str, list[dict]] = defaultdict(list)
    for name, trace in traces.items():
        spans.add(roles[name], trace["spans"], window)
        by_role[roles[name]].append(trace)
    spans.add("driver", driver.get("driver_spans", ()), window)
    ops = driver["ops"]
    upserts = driver.get("upserts", 0)

    def state_sum(section: str, key: str, role: str | None = None) -> float:
        return sum(
            trace["state"].get(section, {}).get(key, 0)
            for r, group in by_role.items() if role in (None, r)
            for trace in group
        )

    m: dict[str, float] = {name: 0.0 for name, __ in LIVE_LAYER}
    m["client.batch_ops"] = driver.get("batch_ops", 0.0)
    m["wire.encode_us"] = spans.mean_us("wire.encode")
    m["wire.decode_us"] = spans.mean_us("wire.decode")
    m["wire.bytes_per_op"] = _ratio(spans.amount("wire.encode"), ops)
    m["transport.bytes_per_write"] = _ratio(
        state_sum("transport", "bytes_sent"), state_sum("transport", "write_calls")
    )
    m["transport.frames_coalesced_frac"] = _ratio(
        state_sum("transport", "frames_coalesced"), state_sum("transport", "frames_sent")
    )
    m["transport.queue_high_water"] = max(
        (t["state"].get("transport", {}).get("queue_high_water", 0) for t in traces.values()),
        default=0,
    )
    for method, stem in (("upsert_batch", "upsert_batch"), ("upsert", "upsert"), ("read", "read")):
        durations = spans.ms(f"ingestor.{method}", "ingestor")
        m[f"ingestor.{stem}_ms_p50"] = _pct(durations, 0.5)
        m[f"ingestor.{stem}_ms_p99"] = _pct(durations, 0.99)
    lag_max, blocked = _lag(by_role["ingestor"], window)
    m["ingestor.loop_lag_ms_max"] = lag_max
    m["ingestor.loop_blocked_frac"] = blocked
    m["ingestor.stall_s"] = state_sum("node", "stall_time", "ingestor")
    m["ingestor.forward_retries"] = state_sum("node", "forward_retries", "ingestor")
    m["memtable.put_us"] = spans.mean_us("memtable.put", "ingestor")
    wal = spans.ms("wal.append")
    m["wal.append_ms_p50"] = _pct(wal, 0.5)
    m["wal.append_ms_p99"] = _pct(wal, 0.99)
    m["wal.appends_per_op"] = _ratio(len(wal), upserts)
    m["wal.truncate_ms_total"] = spans.total_ms("wal.truncate")
    for role in ROLES:
        commits = spans.ms("store.commit", role)
        m[f"store.{role}.commit_ms_p99"] = _pct(commits, 0.99)
        m[f"store.{role}.commit_ms_total"] = sum(commits)
        m[f"cpu.{role}.util"] = driver["cpu_util"].get(role, 0.0)
    m["store.reader.sidecar_ms_total"] = spans.total_ms("store.sidecar", role="reader")
    m["fs.fsync_count"] = spans.count("fs.fsync")
    m["fs.fsync_ms_total"] = spans.total_ms("fs.fsync")
    m["fs.unlink_count"] = spans.count("fs.remove", "fs.unlink")
    m["fs.unlink_ms_total"] = spans.total_ms("fs.remove", "fs.unlink")
    m["fs.rename_ms_total"] = spans.total_ms("fs.replace", "fs.rename")
    m["fs.write_bytes"] = driver["write_bytes"]
    m["sstable_io.tables_written"] = spans.count("sstable_io.write")
    m["sstable_io.write_ms_total"] = spans.total_ms("sstable_io.write")
    for method in ("forward", "read"):
        durations = spans.ms(f"compactor.{method}", "compactor")
        m[f"compactor.{method}_ms_p50"] = _pct(durations, 0.5)
        m[f"compactor.{method}_ms_p99"] = _pct(durations, 0.99)
    m["compaction.merge_entries_per_s"] = _ratio(
        spans.amount("compaction.merge"), spans.total_ms("compaction.merge") / 1e3
    )
    m["compactor.loop_blocked_frac"] = _lag(by_role["compactor"], window)[1]
    m["compactor.duplicate_forwards"] = state_sum("node", "duplicate_forwards", "compactor")
    for method in ("backup_update", "range_query"):
        durations = spans.ms(f"reader.{method}", "reader")
        m[f"reader.{method}_ms_p50"] = _pct(durations, 0.5)
        m[f"reader.{method}_ms_p99"] = _pct(durations, 0.99)
    lag_max, blocked = _lag(by_role["reader"], window)
    m["reader.loop_lag_ms_max"] = lag_max
    m["reader.loop_blocked_frac"] = blocked
    m["reader.updates_received"] = spans.count("reader.backup_update", role="reader")
    m["sortedview.rebuild_ms_total"] = sum(
        outermost_ms(trace["spans"], {"sortedview.build", "sortedview.rebuild"}, window)
        for trace in traces.values()
    )
    reuse = [span[4] for span in spans.of("sortedview.rebuild") if span[4]]
    m["sortedview.reused_segments_frac"] = _ratio(
        sum(r[0] for r in reuse), sum(r[1] for r in reuse)
    )
    for role in ROLES:
        hits = state_sum("caches", "hits", role)
        m[f"cache.{role}.hit_rate"] = _ratio(hits, hits + state_sum("caches", "misses", role))
    m["cache.evictions"] = state_sum("caches", "evictions")
    m["cache.bloom_negative_frac"] = _ratio(
        state_sum("caches", "bloom_negatives"), state_sum("caches", "bloom_probes")
    )
    m["flow.admission_rejections"] = state_sum("admission", "admission_rejections")
    m["flow.delay_s"] = state_sum("admission", "admission_delay_time")
    m["driver.late_ms_p99"] = driver.get("late_ms_p99", 0.0)
    m["cpu.driver.util"] = driver["driver_cpu_util"]
    return {name: float(value) for name, value in m.items()}


def explore_layers(spans: list, schedules: int, first_round_events: int,
                   round_size: int, driver_cpu_util: float) -> dict[str, float]:
    """Per-layer metrics of a traced explore run (in-process spans)."""
    grouped = Spans()
    grouped.add("explore", spans)
    self_ms = self_time_ms(spans)
    events = grouped.amount("explorer.run")
    m: dict[str, float] = {name: 0.0 for name, __ in PER_LAYER}
    m["kernel.events_per_schedule"] = _ratio(first_round_events, round_size)
    m["kernel.us_per_event"] = _ratio(self_ms.get("explorer.run", 0.0) * 1e3, events)
    m["explorer.run_ms_per_schedule"] = _ratio(self_ms.get("explorer.run", 0.0), schedules)
    m["explorer.check_ms_per_schedule"] = _ratio(self_ms.get("explorer.check", 0.0), schedules)
    m["explorer.generate_ms_per_schedule"] = _ratio(
        self_ms.get("explorer.generate", 0.0), schedules
    )
    m["cpu.driver.util"] = driver_cpu_util
    return {name: float(value) for name, value in m.items()}

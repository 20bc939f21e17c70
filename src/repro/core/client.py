"""The CooLSM client library.

A :class:`Client` is a simulated application node.  It implements the
paper's client-side protocols:

* **upsert/delete** — sent to an Ingestor (the nearest by default).
* **read** (single Ingestor) — sent to the Ingestor, which owns the
  full read path (memtable, L0, L1, then the right Compactor).
* **read** (multiple Ingestors) — the two-phase protocol of Section
  III-E.2: phase 1 asks a coordinator Ingestor to stamp the read and
  gather every Ingestor's newest visible version plus its ts_c; the
  client then asks the Compactors only if the phase-1 results cannot
  prove freshness (ts_h - min ts_c < 2δ) or nothing was found.
* **read_from_backup / analytics_query** — served by a Reader without
  touching the ingestion path (Sections III-D, IV-E).

Every completed operation is appended to the client's
:class:`~repro.core.history.History` and its latency recorded, feeding
both the consistency checkers and the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.effects import ComputeHost, EffectKernel, Fabric
from repro.lsm.entry import Entry, encode_key, encode_value
from repro.sim.clock import definitely_after
from repro.sim.rpc import RemoteError, RpcNode, RpcTimeout

from .config import CooLSMConfig
from .flow import is_backpressure
from .history import History
from .keyspace import Partitioning
from .messages import (
    Phase1Reply,
    Phase1Request,
    RangeQuery,
    RangeQueryReply,
    ReadReply,
    ReadRequest,
    ShardMapRequest,
    UpsertBatchReply,
    UpsertBatchRequest,
    UpsertReply,
    UpsertRequest,
)
from .shard import ShardMap, is_wrong_shard


@dataclass(slots=True)
class ClientStats:
    """Per-kind operation latencies (true simulation time, seconds)."""

    latencies: dict[str, list[float]] = field(default_factory=dict)
    phase2_reads: int = 0
    timeouts: int = 0
    failovers: int = 0
    shard_redirects: int = 0
    map_refreshes: int = 0
    backpressure_retries: int = 0

    def record(self, kind: str, latency: float) -> None:
        self.latencies.setdefault(kind, []).append(latency)

    def all(self, kind: str) -> list[float]:
        return self.latencies.get(kind, [])


def _unrouted(key) -> None:
    """Owner function without shard routing: one group for every key."""
    return None


class Client(RpcNode):
    """A CooLSM client.

    Operation methods are coroutines — drive them with
    ``yield from client.upsert(...)`` inside a process, or via the
    harness helpers.

    Args:
        kernel/network/machine/name: Simulation plumbing.
        config: Deployment parameters (δ, costs).
        partitioning: Compactor map, needed for phase-2 reads.
        ingestors: Ingestor names this client may talk to; the first is
            its default (nearest) Ingestor and read coordinator.
        readers: Reader names for backup reads and analytics.
        multi_ingestor: Selects the read protocol.
        history: Optional shared history for consistency checking.
    """

    def __init__(
        self,
        kernel: EffectKernel,
        network: Fabric,
        machine: ComputeHost,
        name: str,
        config: CooLSMConfig,
        partitioning: Partitioning,
        ingestors: list[str],
        readers: list[str] | None = None,
        multi_ingestor: bool = False,
        history: History | None = None,
        shard_map: ShardMap | None = None,
    ) -> None:
        super().__init__(kernel, network, machine, name)
        if not ingestors:
            raise ValueError("a client needs at least one Ingestor")
        self.config = config
        self.partitioning = partitioning
        self.ingestors = list(ingestors)
        self.readers = list(readers or [])
        self.multi_ingestor = multi_ingestor
        self.history = history
        # Sharded scale-out mode: route each op to the owner named by
        # the (versioned) shard map instead of failing over blindly.
        # Refreshed in place whenever a node bounces a request with a
        # WrongShard redirect — clients never poll for membership.
        self.shard_map = shard_map
        self.stats = ClientStats()

    # ------------------------------------------------------------------
    # Routing: the one retry loop
    # ------------------------------------------------------------------
    def _target_order(self, preferred: str | None, pool: list[str]) -> list[str]:
        """Preferred target first, then the remaining pool as alternates."""
        first = preferred or (pool[0] if pool else None)
        if first is None:
            raise ValueError("no target available")
        return [first] + [t for t in pool if t != first]

    def _owner(self, explicit: str | None):
        """The owner function that groups a call's keys.

        Under a shard map each key goes to its shard owner, looked up
        afresh on every call because a refresh replaces the map.  With
        no map, or with an explicit target, every key falls in one group
        aimed at the current failover target.
        """
        if self.shard_map is None or explicit is not None:
            return _unrouted
        return lambda key: self.shard_map.owner_of(key)

    def _route(
        self, method: str, build, preferred: str | None, pool=None, keys=None, on_reply=None
    ):
        """Send a call's ops grouped by owner, retrying until every group
        is acked.  Every Ingestor and Reader RPC the client sends goes
        through here, except the two-phase read's.

        ``keys`` (one per op) are grouped by :meth:`_owner`; a key-less
        call (scans, Reader calls) is one unrouted group.  ``pool`` is
        the failover pool (default: the Ingestors).  ``build(group)``
        returns ``(request, size_bytes)`` for the op indices in
        ``group``, and ``on_reply(target, group, reply)`` runs as each
        group is acked.  Returns ``(target, reply)`` of the last group.

        * An unrouted group fails over to the next pool target on a
          timeout (or any other error), so a crashed node surfaces as
          :class:`~repro.sim.rpc.RpcTimeout` instead of a hung driver.
        * An owner-routed group has no alternate target, only a fresher
          map.  WrongShard refreshes the map and regroups the unacked
          ops (after a split one old group straddles two owners),
          backing off while no fresher map exists, as in a split's
          fence → activate window.  A timeout refreshes and backs off.
        * Backpressure retries the *same* target with backoff and its
          own, larger budget: the node is healthy and asking the client
          to slow down, so failing over would defeat flow control.

        Budgets and backoff are per call (for a batch, the whole batch).
        """
        budget = self.config.client_retry_budget
        owner_of = _unrouted if keys is None else self._owner(preferred)
        keys = [None] if keys is None else keys
        order = self._target_order(preferred, self.ingestors if pool is None else pool)
        pending = list(range(len(keys)))
        failures = redirects = bp_retries = 0
        backoff = self.config.forward_backoff_base
        prev_target: str | None = None
        served = None
        while pending:
            owner = owner_of(keys[pending[0]])
            group = [i for i in pending if owner_of(keys[i]) == owner]
            target = owner
            if owner is None:
                target = order[failures % len(order)]
                if prev_target is not None and target != prev_target:
                    self.stats.failovers += 1
                prev_target = target
            request, size_bytes = build(group)
            try:
                reply = yield self.call(
                    target,
                    method,
                    request,
                    size_bytes=size_bytes,
                    timeout=self.config.request_timeout,
                )
            except (RpcTimeout, RemoteError) as error:
                if is_backpressure(error):
                    self.stats.backpressure_retries += 1
                    bp_retries += 1
                    if bp_retries > 8 * budget:
                        raise
                    backoff = yield from self._back_off(backoff)
                    continue
                if owner is not None and is_wrong_shard(error):
                    self.stats.shard_redirects += 1
                    redirects += 1
                    if redirects > 8 * budget:
                        raise
                    refreshed = yield from self._refresh_shard_map()
                    if not refreshed:
                        backoff = yield from self._back_off(backoff)
                    continue
                self.stats.timeouts += 1
                failures += 1
                if failures >= budget:
                    raise
                if owner is not None:
                    yield from self._refresh_shard_map()
                    backoff = yield from self._back_off(backoff)
                continue
            if on_reply is not None:
                on_reply(target, group, reply)
            served = (target, reply)
            acked = set(group)
            pending = [i for i in pending if i not in acked]
        return served

    def _back_off(self, delay: float):
        """Sleep ``delay``; returns the next delay (doubled, capped)."""
        yield self.kernel.timeout(delay)
        return min(delay * 2.0, self.config.forward_backoff_cap)

    def _refresh_shard_map(self):
        """Try to fetch a strictly newer shard map from any live node.

        Asks the current map's owners first (the node that bounced us
        is usually the one holding the successor epoch), then the rest
        of the configured Ingestor pool.  Returns True if a newer map
        was installed.
        """
        assert self.shard_map is not None
        candidates = self.shard_map.owners()
        for name in self.ingestors:
            if name not in candidates:
                candidates.append(name)
        for target in candidates:
            try:
                reply = yield self.call(
                    target,
                    "shard_map",
                    ShardMapRequest(self.shard_map.epoch),
                    timeout=self.config.request_timeout,
                )
            except (RpcTimeout, RemoteError):
                continue
            fresher = reply.shard_map
            if fresher is not None and fresher.epoch > self.shard_map.epoch:
                self.shard_map = fresher
                self.stats.map_refreshes += 1
                return True
        return False

    def _member_read(self, member: str, request: ReadRequest):
        """Phase-2 helper: bounded-retry read against one Compactor.
        Raises after the budget — a missing member's answer could hide
        the newest version, so the read must fail, not degrade."""
        last_error: Exception | None = None
        for __ in range(self.config.client_retry_budget):
            try:
                reply = yield self.call(
                    member, "read", request, timeout=self.config.request_timeout
                )
                return reply
            except (RpcTimeout, RemoteError) as error:
                last_error = error
                self.stats.timeouts += 1
        raise last_error

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def upsert(self, key, value, ingestor: str | None = None):
        """Insert or overwrite ``key``; returns the assigned timestamp."""
        request = UpsertRequest(encode_key(key), encode_value(value))
        return (yield from self._do_upsert(request, ingestor))

    def delete(self, key, ingestor: str | None = None):
        """Delete ``key`` via a tombstone."""
        request = UpsertRequest(encode_key(key), b"", tombstone=True)
        return (yield from self._do_upsert(request, ingestor))

    def _do_upsert(self, request: UpsertRequest, ingestor: str | None):
        invoked = self.kernel.now
        target, reply = yield from self._route(
            "upsert", lambda group: (request, 64 + len(request.value)), ingestor,
            keys=[request.key],
        )
        assert isinstance(reply, UpsertReply)
        self._record_writes([request], [reply], target, invoked)
        return reply

    def upsert_many(self, items, ingestor: str | None = None):
        """Insert or overwrite many keys with ONE batched RPC per owner.

        ``items`` is an iterable of ``(key, value)`` pairs; they are
        applied by the Ingestor in order and each gets its own stamped
        :class:`UpsertReply` (returned as a list, in order).  Under a
        shard map the batch goes out as one RPC per owner, and a
        WrongShard bounce regroups the unacked ops.

        A group whose ack is lost is retried whole, so its ops may be
        applied twice.  That is harmless while no other client writes
        the same keys, but a re-applied upsert can overwrite another
        client's newer write to its key — the same hazard as a retried
        single upsert.  Exactly-once writes (a per-op id the Ingestor
        deduplicates) are the open "Exactly-once writes" item in
        ROADMAP.md.
        """
        requests = tuple(
            UpsertRequest(encode_key(key), encode_value(value))
            for key, value in items
        )
        return (yield from self._do_upsert_batch(requests, ingestor))

    def _do_upsert_batch(self, requests: tuple[UpsertRequest, ...], ingestor: str | None):
        if not requests:
            return []
        invoked = self.kernel.now
        replies: list[UpsertReply | None] = [None] * len(requests)

        def build(group):
            ops = tuple(requests[i] for i in group)
            return UpsertBatchRequest(ops), 64 + sum(32 + len(r.key) + len(r.value) for r in ops)

        def acked(target, group, reply):
            assert isinstance(reply, UpsertBatchReply)
            for index, op_reply in zip(group, reply.replies):
                replies[index] = op_reply
            self._record_writes([requests[i] for i in group], reply.replies, target, invoked)

        yield from self._route(
            "upsert_batch", build, ingestor,
            keys=[request.key for request in requests], on_reply=acked,
        )
        return replies

    def _record_writes(self, requests, replies, server: str, invoked: float) -> None:
        """Record each acked write's latency and history operation."""
        completed = self.kernel.now
        for request, reply in zip(requests, replies):
            self.stats.record("write", completed - invoked)
            if self.history is not None:
                self.history.record(
                    "write",
                    request.key,
                    None if request.tombstone else request.value,
                    invoked,
                    completed,
                    reply.timestamp,
                    client=self.name,
                    server=server,
                )

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read(self, key, coordinator: str | None = None):
        """Point read with the deployment's strongest available path.

        Times out and fails over to an alternate Ingestor (or, for the
        two-phase protocol, an alternate coordinator) when the serving
        node is crashed or unreachable.
        """
        encoded = encode_key(key)
        invoked = self.kernel.now
        if self.multi_ingestor:
            order = self._target_order(coordinator, self.ingestors)
            last_error: Exception | None = None
            entry = stamp = None
            for attempt in range(self.config.client_retry_budget):
                target = order[attempt % len(order)]
                if attempt and target != order[(attempt - 1) % len(order)]:
                    self.stats.failovers += 1
                try:
                    entry, stamp = yield from self._two_phase_read(encoded, target)
                    last_error = None
                    break
                except (RpcTimeout, RemoteError) as error:
                    last_error = error
                    self.stats.timeouts += 1
            if last_error is not None:
                raise last_error
        else:
            # Single Ingestor, or sharded: exactly one Ingestor serves
            # this key, so the single-Ingestor read path applies.
            request = ReadRequest(encoded)
            __, reply = yield from self._route(
                "read", lambda group: (request, 256), coordinator, keys=[encoded]
            )
            entry = reply.entry
            stamp = entry.timestamp if entry is not None else 0.0
        return self._record_read("read", encoded, entry, stamp, invoked)

    def _two_phase_read(self, key: bytes, coordinator: str | None):
        """Section III-E.2's two-phase multi-Ingestor read."""
        target = coordinator or self.ingestors[0]
        phase1 = yield self.call(
            target, "read_phase1", Phase1Request(key),
            timeout=self.config.request_timeout,
        )
        assert isinstance(phase1, Phase1Reply)
        found = [r.entry for r in phase1.results if r.entry is not None]
        # Freshness proof: every record at the Compactors was forwarded by
        # some Ingestor i with timestamp <= that Ingestor's ts_c, so no
        # Compactor record can supersede ts_h iff ts_h - max_i ts_c_i >= 2δ.
        # (The paper says "lowest received ts_c"; the max is the sound
        # bound — see DESIGN.md's deviations section.)
        max_ts_c = max(r.ts_c for r in phase1.results)
        best: Entry | None = max(found, key=lambda e: e.version) if found else None
        skip_phase2 = best is not None and definitely_after(
            best.timestamp, max_ts_c, self.config.delta
        )
        if not skip_phase2:
            self.stats.phase2_reads += 1
            partition = self.partitioning.partition_for(key)
            request = ReadRequest(key, as_of=phase1.read_ts)
            calls = [
                self.kernel.spawn(self._member_read(m, request))
                for m in partition.members
            ]
            replies = yield self.kernel.all_of(calls)
            for reply in replies:
                assert isinstance(reply, ReadReply)
                if reply.entry is not None and (
                    best is None or reply.entry.version > best.version
                ):
                    best = reply.entry
        return best, phase1.read_ts

    def read_from_backup(self, key, reader: str | None = None):
        """Point read served by a Reader (snapshot-linearizable)."""
        if not self.readers and reader is None:
            raise ValueError("deployment has no Readers")
        encoded = encode_key(key)
        invoked = self.kernel.now
        request = ReadRequest(encoded)
        target, reply = yield from self._route(
            "read", lambda group: (request, 256), reader, pool=self.readers
        )
        entry = reply.entry
        stamp = entry.timestamp if entry is not None else 0.0
        return self._record_read("backup_read", encoded, entry, stamp, invoked, target)

    def _record_read(self, kind, key, entry, stamp, invoked, server=""):
        """Record a completed point read; returns its value."""
        self.stats.record(kind, self.kernel.now - invoked)
        value = None if entry is None or entry.tombstone else entry.value
        if self.history is not None:
            self.history.record(
                "read", key, value, invoked, self.kernel.now, stamp,
                client=self.name, server=server,
            )
        return value

    def scan(self, lo, hi, limit: int | None = None, ingestor: str | None = None):
        """Global range scan through the Ingestor: merges the Ingestor's
        levels with every Compactor partition the range touches.

        Fresher than :meth:`analytics_query` (which reads a possibly
        lagging Reader snapshot) but interferes with the ingestion path.
        Returns sorted (key, value) pairs, tombstones elided.
        """
        return (yield from self._range("scan", lo, hi, limit, ingestor, self.ingestors))

    def analytics_query(self, lo, hi, limit: int | None = None, reader: str | None = None):
        """Range query served by a Reader (the paper's analytics task)."""
        if not self.readers and reader is None:
            raise ValueError("deployment has no Readers")
        return (yield from self._range("analytics", lo, hi, limit, reader, self.readers))

    def _range(self, kind: str, lo, hi, limit, target: str | None, pool: list[str]):
        request = RangeQuery(encode_key(lo), encode_key(hi), limit)
        invoked = self.kernel.now
        __, reply = yield from self._route(
            "range_query", lambda group: (request, 64), target, pool=pool
        )
        assert isinstance(reply, RangeQueryReply)
        self.stats.record(kind, self.kernel.now - invoked)
        return list(reply.pairs)


class ClientPipeline:
    """Auto-batching, pipelined write issuer on top of one client.

    Coalesces submitted upserts into :meth:`Client.upsert_many` batches
    of up to ``max_batch`` ops and keeps up to ``depth`` batched RPCs in
    flight at once, so one client saturates the connection instead of
    paying a full round-trip (and, server-side, a full fsync) per op.
    Kernel-agnostic: works under the simulator and the live runtime.

    Use :meth:`put` (a generator — ``yield from pipeline.put(...)``) to
    submit with backpressure: it parks the caller while the window
    (``depth * max_batch`` ops buffered or in flight) is full.  Call
    :meth:`drain` before reading your own writes or exiting — only ops
    acked by then are durable; the first batch failure (after the
    client's own retries and failovers) is re-raised there and by the
    next ``put``.

    Per-op latencies (submit -> batch ack, seconds) accumulate in
    ``latencies`` for the benchmark harness.
    """

    def __init__(
        self,
        client: Client,
        ingestor: str | None = None,
        max_batch: int = 32,
        depth: int = 4,
    ) -> None:
        if max_batch <= 0 or depth <= 0:
            raise ValueError("max_batch and depth must be positive")
        self.client = client
        self.kernel = client.kernel
        self.ingestor = ingestor
        self.max_batch = max_batch
        self.depth = depth
        self.latencies: list[float] = []
        self.ops_acked = 0
        self.batches_sent = 0
        self._buffer: list[tuple[UpsertRequest, float]] = []
        self._inflight_batches = 0
        self._inflight_ops = 0
        self._pump_scheduled = False
        self._waiters: list = []
        self._error: Exception | None = None

    @property
    def pending_ops(self) -> int:
        """Ops submitted but not yet acked (buffered + in flight)."""
        return len(self._buffer) + self._inflight_ops

    def submit(self, key, value) -> None:
        """Queue one upsert without blocking (no window check — callers
        that outrun ``depth * max_batch`` should use :meth:`put`)."""
        self._raise_if_failed()
        request = UpsertRequest(encode_key(key), encode_value(value))
        self._buffer.append((request, self.kernel.now))
        self._dispatch()

    def put(self, key, value):
        """Generator: queue one upsert, parking while the window is full."""
        while self.pending_ops >= self.depth * self.max_batch:
            waiter = self.kernel.event()
            self._waiters.append(waiter)
            yield waiter
        self.submit(key, value)

    def drain(self):
        """Generator: flush the buffer, wait until nothing is in flight,
        and re-raise the first batch failure if there was one."""
        while self._buffer or self._inflight_batches:
            self._dispatch(flush=True)
            if not (self._buffer or self._inflight_batches):
                break
            waiter = self.kernel.event()
            self._waiters.append(waiter)
            yield waiter
        self._raise_if_failed()

    def _raise_if_failed(self) -> None:
        if self._error is not None:
            error, self._error = self._error, None
            raise error

    def _dispatch(self, flush: bool = False) -> None:
        """Launch full batches while slots are free; a partial buffer
        waits one scheduler tick for same-tick submits (or goes out
        immediately when ``flush`` demands it)."""
        while self._inflight_batches < self.depth and (
            len(self._buffer) >= self.max_batch or (flush and self._buffer)
        ):
            batch = self._take_batch()
            self._inflight_batches += 1
            self._inflight_ops += len(batch)
            self.batches_sent += 1
            self.kernel.spawn(
                self._run_batch(batch),
                f"{self.client.name}.pipeline.batch",
            )
        if self._buffer and self._inflight_batches < self.depth and not self._pump_scheduled:
            self._pump_scheduled = True
            self.kernel.spawn(self._pump(), f"{self.client.name}.pipeline.pump")

    def _take_batch(self) -> list[tuple[UpsertRequest, float]]:
        """Pull the next batch off the buffer: up to ``max_batch``
        buffered ops with the first op's owner, keeping the rest, in
        order, for later batches.

        Under shard routing every batch is cut to one owner, so it goes
        out as one RPC (a mixed batch would send its groups one owner
        after another); per-shard pipelining is preserved because each
        shard's ops drain through their own batches while other shards'
        batches are in flight.  Unrouted, every op has the same
        (``None``) owner, so this is the buffer's head.
        """
        owner_of = self.client._owner(self.ingestor)
        buffer = self._buffer
        owner = owner_of(buffer[0][0].key)
        batch: list[tuple[UpsertRequest, float]] = []
        rest: list[tuple[UpsertRequest, float]] = []
        for index, item in enumerate(buffer):
            if owner_of(item[0].key) != owner:
                rest.append(item)
                continue
            batch.append(item)
            if len(batch) == self.max_batch:
                rest.extend(buffer[index + 1:])
                break
        self._buffer = rest
        return batch

    def _pump(self):
        yield self.kernel.timeout(0.0)
        self._pump_scheduled = False
        self._dispatch(flush=True)

    def _run_batch(self, batch):
        requests = tuple(request for request, __ in batch)
        try:
            yield from self.client._do_upsert_batch(requests, self.ingestor)
        except (RpcTimeout, RemoteError, ValueError) as error:
            if self._error is None:
                self._error = error
        else:
            acked = self.kernel.now
            for __, submitted in batch:
                self.latencies.append(acked - submitted)
            self.ops_acked += len(batch)
        finally:
            self._inflight_batches -= 1
            self._inflight_ops -= len(batch)
            self._dispatch()
            waiters, self._waiters = self._waiters, []
            for waiter in waiters:
                waiter.succeed()

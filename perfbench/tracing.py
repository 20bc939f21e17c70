"""Spans recorded from outside the program.

A :class:`Tracer` wraps public entry points of :mod:`repro` (functions,
methods, RPC handlers, ``os`` calls) and records one span per call:
``(name, start, end, parent, amount)``.  Times come from ``time.monotonic``,
which every process on one machine shares, so the driver can cut each
node's spans to the measured window.  Synchronous spans nest through a
stack, so a span's parent is the innermost wrapped call it ran inside;
RPC handler spans are generators that yield to the event loop and get
no parent.  Spans parent only within one process.

Spans stay in memory; :meth:`Tracer.dump` returns them
for the caller to write out at exit.  :meth:`Tracer.restore` puts back
everything the tracer replaced, so a driver process can run an untraced
pass after a traced one.
"""

from __future__ import annotations

import asyncio
import functools
import inspect
import os
import sys
import time

#: Loop-lag probe period, seconds.
PROBE_INTERVAL = 0.01


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        #: (monotonic time, lag seconds) samples of the loop-lag probe.
        self.lags: list[tuple[float, float]] = []
        self.caches: list = []
        self.live_node = None
        self._stack: list[int] = []
        #: (owner, attr, original) of every replaced attribute, in order.
        self._replaced: list[tuple] = []

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def span(self, name: str, fn, amount=None):
        """Wrap a synchronous callable.  ``amount(result, args)``, if
        given, is stored as the span's fifth field (bytes, entries...)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, None)
            if amount is not None:
                self.spans[index] = (name, start, end, parent, amount(result, args))
            return result

        return traced

    def handler_span(self, name: str, handler):
        """Wrap an RPC handler (a generator function) in a span that runs
        from its first step to its return, waits included."""

        def traced(src, payload):
            start = time.monotonic()
            try:
                result = handler(src, payload)
                if inspect.isgenerator(result):
                    result = yield from result
                return result
            finally:
                self.spans.append((name, start, time.monotonic(), -1, None))

        return traced

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value``, remembering the original
        (which ``owner`` must define itself, not inherit)."""
        self._replaced.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Undo every :meth:`replace`, newest first."""
        while self._replaced:
            owner, attr, original = self._replaced.pop()
            setattr(owner, attr, original)

    def patch(self, owner, attr: str, name: str, amount=None) -> None:
        """Replace ``owner.attr`` by its traced version, and every
        ``repro`` module global bound to the same function (modules that
        did ``from x import attr``)."""
        original = getattr(owner, attr)
        traced = self.span(name, original, amount)
        self.replace(owner, attr, traced)
        if inspect.ismodule(owner):
            for module in list(sys.modules.values()):
                if (
                    module is not None
                    and module is not owner
                    and getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, attr, None) is original
                ):
                    self.replace(module, attr, traced)

    # ------------------------------------------------------------------
    # Probe and output
    # ------------------------------------------------------------------
    async def probe_loop(self) -> None:
        """Sample how late the event loop wakes a periodic timer."""
        while True:
            asked = time.monotonic()
            await asyncio.sleep(PROBE_INTERVAL)
            now = time.monotonic()
            self.lags.append((now, max(0.0, now - asked - PROBE_INTERVAL)))

    def dump(self) -> dict:
        """Spans (``None`` for one still open, so parent indices hold)
        and loop-lag samples."""
        return {"spans": list(self.spans), "lags": self.lags}


def install_wire(tracer: Tracer) -> None:
    """Wire codec spans (live runtime calls ``wire.<fn>`` by attribute)."""
    from repro.live import wire

    tracer.patch(
        wire, "encode_envelope_buffer", "wire.encode",
        lambda result, args: len(result),
    )
    tracer.patch(
        wire, "decode_envelope", "wire.decode",
        lambda result, args: len(args[0]),
    )


def install_node(tracer: Tracer) -> None:
    """Wrap every layer entry point a node process crosses.  Call before
    the node is built, so handlers register through the wrapped ``on``."""
    import repro.cli  # noqa: F401 - load every module the node uses
    import repro.live.node as live_node
    import repro.lsm.policy  # noqa: F401
    from repro.lsm import compaction, sstable_io
    from repro.lsm.cache import ReadCache
    from repro.lsm.memtable import Memtable
    from repro.lsm.sortedview import SortedView
    from repro.lsm.wal import WriteAheadLog
    from repro.sim.rpc import RpcNode
    from repro.store.node_store import NodeStore

    original_on = RpcNode.on

    def on(node, method, handler):
        role = node.name.rsplit("-", 1)[0]
        original_on(node, method, tracer.handler_span(f"{role}.{method}", handler))

    tracer.replace(RpcNode, "on", on)

    install_wire(tracer)
    tracer.patch(
        WriteAheadLog, "append_batch", "wal.append",
        lambda result, args: len(args[1]),
    )
    tracer.patch(WriteAheadLog, "truncate", "wal.truncate")
    tracer.patch(NodeStore, "commit", "store.commit")
    tracer.patch(NodeStore, "save_sidecar", "store.sidecar")
    tracer.patch(sstable_io, "write_sstable", "sstable_io.write")
    tracer.patch(
        compaction, "merge_tables", "compaction.merge",
        lambda result, args: result.stats.entries_in,
    )
    tracer.patch(compaction, "major_compaction", "compaction.major")
    tracer.patch(Memtable, "put", "memtable.put")

    build = SortedView.build.__func__
    tracer.replace(SortedView, "build", classmethod(tracer.span("sortedview.build", build)))

    tracer.patch(
        SortedView, "rebuild", "sortedview.rebuild",
        lambda result, args: [result[1], len(result[0].segments)],
    )

    original_cache_init = ReadCache.__init__

    def cache_init(cache, *args, **kwargs):
        original_cache_init(cache, *args, **kwargs)
        tracer.caches.append(cache)

    tracer.replace(ReadCache, "__init__", cache_init)

    for attr in ("fsync", "remove", "unlink", "replace", "rename"):
        tracer.patch(os, attr, f"fs.{attr}")

    original_live_init = live_node.LiveNode.__init__

    def live_init(live, *args, **kwargs):
        original_live_init(live, *args, **kwargs)
        tracer.live_node = live

    tracer.replace(live_node.LiveNode, "__init__", live_init)

    original_serve = live_node.serve

    async def serve(*args, **kwargs):
        probe = asyncio.get_running_loop().create_task(tracer.probe_loop())
        try:
            return await original_serve(*args, **kwargs)
        finally:
            probe.cancel()

    tracer.replace(live_node, "serve", serve)


def node_state(tracer: Tracer) -> dict:
    """Counters the node objects keep themselves, read at exit."""
    state: dict = {"caches": {}}
    for name in ("hits", "misses", "evictions", "bloom_probes", "bloom_negatives"):
        state["caches"][name] = sum(getattr(c.stats, name) for c in tracer.caches)
    live = tracer.live_node
    if live is None:
        return state
    node = live.node
    stats = getattr(node, "stats", None)
    if stats is not None:
        state["node"] = {
            name: getattr(stats, name)
            for name in dir(stats)
            if not name.startswith("_") and isinstance(getattr(stats, name), (int, float))
        }
    admission = getattr(node, "admission", None)
    if admission is not None:
        state["admission"] = admission.gauges()
    transport = live.network.transport.stats
    state["transport"] = {
        name: getattr(transport, name)
        for name in ("frames_sent", "bytes_sent", "write_calls", "frames_coalesced",
                     "queue_high_water")
    }
    return state


def install_explorer(tracer: Tracer) -> None:
    """Spans around the explorer's generate / run / check steps."""
    from repro.verify import explorer

    tracer.patch(explorer, "generate_schedule", "explorer.generate")
    tracer.patch(
        explorer, "run_schedule", "explorer.run",
        lambda result, args: result.events_dispatched,
    )
    tracer.patch(explorer, "_check_outcome", "explorer.check")

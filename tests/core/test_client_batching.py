"""Batched upserts (``upsert_many``) and the pipelined write issuer.

One ``UpsertBatchRequest`` must be externally equivalent to the same
upserts issued back-to-back: per-op stamped replies in order, one
history operation per op, every op readable afterwards.  The
:class:`~repro.core.client.ClientPipeline` layers auto-batching and a
bounded in-flight window on top, with errors surfacing on ``put`` /
``drain`` instead of vanishing into a background process.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.client import ClientPipeline
from repro.lsm.entry import encode_key
from repro.sim.rpc import RemoteError, RpcTimeout

from tests.core.conftest import TINY, tiny_cluster

SNAPPY = replace(TINY, ack_timeout=0.2)


class TestUpsertMany:
    def test_replies_in_order_with_increasing_seqnos(self):
        cluster = tiny_cluster()
        client = cluster.add_client(colocate_with="ingestor-0")

        def driver():
            return (
                yield from client.upsert_many([(k, b"v%d" % k) for k in range(5)])
            )

        replies = cluster.run_process(driver())
        assert len(replies) == 5
        assert [r.seqno for r in replies] == sorted(r.seqno for r in replies)
        assert len(set(r.seqno for r in replies)) == 5

    def test_each_op_recorded_in_history_and_stats(self):
        cluster = tiny_cluster()
        client = cluster.add_client(colocate_with="ingestor-0")

        def driver():
            yield from client.upsert_many([(1, b"a"), (2, b"b"), (3, b"c")])

        cluster.run_process(driver())
        assert len(cluster.history) == 3
        assert all(op.is_write for op in cluster.history.operations)
        assert len(client.stats.all("write")) == 3

    def test_batch_readable_afterwards(self):
        cluster = tiny_cluster()
        client = cluster.add_client(colocate_with="ingestor-0")

        def driver():
            yield from client.upsert_many([(k, b"batched-%d" % k) for k in range(20)])
            got = {}
            for k in range(20):
                got[k] = yield from client.read(k)
            return got

        got = cluster.run_process(driver())
        assert got == {k: b"batched-%d" % k for k in range(20)}

    def test_empty_batch_is_a_no_op(self):
        cluster = tiny_cluster()
        client = cluster.add_client(colocate_with="ingestor-0")

        def driver():
            return (yield from client.upsert_many([]))

        assert cluster.run_process(driver()) == []
        assert len(cluster.history) == 0

    def test_batch_counts_once_on_ingestor(self):
        cluster = tiny_cluster()
        client = cluster.add_client(colocate_with="ingestor-0")

        def driver():
            yield from client.upsert_many([(k, b"x") for k in range(7)])

        cluster.run_process(driver())
        stats = cluster.ingestors[0].stats
        assert stats.upserts == 7
        assert stats.batch_upserts == 1


class TestClientPipeline:
    def test_put_drain_batches_and_acks_everything(self):
        cluster = tiny_cluster()
        client = cluster.add_client(colocate_with="ingestor-0")
        pipeline = ClientPipeline(client, max_batch=8, depth=2)

        def driver():
            for i in range(50):
                yield from pipeline.put(i % 30, b"p-%d" % i)
            yield from pipeline.drain()

        cluster.run_process(driver())
        assert pipeline.ops_acked == 50
        assert pipeline.pending_ops == 0
        assert len(pipeline.latencies) == 50
        assert all(lat >= 0 for lat in pipeline.latencies)
        # Batching actually happened: far fewer RPCs than ops.
        assert pipeline.batches_sent < 50
        assert cluster.ingestors[0].stats.upserts == 50

    def test_window_bounds_outstanding_ops(self):
        cluster = tiny_cluster()
        client = cluster.add_client(colocate_with="ingestor-0")
        pipeline = ClientPipeline(client, max_batch=4, depth=2)
        window = 4 * 2
        peaks = []

        def driver():
            for i in range(40):
                yield from pipeline.put(i, b"w")
                peaks.append(pipeline.pending_ops)
            yield from pipeline.drain()

        cluster.run_process(driver())
        assert max(peaks) <= window
        assert pipeline.ops_acked == 40

    def test_pipelined_writes_readable_after_drain(self):
        cluster = tiny_cluster()
        client = cluster.add_client(colocate_with="ingestor-0")
        pipeline = ClientPipeline(client, max_batch=16, depth=4)

        def driver():
            for i in range(120):
                yield from pipeline.put(i % 60, b"final-%d" % i)
            yield from pipeline.drain()
            got = {}
            for k in range(60):
                got[k] = yield from client.read(k)
            return got

        got = cluster.run_process(driver())
        assert got == {k: b"final-%d" % (60 + k) for k in range(60)}

    def test_failure_surfaces_on_drain(self):
        cluster = tiny_cluster(config=SNAPPY)
        client = cluster.add_client(colocate_with="ingestor-0")
        pipeline = ClientPipeline(client, max_batch=4, depth=1)
        cluster.ingestors[0].crash()

        def driver():
            with pytest.raises((RpcTimeout, RemoteError)):
                yield from pipeline.put(1, b"doomed")
                yield from pipeline.drain()

        cluster.run_process(driver())

    def test_invalid_window_rejected(self):
        cluster = tiny_cluster()
        client = cluster.add_client(colocate_with="ingestor-0")
        with pytest.raises(ValueError):
            ClientPipeline(client, max_batch=0)
        with pytest.raises(ValueError):
            ClientPipeline(client, depth=0)


class TestShardedBatchUnderSplit:
    """``upsert_many`` and :class:`ClientPipeline` under a shard map,
    with an online split (the live runtime's coordinator, run on the sim
    kernel) moving a range that the batch's keys straddle."""

    BOUNDARY = TINY.key_range // 4  # cuts ingestor-0's half

    def _cluster(self):
        return tiny_cluster(num_ingestors=2, sharded=True, spare_ingestors=1)

    def _split(self, cluster):
        from repro.live.membership import split_ingestor_shard

        admin = cluster.add_client(colocate_with="ingestor-0", record_history=False)
        return split_ingestor_shard(
            admin,
            cluster.spec.initial_shard_map(),
            self.BOUNDARY,
            "ingestor-2",
            others=["ingestor-0", "ingestor-1"],
            history=cluster.history,
        )

    def _fenced(self, cluster):
        """Generator: park until the split has fenced the source."""
        while "shard.fence" not in [m.label for m in cluster.history.marks]:
            yield cluster.kernel.timeout(0.001)

    def test_batch_straddling_a_moving_range_completes_in_op_order(self):
        cluster = self._cluster()
        client = cluster.add_client(colocate_with="ingestor-0")
        # Ingestor-1's keys first, then keys on both sides of the split
        # boundary; all unique so each history op names one write.
        keys = [1500, 1501, self.BOUNDARY - 2, self.BOUNDARY + 3,
                self.BOUNDARY - 1, self.BOUNDARY + 7, 1502, 10]
        items = [(key, b"m-%d" % key) for key in keys]
        split = cluster.kernel.spawn(self._split(cluster), "split")

        def driver():
            # Issued inside the fence -> activate window: the moving
            # range bounces until the new owner goes live, so the split
            # completes while this batch is in flight.
            yield from self._fenced(cluster)
            replies = yield from client.upsert_many(items)
            new_map, __ = yield split
            return replies, new_map

        replies, new_map = cluster.run_process(driver())
        assert len(replies) == len(keys)
        assert all(reply is not None for reply in replies)
        # Replies in op order: each op's reply stamp equals the stamp
        # the history recorded for that op's key.
        by_key = {op.key: op for op in cluster.history.operations}
        for key, reply in zip(keys, replies):
            op = by_key[encode_key(key)]
            assert op.timestamp == reply.timestamp
            assert op.value == b"m-%d" % key
            assert op.server == new_map.owner_of(key)
        assert {op.server for op in by_key.values()} == {
            "ingestor-0", "ingestor-1", "ingestor-2"
        }
        assert client.stats.shard_redirects > 0
        assert client.stats.map_refreshes > 0

    def test_every_pipeline_batch_goes_to_one_owner(self):
        cluster = self._cluster()
        client = cluster.add_client(colocate_with="ingestor-0")
        pipeline = ClientPipeline(client, max_batch=4, depth=2)
        batch_owners = []
        take_batch = pipeline._take_batch

        def recording_take_batch():
            batch = take_batch()
            batch_owners.append(
                {client.shard_map.owner_of(request.key) for request, __ in batch}
            )
            return batch

        pipeline._take_batch = recording_take_batch
        split = cluster.kernel.spawn(self._split(cluster), "split")
        # Interleaved owners: consecutive keys alternate between shards.
        keys = [k for i in range(30) for k in (i, 1000 + i, self.BOUNDARY + i)]

        def driver():
            for key in keys:
                yield from pipeline.put(key, b"p-%d" % key)
                yield cluster.kernel.timeout(0.002)
            yield from pipeline.drain()
            yield split

        cluster.run_process(driver())
        assert pipeline.ops_acked == len(keys)
        assert batch_owners and all(len(owners) == 1 for owners in batch_owners)
        assert sum(node.stats.upserts for node in cluster.ingestors) == len(keys)
        assert client.stats.shard_redirects > 0

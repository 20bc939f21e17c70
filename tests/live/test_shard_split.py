"""Online shard split on a real multi-process cluster, under load.

The tentpole scale-out claim, asserted end to end over TCP:

* a sharded cluster (2 active Ingestors + 1 unlaunched spare) serves
  two pipelined writers whose key ranges straddle the split boundary;
* mid-load, the harness spawns the spare process (``add_node``) and the
  membership coordinator runs fence → drain → activate → propagate —
  the *same* generator the sim explorer model-checks;
* **zero acked-write loss** across the handoff;
* the recorded history passes **both** the interval linearizability
  checker and the ``repro.verify`` sequential model;
* a write routed to the deposed owner afterwards is **fenced** with a
  WrongShard redirect (stale-epoch rejection), not silently applied;
* clients discovered the new map via redirects (no out-of-band push);
* shutdown drains every node — including the mid-run Ingestor, which
  the role-based stop waves place in the ingestor wave.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.client import ClientPipeline
from repro.core.config import CooLSMConfig
from repro.core.consistency import check_linearizable
from repro.core.history import History
from repro.core.messages import UpsertRequest
from repro.core.shard import is_wrong_shard
from repro.live.harness import ClientPool, LocalCluster, localhost_spec
from repro.live.membership import split_ingestor_shard
from repro.lsm.entry import encode_key
from repro.sim.rpc import RemoteError, RpcTimeout
from repro.verify.model import check_history_realtime

#: Unique keys per writer in the main tranche (stride-16 over the key
#: space, so both writers cross every shard boundary).
MAIN_OPS = 400
#: Post-split tranche per writer — load that must route via the new map.
TAIL_OPS = 50
SEED = 29


@pytest.fixture(scope="module")
def split_run(tmp_path_factory):
    config = CooLSMConfig().scaled_down(10)  # key_range 10_000
    spec = localhost_spec(
        num_ingestors=2,
        num_compactors=2,
        num_readers=0,
        config=config,
        seed=SEED,
        sharded=True,
        spare_ingestors=1,
    )
    boundary = config.key_range // 4          # splits ingestor-0's half
    moved_key = boundary + config.key_range // 8
    new_owner = spec.spare_ingestor_names[0]  # "ingestor-2"
    work_dir = tmp_path_factory.mktemp("shard-split")
    history = History()
    acked: dict[bytes, bytes] = {}
    readback: dict[bytes, bytes | None] = {}
    split_result: dict = {}

    with LocalCluster(spec, work_dir, data_dir=work_dir / "data") as cluster:
        cluster.wait_ready(timeout=30.0)
        assert new_owner not in cluster.processes  # spare not launched

        async def drive():
            # Set once both writers are in the moving-range loop, which
            # runs until the split is done: the split cannot finish
            # before the load it must overlap has started.
            both_moving = asyncio.Event()
            moving: set[int] = set()
            split_done = asyncio.Event()

            async with ClientPool(spec, num_clients=2, history=history) as pool:

                def writer(client, phase):
                    """Each key written exactly once; recorded as acked
                    only after the pipeline drains clean."""
                    pipe = ClientPipeline(client, max_batch=16, depth=4)
                    staged: dict[bytes, bytes] = {}
                    for index in range(MAIN_OPS):
                        key = (index * 16 + phase) % config.key_range
                        value = b"split-%d-%d" % (phase, index)
                        yield from pipe.put(key, value)
                        staged[encode_key(key)] = value
                    # Keep writing until the split lands, aimed at the
                    # *moving* range so the fence window actually sees
                    # pipelined load bounce, refresh, and re-route.
                    # Keys stay unique: the moved range interleaves by
                    # writer phase, overflowing to a fresh region.
                    # (Residues 2+phase mod 4 — disjoint from the
                    # stride-16 main/tail keys, which are 0/1 mod 4.)
                    moving.add(phase)
                    if len(moving) == 2:
                        both_moving.set()
                    extra = 0
                    while not split_done.is_set():
                        key = boundary + extra * 4 + 2 + phase
                        if key >= 2 * boundary:  # moved range exhausted
                            key = config.key_range + extra * 4 + 2 + phase
                        value = b"during-%d-%d" % (phase, extra)
                        yield from pipe.put(key, value)
                        staged[encode_key(key)] = value
                        extra += 1
                        yield client.kernel.timeout(0.005)
                    # Post-split tranche: routed by the refreshed map.
                    for index in range(TAIL_OPS):
                        key = 2 * config.key_range + index * 16 + phase
                        value = b"after-%d-%d" % (phase, index)
                        yield from pipe.put(key, value)
                        staged[encode_key(key)] = value
                    yield from pipe.drain()
                    acked.update(staged)  # drain clean => all acked
                    return {
                        "ops": MAIN_OPS + extra + TAIL_OPS,
                        "during_split": extra,
                        "redirects": client.stats.shard_redirects,
                        "refreshes": client.stats.map_refreshes,
                    }

                async def run_split():
                    await both_moving.wait()
                    try:
                        await asyncio.to_thread(cluster.add_node, new_owner)
                        admin = pool.backup_client("client-3")
                        new_map, stats = await pool.run(
                            split_ingestor_shard(
                                admin,
                                spec.initial_shard_map(),
                                boundary,
                                new_owner,
                                others=spec.ingestor_names,
                                history=history,
                            ),
                            "split",
                        )
                        return new_map, stats
                    finally:
                        split_done.set()

                (new_map, stats), w0, w1 = await asyncio.gather(
                    run_split(),
                    pool.run(writer(pool.clients[0], 0), "writer-0"),
                    pool.run(writer(pool.clients[1], 1), "writer-1"),
                )
                split_result["map"] = new_map
                split_result["stats"] = stats

                # Stale-epoch fencing: a write routed straight at the
                # deposed owner for a moved key must bounce, not apply.
                probe = pool.backup_client("client-4")

                def stale_write(client):
                    try:
                        yield client.call(
                            "ingestor-0",
                            "upsert",
                            UpsertRequest(encode_key(moved_key), b"stale"),
                            timeout=config.request_timeout,
                        )
                    except (RemoteError, RpcTimeout) as error:
                        return str(error)
                    return None

                split_result["fence_error"] = await pool.run(
                    stale_write(probe), "stale-probe"
                )

                def read_all(client):
                    for key in sorted(acked):
                        readback[key] = yield from client.read(key)
                    return len(readback)

                await pool.run(read_all(pool.clients[0]), "readback")
                return w0, w1

        writers = asyncio.run(asyncio.wait_for(drive(), timeout=240.0))
        exit_codes = cluster.stop(timeout=30.0)
        logs = {
            name: cluster.log_path(name).read_text()
            for name in cluster.processes
        }

    return {
        "spec": spec,
        "boundary": boundary,
        "new_owner": new_owner,
        "writers": writers,
        "acked": acked,
        "readback": readback,
        "history": history,
        "exit_codes": exit_codes,
        "logs": logs,
        **split_result,
    }


class TestLiveShardSplit:
    def test_split_completed_under_load(self, split_run):
        stats = split_run["stats"]
        assert stats.source == "ingestor-0"
        assert stats.new_owner == split_run["new_owner"]
        assert stats.epoch == 2
        assert set(stats.installed_on) == {
            "ingestor-0", "ingestor-1", "ingestor-2"
        }
        new_map = split_run["map"]
        assert new_map.epoch == 2
        assert new_map.owner_of(split_run["boundary"]) == split_run["new_owner"]
        assert new_map.owner_of(split_run["boundary"] - 1) == "ingestor-0"
        # Writers really were mid-flight while the split ran.
        w0, w1 = split_run["writers"]
        assert w0["during_split"] + w1["during_split"] > 0

    def test_zero_acked_write_loss_across_handoff(self, split_run):
        acked, readback = split_run["acked"], split_run["readback"]
        assert len(acked) >= 2 * MAIN_OPS
        lost = {
            key: (expected, readback.get(key))
            for key, expected in acked.items()
            if readback.get(key) != expected
        }
        assert not lost, f"acked writes lost or stale: {lost}"

    def test_history_passes_checker_and_sequential_model(self, split_run):
        history = split_run["history"]
        assert len(history) > 2 * MAIN_OPS
        report = check_linearizable(history)
        assert not report.violations, report.violations[:5]
        model = check_history_realtime(history)
        assert model.ok, model.mismatches[:5]
        assert model.reads_checked > 0

    def test_split_phases_marked_in_history(self, split_run):
        labels = [m.label for m in split_run["history"].marks]
        for label in ("shard.fence", "shard.drain", "shard.activate", "shard.done"):
            assert label in labels, f"missing {label} in {labels}"
        assert labels.index("shard.fence") < labels.index("shard.drain")
        assert labels.index("shard.drain") < labels.index("shard.activate")

    def test_stale_epoch_write_is_fenced(self, split_run):
        error = split_run["fence_error"]
        assert error is not None, "deposed owner accepted a moved-range write"
        assert is_wrong_shard(error), error

    def test_clients_learned_map_via_redirects(self, split_run):
        w0, w1 = split_run["writers"]
        assert w0["redirects"] + w1["redirects"] > 0
        assert w0["refreshes"] + w1["refreshes"] > 0

    def test_mid_run_ingestor_drains_clean(self, split_run):
        exit_codes = split_run["exit_codes"]
        assert exit_codes == {name: 0 for name in exit_codes}, (
            f"non-zero drain exits: {exit_codes}"
        )
        assert split_run["new_owner"] in exit_codes
        log = split_run["logs"][split_run["new_owner"]]
        assert f"READY {split_run['new_owner']}" in log
        assert f"DRAINED {split_run['new_owner']} inflight=0" in log

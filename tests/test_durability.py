"""Durability layer tests: WAL, checkpoints, replication, failover.

Covers the write-ahead log's framing and recovery (including torn
tails and damaged checkpoints), servers that lose their volatile state
on crash, primary/backup write forwarding, client-side read failover,
and the anti-entropy re-sync when a dead node rejoins.
"""

import os

import pytest

from repro.bedrock import BedrockServer, default_hepnos_config
from repro.errors import (
    AddressError,
    ConfigError,
    CorruptionError,
    KeyNotFound,
)
from repro.faults.chaos import failover_client_policy
from repro.hepnos import DataStore
from repro.hepnos.connection import ConnectionInfo, DbTarget
from repro.hepnos.failover import (
    enable_replication,
    kind_of,
    replica_links,
    resync_missing,
)
from repro.hepnos.placement import ShardMap
from repro.mercury import Fabric
from repro.yokan.backend import open_backend
from repro.yokan.backends.memory import MemoryBackend
from repro.yokan.backends.wal import (
    DurableBackend,
    checkpoint_path,
    read_wal_records,
)


@pytest.fixture()
def wal_path(tmp_path):
    return str(tmp_path / "db.wal")


class TestDurableBackend:
    def test_roundtrip_through_wrapper(self, wal_path):
        backend = open_backend("map", wal_path=wal_path)
        assert isinstance(backend, DurableBackend)
        backend.put(b"a", b"1")
        backend.put_multi([(b"b", b"2"), (b"c", b"3")])
        backend.erase(b"b")
        assert backend.get(b"a") == b"1"
        assert backend.get(b"c") == b"3"
        assert not backend.exists(b"b")
        assert backend.stats.wal_records == 3  # put, put_multi, erase
        backend.close()

    def test_crash_replay_recovers_acknowledged_writes(self, wal_path):
        backend = open_backend("map", wal_path=wal_path)
        backend.put(b"k1", b"v1")
        backend.put_multi([(b"k2", b"v2"), (b"k3", b"v3")])
        backend.erase(b"k2")
        backend.crash()  # no flush, no clean close

        recovered = open_backend("map", wal_path=wal_path)
        assert recovered.get(b"k1") == b"v1"
        assert recovered.get(b"k3") == b"v3"
        with pytest.raises(KeyNotFound):
            recovered.get(b"k2")
        assert recovered.stats.replayed_records == 3
        recovered.close()

    def test_checkpoint_truncates_wal_and_restores(self, wal_path):
        backend = open_backend("map", wal_path=wal_path)
        for i in range(10):
            backend.put(b"key-%d" % i, b"val-%d" % i)
        backend.checkpoint()
        assert os.path.getsize(wal_path) == 0
        assert os.path.exists(checkpoint_path(wal_path))
        backend.put(b"tail", b"after-ckpt")
        backend.crash()

        recovered = open_backend("map", wal_path=wal_path)
        assert recovered.stats.checkpoint_loaded
        assert recovered.stats.replayed_records == 1  # just the tail
        assert recovered.get(b"key-7") == b"val-7"
        assert recovered.get(b"tail") == b"after-ckpt"
        recovered.close()

    def test_auto_checkpoint_by_size(self, wal_path):
        backend = open_backend("map", wal_path=wal_path,
                               wal_checkpoint_bytes=256)
        for i in range(20):
            backend.put(b"key-%02d" % i, bytes(64))
        assert backend.stats.checkpoints >= 1
        backend.crash()
        recovered = open_backend("map", wal_path=wal_path)
        for i in range(20):
            assert recovered.get(b"key-%02d" % i) == bytes(64)
        recovered.close()

    def test_torn_tail_is_truncated_not_fatal(self, wal_path):
        """A crash mid-append leaves a half record; replay must stop
        cleanly at the last whole record and trim the torn bytes."""
        backend = open_backend("map", wal_path=wal_path)
        backend.put(b"whole", b"record")
        backend.put(b"torn", b"casualty")
        backend.crash()
        size = os.path.getsize(wal_path)
        with open(wal_path, "r+b") as f:
            f.truncate(size - 3)  # rip the tail mid-record

        recovered = open_backend("map", wal_path=wal_path)
        assert recovered.get(b"whole") == b"record"
        with pytest.raises(KeyNotFound):
            recovered.get(b"torn")
        assert recovered.stats.torn_tail_bytes > 0
        # The torn bytes are physically gone: a second replay is clean.
        payloads, torn = read_wal_records(wal_path)
        assert torn == 0
        assert len(payloads) == 1
        # And appends continue from the trimmed edge.
        recovered.put(b"after", b"torn")
        recovered.crash()
        again = open_backend("map", wal_path=wal_path)
        assert again.get(b"after") == b"torn"
        again.close()

    def test_corrupt_checkpoint_raises(self, wal_path):
        backend = open_backend("map", wal_path=wal_path)
        backend.put(b"a", b"1")
        backend.checkpoint()
        backend.close()
        path = checkpoint_path(wal_path)
        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0xFF
        open(path, "wb").write(bytes(data))
        with pytest.raises(CorruptionError):
            open_backend("map", wal_path=wal_path)

    def test_durable_map_is_the_map_plus_a_log(self, wal_path):
        backend = open_backend("map", wal_path=wal_path, sync_wal=True)
        assert isinstance(backend, MemoryBackend)
        assert backend.sync_wal
        assert not hasattr(backend, "inner")
        backend.put(b"k", b"v")
        assert backend.approximate_bytes == 2
        backend.close()

    def test_erase_of_missing_key_not_logged(self, wal_path):
        backend = open_backend("map", wal_path=wal_path)
        with pytest.raises(KeyNotFound):
            backend.erase(b"ghost")
        assert backend.stats.wal_records == 0
        backend.close()


def _durable_world(tmp_path, replication=None, durable=True):
    fabric = Fabric(threaded=True)
    servers = []
    for i in range(2):
        kwargs = dict(num_providers=2, event_databases=2,
                      product_databases=2, run_databases=1,
                      subrun_databases=1)
        if durable:
            kwargs["durability_root"] = str(tmp_path / f"node{i}")
        if replication is not None:
            kwargs["replication"] = replication
        servers.append(BedrockServer(fabric, default_hepnos_config(
            f"sm://node{i}/hepnos", **kwargs)))
    fabric.runtime.start()
    return fabric, servers


class TestServerStateLoss:
    def test_lose_state_restart_replays_wal(self, tmp_path):
        fabric, servers = _durable_world(tmp_path)
        datastore = DataStore.connect(fabric, servers)
        subrun = datastore.create_dataset("d").create_run(1).create_subrun(2)
        for e in range(10):
            subrun.create_event(e)
        for server in servers:
            server.crash(lose_state=True)
        for server in servers:
            server.restart()
        assert [ev.number for ev in datastore["d"][1][2]] == list(range(10))
        stats = servers[0].durability_stats()
        assert stats["replayed_records"] > 0
        fabric.runtime.shutdown()

    def test_lose_state_without_wal_really_loses(self, tmp_path):
        fabric, servers = _durable_world(tmp_path, durable=False)
        datastore = DataStore.connect(fabric, servers)
        subrun = datastore.create_dataset("d").create_run(1).create_subrun(2)
        for e in range(10):
            subrun.create_event(e)
        before = sum(1 for _ in subrun)
        for server in servers:
            server.crash(lose_state=True)
        for server in servers:
            server.restart()
        after = sum(1 for _ in subrun)
        assert before == 10 and after < before
        fabric.runtime.shutdown()

    @pytest.mark.parametrize("backend, backend_config", [
        pytest.param("lsm", {"memtable_bytes": 512, "compaction_trigger": 2},
                     id="lsm"),
        pytest.param("btree", {}, id="btree"),
    ])
    def test_state_loss_with_persistent_backend(self, tmp_path, backend,
                                                backend_config):
        """Full stack: a server on a persistent backend killed with
        ``lose_state`` recovers every acknowledged write from the
        engine's own files -- there is no outer WAL to replay."""
        fabric = Fabric(threaded=True)
        server = BedrockServer(fabric, default_hepnos_config(
            "sm://state-loss/hepnos", num_providers=1, event_databases=1,
            product_databases=1, run_databases=1, subrun_databases=1,
            backend=backend, storage_root=str(tmp_path / backend),
            backend_config=backend_config))
        fabric.runtime.start()
        datastore = DataStore.connect(fabric, [server])
        dataset = datastore.create_dataset("d")
        run = dataset.create_run(1)
        subrun = run.create_subrun(2)
        for i in range(40):
            subrun.create_event(i).store({"i": i}, label="x")
        server.crash(lose_state=True)
        server.restart()
        got = sorted(datastore["d"][1][2][e].load(dict, label="x")["i"]
                     for e in range(40))
        assert got == list(range(40))
        stats = server.durability_stats()
        assert stats["wal_records"] == stats["replayed_records"] == 0
        if backend == "lsm":
            assert server.storage_stats()  # LSM stats exposed by the server
            assert stats["lsm"]["flushes"] >= 0
        fabric.runtime.shutdown()

    @pytest.mark.parametrize("backend", ["lsm", "btree"])
    def test_durability_root_is_for_the_map_only(self, tmp_path, backend):
        with pytest.raises(ConfigError, match="durability_root"):
            default_hepnos_config(
                "sm://n/hepnos", backend=backend,
                storage_root=str(tmp_path / "data"),
                durability_root=str(tmp_path / "wal"))

    def test_crashed_backend_looks_like_dead_server(self, tmp_path):
        """An in-flight handler racing the crash must surface a
        retryable AddressError, never a clean DatabaseClosed."""
        backend = open_backend("map")
        backend.crash()
        with pytest.raises(AddressError):
            backend.get(b"x")


class TestReplicaPlacement:
    def _connection(self, replication=2):
        targets = {
            kind: [DbTarget(f"sm://node{i}/hepnos", i % 2,
                            f"{kind}-{i}") for i in range(4)]
            for kind in ("datasets", "runs", "subruns", "events", "products")
        }
        return ConnectionInfo(targets, replication=replication)

    def test_backup_prefers_a_different_address(self):
        smap = ShardMap(self._connection())
        for target in smap.connection["events"]:
            backup = smap.backup_for("events", target)
            assert backup is not None
            assert backup != target
            assert backup.address != target.address

    def test_no_backup_without_replication(self):
        smap = ShardMap(self._connection(replication=1))
        target = smap.connection["events"][0]
        assert smap.backup_for("events", target) is None

    def test_replica_group_lists_primary_then_backup(self):
        smap = ShardMap(self._connection())
        group = smap.replica_group("events", b"some-parent-key")
        assert len(group) == 2
        assert group[0] == smap.database_for("events", b"some-parent-key")
        assert group[1] == smap.backup_for("events", group[0])

    def test_replica_links_cover_every_primary(self):
        smap = ShardMap(self._connection())
        links = replica_links(smap)
        for kind in ("datasets", "runs", "subruns", "events", "products"):
            for target in smap.connection[kind]:
                assert target in links
                assert kind_of(target) == kind

    def test_connection_json_round_trips_replication(self):
        connection = self._connection(replication=2)
        rebuilt = ConnectionInfo.from_json(connection.to_json())
        assert rebuilt.replication == 2
        # replication=1 is the default and stays off the wire
        plain = self._connection(replication=1)
        assert "replication" not in plain.to_json()
        assert ConnectionInfo.from_json(plain.to_json()).replication == 1

    def test_connection_json_rejects_bad_replication(self):
        with pytest.raises(ConfigError):
            ConnectionInfo.from_json('{"replication": 0}')


class TestReplicationAndFailover:
    def _replicated_world(self, tmp_path):
        fabric, servers = _durable_world(tmp_path, replication=2,
                                         durable=False)
        connection = enable_replication(servers, replication=2)
        datastore = DataStore.connect(fabric, connection,
                                      retry_policy=failover_client_policy())
        return fabric, servers, datastore

    def _populate(self, datastore, n=20):
        subrun = datastore.create_dataset("r").create_run(1).create_subrun(1)
        for e in range(n):
            subrun.create_event(e).store({"e": e}, label="x")
        return subrun

    def test_writes_are_forwarded_to_backups(self, tmp_path):
        fabric, servers, datastore = self._replicated_world(tmp_path)
        self._populate(datastore)
        drained = datastore.sync_service()
        assert drained > 0
        forwarded = sum(s.durability_stats()["replica_forwarded"]
                        for s in servers)
        assert forwarded > 0
        fabric.runtime.shutdown()

    def test_reads_fail_over_to_backup(self, tmp_path):
        fabric, servers, datastore = self._replicated_world(tmp_path)
        self._populate(datastore)
        datastore.sync_service()
        servers[1].crash(lose_state=True)
        got = sorted(datastore["r"][1][1][e].load(dict, label="x")["e"]
                     for e in range(20))
        assert got == list(range(20))
        assert datastore.metrics.counter(
            "hepnos.failover.activated").value >= 1
        assert datastore.failed_over
        fabric.runtime.shutdown()

    def _root_shard_crashed(self, tmp_path):
        """Dataset "r" stored and replicated, then the server holding
        the root datasets shard crashes; returns a client that has
        never talked to the dead primary."""
        fabric, servers, datastore = self._replicated_world(tmp_path)
        self._populate(datastore)
        datastore.sync_service()
        root = datastore.target_for("datasets", b"")
        next(s for s in servers
             if str(s.address) == root.address).crash(lose_state=True)
        fresh = DataStore.connect(fabric, datastore.connection,
                                  retry_policy=failover_client_policy())
        return fabric, fresh

    def test_create_dataset_fails_over(self, tmp_path):
        fabric, fresh = self._root_shard_crashed(tmp_path)
        created = fresh.create_dataset("r/new")
        assert created.path == "r/new"
        assert fresh.failed_over
        assert fresh.exists_dataset("r/new")
        fabric.runtime.shutdown()

    def test_dataset_listing_fails_over(self, tmp_path):
        fabric, fresh = self._root_shard_crashed(tmp_path)
        assert [ds.path for ds in fresh.datasets()] == ["r"]
        assert fresh.failed_over
        fabric.runtime.shutdown()

    def test_rejoin_resyncs_and_clears_redirects(self, tmp_path):
        fabric, servers, datastore = self._replicated_world(tmp_path)
        self._populate(datastore)
        datastore.sync_service()
        servers[1].crash(lose_state=True)
        # Drive the failover, then write more: the promoted backup
        # takes those writes, and the rejoined primary must learn them.
        subrun = datastore["r"][1][1]
        subrun[0].load(dict, label="x")
        for e in range(20, 25):
            subrun.create_event(e).store({"e": e}, label="x")
        servers[1].restart()
        resynced = datastore.rejoin(str(servers[1].address))
        assert resynced > 0
        assert not datastore.failed_over
        got = sorted(datastore["r"][1][1][e].load(dict, label="x")["e"]
                     for e in range(25))
        assert got == list(range(25))
        fabric.runtime.shutdown()

    def test_resync_missing_ships_only_missing_keys(self):
        fabric = Fabric(threaded=True)
        server = BedrockServer(fabric, default_hepnos_config(
            "sm://solo/hepnos", num_providers=1, event_databases=2,
            product_databases=1, run_databases=1, subrun_databases=1))
        fabric.runtime.start()
        from repro.yokan import YokanClient
        from repro.mercury import Engine

        client = YokanClient(Engine(fabric, "sm://probe/0"))
        src = client.database_handle(server.address, 0, "events-0")
        dst = client.database_handle(server.address, 0, "events-1")
        src.put_multi([(b"k%d" % i, b"v%d" % i) for i in range(10)])
        dst.put(b"k3", b"v3")
        copied = resync_missing(src, dst, page=4)
        assert copied == 9
        assert sorted(dst.iter_keys()) == sorted(b"k%d" % i
                                                 for i in range(10))
        # Second pass: nothing left to ship.
        assert resync_missing(src, dst) == 0
        fabric.runtime.shutdown()


class TestLSMCrashRecovery:
    """Crashes landing inside the LSM engine's background worker.

    The engine's ``_test_hooks`` fire at block boundaries of the file
    the worker is writing, so the crash deterministically lands on a
    half-written SSTable.  Recovery must be byte-identical to the
    acknowledged state: WAL segments are deleted only after the flushed
    table is in the fsynced manifest, and tables the manifest never
    published are discarded as orphans.
    """

    @staticmethod
    def _corpus(n, start=0):
        return {b"key-%05d" % i: (b"v%d-" % i) * 4 for i in range(start,
                                                                  start + n)}

    def test_crash_during_flush_recovers_from_wal(self, tmp_path):
        import threading

        from repro.yokan import LSMBackend

        path = str(tmp_path / "db")
        db = LSMBackend(path, memtable_bytes=1 << 20)
        acked = self._corpus(300)
        for key, value in acked.items():
            db.put(key, value)
        crashed = threading.Event()

        def die_mid_table(block_index):
            if not crashed.is_set():
                crashed.set()
                db._crashed = True  # the worker aborts at the next poll

        db._test_hooks["flush_block"] = die_mid_table
        with db._lock:
            db._seal_memtable_locked()  # hand the memtable to the worker
        assert crashed.wait(10.0)
        db._worker.join(10.0)
        assert not db._worker.is_alive()

        recovered = LSMBackend(path)
        # The flush never reached the manifest: state comes purely from
        # replaying the sealed memtable's WAL segments.
        assert len(recovered._sstables) == 0
        assert dict(recovered.scan()) == acked
        assert not any(f.endswith(".tmp") for f in os.listdir(path))
        recovered.close()

    def test_crash_during_compaction_keeps_input_tables(self, tmp_path):
        import threading

        from repro.yokan import LSMBackend

        path = str(tmp_path / "db")
        db = LSMBackend(path, memtable_bytes=1 << 20, compaction_trigger=2)
        crashed = threading.Event()

        def die_mid_merge(block_index):
            if not crashed.is_set():
                crashed.set()
                db._crashed = True

        acked = self._corpus(120)
        doomed = sorted(acked)[:10]
        for key, value in acked.items():
            db.put(key, value)
        db.flush_memtable()  # table 1: below the trigger, no compaction
        db._test_hooks["compact_block"] = die_mid_merge
        more = self._corpus(120, start=200)
        acked.update(more)
        for key, value in more.items():
            db.put(key, value)
        for key in doomed:  # tombstones must survive the crash too
            db.erase(key)
            del acked[key]
        db.flush_memtable()  # table 2 arms the trigger; the merge dies
        assert crashed.wait(10.0)
        db._worker.join(10.0)
        assert not db._worker.is_alive()

        recovered = LSMBackend(path)
        # The merge output never made the manifest: both input tables
        # survive and the orphan merge product is discarded.
        assert len(recovered._sstables) == 2
        assert dict(recovered.scan()) == acked
        for key in doomed:
            assert not recovered.exists(key)
        recovered.close()

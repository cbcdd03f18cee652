"""Tests for storage rescaling (Pufferscale stand-in)."""

import pytest

from repro.bedrock import BedrockServer, default_hepnos_config
from repro.errors import ConfigError, ShardMapStale
from repro.faults.retry import RETRYABLE_ERRORS
from repro.hepnos import (
    AsyncEngine,
    DataStore,
    Prefetcher,
    PrefetchOptions,
    ProductCacheOptions,
    WriteBatch,
    product_type_name,
    vector_of,
)
from repro.hepnos.keys import event_key
from repro.rescale import (
    LiveRescaler,
    add_server,
    execute_rescale,
    migrate_live,
    plan_rescale,
    remove_server,
)
from repro.serial import serializable


@serializable("rescale.Blob")
class Blob:
    def __init__(self, value=0):
        self.value = value

    def serialize(self, ar):
        self.value = ar.io(self.value)

    def __eq__(self, other):
        return self.value == other.value


def populate(datastore, tag="r", runs=2, subruns=2, events=20):
    ds = datastore.create_dataset(f"rescale/{tag}")
    expected = {}
    with WriteBatch(datastore) as batch:
        for r in range(runs):
            run = ds.create_run(r, batch=batch)
            for s in range(subruns):
                subrun = run.create_subrun(s, batch=batch)
                for e in range(events):
                    event = subrun.create_event(e, batch=batch)
                    value = [Blob(r * 10000 + s * 100 + e)]
                    event.store(value, label="blob", batch=batch)
                    expected[(r, s, e)] = value
    return ds, expected


def verify(datastore, tag, expected):
    ds = datastore[f"rescale/{tag}"]
    seen = {}
    for event in ds.events():
        seen[event.triple()] = event.load(vector_of(Blob), label="blob")
    assert seen == {(r, s, e): v for (r, s, e), v in expected.items()}


def new_server(fabric, index, **kwargs):
    defaults = dict(num_providers=4, event_databases=4, product_databases=4,
                    run_databases=2, subrun_databases=2, dataset_databases=1)
    defaults.update(kwargs)
    return BedrockServer(fabric, default_hepnos_config(
        f"sm://extra{index}/hepnos", **defaults))


class TestConnectionSurgery:
    def test_add_server_extends_targets(self, fabric, service, datastore):
        before = datastore.connection.counts()
        joined = add_server(datastore.connection, new_server(fabric, 0))
        after = joined.counts()
        assert after["events"] == before["events"] + 4
        assert after["products"] == before["products"] + 4

    def test_add_server_duplicate_rejected(self, fabric, service, datastore):
        server = new_server(fabric, 1)
        joined = add_server(datastore.connection, server)
        with pytest.raises(ConfigError, match="already"):
            add_server(joined, server)

    def test_remove_server(self, fabric, service, datastore):
        address = str(service[1].address)
        shrunk = remove_server(datastore.connection, address)
        assert all(t.address != address
                   for kind in ("events", "products")
                   for t in shrunk[kind])

    def test_remove_unknown_address(self, fabric, service, datastore):
        with pytest.raises(ConfigError, match="no databases"):
            remove_server(datastore.connection, "sm://ghost/hepnos")

    def test_remove_last_server_rejected(self, fabric, service, datastore):
        shrunk = remove_server(datastore.connection, str(service[1].address))
        with pytest.raises(ConfigError, match="would leave no"):
            remove_server(shrunk, str(service[0].address))


class TestPlan:
    def test_plan_moves_minority_of_keys(self, fabric, service, datastore):
        _, expected = populate(datastore, "plan")
        joined = add_server(datastore.connection, new_server(fabric, 2))
        plan = plan_rescale(datastore, joined)
        total = plan.keys_to_move + plan.keys_stayed
        assert total > 0
        # Consistent hashing: adding ~1/3 of capacity moves well under
        # half of the keys.
        assert plan.keys_to_move < total * 0.6
        assert plan.keys_to_move > 0

    def test_plan_noop_for_same_connection(self, fabric, service, datastore):
        populate(datastore, "noop")
        plan = plan_rescale(datastore, datastore.connection)
        assert plan.keys_to_move == 0
        assert plan.keys_stayed > 0


class TestExecute:
    def test_grow_preserves_all_data(self, fabric, service, datastore):
        _, expected = populate(datastore, "grow")
        joined = add_server(datastore.connection, new_server(fabric, 3))
        plan = plan_rescale(datastore, joined)
        stats = execute_rescale(datastore, plan)
        assert stats.keys_moved == plan.keys_to_move
        assert stats.bytes_moved > 0
        verify(datastore, "grow", expected)

    def test_grow_then_shrink_roundtrip(self, fabric, service, datastore):
        _, expected = populate(datastore, "cycle")
        server = new_server(fabric, 4)
        joined = add_server(datastore.connection, server)
        execute_rescale(datastore, plan_rescale(datastore, joined))
        verify(datastore, "cycle", expected)
        # Now drain the server back out.
        shrunk = remove_server(datastore.connection, str(server.address))
        execute_rescale(datastore, plan_rescale(datastore, shrunk))
        verify(datastore, "cycle", expected)
        # Nothing left behind on the drained server.
        for provider in server.providers.values():
            for backend in provider.databases.values():
                assert len(backend) == 0

    def test_new_clients_see_rescaled_layout(self, fabric, service, datastore):
        _, expected = populate(datastore, "fresh")
        joined = add_server(datastore.connection, new_server(fabric, 5))
        execute_rescale(datastore, plan_rescale(datastore, joined))
        fresh = DataStore.connect(fabric, joined)
        seen = sum(1 for _ in fresh["rescale/fresh"].events())
        assert seen == len(expected)

    def test_iteration_order_preserved(self, fabric, service, datastore):
        ds, _ = populate(datastore, "order", runs=1, subruns=1, events=30)
        joined = add_server(datastore.connection, new_server(fabric, 6))
        execute_rescale(datastore, plan_rescale(datastore, joined))
        numbers = [e.number for e in datastore["rescale/order"][0][0]]
        assert numbers == list(range(30))

    def test_moved_fraction_reported(self, fabric, service, datastore):
        populate(datastore, "frac")
        joined = add_server(datastore.connection, new_server(fabric, 7))
        stats = execute_rescale(datastore, plan_rescale(datastore, joined))
        assert 0.0 < stats.moved_fraction < 1.0
        assert sum(stats.moves_by_kind.values()) == stats.keys_moved
        assert set(stats.moves_by_kind) <= {
            "datasets", "runs", "subruns", "events", "products"
        }
        assert stats.describe().startswith("moved ")


class TestLiveRescale:
    def test_stale_shard_map_is_retryable(self, datastore):
        assert issubclass(ShardMapStale, RETRYABLE_ERRORS)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise ShardMapStale("epoch moved")
            return "ok"

        assert datastore._with_shard_retry(flaky) == "ok"
        assert calls["n"] == 3

    def test_dual_read_covers_unmoved_keys(self, fabric, service, datastore):
        """After begin() -- before a single key has moved -- every read
        and listing must still succeed via the old-shard fallback."""
        _, expected = populate(datastore, "dual")
        joined = add_server(datastore.connection, new_server(fabric, 8))
        rescaler = LiveRescaler(datastore, joined, batch_size=16)
        epoch0 = datastore.placement.epoch
        rescaler.begin()
        assert datastore.placement.epoch == epoch0 + 1
        assert datastore.placement.migrating
        verify(datastore, "dual", expected)  # nothing moved yet
        while rescaler.step():
            pass
        stats = rescaler.commit()
        assert datastore.placement.epoch == epoch0 + 2
        assert not datastore.placement.migrating
        assert sum(stats.moves_by_kind.values()) == stats.keys_moved
        verify(datastore, "dual", expected)

    def test_grow_under_live_traffic(self, fabric, service, datastore):
        """Interleave ingest and reads with migration steps; both the
        pre-existing and the concurrently written data must survive."""
        ds, expected = populate(datastore, "live")
        joined = add_server(datastore.connection, new_server(fabric, 9))
        run = ds.create_run(77)
        written = {}
        state = {"i": 0}

        def traffic():
            i = state["i"]
            state["i"] += 1
            event = run.create_subrun(i).create_event(0)
            value = [Blob(70000 + i)]
            event.store(value, label="blob")
            written[i] = value
            # Read back something written before the migration began.
            old = ds[0][0][i % 20].load(vector_of(Blob), label="blob")
            assert old == expected[(0, 0, i % 20)]

        stats = LiveRescaler(datastore, joined,
                             batch_size=8).run(step_callback=traffic)
        assert state["i"] > 0
        assert stats.keys_moved > 0
        combined = dict(expected)
        combined.update({(77, i, 0): value for i, value in written.items()})
        verify(datastore, "live", combined)

    def test_write_forwarding_lands_on_new_shard(self, fabric, service,
                                                 datastore):
        """A write issued mid-migration resolves against the new layout:
        after commit (fallback dropped) it must still be readable, and
        its bytes must live on the new placement's target database."""
        ds, _ = populate(datastore, "fwd", runs=1, subruns=1, events=4)
        joined = add_server(datastore.connection, new_server(fabric, 10))
        rescaler = LiveRescaler(datastore, joined, batch_size=16)
        rescaler.begin()
        while rescaler.step():
            pass
        # All planned chunks moved; now write while still in the
        # migration epoch.
        event = ds.create_run(5).create_subrun(6).create_event(7)
        value = [Blob(567)]
        event.store(value, label="blob")
        rescaler.commit()
        assert datastore["rescale/fwd"][5][6][7].load(
            vector_of(Blob), label="blob") == value
        # The product key must physically live on the database the new
        # placement selects (no dangling copy needing the fallback).
        ck = event.key
        target = datastore.placement.product_database_for(ck)
        handle = datastore.handle_for_target(target)
        assert any(k.startswith(ck) for k in handle.list_keys(prefix=ck))

    def test_provider_crash_mid_migration(self, fabric, service, datastore):
        """Crash/restart the joining provider between steps: copy-then-
        erase steps plus the retry policy make the migration survive."""
        _, expected = populate(datastore, "crash")
        server = new_server(fabric, 11)
        joined = add_server(datastore.connection, server)
        rescaler = LiveRescaler(datastore, joined, batch_size=8)
        rescaler.begin()
        assert rescaler.step()  # at least one chunk lands pre-crash
        server.crash()
        server.restart()
        while rescaler.step():
            pass
        stats = rescaler.commit()
        assert stats.keys_moved > 0
        verify(datastore, "crash", expected)

    def test_grow_then_shrink_live_roundtrip(self, fabric, service,
                                             datastore):
        _, expected = populate(datastore, "liveshrink")
        server = new_server(fabric, 12)
        joined = add_server(datastore.connection, server)
        migrate_live(datastore, joined, batch_size=32)
        verify(datastore, "liveshrink", expected)
        shrunk = remove_server(datastore.connection, str(server.address))
        stats = migrate_live(datastore, shrunk, batch_size=32)
        verify(datastore, "liveshrink", expected)
        assert sum(stats.moves_by_kind.values()) == stats.keys_moved
        for provider in server.providers.values():
            for backend in provider.databases.values():
                assert len(backend) == 0

    def test_pipelined_prefetch_reruns_a_stale_page(self, fabric, service):
        """A live rescale that begins inside the lookahead window stales
        the page already in flight; the Prefetcher re-runs that page
        through the blocking load and still yields every event."""
        datastore = DataStore.connect(
            fabric, service,
            product_cache=ProductCacheOptions(enabled=False))
        ds, expected = populate(datastore, "stalepage", runs=1, subruns=1,
                                events=24)
        AsyncEngine(datastore, max_inflight=4)
        # The second spec is never stored, so its slots stay unanswered
        # and a map that moved under the page is detected as stale.
        prefetcher = Prefetcher(
            datastore, options=PrefetchOptions(batch_size=8),
            products=[(vector_of(Blob), "blob"), (Blob, "absent")])
        reruns = []
        blocking = datastore.load_products_packed

        def counting(keys, specs):
            reruns.append(len(keys))
            return blocking(keys, specs)

        datastore.load_products_packed = counting
        rescaler = LiveRescaler(
            datastore, add_server(datastore.connection, new_server(fabric, 15)),
            batch_size=4)
        seen = {}
        for event in prefetcher.events(ds[0][0]):
            if not seen:
                rescaler.begin()  # page 2's load is already on the wire
            seen[event.triple()] = event.load(vector_of(Blob), label="blob")
            assert event.prefetched(Blob, "absent") is None
        assert seen == expected
        assert reruns == [8]  # exactly the staled page re-ran
        while rescaler.step():
            pass
        rescaler.commit()
        datastore.shutdown()

    def test_commit_refuses_with_pending_chunks(self, fabric, service,
                                                datastore):
        populate(datastore, "refuse")
        joined = add_server(datastore.connection, new_server(fabric, 13))
        rescaler = LiveRescaler(datastore, joined, batch_size=4)
        rescaler.begin()
        if rescaler.remaining_keys:
            with pytest.raises(ConfigError, match="still queued"):
                rescaler.commit()
        while rescaler.step():
            pass
        rescaler.commit()


def _values(products):
    """Blob values per slot (``None`` for an absent product)."""
    return [None if p is None else [b.value for b in p] for p in products]


def _columnar_values(block):
    out = []
    for i, status in enumerate(block.present):
        if status is True:
            lo, hi = block.event_rows(i)
            out.append(block.column("value")[lo:hi].tolist())
        elif status == "raw":
            out.append([b.value for b in block.raw[i]])
        else:
            out.append(None)
    return out


_BLOB_SPEC = (product_type_name(vector_of(Blob)), "blob")


def _read_packed_nb(datastore, world):
    return _values(datastore.load_products_packed_nb(
        world["keys"], [(vector_of(Blob), "blob")]).wait()[_BLOB_SPEC])


def _read_packed_nb_engine(datastore, world):
    engine = AsyncEngine(datastore, max_inflight=2)
    try:
        return _read_packed_nb(datastore, world)
    finally:
        engine.drain()


#: every DataStore read entry point, reduced to plain comparable values
READERS = {
    "load_products_packed": lambda ds, w: _values(ds.load_products_packed(
        w["keys"], [(vector_of(Blob), "blob")])[_BLOB_SPEC]),
    "load_products_packed_nb": _read_packed_nb,
    "load_products_packed_nb+engine": _read_packed_nb_engine,
    "load_products_columnar": lambda ds, w: _columnar_values(
        ds.load_products_columnar(w["keys"], vector_of(Blob), ["value"],
                                  label="blob")),
    "load_product": lambda ds, w: [
        [b.value for b in ds.load_product(k, vector_of(Blob), label="blob")]
        for k in w["keys"][:-1]],
    "product_exists": lambda ds, w: [
        ds.product_exists(k, vector_of(Blob), label="blob")
        for k in w["keys"]],
    "container_exists": lambda ds, w: [
        ds.container_exists("events", k[:-8], k) for k in w["keys"]],
    "list_child_keys": lambda ds, w: [
        list(ds.list_child_keys(kind, parent))
        for kind, parent in w["parents"]],
    "child_datasets": lambda ds, w: [
        [d.path for d in ds.child_datasets(p)] for p in w["datasets"]],
}


class TestMidMigrationParity:
    """Every read entry point returns the pre-migration answer while a
    live rescale is part-way: some groups already moved to the new
    shards, the rest still on the old ones."""

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_partial_migration_matches_baseline(self, fabric, service,
                                                reader):
        # No client cache: every read must reach the router.
        datastore = DataStore.connect(
            fabric, service,
            product_cache=ProductCacheOptions(enabled=False))
        ds, expected = populate(datastore, "parity")
        subrun = ds[0][0]
        # Dataset directories under many parents, so some of them move.
        nested = [f"rescale/parity/d{i}" for i in range(8)]
        for path in nested:
            datastore.create_dataset(f"{path}/leaf")
        # The last key names an event that was never stored, so batch
        # loads and existence checks also cover a genuine miss.
        keys = sorted(event.key for event in ds.events())
        keys.append(event_key(subrun.key, 999))
        world = {
            "keys": keys,
            "datasets": ["", "rescale", "rescale/parity"] + nested,
            # Groups early in the move order (run 0) and late (run 1).
            "parents": [("runs", ds.uuid)] + [
                (kind, container.key)
                for run in (ds[0], ds[1])
                for kind, container in (("subruns", run),
                                        ("events", run[1]))],
        }
        read = READERS[reader]
        baseline = read(datastore, world)
        if reader == "load_products_packed":
            assert sorted(v for v in baseline if v is not None) == sorted(
                [b.value for b in v] for v in expected.values())
        rescaler = LiveRescaler(
            datastore, add_server(datastore.connection, new_server(fabric, 14)),
            batch_size=4)
        rescaler.begin()
        assert read(datastore, world) == baseline  # nothing moved yet
        total = rescaler.remaining_keys
        while rescaler.remaining_keys > total // 2:
            rescaler.step()
        assert 0 < rescaler.remaining_keys < total
        assert read(datastore, world) == baseline
        while rescaler.step():
            pass
        rescaler.commit()
        assert read(datastore, world) == baseline

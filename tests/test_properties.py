"""Cross-cutting property-based tests (hypothesis).

Each property targets an invariant that unit tests only spot-check:
LSM crash recovery at arbitrary torn-write points, collective results
matching a sequential reference, dragonfly route well-formedness, and
end-to-end product round-trips through the RPC stack.
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.minimpi import SUM, mpirun
from repro.sim import Simulator
from repro.sim.network import DragonflyConfig, DragonflyNetwork
from repro.yokan import LSMBackend
from repro.yokan.backends.wal import decode_record, read_wal_records


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    ops=st.lists(
        st.tuples(st.sampled_from([b"a", b"b", b"c"])
                  | st.binary(min_size=1, max_size=4),
                  st.one_of(st.none(), st.binary(max_size=16))),
        min_size=1, max_size=30,
    ),
    cut_fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_lsm_torn_wal_recovers_prefix(tmp_path_factory, ops, cut_fraction):
    """Truncating the WAL at ANY byte yields a valid prefix state:
    reopening never crashes, and surviving entries form a prefix of the
    write sequence.  A ``None`` value erases the key (when present), so
    segments hold ``D`` records too, and the segment decodes through the
    shared WAL record codec to exactly the acknowledged mutations."""
    tmp = tmp_path_factory.mktemp("lsm-torn")
    path = str(tmp / "db")
    db = LSMBackend(path, memtable_bytes=1 << 30)  # keep all in WAL
    model_states = [dict()]
    model = {}
    mutations = []
    for key, value in ops:
        if value is None:
            if key not in model:
                continue
            db.erase(key)
            del model[key]
        else:
            db.put(key, value)
            model[key] = value
        mutations.append((key, value))
        model_states.append(dict(model))
    db.flush()
    wal_path = db.active_wal_path
    db._wal.close()  # simulate a crash without close-time flushing

    payloads, torn = read_wal_records(wal_path)
    assert torn == 0
    assert [m for p in payloads for m in decode_record(p)] == mutations

    size = os.path.getsize(wal_path)
    cut = int(size * cut_fraction)
    with open(wal_path, "r+b") as f:
        f.truncate(cut)

    recovered = LSMBackend(path)
    state = dict(recovered.scan())
    recovered.close()
    assert state in model_states, "recovered state is not a write prefix"


@settings(max_examples=10, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=5),
    values=st.lists(st.integers(min_value=-100, max_value=100),
                    min_size=5, max_size=5),
)
def test_collectives_match_reference(size, values):
    values = values[:size]

    def body(comm):
        mine = values[comm.rank]
        total = comm.allreduce(mine, op=SUM)
        gathered = comm.gather(mine, root=0)
        biggest = comm.allreduce(mine, op=max)
        return (total, gathered, biggest)

    results = mpirun(body, size, timeout=30.0)
    for rank, (total, gathered, biggest) in enumerate(results):
        assert total == sum(values)
        assert biggest == max(values)
        if rank == 0:
            assert gathered == values
        else:
            assert gathered is None


@settings(max_examples=25, deadline=None)
@given(
    groups=st.integers(min_value=2, max_value=5),
    routers=st.integers(min_value=1, max_value=4),
    nodes_per=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_dragonfly_routes_well_formed(groups, routers, nodes_per, data):
    """Any route: starts with injection, ends with ejection, uses only
    existing links, crosses at most 2 global links, never repeats a
    link."""
    sim = Simulator()
    config = DragonflyConfig(groups=groups, routers_per_group=routers,
                             nodes_per_router=nodes_per)
    network = DragonflyNetwork(sim, config)
    n = config.total_nodes
    src = data.draw(st.integers(min_value=0, max_value=n - 1))
    dst = data.draw(st.integers(min_value=0, max_value=n - 1))
    via = None
    if groups > 2 and data.draw(st.booleans()):
        candidates = [
            g for g in range(groups)
            if g not in (network.node_router(src)[0],
                         network.node_router(dst)[0])
        ]
        if candidates:
            via = data.draw(st.sampled_from(candidates))
    path = network.route(src, dst, via_group=via)
    if src == dst:
        assert path == []
        return
    assert path[0] == ("inj", src)
    assert path[-1] == ("eje", dst)
    assert len(path) == len(set(path)), "route repeats a link"
    assert sum(1 for k in path if k[0] == "glb") <= 2
    for key in path:
        assert key in network._links


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),    # run
            st.integers(min_value=0, max_value=3),    # subrun
            st.integers(min_value=0, max_value=50),   # event
            st.floats(min_value=-1e6, max_value=1e6,
                      allow_nan=False),               # payload
        ),
        min_size=1, max_size=20, unique_by=lambda t: t[:3],
    )
)
def test_hepnos_roundtrip_property(hepnos_world, entries):
    """Arbitrary (run, subrun, event) structures round-trip through the
    full RPC stack with exact values and sorted iteration."""
    datastore, counter = hepnos_world
    counter["n"] += 1
    ds = datastore.create_dataset(f"prop/case-{counter['n']}")
    for run, subrun, event, payload in entries:
        ev = ds.create_run(run).create_subrun(subrun).create_event(event)
        ev.store({"value": payload}, label="p", type_name="prop.Payload")
    seen = {}
    for event_obj in ds.events():
        seen[event_obj.triple()] = event_obj.load("prop.Payload",
                                                  label="p")["value"]
    expected = {(r, s, e): p for r, s, e, p in entries}
    assert seen == expected
    triples = list(seen)
    assert triples == sorted(triples)


@pytest.fixture(scope="module")
def hepnos_world():
    from repro.bedrock import BedrockServer, default_hepnos_config
    from repro.hepnos import DataStore
    from repro.mercury import Fabric

    fabric = Fabric()
    server = BedrockServer(fabric, default_hepnos_config(
        "sm://prop/hepnos", num_providers=2, event_databases=2,
        product_databases=2, run_databases=1, subrun_databases=1,
    ))
    datastore = DataStore.connect(fabric, [server])
    return datastore, {"n": 0}

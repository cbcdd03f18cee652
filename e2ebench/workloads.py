"""The three NOvA workloads, their deployment, and their correctness oracles.

Every workload drives the paper's pipeline through the public API:
``repro.hepnos.connect(servers=..., tenant=...)`` against two Bedrock
servers with two Yokan providers each and the broker's ``tenants``
block on.  The load is a closed loop (MPI ranks wait on replies), so
each pass reports work done per second at a fixed input size.

- ``ingest``: ``HEPnOSWorkflow.ingest`` from one rank into an LSM
  deployment, pass after pass, each pass under a new dataset path.
- ``select_event``: per-event PEP selection (packed loads, compiled
  decode, the Python CAFAna cut) with two ranks on the same LSM layout.
- ``select_columnar``: the same selection with ``columnar_loads=True``
  on the in-memory ``map`` backend.
"""

from __future__ import annotations

import os
import random
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

import repro.hepnos as hepnos
from repro.bedrock import BedrockServer, default_hepnos_config
from repro.hepnos import DataStore, PEPOptions, WriteBatch, vector_of
from repro.mercury import Fabric
from repro.nova import GeneratorConfig, generate_file_set, nue_candidate_cut
from repro.nova.files import read_nova_file
from repro.serial import registered_type
from repro.workflows import HEPnOSWorkflow

#: Input size: 8 files, lognormal sizes around 1,400 events (10,211
#: events with the fixed file-size seed below), about 4.1 slices each.
NUM_FILES = 8
MEAN_EVENTS_PER_FILE = 1400
FILE_SIZE_SEED = 7

SERVERS = 2
PROVIDERS_PER_SERVER = 2
#: LSM memtable per database.  Each ingest pass writes ~1.8 MB into each
#: of the four product databases, so memtables flush several times per
#: pass and size-tiered compaction runs every pass or two.
MEMTABLE_BYTES = 512 * 1024
TENANT = "nova-bench"
#: Broker on with an open registry whose quotas never bind.
TENANTS_BLOCK = {"slots": 8, "interactive_reserve": 2}

#: The paper's PEP settings.
INPUT_BATCH = 16384
DISPATCH_BATCH = 64
SELECT_RANKS = 2
#: Nominal seconds of one ingest pass; the pass count of a run is
#: ``--seconds`` divided by it, so both commits of a comparison ingest
#: the same number of passes whatever their speed.
INGEST_PASS_S = 2.5
#: Per-pass watchdog: a pass that runs longer fails the run.
PASS_DEADLINE_S = 45.0
#: Events read back (seeded sample) after every ingest pass.
READBACK_EVENTS = 64

WORKLOADS = ("ingest", "select_event", "select_columnar")


class SetupError(RuntimeError):
    """The deployment was asked for something that would corrupt it."""


class PassTimeout(RuntimeError):
    """A pass overran its deadline."""


def run_with_deadline(fn: Callable, deadline_s: float, what: str):
    """Run ``fn()`` on a helper thread; raise :class:`PassTimeout` if it
    has not returned within ``deadline_s``.

    The simulated MPI ranks block on ``recv(timeout=None)`` when a peer
    dies, so without a deadline a failed pass stalls until ``mpirun``'s
    own 600 s timeout.  The stuck thread is a daemon: the caller reports
    and exits the process, which ends it.
    """
    box: dict = {}

    def body():
        try:
            box["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box["error"] = exc

    thread = threading.Thread(target=body, name=f"bench-{what}", daemon=True)
    thread.start()
    thread.join(deadline_s)
    if thread.is_alive():
        raise PassTimeout(f"{what} exceeded its {deadline_s:.0f}s deadline")
    if "error" in box:
        raise box["error"]
    return box["value"]


# -- inputs ---------------------------------------------------------------------


@dataclass
class Inputs:
    """The generated file set plus everything the oracles need."""

    paths: list
    events: int
    slices: int
    #: accepted slice IDs: the nue cut applied directly to the files
    expected_ids: frozenset
    #: (run, subrun, event) -> the file's slice rows of that event
    rows_by_event: dict


def make_inputs(directory: str, seed: int, num_files: int = NUM_FILES,
                mean_events: int = MEAN_EVENTS_PER_FILE) -> Inputs:
    """Generate the file set for ``seed`` and derive the oracles."""
    summary = generate_file_set(directory, num_files=num_files,
                                mean_events_per_file=mean_events,
                                config=GeneratorConfig(seed=seed),
                                seed=FILE_SIZE_SEED)
    expected: set = set()
    rows_by_event: dict = {}
    for path in summary.paths:
        table = read_nova_file(path)
        mask = nue_candidate_cut.mask(table)
        expected.update(int(x) for x in table["slice_id"][mask])
        triples = np.stack([table["run"], table["subrun"], table["evt"]], 1)
        for row, triple in enumerate(map(tuple, triples.tolist())):
            rows_by_event.setdefault(triple, []).append((path, row))
    return Inputs(paths=list(summary.paths), events=summary.total_events,
                  slices=summary.total_slices,
                  expected_ids=frozenset(expected),
                  rows_by_event=rows_by_event)


# -- deployment -----------------------------------------------------------------


def check_storage_roots(roots: list) -> None:
    """Refuse servers that would share (or nest) a storage root.

    Two servers given one root open the same ``products-0/`` directory
    and overwrite each other's SSTables.
    """
    resolved = [os.path.realpath(r) for r in roots]
    for i, a in enumerate(resolved):
        for j in range(i + 1, len(resolved)):
            b = resolved[j]
            if os.path.commonpath([a, b]) in (a, b):
                raise SetupError(
                    f"servers {i} and {j} share storage root {roots[i]!r} / "
                    f"{roots[j]!r}: their databases would overwrite each "
                    f"other")


class Deployment:
    """Two Bedrock servers on one threaded fabric, and one tenant session."""

    def __init__(self, backend: str, storage_roots: Optional[list] = None):
        self.backend = backend
        self.storage_roots = list(storage_roots or [])
        configs = []
        for i in range(SERVERS):
            kwargs = {}
            if backend == "lsm":
                kwargs = {"storage_root": self.storage_roots[i],
                          "backend_config": {"memtable_bytes": MEMTABLE_BYTES}}
            configs.append(default_hepnos_config(
                f"sm://node{i}/hepnos", num_providers=PROVIDERS_PER_SERVER,
                event_databases=PROVIDERS_PER_SERVER,
                product_databases=PROVIDERS_PER_SERVER,
                run_databases=1, subrun_databases=1, backend=backend,
                tenants=TENANTS_BLOCK, **kwargs))
        if backend == "lsm":
            check_storage_roots(self.storage_roots)
        self.fabric = Fabric(threaded=True)
        self.servers = [BedrockServer(self.fabric, c) for c in configs]
        self.fabric.runtime.start()
        self.session = hepnos.connect(servers=self.servers, tenant=TENANT)

    @property
    def datastore(self) -> DataStore:
        return self.session.datastore

    def backends(self) -> list:
        """Every database backend of every provider of every server."""
        return [backend
                for server in self.servers
                for provider in server.providers.values()
                for backend in provider.databases.values()]

    def lsm_backends(self) -> list:
        return [b for b in self.backends() if callable(getattr(b, "lsm_stats", None))]

    def drain(self) -> None:
        """Wait until background flush/compaction work is done."""
        for backend in self.lsm_backends():
            backend.drain()

    def user_bytes(self) -> int:
        """Key+value bytes users have written and the service holds."""
        if self.backend == "lsm":
            return sum(b.stats.logical_bytes for b in self.lsm_backends())
        return sum(b.approximate_bytes for b in self.backends())

    def stored_bytes_per_user_byte(self) -> float:
        """Bytes the service holds over the key+value bytes users wrote.

        LSM: on-disk bytes under the storage roots (tables, WAL,
        manifests) after a drain.  Map: the Python ``bytes`` objects
        holding each key and value, their headers included.
        """
        if self.backend == "lsm":
            self.drain()
            stored = 0
            for root in self.storage_roots:
                for dirpath, _dirs, files in os.walk(root):
                    stored += sum(os.path.getsize(os.path.join(dirpath, f))
                                  for f in files)
        else:
            stored = sum(sys.getsizeof(key) + sys.getsizeof(value)
                         for backend in self.backends()
                         for key, value in backend.scan())
        return stored / self.user_bytes()

    def close(self) -> None:
        self.session.close()
        for server in self.servers:
            server.shutdown()
        self.fabric.runtime.shutdown()


# -- passes -----------------------------------------------------------------------


@dataclass
class PassResult:
    """One timed pass: work, wall time, client-visible batch latencies."""

    slices: int
    events: int
    seconds: float
    batch_latencies: list = field(default_factory=list)
    #: operations (slices) of this pass that were wrong or missing
    failed: int = 0
    failure: str = ""
    pep_stats: list = field(default_factory=list)
    output: object = None


def slices_per_s(workload: str, results: list) -> float:
    """The paper's metric over a run's passes.

    Selection passes repeat the same work: the median pass.  Ingest
    passes grow the store, each slower than the last: the aggregate.
    """
    if workload == "ingest":
        return (sum(r.slices for r in results)
                / sum(r.seconds for r in results))
    return statistics.median(r.slices / r.seconds for r in results)


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile of ``values`` (0 < q <= 100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class LatencyProbe:
    """Times client-visible batch calls (always on; two clock reads each)."""

    def __init__(self):
        self.samples: list = []
        self._restore: list = []

    def wrap(self, owner, attr: str, when: Optional[Callable] = None) -> None:
        """Time every call of ``owner.attr`` (a class or an instance);
        ``when(*args)`` picks the calls that count."""
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        samples = self.samples

        def timed(*args, **kwargs):
            if when is not None and not when(*args):
                return original(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                samples.append(time.perf_counter() - t0)

        self._restore.append((owner, attr, original))
        setattr(owner, attr, timed)

    def take(self) -> list:
        out = list(self.samples)
        self.samples.clear()
        return out

    def remove(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, type):
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._restore.clear()


class Workload:
    """Base: a deployment, its setup, and repeatable timed passes."""

    backend = "lsm"

    def __init__(self, inputs: Inputs, workdir: str, seed: int):
        self.inputs = inputs
        self.workdir = workdir
        self.seed = seed
        self.deployment: Optional[Deployment] = None
        self.latency = LatencyProbe()
        self._setups = 0
        #: the cut each pass applies (the ledger swaps in a traced one)
        self.cut = nue_candidate_cut

    def _new_deployment(self) -> Deployment:
        self._setups += 1
        roots = None
        if self.backend == "lsm":
            base = os.path.join(self.workdir, f"deploy-{self._setups}")
            roots = [os.path.join(base, f"server{i}") for i in range(SERVERS)]
        return Deployment(self.backend, roots)

    def setup(self) -> None:
        """Deploy, ingest what the passes read, warm up (timed by caller)."""
        raise NotImplementedError

    def teardown(self) -> None:
        if self.deployment is not None:
            self.latency.remove()
            self.deployment.close()
            self.deployment = None

    def run_pass(self, index: int) -> PassResult:
        """One timed pass; ``output`` keeps what :meth:`verify` checks."""
        raise NotImplementedError

    def verify(self, index: int, result: PassResult) -> None:
        """Check a pass against the oracle; set ``failed``/``failure``."""
        raise NotImplementedError


class IngestWorkload(Workload):
    """Write path: repeated ingest passes into one LSM deployment."""

    readback_events = READBACK_EVENTS

    def setup(self) -> None:
        self.deployment = self._new_deployment()
        # The fixed pre-fill: one pass, also the warm-up.
        workflow = HEPnOSWorkflow(self.deployment.datastore, "nova/prefill")
        workflow.ingest(self.inputs.paths, num_ranks=1)
        self.deployment.drain()
        # Only flushes that send something: closing a batch right after
        # a threshold flush is a no-op call.
        self.latency.wrap(WriteBatch, "flush", when=lambda batch: batch.pending)

    def run_pass(self, index: int) -> PassResult:
        workflow = HEPnOSWorkflow(self.deployment.datastore,
                                  f"nova/pass-{index}")
        self.latency.take()
        t0 = time.perf_counter()
        stats = workflow.ingest(self.inputs.paths, num_ranks=1)
        seconds = time.perf_counter() - t0
        return PassResult(slices=self.inputs.slices,
                          events=stats.events_created, seconds=seconds,
                          batch_latencies=self.latency.take(), output=stats)

    def verify(self, index: int, result: PassResult) -> None:
        stats = result.output
        problems = []
        if stats.events_created != self.inputs.events:
            problems.append(f"{stats.events_created} events created, "
                            f"expected {self.inputs.events}")
        if stats.products_stored != 2 * self.inputs.events:
            problems.append(f"{stats.products_stored} products stored, "
                            f"expected {2 * self.inputs.events}")
        problems += readback_mismatches(
            self.deployment.datastore, f"nova/pass-{index}", self.inputs,
            random.Random(self.seed * 1009 + index), self.readback_events)
        if problems:
            result.failed = result.slices
            result.failure = "; ".join(problems[:3])


def readback_mismatches(datastore, path: str, inputs: Inputs,
                        rng: random.Random, sample: int) -> list:
    """Load a seeded sample of stored ``rec.slc`` products and compare
    every field with the file rows they were ingested from."""
    slc = registered_type("rec.slc")
    triples = sorted(inputs.rows_by_event)
    if sample < len(triples):
        triples = rng.sample(triples, sample)
    dataset = datastore[path]
    tables: dict = {}
    problems = []
    for triple in triples:
        run, subrun, event = triple
        stored = dataset[run][subrun][event].load(vector_of(slc))
        rows = inputs.rows_by_event[triple]
        if len(stored) != len(rows):
            problems.append(f"event {triple}: {len(stored)} slices stored, "
                            f"{len(rows)} in the file")
            continue
        for obj, (fpath, row) in zip(stored, rows):
            table = tables.get(fpath)
            if table is None:
                table = tables[fpath] = read_nova_file(fpath)
            for name, value in vars(obj).items():
                if value != table[name][row].item():
                    problems.append(f"event {triple} slice {row}: {name}="
                                    f"{value!r}, file has "
                                    f"{table[name][row].item()!r}")
                    break
    return problems


class SelectWorkload(Workload):
    """Read path: the candidate selection over one ingested dataset."""

    columnar = False
    dataset_path = "nova/selection"

    def setup(self) -> None:
        self.deployment = self._new_deployment()
        HEPnOSWorkflow(self.deployment.datastore, self.dataset_path).ingest(
            self.inputs.paths, num_ranks=1)
        self.deployment.drain()
        datastore = self.deployment.datastore
        attr = ("load_products_columnar" if self.columnar
                else "load_products_packed")
        self.latency.wrap(datastore, attr)
        warm = self.run_pass(-1)
        self.verify(-1, warm)
        if warm.failed:
            raise RuntimeError(f"warm-up pass failed: {warm.failure}")

    def workflow(self) -> HEPnOSWorkflow:
        return HEPnOSWorkflow(
            self.deployment.datastore, self.dataset_path, cut=self.cut,
            pep_options=PEPOptions(input_batch_size=INPUT_BATCH,
                                   dispatch_batch_size=DISPATCH_BATCH,
                                   columnar_loads=self.columnar))

    def run_pass(self, index: int) -> PassResult:
        self.latency.take()
        selected = self.workflow().select(num_ranks=SELECT_RANKS)
        return PassResult(slices=selected.slices_examined,
                          events=selected.events_processed,
                          seconds=selected.wall_seconds,
                          batch_latencies=self.latency.take(),
                          pep_stats=selected.pep_stats, output=selected)

    def verify(self, index: int, result: PassResult) -> None:
        selected = result.output
        problems = []
        if selected.slices_examined != self.inputs.slices:
            problems.append(f"{selected.slices_examined} slices examined, "
                            f"expected {self.inputs.slices}")
        wrong = selected.accepted_ids ^ self.inputs.expected_ids
        if wrong:
            problems.append(
                f"{len(wrong)} slice IDs differ from the cut applied to the "
                f"files (e.g. {sorted(wrong)[:3]})")
        if problems:
            result.failed = max(len(wrong), abs(self.inputs.slices -
                                                selected.slices_examined), 1)
            result.failure = "; ".join(problems)


class SelectColumnarWorkload(SelectWorkload):
    """Columnar selection on the in-memory backend."""

    columnar = True
    backend = "map"


def make_workload(name: str, inputs: Inputs, workdir: str,
                  seed: int) -> Workload:
    cls = {"ingest": IngestWorkload, "select_event": SelectWorkload,
           "select_columnar": SelectColumnarWorkload}[name]
    return cls(inputs, workdir, seed)

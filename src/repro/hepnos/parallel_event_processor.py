"""ParallelEventProcessor: load-balanced parallel event iteration.

The PEP (paper section II-D) lets a group of MPI ranks iterate the
events of a dataset cooperatively:

- a subset of ranks become **readers** (typically as many readers as
  event databases).  Each reader owns a disjoint set of event databases
  and streams their events in *input batches* (default 16384 events --
  few RPCs, large transfers), prefetching requested products with one
  packed load per batch;
- readers chop input batches into *dispatch batches* (default 64
  events -- fine-grained load balancing) and serve them to worker ranks
  on demand through a pull protocol;
- every event is delivered exactly once; workers invoke the
  user-supplied callable on each event.

With one rank (or ``comm=None``) the PEP degrades to sequential
prefetched iteration, which is also the mode ingest validation uses.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

from repro.errors import HEPnOSError, ProductNotFound
from repro.faults.retry import RETRYABLE_ERRORS
from repro.hepnos import keys as hkeys
from repro.hepnos.column_block import EventBatch
from repro.hepnos.connection import DbTarget
from repro.hepnos.options import PEPOptions, check_columnar, resolve_options
from repro.hepnos.product import product_type_name
from repro.monitor import tracing as _tracing

_TAG_REQUEST = 101
_TAG_REPLY = 102


@dataclass
class PEPStatistics:
    """Per-rank accounting for one PEP run."""

    rank: int = 0
    role: str = "worker"
    events_processed: int = 0
    batches_received: int = 0
    events_loaded: int = 0
    load_seconds: float = 0.0
    processing_seconds: float = 0.0
    waiting_seconds: float = 0.0
    total_seconds: float = 0.0
    #: reader only: events served per worker rank
    served: dict = field(default_factory=dict)
    #: batch loads re-attempted after a transient failure
    load_retries: int = 0
    #: batch loads that exhausted their retry budget
    load_failures: int = 0
    #: subruns abandoned under ``on_load_failure="skip"``
    subruns_skipped: int = 0
    #: product-load latency hidden behind processing (async pipeline)
    overlap_seconds: float = 0.0
    #: time blocked on in-flight product loads at consumption
    prefetch_wait_seconds: float = 0.0

    @staticmethod
    def aggregate(stats_list: "list[PEPStatistics]") -> dict:
        """Summarize a run's per-rank statistics (the offline analysis
        of the per-rank timestamp files the paper describes)."""
        workers = [s for s in stats_list if s.role in ("worker", "sequential")]
        readers = [s for s in stats_list if s.role == "reader"]
        events = [w.events_processed for w in workers]
        mean_events = sum(events) / len(events) if events else 0.0
        return {
            "ranks": len(stats_list),
            "readers": len(readers),
            "workers": len(workers),
            "events_processed": sum(events),
            "events_loaded": sum(r.events_loaded for r in readers),
            "worker_imbalance": (
                max(events) / mean_events if mean_events else 1.0
            ),
            "total_seconds": max(
                (s.total_seconds for s in stats_list), default=0.0
            ),
            "processing_seconds": sum(w.processing_seconds for w in workers),
            "waiting_seconds": sum(w.waiting_seconds for w in workers),
            "load_retries": sum(s.load_retries for s in stats_list),
            "load_failures": sum(s.load_failures for s in stats_list),
            "subruns_skipped": sum(s.subruns_skipped for s in stats_list),
            "overlap_seconds": sum(s.overlap_seconds for s in stats_list),
            "prefetch_wait_seconds": sum(
                s.prefetch_wait_seconds for s in stats_list
            ),
        }


class _EventStub:
    """A shipped event: identity plus prefetched products.

    Presented to the user callable; ``load`` first serves prefetched
    products and falls back to the datastore otherwise.
    """

    __slots__ = ("datastore", "key", "_triple", "_products")

    def __init__(self, datastore, key: bytes, triple: Tuple[int, int, int],
                 products: dict):
        self.datastore = datastore
        self.key = key
        self._triple = triple
        self._products = products

    @property
    def number(self) -> int:
        return self._triple[2]

    @property
    def run_number(self) -> int:
        return self._triple[0]

    @property
    def subrun_number(self) -> int:
        return self._triple[1]

    def triple(self) -> Tuple[int, int, int]:
        return self._triple

    def load(self, product_type, label: str = ""):
        spec = (product_type_name(product_type), label)
        if spec in self._products:
            value = self._products[spec]
            if value is None:
                raise ProductNotFound(
                    f"no product label={label!r} type={spec[0]!r} "
                    f"in event {self._triple}"
                )
            return value
        return self.datastore.load_product(self.key, product_type, label=label)

    def store(self, obj, label: str = "", type_name=None, batch=None):
        """Store a product on this event (same API as :class:`Event`).

        Lets analysis callables write derived products back without
        touching raw container keys.
        """
        return self.datastore.store_product(self.key, obj, label=label,
                                            type_name=type_name, batch=batch)


class ParallelEventProcessor:
    """Parallel, load-balanced ``for each event`` over a dataset."""

    def __init__(self, datastore, comm=None, *,
                 options: Optional[PEPOptions] = None,
                 products: Sequence[Tuple[object, str]] = (),
                 columns: Optional[Sequence[str]] = None,
                 async_engine=None, **legacy):
        options = resolve_options(options, legacy, PEPOptions,
                                  "ParallelEventProcessor")
        self.options = options
        self.datastore = datastore
        self.comm = comm
        self.input_batch_size = options.input_batch_size
        # A dispatch batch never exceeds one input batch.
        self.dispatch_batch_size = min(options.dispatch_batch_size,
                                       options.input_batch_size)
        self.products = [
            (product_type_name(ptype), label) for ptype, label in products
        ]
        self.num_readers = options.num_readers
        self.queue_depth = options.queue_depth
        #: how many requests a worker keeps in flight (to distinct
        #: readers); > 1 overlaps processing with the next fetch
        self.worker_pipeline = options.worker_pipeline
        #: re-attempts per batch load on top of the client-level retry
        #: policy (which already masks individual RPC failures)
        self.load_retries = options.load_retries
        #: what to do when a batch load exhausts its retries: ``raise``
        #: fails the run; ``skip`` abandons the rest of that subrun,
        #: counts it in :attr:`PEPStatistics.subruns_skipped`, and keeps
        #: going (graceful degradation).
        self.on_load_failure = options.on_load_failure
        #: fields to project in columnar mode (``process_batches`` with
        #: ``options.columnar_loads``); ``None`` otherwise
        self.columns = list(columns) if columns is not None else None
        check_columnar(options, self.products, self.columns)
        self._batch_mode = False
        self._async_engine = async_engine

    @property
    def async_engine(self):
        """The engine pipelining batch loads, if one is available."""
        if self._async_engine is not None:
            return self._async_engine
        return getattr(self.datastore, "async_engine", None)

    # -- public API --------------------------------------------------------

    def process(self, dataset, fn: Callable) -> PEPStatistics:
        """Invoke ``fn(event)`` for every event of ``dataset``.

        Collective over the communicator: every rank must call it.
        Returns this rank's statistics.
        """
        start = time.monotonic()
        if self.comm is None or self.comm.size == 1:
            stats = self._process_sequential(dataset, fn)
        else:
            stats = self._process_parallel(dataset, fn)
        stats.total_seconds = time.monotonic() - start
        return stats

    def process_batches(self, dataset, fn: Callable) -> PEPStatistics:
        """Invoke ``fn`` once per dispatched *batch* instead of per event.

        With ``options.columnar_loads`` each batch is an
        :class:`~repro.hepnos.column_block.EventBatch` whose projected
        columns were fetched server-side (one ``scan_columns`` per
        database); otherwise ``fn`` receives the plain stub lists.
        Collective over the communicator, like :meth:`process`.
        """
        start = time.monotonic()
        self._batch_mode = True
        try:
            if self.comm is None or self.comm.size == 1:
                stats = self._process_sequential(dataset, fn)
            else:
                stats = self._process_parallel(dataset, fn)
        finally:
            self._batch_mode = False
        stats.total_seconds = time.monotonic() - start
        return stats

    # -- sequential fallback ------------------------------------------------

    def _process_sequential(self, dataset, fn: Callable) -> PEPStatistics:
        stats = PEPStatistics(rank=0, role="sequential")
        for batch in self._load_batches(self._all_subruns(dataset), stats):
            t0 = time.monotonic()
            self._process_events(batch, fn, stats)
            stats.processing_seconds += time.monotonic() - t0
        return stats

    def _process_events(self, batch, fn: Callable,
                        stats: PEPStatistics) -> None:
        """Apply ``fn`` to every stub of one dispatch/input batch.

        Per-event spans only exist while a tracer is installed; the
        disabled path adds a single module-attribute read per batch.
        """
        if self._batch_mode:
            # Batch dispatch: one call covers the whole chunk (the
            # vectorized analysis path -- fn sees an EventBatch or a
            # stub list, never individual events).
            if _tracing.enabled:
                with _tracing.span("pep.process_batch", events=len(batch),
                                   columnar=isinstance(batch, EventBatch)):
                    fn(batch)
            else:
                fn(batch)
            stats.events_processed += len(batch)
            return
        if _tracing.enabled:
            with _tracing.span("pep.process_batch", events=len(batch)):
                for stub in batch:
                    with _tracing.span("pep.event", run=stub.run_number,
                                       subrun=stub.subrun_number,
                                       event=stub.number):
                        fn(stub)
                    stats.events_processed += 1
            return
        for stub in batch:
            fn(stub)
            stats.events_processed += 1

    # -- shared loading machinery ----------------------------------------------

    def _all_subruns(self, dataset):
        return [subrun for run in dataset for subrun in run]

    def _subruns_by_event_db(self, dataset) -> dict[DbTarget, list]:
        """Group the dataset's subruns by the event database holding
        their events (placement hashes the subrun key)."""
        groups: dict[DbTarget, list] = {}
        for subrun in self._all_subruns(dataset):
            target = self.datastore.target_for("events", subrun.key)
            groups.setdefault(target, []).append(subrun)
        return groups

    def _load_batches(self, subruns, stats: Optional[PEPStatistics] = None):
        """Yield lists of :class:`_EventStub` of up to input_batch_size.

        One ``list_keys`` page + one packed product load per batch: the
        few-RPCs/large-payload pattern from the paper.

        Each batch load gets a bounded retry budget on top of the
        client's own retry policy; exhausting it either fails the run
        or (``on_load_failure="skip"``) abandons the remainder of the
        subrun and moves on, with the skip recorded in ``stats``.

        With an :class:`~repro.hepnos.AsyncEngine` available (and
        products to prefetch), loading pipelines instead: batch N+1's
        product loads are in flight while batch N is consumed.
        """
        if (self.async_engine is not None and self.products
                and not self._columnar):
            # Columnar loads already fan out non-blocking inside one
            # load_products_columnar call; the packed pipeline would
            # refetch whole events, defeating projection.
            yield from self._load_batches_pipelined(subruns, stats)
            return

        def load(subrun, cursor):
            # Listing a page and prefetching its products are both
            # idempotent, so a retry re-runs the whole load.
            page = self._list_events(subrun, cursor)
            return page, self._materialize(subrun, page) if page else []

        for _subrun, _page, batch in self._pages(subruns, load, stats):
            yield batch

    def _pages(self, subruns, load, stats: Optional[PEPStatistics],
               poisoned=()):
        """Walk each subrun's key pages: ``load(subrun, cursor)`` returns
        ``(page, payload)`` under the retry budget; yields
        ``(subrun, page, payload)`` per non-empty page."""
        for subrun in subruns:
            cursor = b""
            while id(subrun) not in poisoned:
                try:
                    page, payload = self._retrying(
                        lambda: load(subrun, cursor), stats)
                except RETRYABLE_ERRORS:
                    self._give_up(stats)
                    break  # abandon the remainder of this subrun
                if not page:
                    break
                cursor = page[-1]
                yield subrun, page, payload
                if len(page) < self.input_batch_size:
                    break

    def _retrying(self, fn, stats: Optional[PEPStatistics]):
        """Run ``fn`` under the batch-load retry budget.

        Every failed attempt counts in ``load_retries``; once more than
        ``self.load_retries`` attempts failed, the failure counts in
        ``load_failures`` and propagates.
        """
        attempts = 0
        while True:
            try:
                return fn()
            except RETRYABLE_ERRORS:
                attempts += 1
                if stats is not None:
                    stats.load_retries += 1
                if attempts > self.load_retries:
                    if stats is not None:
                        stats.load_failures += 1
                    raise

    def _give_up(self, stats: Optional[PEPStatistics]) -> None:
        """A batch load exhausted its budget (call inside ``except``):
        re-raise, or under ``on_load_failure="skip"`` count the skipped
        subrun."""
        if self.on_load_failure != "skip":
            raise
        if stats is not None:
            stats.subruns_skipped += 1

    def _list_events(self, subrun, cursor: bytes) -> list[bytes]:
        with _tracing.span("pep.list_events",
                           limit=self.input_batch_size) as sp:
            page = list(self.datastore.list_child_keys(
                "events", subrun.key, start_after=cursor,
                limit=self.input_batch_size,
            ))
            sp.set_tag("events", len(page))
        return page

    @property
    def _columnar(self) -> bool:
        return self._batch_mode and self.options.columnar_loads

    def _materialize(self, subrun, event_keys: list[bytes]):
        prefetched: dict[tuple[str, str], list] = {}
        with _tracing.span("pep.materialize", events=len(event_keys),
                           products=len(self.products)):
            if self._columnar:
                tname, label = self.products[0]
                block = self.datastore.load_products_columnar(
                    event_keys, tname, self.columns, label=label)
                # Stubs carry no prefetched objects: a columnar batch's
                # consumers read the arrays; anything else (raw
                # fallback aside) loads per event on demand.
                stubs = self._stubs_from(subrun, event_keys, {})
                return EventBatch(stubs, block)
            if self.products:
                # One packed prefix-scan RPC per database covers every
                # event and every product spec at once.
                prefetched = self.datastore.load_products_packed(
                    event_keys, self.products
                )
        return self._stubs_from(subrun, event_keys, prefetched)

    def _stubs_from(self, subrun, event_keys: list[bytes],
                    prefetched: dict) -> list[_EventStub]:
        run_number = subrun.run.number
        subrun_number = subrun.number
        stubs = []
        for i, key in enumerate(event_keys):
            products = {spec: prefetched[spec][i] for spec in prefetched}
            stubs.append(_EventStub(
                self.datastore, key,
                (run_number, subrun_number, hkeys.child_number(key)),
                products,
            ))
        return stubs

    # -- pipelined loading (AsyncEngine) -----------------------------------

    def _load_batches_pipelined(self, subruns,
                                stats: Optional[PEPStatistics] = None):
        """Double-buffered batch loading over the AsyncEngine.

        Key pages list synchronously (cheap), but each page's products
        are issued as one non-blocking packed load the moment the page
        is known -- so while batch N's stubs are being processed, batch
        N+1's products are already on the wire.  Failure semantics
        match the synchronous path: a page whose async retirement gives
        up re-runs through the blocking packed load under the
        ``load_retries`` budget, and ``on_load_failure="skip"`` abandons
        the rest of the subrun (in-flight pages of a poisoned subrun
        are discarded).
        """
        window: deque = deque()
        poisoned: set[int] = set()

        def issue(subrun, cursor):
            page = self._list_events(subrun, cursor)
            return page, (self.datastore.load_products_packed_nb(
                page, self.products) if page else None)

        for item in self._pages(subruns, issue, stats, poisoned):
            window.append(item)
            if len(window) > 1:
                batch = self._finish_pipelined(*window.popleft(),
                                               stats, poisoned)
                if batch is not None:
                    yield batch
        while window:
            batch = self._finish_pipelined(*window.popleft(), stats, poisoned)
            if batch is not None:
                yield batch

    def _finish_pipelined(self, subrun, page, group,
                          stats: Optional[PEPStatistics],
                          poisoned: set) -> Optional[list]:
        if id(subrun) in poisoned:
            return None
        wait_start = time.monotonic()
        overlap = group.overlap_seconds(wait_start)
        try:
            with _tracing.span("pep.pipeline.finish", events=len(page)) as sp:
                prefetched = group.wait()
                sp.set_tag("overlap_seconds", round(overlap, 6))
        except RETRYABLE_ERRORS:
            # Async retirement gave up; re-run this page through the
            # blocking packed load before declaring failure.
            if stats is not None:
                stats.load_retries += 1
            try:
                return self._retrying(
                    lambda: self._materialize(subrun, page), stats)
            except RETRYABLE_ERRORS:
                self._give_up(stats)
                poisoned.add(id(subrun))
                return None
        if stats is not None:
            stats.overlap_seconds += overlap
            stats.prefetch_wait_seconds += time.monotonic() - wait_start
        return self._stubs_from(subrun, page, prefetched)

    # -- parallel mode ---------------------------------------------------------

    def _roles(self, dataset):
        """Decide reader ranks and the per-reader subrun assignment."""
        groups = self._subruns_by_event_db(dataset)
        size = self.comm.size
        if self.num_readers:
            wanted = self.num_readers
        else:
            # Paper default: one reader per event database -- but never
            # starve the workers when the rank count is small.
            wanted = min(len(groups), max(1, size // 4))
        num_readers = max(1, min(wanted, size - 1, max(len(groups), 1)))
        # Deterministic assignment: sort db groups, round-robin to readers.
        assignments: list[list] = [[] for _ in range(num_readers)]
        for i, target in enumerate(sorted(groups)):
            assignments[i % num_readers].extend(groups[target])
        return num_readers, assignments

    def _process_parallel(self, dataset, fn: Callable) -> PEPStatistics:
        comm = self.comm
        num_readers, assignments = self._roles(dataset)
        rank = comm.rank
        try:
            if rank < num_readers:
                stats = self._run_reader(assignments[rank],
                                         num_workers=comm.size - num_readers)
            else:
                stats = self._run_worker(fn, readers=list(range(num_readers)))
        except BaseException as exc:
            # Fail fast: peers blocked in recv (a reader waiting for
            # requests, workers waiting for batches) raise at once
            # instead of waiting for this rank in the exit barrier.
            comm.abort(exc)
            raise
        comm.barrier()
        stats.rank = rank
        return stats

    def _run_reader(self, subruns, num_workers: int) -> PEPStatistics:
        stats = PEPStatistics(role="reader")
        comm = self.comm
        queue: deque = deque()
        lock = threading.Lock()
        ready = threading.Condition(lock)
        state = {"done": False, "error": None, "stop": False}
        max_queued = max(
            1, self.queue_depth * self.input_batch_size // self.dispatch_batch_size
        )

        def loader() -> None:
            try:
                iterator = self._load_batches(subruns, stats)
                while True:
                    t0 = time.monotonic()
                    batch = next(iterator, None)
                    stats.load_seconds += time.monotonic() - t0
                    if batch is None:
                        break
                    stats.events_loaded += len(batch)
                    for i in range(0, len(batch), self.dispatch_batch_size):
                        chunk = batch[i : i + self.dispatch_batch_size]
                        with ready:
                            while (len(queue) >= max_queued
                                   and not state["stop"]):
                                ready.wait()
                            if state["stop"]:
                                return
                            queue.append(chunk)
                            ready.notify_all()
            except BaseException as exc:  # noqa: BLE001 - re-raised by the reader
                state["error"] = exc
            finally:
                with ready:
                    state["done"] = True
                    ready.notify_all()

        thread = threading.Thread(target=loader, daemon=True,
                                  name=f"pep-loader-{comm.rank}")
        thread.start()

        dones_sent = 0
        try:
            while dones_sent < num_workers:
                _payload, worker, _ = comm.recv_with_status(
                    tag=_TAG_REQUEST, timeout=None)
                with ready:
                    while not queue and not state["done"]:
                        ready.wait()
                    chunk = queue.popleft() if queue else None
                    ready.notify_all()
                if state["error"] is not None:
                    # The caller aborts the communicator, so workers
                    # waiting on this reader fail at once.
                    raise HEPnOSError(
                        f"PEP reader failed: {state['error']!r}"
                    ) from state["error"]
                if chunk is None:
                    comm.send(("done", None), dest=worker, tag=_TAG_REPLY)
                    dones_sent += 1
                else:
                    comm.send(("batch", chunk), dest=worker, tag=_TAG_REPLY)
                    stats.served[worker] = (stats.served.get(worker, 0)
                                            + len(chunk))
        finally:
            # On failure the loader may be parked on a full queue.
            with ready:
                state["stop"] = True
                ready.notify_all()
            thread.join()
        return stats

    def _run_worker(self, fn: Callable,
                    readers: list[int]) -> PEPStatistics:
        stats = PEPStatistics(role="worker")
        comm = self.comm
        active = set(readers)
        outstanding: set[int] = set()
        rr = comm.rank % max(len(readers), 1)
        order = readers[rr:] + readers[:rr]  # stagger first contacts
        depth = self.worker_pipeline

        def top_up() -> None:
            """Keep up to ``depth`` requests in flight, one per reader."""
            for reader in order:
                if len(outstanding) >= depth:
                    return
                if reader in active and reader not in outstanding:
                    comm.send(None, dest=reader, tag=_TAG_REQUEST)
                    outstanding.add(reader)

        top_up()
        while outstanding:
            t0 = time.monotonic()
            (kind, payload), src, _ = comm.recv_with_status(
                tag=_TAG_REPLY, timeout=None
            )
            stats.waiting_seconds += time.monotonic() - t0
            outstanding.discard(src)
            if kind == "done":
                active.discard(src)
            else:
                # Request the next batch BEFORE processing this one so
                # the fetch overlaps the compute (pipeline > 1 also
                # spreads the in-flight requests over readers).
                top_up()
                stats.batches_received += 1
                t1 = time.monotonic()
                self._process_events(payload, fn, stats)
                stats.processing_seconds += time.monotonic() - t1
            top_up()
        return stats

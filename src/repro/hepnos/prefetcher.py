"""Prefetcher: pipelined iteration over containers and their products.

Plain container iteration issues one ``list_keys`` page at a time and
one ``get`` per product.  The Prefetcher fetches key pages ahead of
consumption and gang-loads requested products with one packed load per
page, the access pattern the ParallelEventProcessor's readers rely on
(paper section II-D).

With an :class:`~repro.hepnos.AsyncEngine` attached to the datastore
(or passed explicitly) the Prefetcher double-buffers: page N+1's
packed load is issued non-blocking while page N's events are being
consumed, so the store's latency hides behind the analysis compute.
The realized overlap is accumulated in
:attr:`Prefetcher.overlap_seconds` and traced as
``hepnos.prefetch.overlap`` spans.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Iterator, Optional, Sequence, Tuple

from repro.faults.retry import RETRYABLE_ERRORS
from repro.hepnos import keys as hkeys
from repro.hepnos.containers import Event, SubRun
from repro.hepnos.options import (PrefetchOptions, check_columnar,
                                  resolve_options)
from repro.hepnos.product import product_type_name
from repro.monitor import tracing as _tracing


class Prefetcher:
    """Iterate a subrun's events with products loaded in batches.

    ``products`` lists (type, label) pairs to prefetch for every event;
    access them through the yielded :class:`PrefetchedEvent`.  Tuning
    lives in ``options`` (:class:`~repro.hepnos.PrefetchOptions`); the
    legacy ``batch_size`` keyword still works but warns.
    """

    def __init__(self, datastore, *,
                 options: Optional[PrefetchOptions] = None,
                 products: Sequence[Tuple[object, str]] = (),
                 columns: Optional[Sequence[str]] = None,
                 async_engine=None, **legacy):
        self.options = resolve_options(options, legacy, PrefetchOptions,
                                       "Prefetcher")
        self.datastore = datastore
        self.batch_size = self.options.batch_size
        self.products = [
            (product_type_name(ptype), label) for ptype, label in products
        ]
        #: fields to project server-side with ``options.columnar_loads``
        self.columns = list(columns) if columns is not None else None
        check_columnar(self.options, self.products, self.columns)
        self._async_engine = async_engine
        #: seconds of product-load latency hidden behind consumption
        #: (double-buffered mode only)
        self.overlap_seconds = 0.0
        #: seconds spent blocked on product loads at consumption time
        self.wait_seconds = 0.0
        #: key pages whose loads were issued ahead of consumption
        self.pages_prefetched = 0

    @property
    def async_engine(self):
        """The engine pipelining this prefetcher's loads, if any."""
        if self._async_engine is not None:
            return self._async_engine
        return getattr(self.datastore, "async_engine", None)

    def events(self, subrun: SubRun) -> Iterator["PrefetchedEvent"]:
        """Events of ``subrun`` in order, with products pre-loaded."""
        if self.options.columnar_loads:
            # Columnar pages fan out non-blocking inside the datastore
            # already; the packed pipeline would refetch whole events,
            # defeating the projection.
            for page in self._key_pages(subrun):
                yield from self._materialize_columnar(subrun, page)
            return
        engine = self.async_engine
        if engine is None or not self.products or self.options.lookahead == 0:
            for page in self._key_pages(subrun):
                yield from self._materialize(subrun, page)
            return
        yield from self._events_pipelined(subrun)

    def _key_pages(self, subrun: SubRun) -> Iterator[list]:
        cursor = b""
        while True:
            page = list(self.datastore.list_child_keys(
                "events", subrun.key, start_after=cursor,
                limit=self.batch_size,
            ))
            if not page:
                return
            cursor = page[-1]
            yield page
            if len(page) < self.batch_size:
                return

    # -- synchronous path --------------------------------------------------

    def _materialize(self, subrun: SubRun,
                     event_keys: list[bytes]) -> Iterator["PrefetchedEvent"]:
        products: dict[tuple[str, str], list] = {}
        with _tracing.span("hepnos.prefetch.page", events=len(event_keys),
                           products=len(self.products)):
            if self.products:
                # One packed prefix-scan RPC per database covers every
                # event and every product spec at once.
                products = self.datastore.load_products_packed(
                    event_keys, self.products
                )
        yield from self._emit(subrun, event_keys, products)

    def _materialize_columnar(self, subrun: SubRun, event_keys: list[bytes]
                              ) -> Iterator["PrefetchedEvent"]:
        """One ``scan_columns`` projection per page.

        Projected events expose their columns through
        :meth:`PrefetchedEvent.columns`; events the server could not
        project carry the row-wise objects instead, and ``load`` of
        anything unprojected falls back to a per-event RPC.
        """
        tname, label = self.products[0]
        spec = (tname, label)
        with _tracing.span("hepnos.prefetch.columnar_page",
                           events=len(event_keys),
                           fields=len(self.columns)):
            block = self.datastore.load_products_columnar(
                event_keys, tname, self.columns, label=label)
        for i, key in enumerate(event_keys):
            event = Event(self.datastore, subrun, hkeys.child_number(key), key)
            status = block.present[i]
            if status is True:
                lo, hi = block.event_rows(i)
                cols = {f: block.arrays[f][lo:hi] for f in block.fields}
                yield PrefetchedEvent(event, {}, cols)
            elif status == "raw":
                yield PrefetchedEvent(event, {spec: block.raw[i]}, None)
            else:
                yield PrefetchedEvent(event, {spec: None}, None)

    # -- double-buffered path ----------------------------------------------

    def _events_pipelined(self, subrun: SubRun
                          ) -> Iterator["PrefetchedEvent"]:
        """Issue page N+1's loads while page N is consumed.

        The in-flight window holds up to ``options.lookahead`` pages of
        non-blocking product loads (each bounded further by the
        AsyncEngine's own in-flight cap).
        """
        window: deque = deque()
        for page in self._key_pages(subrun):
            window.append((page, self.datastore.load_products_packed_nb(
                page, self.products)))
            if len(window) > self.options.lookahead:
                yield from self._finish_page(subrun, *window.popleft())
            self.pages_prefetched += 1
        while window:
            yield from self._finish_page(subrun, *window.popleft())

    def _finish_page(self, subrun: SubRun, event_keys: list[bytes],
                     group) -> Iterator["PrefetchedEvent"]:
        wait_start = time.monotonic()
        overlap = group.overlap_seconds(wait_start)
        with _tracing.span("hepnos.prefetch.overlap",
                           events=len(event_keys)) as sp:
            try:
                products = group.wait()
            except RETRYABLE_ERRORS:
                # The non-blocking load cannot replay itself (a giveup
                # or a stale shard map): re-run the page blocking.
                products = self.datastore.load_products_packed(
                    event_keys, self.products)
            waited = time.monotonic() - wait_start
            sp.set_tag("overlap_seconds", round(overlap, 6))
            sp.set_tag("wait_seconds", round(waited, 6))
        self.overlap_seconds += overlap
        self.wait_seconds += waited
        yield from self._emit(subrun, event_keys, products)

    def _emit(self, subrun: SubRun, event_keys: list[bytes],
              products: dict) -> Iterator["PrefetchedEvent"]:
        for i, key in enumerate(event_keys):
            event = Event(self.datastore, subrun, hkeys.child_number(key), key)
            loaded = {spec: products[spec][i] for spec in products}
            yield PrefetchedEvent(event, loaded)


class PrefetchedEvent:
    """An event plus its prefetched products.

    :meth:`load` serves prefetched (type, label) pairs from memory and
    falls back to the datastore for anything else.
    """

    __slots__ = ("event", "_products", "_columns")

    def __init__(self, event: Event, products: dict,
                 columns: Optional[dict] = None):
        self.event = event
        self._products = products
        self._columns = columns

    @property
    def number(self) -> int:
        return self.event.number

    def triple(self) -> tuple[int, int, int]:
        return self.event.triple()

    def load(self, product_type, label: str = ""):
        spec = (product_type_name(product_type), label)
        if spec in self._products:
            value = self._products[spec]
            if value is None:
                from repro.errors import ProductNotFound

                raise ProductNotFound(
                    f"no product label={label!r} type={spec[0]!r} "
                    f"in event {self.event.triple()}"
                )
            return value
        return self.event.load(product_type, label=label)

    def prefetched(self, product_type, label: str = "") -> Optional[object]:
        """The prefetched product or None (no fallback RPC)."""
        return self._products.get((product_type_name(product_type), label))

    def columns(self) -> Optional[dict]:
        """Projected field arrays for this event (columnar prefetch
        only); ``None`` when the event was not projected."""
        return self._columns

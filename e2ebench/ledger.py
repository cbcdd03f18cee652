"""Benchmark-side spans and the per-layer time ledger.

The program already records spans at the HEPnOS, Yokan client/provider,
Mercury, PEP, write-batch and LSM boundaries.  :class:`Probes` adds, for
the traced run only, spans around calls into the layers that have none:
``hdf5lite`` reads, the HDF2HEPnOS loader, ``serial`` encode/decode,
``yokan.wire`` seal/unseal, broker admission, ``minimpi`` messaging and
collectives, and the CAFAna cut.  It patches the module attributes and
class methods those layers are called through and restores them on
:meth:`Probes.remove`.

:class:`Ledger` turns the collected spans into per-name rows.  A span's
self time is its duration minus the part of it that its child spans
cover (children found by parent id, so a provider span on a server
thread counts against the client's ``mercury.forward``).  The self time
of the ``workflow.*`` root spans is time no layer span covers: the
``unattributed`` row.
"""

from __future__ import annotations

import functools
import threading
from collections import defaultdict

from repro.broker.core import RequestBroker
from repro.hdf5lite.format import Group
from repro.hepnos import datastore, write_batch
from repro.hepnos.loader import DataLoader
from repro.minimpi.comm import Communicator
from repro.monitor import tracing
from repro.nova.cafana import Cut
from repro.yokan import client, provider, wire

#: Spans that open a pass on each rank; their self time is unattributed.
ROOTS = ("workflow.ingest", "workflow.select")
#: ``minimpi`` collectives (point-to-point receives are ``minimpi.recv``).
COLLECTIVES = ("barrier", "bcast", "scatter", "gather", "allgather",
               "reduce", "allreduce", "alltoall")


class Probes:
    """Installs the benchmark-side spans; :meth:`remove` undoes them."""

    def __init__(self):
        self._saved: list = []
        #: seconds requests spent queued between broker admission and
        #: service (the value ``RequestBroker.begin`` returns)
        self.queue_wait_s = 0.0
        self._lock = threading.Lock()

    def _patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _span(self, owner, attr: str, name: str, size=None) -> None:
        """Wrap ``owner.attr`` in a span; ``size(args, result)`` tags bytes."""
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracing.span(name) as span:
                result = original(*args, **kwargs)
                if size is not None:
                    span.set_tag("bytes", size(args, result))
                return result

        self._patch(owner, attr, traced)

    def install(self) -> None:
        self._span(Group, "read", "hdf5lite.read")
        self._span(DataLoader, "ingest_file", "hepnos.loader.ingest_file")
        for module in (datastore, write_batch, client, provider):
            self._span(module, "dumps", "serial.encode",
                       size=lambda args, out: len(out))
        for module in (datastore, client, provider):
            self._span(module, "loads", "serial.decode",
                       size=lambda args, out: len(args[0]))
        self._span(wire, "seal", "yokan.wire.seal")
        self._span(wire, "unseal", "yokan.wire.unseal")
        self._span(RequestBroker, "admit", "broker.admit")
        begin = RequestBroker.__dict__["begin"]

        def timed_begin(broker, admission):
            queued = begin(broker, admission)
            with self._lock:
                self.queue_wait_s += queued
            return queued

        self._patch(RequestBroker, "begin", timed_begin)
        self._span(Communicator, "recv_with_status", "minimpi.recv")
        for op in COLLECTIVES:
            self._span(Communicator, op, f"minimpi.{op}")

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def traced_cut(cut: Cut) -> Cut:
    """``cut`` with a ``nova.cafana.cut`` span around every evaluation
    (one per slice on the per-event path, one per batch mask)."""

    def per_object(slice_data):
        with tracing.span("nova.cafana.cut"):
            return cut(slice_data)

    def per_table(table):
        with tracing.span("nova.cafana.cut", columnar=True):
            return cut.mask(table)

    return Cut(cut.name, per_object, per_table, columns=cut.columns)


def _covered(start: float, end: float, intervals: list) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            total += b - a
            cursor = b
    return total


class Ledger:
    """Per-span-name count, total time, self time and tagged bytes."""

    def __init__(self, spans: list):
        children: dict = defaultdict(list)
        for span in spans:
            if span.parent_id is not None and span.end is not None:
                children[span.parent_id].append((span.start, span.end))
        self.rows: dict = defaultdict(lambda: {"count": 0, "total_s": 0.0,
                                               "self_s": 0.0, "bytes": 0,
                                               "items": 0, "page_cached": 0})
        self.root_s = 0.0
        for span in spans:
            if span.end is None:
                continue
            covered = _covered(span.start, span.end,
                               children.get(span.span_id, ()))
            row = self.rows[span.name]
            row["count"] += 1
            row["total_s"] += span.duration
            row["self_s"] += span.duration - covered
            row["bytes"] += int(span.tags.get("bytes", 0) or 0)
            row["items"] += int(span.tags.get("items", 0) or 0)
            row["page_cached"] += bool(span.tags.get("page_cached"))
            if span.name in ROOTS:
                self.root_s += span.duration

    def get(self, name: str, field: str = "total_s"):
        """One field of a row; 0 for a span name that never occurred."""
        return self.rows[name][field] if name in self.rows else 0

    @property
    def unattributed_s(self) -> float:
        return sum(self.get(name, "self_s") for name in ROOTS)

    @property
    def unattributed_frac(self) -> float:
        """Unattributed time over the root spans' time (0 without roots)."""
        return self.unattributed_s / self.root_s if self.root_s else 0.0

    def render(self, passes: int, limit: int = 40) -> str:
        """Text table: rows by self time per pass, then ``unattributed``."""
        rows = sorted(((n, r) for n, r in self.rows.items() if n not in ROOTS),
                      key=lambda item: -item[1]["self_s"])
        lines = [f"{'span':<40} {'count/pass':>11} {'total ms':>10} "
                 f"{'self ms':>10}"]
        for name, row in rows[:limit]:
            lines.append(f"{name:<40} {row['count'] / passes:>11.1f} "
                         f"{row['total_s'] * 1e3 / passes:>10.2f} "
                         f"{row['self_s'] * 1e3 / passes:>10.2f}")
        lines.append(f"{'unattributed':<40} {'':>11} {'':>10} "
                     f"{self.unattributed_s * 1e3 / passes:>10.2f}")
        lines.append(f"{'(workflow root spans)':<40} {'':>11} "
                     f"{self.root_s * 1e3 / passes:>10.2f}")
        return "\n".join(lines)


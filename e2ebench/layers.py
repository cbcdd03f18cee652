"""The traced run: per-layer metrics, the ledger and the trace file.

Untraced and traced passes alternate on one deployment, so the pair
gives the tracing overhead without a drift between them.  Span metrics
come from :class:`~ledger.Ledger` rows; counters (LSM engine stats,
fabric traffic, client cache and retry counters, broker admissions)
are differences across the traced passes.  Every value is per traced
pass unless it is a ratio.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics

from repro.hepnos import ProductCacheOptions
from repro.monitor import tracing
from repro.yokan.provider import YokanProvider

from ledger import COLLECTIVES, Ledger, Probes, traced_cut
import workloads as w

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
#: Untraced/traced pass pairs of a traced run (the per-event trace
#: holds ~75k spans per pass, kept in memory until the run ends).
TRACED_PAIRS = 3

_LSM_FIELDS = ("flushes", "compactions", "flush_seconds",
               "compaction_seconds", "throttle_waits", "backpressure_waits",
               "wal_bytes", "flushed_bytes", "compacted_bytes",
               "logical_bytes", "gets", "bloom_skips", "blocks_read",
               "block_cache_hits", "block_cache_misses")
_FABRIC_FIELDS = ("rpc_count", "rpc_bytes", "response_bytes",
                  "bulk_transfers", "bulk_bytes")
_REGISTRY_COUNTERS = ("hepnos.column_cache.hits", "hepnos.column_cache.misses",
                      "hepnos.column_cache.evictions",
                      "hepnos.product_cache.hits",
                      "hepnos.product_cache.misses", "yokan.client.retries")


def counters(deployment: w.Deployment) -> dict:
    """A flat snapshot of every counter the per-layer metrics difference."""
    out = {f"lsm.{f}": 0 for f in _LSM_FIELDS}
    for backend in deployment.lsm_backends():
        for f in _LSM_FIELDS:
            out[f"lsm.{f}"] += getattr(backend.stats, f)
    stats = deployment.fabric.stats
    for f in _FABRIC_FIELDS:
        out[f"fabric.{f}"] = getattr(stats, f)
    registry = deployment.session.metrics
    for name in _REGISTRY_COUNTERS:
        out[name] = registry.counter(name).value
    out["broker.admitted"] = out["broker.shed"] = 0
    for server in deployment.servers:
        tenant = server.tenant_stats().get("tenants", {}).get(w.TENANT, {})
        out["broker.admitted"] += tenant.get("admitted", 0)
        out["broker.shed"] += tenant.get("shed", 0)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(runner, ledger: Ledger, delta: dict, traced: list,
              untraced: list, queue_wait_s: float) -> dict:
    """Every per-layer metric, from the traced passes."""
    n = len(traced)
    events = sum(r.events for r in traced)
    deployment = runner.workload.deployment
    lsm = deployment.lsm_backends()

    def d(name):
        return delta.get(name, 0)

    def span_s(name, field="total_s"):
        return ledger.get(name, field) / n

    pep = [s for r in traced for s in r.pep_stats]
    workers = [s for s in pep if s.role in ("worker", "sequential")]
    readers = [s for s in pep if s.role == "reader"]
    per_worker = [s.events_processed for s in workers]
    imbalance = (max(per_worker) / statistics.mean(per_worker)
                 if per_worker and statistics.mean(per_worker) else 0.0)
    flushes = ledger.get("hepnos.write_batch.flush", "count")
    scans = ledger.get("yokan.provider.scan_columns", "count")
    col_lookups = d("hepnos.column_cache.hits") + d("hepnos.column_cache.misses")
    product_lookups = (d("hepnos.product_cache.hits")
                       + d("hepnos.product_cache.misses"))
    cache_opts = ProductCacheOptions()
    columnar = getattr(runner.workload, "columnar", False)
    fields = len(set(runner.workload.cut.columns or ()) | {"slice_id"})
    load_bytes = (ledger.get("hepnos.load_products_packed", "bytes")
                  + ledger.get("hepnos.load_products_columnar", "bytes"))
    providers = sum(len(s.providers) for s in deployment.servers)
    product_dbs = [b for b in lsm if "products" in os.path.basename(b.path)]
    wal_bytes = d("lsm.wal_bytes")
    reads = d("lsm.gets") + (events if runner.args.workload != "ingest" else 0)
    traced_rate = w.slices_per_s(runner.args.workload, traced)
    untraced_rate = w.slices_per_s(runner.args.workload, untraced)

    untraced_latencies = [s for r in untraced for s in r.batch_latencies]
    values = {
        # the client-visible tail, from the untraced passes
        "batch_ms_p99": (w.percentile(untraced_latencies, 99) * 1e3, "ms"),
        # write path (ingest)
        "hdf5lite.read_s": (span_s("hdf5lite.read"), "s"),
        "hepnos.loader.self_s": (span_s("hepnos.loader.ingest_file", "self_s"), "s"),
        "serial.encode_s": (span_s("serial.encode"), "s"),
        "serial.encode_bytes": (ledger.get("serial.encode", "bytes") / n, "B"),
        "hepnos.write_batch.flushes": (flushes / n, "count"),
        "hepnos.write_batch.flush_s": (span_s("hepnos.write_batch.flush"), "s"),
        "hepnos.write_batch.pairs_per_flush": (
            _ratio(ledger.get("hepnos.write_batch.flush", "items"), flushes),
            "count"),
        # LSM engine
        "yokan.backends.lsm.flushes": (d("lsm.flushes") / n, "count"),
        "yokan.backends.lsm.compactions": (d("lsm.compactions") / n, "count"),
        "yokan.backends.lsm.flush_s": (d("lsm.flush_seconds") / n, "s"),
        "yokan.backends.lsm.compaction_s": (d("lsm.compaction_seconds") / n, "s"),
        "yokan.backends.lsm.write_amp": (
            _ratio(wal_bytes + d("lsm.flushed_bytes") + d("lsm.compacted_bytes"),
                   wal_bytes), "B/B"),
        "yokan.backends.lsm.throttle_waits": (d("lsm.throttle_waits") / n, "count"),
        "yokan.backends.lsm.backpressure_waits": (
            d("lsm.backpressure_waits") / n, "count"),
        "yokan.backends.lsm.read_amp": (
            _ratio(d("lsm.blocks_read"), reads), "blocks/read"),
        "yokan.backends.lsm.block_cache_hit_rate": (
            _ratio(d("lsm.block_cache_hits"),
                   d("lsm.block_cache_hits") + d("lsm.block_cache_misses")),
            "frac"),
        "yokan.backends.lsm.bloom_skips_per_get": (
            _ratio(d("lsm.bloom_skips"), d("lsm.gets")), "count"),
        # decode and transport (select_event)
        "serial.decode_s": (span_s("serial.decode"), "s"),
        "serial.decode_bytes": (ledger.get("serial.decode", "bytes") / n, "B"),
        "yokan.wire.seal_s": (span_s("yokan.wire.seal"), "s"),
        "yokan.wire.unseal_s": (span_s("yokan.wire.unseal"), "s"),
        "mercury.wire_bytes_per_event": (
            _ratio(d("fabric.rpc_bytes") + d("fabric.response_bytes")
                   + d("fabric.bulk_bytes"), events), "B/event"),
        "mercury.bulk_transfers": (d("fabric.bulk_transfers") / n, "count"),
        "nova.cafana.cut_s": (span_s("nova.cafana.cut"), "s"),
        # projection and column caches (select_columnar)
        "yokan.provider.scan_columns_s": (span_s("yokan.provider.scan_columns"), "s"),
        "yokan.provider.page_cache_hit_rate": (
            _ratio(ledger.get("yokan.provider.scan_columns", "page_cached"),
                   scans), "frac"),
        "hepnos.column_cache.hit_rate": (
            _ratio(d("hepnos.column_cache.hits"), col_lookups), "frac"),
        "hepnos.column_cache.evictions": (
            d("hepnos.column_cache.evictions") / n, "count"),
        # PEP and listing (both selections)
        "hepnos.pep.load_s": (sum(s.load_seconds for s in readers) / n, "s"),
        "hepnos.pep.processing_s": (
            sum(s.processing_seconds for s in workers) / n, "s"),
        "hepnos.pep.waiting_s": (sum(s.waiting_seconds for s in workers) / n, "s"),
        "hepnos.pep.prefetch_wait_s": (
            sum(s.prefetch_wait_seconds for s in pep) / n, "s"),
        "hepnos.pep.worker_imbalance": (imbalance, "ratio"),
        "hepnos.datastore.list_events_s": (span_s("pep.list_events"), "s"),
        "minimpi.collective_s": (
            sum(ledger.get(f"minimpi.{op}", "self_s") for op in COLLECTIVES) / n,
            "s"),
        # RPC path
        "yokan.client.rpcs_per_event": (
            _ratio(d("fabric.rpc_count"), events), "count"),
        "mercury.forward_self_s": (span_s("mercury.forward", "self_s"), "s"),
        "broker.admitted": (d("broker.admitted") / n, "count"),
        "broker.queue_wait_s": (queue_wait_s / n, "s"),
        "yokan.provider.put_multi_s": (span_s("yokan.provider.put_multi"), "s"),
        "yokan.provider.load_prefix_packed_s": (
            span_s("yokan.provider.load_prefix_packed"), "s"),
        "yokan.provider.list_keys_s": (span_s("yokan.provider.list_keys"), "s"),
        # caches against their bounds
        "hepnos.product_cache.hit_rate": (
            _ratio(d("hepnos.product_cache.hits"), product_lookups), "frac"),
        "hepnos.product_cache.working_set_ratio": (
            load_bytes / n / cache_opts.max_bytes, "ratio"),
        "hepnos.column_cache.working_set_ratio": (
            (fields * events / n / cache_opts.max_entries) if columnar else 0.0,
            "ratio"),
        "yokan.provider.page_cache.working_set_ratio": (
            ledger.get("yokan.provider.scan_columns", "bytes") / n
            / (YokanProvider.PAGE_CACHE_BYTES * providers), "ratio"),
        "yokan.backends.lsm.block_cache.working_set_ratio": (
            max((b.lsm_stats()["table_bytes"] / b.block_cache.max_bytes
                 for b in product_dbs), default=0.0), "ratio"),
        "yokan.backends.lsm.memtable.working_set_ratio": (
            _ratio(d("lsm.logical_bytes") / n,
                   sum(b.memtable_bytes for b in product_dbs)), "ratio"),
        # failures
        "broker.shed": (d("broker.shed") / n, "count"),
        "yokan.client.retries": (d("yokan.client.retries") / n, "count"),
        "hepnos.pep.load_retries": (sum(s.load_retries for s in pep) / n, "count"),
        # the ledger itself
        "ledger.unattributed_frac": (ledger.unattributed_frac, "frac"),
        "ledger.tracing_overhead": (
            _ratio(untraced_rate, traced_rate) - 1.0, "frac"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def traced_run(runner):
    """Alternate ``TRACED_PAIRS`` untraced and traced passes on the set-up
    deployment; return (metrics, report)."""
    workload = runner.workload
    plain_cut = workload.cut
    tracer = tracing.Tracer()
    probes = Probes()
    traced, untraced = [], []
    delta: dict = {}

    @contextlib.contextmanager
    def window():
        before = counters(workload.deployment)
        probes.install()
        workload.cut = traced_cut(plain_cut)
        tracing.install_tracer(tracer)
        try:
            yield
        finally:
            tracing.uninstall_tracer()
            workload.cut = plain_cut
            probes.remove()
        after = counters(workload.deployment)
        for key, value in after.items():
            delta[key] = delta.get(key, 0) + value - before[key]

    for index in range(2 * TRACED_PAIRS):
        if index % 2 == 0:
            untraced.append(runner.one_pass(index))
        else:
            traced.append(runner.one_pass(index, window))
    spans = tracer.collector.spans
    ledger = Ledger(spans)
    metrics = per_layer(runner, ledger, delta, traced, untraced,
                        probes.queue_wait_s)
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"{runner.args.workload}-trace.json")
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.collector.chrome_trace(), fh, separators=(",", ":"))
    report = (f"{runner.args.workload}: {len(traced)} traced + "
              f"{len(untraced)} untraced passes, {len(spans)} spans -> "
              f"{os.path.relpath(trace_path)}\n"
              + ledger.render(len(traced)))
    return metrics, report

#!/usr/bin/env python3
"""Self-test of the benchmark at its smallest size (about a minute).

Run from the repository root::

    python3 e2ebench/selftest.py

Checks that:

- every metric ``BENCHMARK.json`` names is emitted with its unit, for
  every workload, untraced (end-to-end) and traced (per-layer), and the
  trace file loads with the ``repro-trace`` loader;
- the oracles catch a planted wrong result: a cut that drops one slice,
  and a stored product with one altered field;
- a pass that hangs (a PEP worker callback that raises leaves the reader
  blocked in ``recv``) fails at its deadline instead of stalling;
- setup refuses two servers sharing one storage root.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run._require_program()

import workloads as w  # noqa: E402
from repro.monitor.tracing import TraceCollector  # noqa: E402
from repro.nova import nue_candidate_cut  # noqa: E402
from repro.nova.cafana import Cut  # noqa: E402

#: Two small files: about 80 events.
SMALL = {"num_files": 2, "mean_events": 40}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def emitted(workload: str, trace: int) -> dict:
    """Run the benchmark in-process at the small size; its result line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3",
                         "--seconds", "0.5", "--trace", str(trace)], size=SMALL)
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    check(code == 0 and result["correct"] and result["failed"] == 0,
          f"{workload} trace={trace}: fault-free run failed: {result}")
    return result


def test_metrics_emitted(spec: dict) -> None:
    for workload in w.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            metrics = emitted(workload, trace)["metrics"]
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in metrics.items()}
            check(got == want, f"{workload} trace={trace}: emitted "
                  f"{sorted(set(got) ^ set(want)) or got} vs BENCHMARK.json")
            check(all(isinstance(m["value"], (int, float))
                      for m in metrics.values()),
                  f"{workload} trace={trace}: non-numeric metric")
        trace_file = os.path.join(HERE, "out", f"{workload}-trace.json")
        check(len(TraceCollector.load(trace_file)) > 0,
              f"{trace_file}: no spans")
        print(f"selftest: {workload}: every metric emitted with its unit")


def small_runner(workload: str, tmp: str) -> "run.Runner":
    args = run.argparse.Namespace(workload=workload, seed=5, seconds=0.5,
                                  trace=0)
    runner = run.Runner(args, w, SMALL)
    runner.workdir = os.path.join(tmp, workload)
    runner.prepare()
    runner.workload.setup()
    return runner


def test_oracle_catches_dropped_slice(tmp: str) -> None:
    for workload in ("select_event", "select_columnar"):
        runner = small_runner(workload, tmp)
        try:
            victim = min(runner.inputs.expected_ids)
            nue = nue_candidate_cut
            runner.workload.cut = Cut(
                "drops-one", lambda s: nue(s) and s.slice_id != victim,
                lambda t: nue.mask(t) & (t["slice_id"] != victim),
                columns=nue.columns)
            runner.one_pass(0)
            check(runner.failed >= 1 and runner.failures,
                  f"{workload}: a cut dropping slice {victim} passed")
        finally:
            runner.workload.teardown()
        print(f"selftest: {workload}: oracle caught a dropped slice")


def test_oracle_catches_altered_product(tmp: str) -> None:
    from repro.hepnos import vector_of
    from repro.serial import registered_type

    runner = small_runner("ingest", tmp)
    workload = runner.workload
    try:
        result = workload.run_pass(0)
        run_n, subrun_n, event_n = min(runner.inputs.rows_by_event)
        event = workload.deployment.datastore["nova/pass-0"][run_n][subrun_n][event_n]
        product_type = vector_of(registered_type("rec.slc"))
        slices = event.load(product_type)
        slices[0].cal_e += 1.0
        event.store(slices, type_name=product_type)
        workload.readback_events = len(runner.inputs.rows_by_event)
        workload.verify(0, result)
        check(result.failed == result.slices and "cal_e" in result.failure,
              f"ingest: an altered product passed the read-back: {result}")
    finally:
        workload.teardown()
    print("selftest: ingest: read-back caught an altered product")


def test_hang_fails_fast(tmp: str) -> None:
    runner = small_runner("select_event", tmp)
    try:
        def explode(_slice):
            raise RuntimeError("planted callback failure")

        runner.workload.cut = Cut("explodes", explode,
                                  columns=nue_candidate_cut.columns)
        outcome = None
        try:
            w.run_with_deadline(lambda: runner.workload.run_pass(0), 3.0,
                                "planted hang")
        except Exception as exc:  # noqa: BLE001 - PassTimeout, or PEP's own error
            outcome = type(exc).__name__
        check(outcome is not None,
              "a pass whose callback raises returned normally")
    finally:
        runner.workload.teardown()
    print(f"selftest: a failing pass ends within its deadline ({outcome})")


def test_shared_storage_root_refused(tmp: str) -> None:
    root = os.path.join(tmp, "shared")
    for roots in ([root, root], [root, os.path.join(root, "inner")]):
        try:
            w.Deployment("lsm", roots)
        except w.SetupError:
            continue
        raise AssertionError(f"setup accepted storage roots {roots}")
    check(not os.path.exists(root), "a refused setup created storage")
    print("selftest: setup refuses a shared storage root")


def main() -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with tempfile.TemporaryDirectory(dir=HERE, prefix="selftest-") as tmp:
        test_shared_storage_root_refused(tmp)
        test_oracle_catches_dropped_slice(tmp)
        test_oracle_catches_altered_product(tmp)
        test_hang_fails_fast(tmp)
        test_metrics_emitted(spec)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

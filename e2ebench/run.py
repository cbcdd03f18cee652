#!/usr/bin/env python3
"""End-to-end NOvA benchmark of HEPnOS: ingest, per-event and columnar
selection through ``repro.hepnos.connect``, with a per-layer ledger.

Run from the repository root::

    python3 e2ebench/run.py --workload select_event --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced passes: the traced ones give
the per-layer metrics and the ledger, and the pair gives the tracing
overhead; the spans are saved as Chrome trace JSON under
``e2ebench/out/`` (``repro-trace view <file> --tree`` loads it).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Operations are
slices: stored (``ingest``) or examined (selection).  A pass whose
output disagrees with the oracle counts all its slices as failed (the
wrong ones for a selection), fails the run and prints the seed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _require_program() -> None:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"e2ebench: the program sources ({SRC}/repro) are missing; "
              "run from a checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)


#: Whole-run budget: no pass or setup may run past it, so a run always
#: ends (reporting the seed) well inside three minutes.
RUN_DEADLINE_S = 150.0
#: Repeated setups per run; ``setup_s`` is their median.
SETUPS = 3
#: Selection passes after each setup, at least (more while time remains).
MIN_PASSES_PER_SETUP = 2


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def replay_command(args) -> str:
    return (f"python3 e2ebench/run.py --workload {args.workload} "
            f"--seed {args.seed} --seconds {args.seconds} --trace {args.trace}")


class Runner:
    """Generates the inputs, sets up, runs the passes, reports."""

    def __init__(self, args, workloads, size: Optional[dict] = None):
        self.args = args
        self.w = workloads
        #: ``make_inputs`` keywords; the self-test runs at the smallest size
        self.size = size or {}
        self.workdir = os.path.join(HERE, "work",
                                    f"{args.workload}-{os.getpid()}")
        self.inputs = None
        self.workload = None
        self.failures: list = []
        self.attempted = 0
        self.failed = 0
        self.started = time.perf_counter()

    def prepare(self) -> None:
        """Generate the inputs (untimed) and build the workload."""
        self.inputs = self.w.make_inputs(
            os.path.join(self.workdir, "files"), self.args.seed, **self.size)
        self.workload = self.w.make_workload(
            self.args.workload, self.inputs, self.workdir, self.args.seed)

    def guarded(self, fn, what: str):
        remaining = RUN_DEADLINE_S - (time.perf_counter() - self.started)
        return self.w.run_with_deadline(
            fn, max(0.0, min(self.w.PASS_DEADLINE_S, remaining)), what)

    # -- setup and passes -------------------------------------------------

    def set_up(self, i: int) -> float:
        """Set up a fresh deployment (replacing any); return its time."""
        self.workload.teardown()
        gc.collect()
        t0 = time.perf_counter()
        self.guarded(self.workload.setup, f"setup {i}")
        return time.perf_counter() - t0

    def measure(self):
        """The untraced run: ``(setup times, pass results)``.

        The VM's speed drifts on a scale of tens of seconds, so selection
        passes are spread over the run: ``--seconds / SETUPS`` of them
        after each setup.  Ingest runs a fixed pass count (``--seconds``
        over the nominal pass time) into the last deployment, so two
        commits ingest the same amount into a store that grows pass by
        pass.
        """
        times, results = [], []
        for i in range(SETUPS):
            times.append(self.set_up(i))
            if self.args.workload != "ingest":
                results += self._timed_passes(len(results),
                                              self.args.seconds / SETUPS)
        if self.args.workload == "ingest":
            count = max(2, round(self.args.seconds / self.w.INGEST_PASS_S))
            results = [self.one_pass(i) for i in range(count)]
        return times, results

    def _timed_passes(self, first: int, seconds: float) -> list:
        results = []
        start = time.perf_counter()
        while (len(results) < MIN_PASSES_PER_SETUP
               or time.perf_counter() - start < seconds):
            results.append(self.one_pass(first + len(results)))
        return results

    def one_pass(self, index: int, window=contextlib.nullcontext):
        """Run, then verify, one pass; ``window()`` wraps only the pass."""

        def timed():
            with window():
                return self.workload.run_pass(index)

        result = self.guarded(timed, f"pass {index}")
        self.guarded(lambda: self.workload.verify(index, result),
                     f"check of pass {index}")
        self.attempted += result.slices or self.inputs.slices
        if result.failed:
            self.failed += result.failed
            self.failures.append(f"pass {index}: {result.failure}")
        return result


def end_to_end(runner: Runner, setup_times: list, results: list):
    """The user-visible metrics of an untraced run, and the number of
    batch-latency samples behind them."""
    latencies = [s for r in results for s in r.batch_latencies]
    # batch_ms_p99 is a per-layer metric: its run-to-run spread on a
    # shared VM is far wider than any usable bound (see README.md).
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "slices_per_s": metric(
            runner.w.slices_per_s(runner.args.workload, results), "1/s"),
        "batch_ms_p50": metric(
            runner.w.percentile(latencies, 50) * 1e3, "ms"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "stored_bytes_per_user_byte": metric(
            runner.workload.deployment.stored_bytes_per_user_byte(), "B/B"),
    }, len(latencies)


def main(argv=None, size: Optional[dict] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ingest", "select_event", "select_columnar"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _require_program()
    sys.path.insert(0, HERE)
    import layers
    import workloads as w

    runner = Runner(args, w, size)
    try:
        runner.prepare()
        if args.trace:
            runner.set_up(0)
            metrics, ledger_text = layers.traced_run(runner)
            print(ledger_text)
        else:
            setup_times, results = runner.measure()
            metrics, samples = end_to_end(runner, setup_times, results)
            stored = runner.workload.deployment.user_bytes()
            print(f"{args.workload}: {len(results)} passes of "
                  f"{runner.inputs.events} events, {runner.inputs.slices} "
                  f"slices; {stored / 1e6:.1f} MB of user bytes stored; "
                  f"{samples} batch-latency samples; slices/s per pass: "
                  + " ".join(f"{r.slices / r.seconds:.0f}" for r in results))
    except w.PassTimeout as exc:
        print(f"e2ebench: {exc}; seed {args.seed}; replay: "
              f"{replay_command(args)}", file=sys.stderr)
        sys.stderr.flush()
        shutil.rmtree(runner.workdir, ignore_errors=True)
        os._exit(3)
    except Exception:
        print(f"e2ebench: run failed; seed {args.seed}; replay: "
              f"{replay_command(args)}", file=sys.stderr)
        raise
    finally:
        if runner.workload is not None:
            runner.workload.teardown()
        shutil.rmtree(runner.workdir, ignore_errors=True)
    correct = not runner.failures
    for failure in runner.failures:
        print(f"e2ebench: WRONG RESULT {failure}; seed {args.seed}; "
              f"replay: {replay_command(args)}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

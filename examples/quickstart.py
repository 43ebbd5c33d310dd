#!/usr/bin/env python
"""Quickstart: measure latency variance and fix it with VATS.

Runs the simulated MySQL server under contended TPC-C at a constant
500 tps — once with the stock FCFS lock scheduling and once with VATS —
and prints the paper's three headline metrics for each, plus the
improvement ratios (Figure 2's experiment in miniature).

Usage::

    python examples/quickstart.py [n_txns]
"""

import sys

from repro import ratios
from repro.bench import paperconfig
from repro.bench.runner import run_experiment


def main():
    # Scheduler comparisons measure differences between heavy-tailed
    # convoy distributions and need long runs to converge (this is
    # paperconfig.N_TXNS_SCHED, the same length Figure 2 uses); pass a
    # smaller count for a faster, noisier demo.
    n_txns = int(sys.argv[1]) if len(sys.argv) > 1 else 12_000

    print("Running contended TPC-C on simulated MySQL (%d txns @ 500 tps)" % n_txns)
    results = {}
    for scheduler in ("FCFS", "VATS"):
        config = paperconfig.mysql_128wh_experiment(scheduler, n_txns=n_txns)
        result = run_experiment(config)
        results[scheduler] = result
        summary = result.summary
        print(
            "  %-4s  mean=%7.2f ms  std=%7.2f ms  p99=%7.2f ms  "
            "throughput=%.0f tps  lock waits=%d"
            % (
                scheduler,
                summary.mean / 1000.0,
                summary.std / 1000.0,
                summary.p99 / 1000.0,
                result.throughput_tps,
                result.engine.lockmgr.total_waits,
            )
        )

    improvement = ratios(results["FCFS"].latencies, results["VATS"].latencies)
    print()
    print("FCFS / VATS ratios (>1 means VATS is better):")
    print(
        "  mean %.2fx   variance %.2fx   p99 %.2fx"
        % (improvement["mean"], improvement["variance"], improvement["p99"])
    )

    # Every run also carries a telemetry snapshot (see docs/telemetry.md).
    snapshot = results["VATS"].metrics_snapshot()
    counters = snapshot["counters"]
    wait_hist = snapshot["histograms"].get("lockmgr.wait_time.VATS", {})
    print()
    print("VATS run telemetry (excerpt of metrics_snapshot()):")
    print(
        "  lockmgr: requests=%d waits=%d deadlocks=%d"
        % (
            counters.get("lockmgr.requests", 0),
            counters.get("lockmgr.waits", 0),
            counters.get("lockmgr.deadlocks", 0),
        )
    )
    if wait_hist.get("count"):
        print(
            "  lock wait time: mean=%.0f us  p99=%.0f us  (n=%d, exact)"
            % (wait_hist["mean"], wait_hist["p99"], wait_hist["count"])
        )
    print(
        "  buffer pool: hits=%d misses=%d   wal flush rounds=%d"
        % (
            counters.get("buf_pool.hits", 0),
            counters.get("buf_pool.misses", 0),
            counters.get("wal.redo.flush_rounds", 0),
        )
    )
    print()
    print(
        "The paper reports 6.3x / 5.6x / 2.0x on its hardware; the simulator"
        "\nreproduces the direction (VATS wins on every metric under"
        "\ncontention) at smaller magnitudes — see EXPERIMENTS.md."
    )


if __name__ == "__main__":
    main()

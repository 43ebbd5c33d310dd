"""The benchmark: one workload, timed passes, a correctness gate, one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload voltdb-tpcc --seed 1 --seconds 24 --trace 0

A run makes a fixed number of passes of the workload, worked out from
``--seconds`` and the workload's nominal pass time (``Workload.passes``),
never from how fast the passes go, so two commits run with the same
``--seconds`` take their minimum over the same number of passes.  Every
timing is the fastest pass's, taken segment by segment: on a shared
host, contention from other tenants only ever adds time, so the quickest
run of each stretch of identical work is its least disturbed one (see
``fastest`` and README.md).  ``--trace 0`` reports the end-to-end
metrics; ``setup_s`` is the fastest of several cold starts of a fresh
interpreter, taken between the passes.  ``--trace 1`` adds one traced pass and reports the
per-layer ledger instead.

The gate: every pass's ``run_digest`` equals the first pass's (the
traced pass's too), committed counts agree, each workload's own checks
hold (``Workload.run_pass``), and the ledger finds every entry point it
wraps.  On a failure the result line says ``"correct": false`` and the
exit code is 1.
"""

import argparse
import gc
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

COLD_STARTS = 7
COLD_START_TIMEOUT_S = 60


def _import_workloads():
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit("perfbench: no repro package under %s; run from a full "
                 "checkout of the repository" % (SRC,))
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    return workloads.WORKLOADS


def cold_start(name, seed):
    """Child process: build the workload, report the first dispatch, exit.

    The parent reads the printed ``time.monotonic()`` (a system-wide
    clock) and subtracts its own reading from just before it started
    this process, so ``setup_s`` includes interpreter start-up, ``import
    repro``, config, engine and workload build and buffer-pool prewarm.
    """
    workload = _import_workloads()[name]
    from repro.sim.kernel import Simulator

    def first_dispatch(sim, until=None):
        sys.stdout.write("%r\n" % (time.monotonic(),))
        sys.stdout.flush()
        os._exit(0)

    Simulator.run = first_dispatch
    workload.run_pass(seed)
    sys.exit("perfbench: %s dispatched no event" % (name,))


def cold_start_seconds(name, seed):
    """Time from starting a fresh process to its first dispatch."""
    started = time.monotonic()
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--cold-start",
         "--workload", name, "--seed", str(seed), "--seconds", "0"],
        capture_output=True, text=True, timeout=COLD_START_TIMEOUT_S,
        check=True,
    )
    return float(child.stdout.split()[-1]) - started


def peak_rss_mb():
    import resource

    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_passes(workload, seed, count, cold_starts=0):
    """``count`` passes, and ``cold_starts`` cold-start times taken between them.

    The host runs at two speeds about 1.7x apart for seconds to minutes
    at a time (README.md), so the cold starts are spread over the run,
    one after each pass, rather than taken back to back at its end.
    """
    passes = []
    setups = []
    for _ in range(count):
        passes.append(workload.run_pass(seed))
        gc.collect()
        if len(setups) < cold_starts:
            setups.append(cold_start_seconds(workload.name, seed))
    while len(setups) < cold_starts:
        setups.append(cold_start_seconds(workload.name, seed))
    return passes, setups


def traced_pass(workload, seed):
    """One pass with the ledger installed: ``(outcome, ledger, wall_s)``."""
    from ledger import Ledger, installed

    ledger = Ledger()
    started = time.perf_counter()
    with installed(ledger):
        outcome = workload.run_pass(seed, chunked=False)
    return outcome, ledger, time.perf_counter() - started


def fastest(passes):
    """The fastest pass, segment by segment: ``(wall_s, sim_s)``.

    Every pass does the same work segment for segment (the gate holds
    their digests equal), and contention only adds time, so the least
    disturbed time of each segment is the quickest one seen.  Host
    slow-downs come and go within a pass; taking the minimum per segment
    instead of per pass keeps one slow stretch from costing the whole
    pass.  Passes split differently fall back to the fastest whole pass.
    """
    shapes = {tuple(sim for sim, _seconds in outcome.segments)
              for outcome in passes}
    if len(shapes) != 1:
        best = min(passes, key=lambda outcome: outcome.wall_s)
        return best.wall_s, sum(seconds for sim, seconds in best.segments if sim)
    wall_s = sim_s = 0.0
    for column in zip(*(outcome.segments for outcome in passes)):
        seconds = min(seconds for _sim, seconds in column)
        wall_s += seconds
        if column[0][0]:
            sim_s += seconds
    return wall_s, sim_s


def gate(passes):
    """Mark every pass whose digest or committed count differs from the first's."""
    reference = passes[0]
    for outcome in passes[1:]:
        if outcome.digest != reference.digest:
            outcome.errors.append("run_digest %s differs from the first pass's %s"
                                  % (outcome.digest[:16], reference.digest[:16]))
        if outcome.committed != reference.committed:
            outcome.errors.append("%d committed, the first pass %d"
                                  % (outcome.committed, reference.committed))


def end_to_end(passes, setups):
    wall_s, sim_s = fastest(passes)
    offered = sum(outcome.offered for outcome in passes)
    committed = sum(outcome.committed for outcome in passes
                    if not outcome.errors)
    return {
        "wall_s": (wall_s, "s"),
        "txns_per_s": (passes[0].outcomes / sim_s, "1/s"),
        # Contention only adds time to a cold start too.
        "setup_s": (min(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "txn_ok_frac": (committed / offered, "ratio"),
    }


def per_layer(passes, traced, ledger, traced_wall_s):
    metrics = {}
    for layer, (calls, self_s) in ledger.by_layer().items():
        metrics[layer + ".calls"] = (calls, "count")
        metrics[layer + ".self_s"] = (self_s, "s")
    counters = traced.counters
    requests = counters["lockmgr.requests"]
    accesses = counters["buf_pool.hits"] + counters["buf_pool.misses"]
    prewarm = ledger.self_s.get(("bufferpool", "BufferPool.prewarm"), 0.0)
    metrics.update({
        "sim.kernel.dispatches": (traced.dispatches, "count"),
        "engines.fast_frac": (
            ledger.fast_attempts / ledger.attempts if ledger.attempts else 0.0,
            "ratio"),
        "lockmgr.wait_frac": (
            counters["lockmgr.waits"] / requests if requests else 0.0, "ratio"),
        "bufferpool.prewarm_s": (prewarm, "s"),
        "bufferpool.hit_ratio": (
            counters["buf_pool.hits"] / accesses if accesses else 0.0, "ratio"),
        "other.self_s": (traced_wall_s - ledger.covered_s, "s"),
        "trace_overhead": (traced_wall_s / fastest(passes)[0], "ratio"),
    })
    return metrics


def print_ledger(ledger, limit=20):
    """The costliest entry points, for reading; the JSON line is the result."""
    rows = sorted((item for item in ledger.self_s.items() if ledger.calls[item[0]]),
                  key=lambda item: -item[1])[:limit]
    print("  %-14s %-44s %12s %10s" % ("layer", "entry point", "calls", "self_s"))
    for (layer, entry), seconds in rows:
        print("  %-14s %-44s %12d %10.4f"
              % (layer, entry[:44], ledger.calls[(layer, entry)], seconds))


def print_result(attempted, failed, metrics):
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cold-start", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workloads = _import_workloads()
    if args.workload not in workloads:
        parser.error("unknown workload %r (known: %s)"
                     % (args.workload, ", ".join(workloads)))
    if args.cold_start:
        cold_start(args.workload, args.seed)
    workload = workloads[args.workload]

    passes, setups = timed_passes(workload, args.seed,
                                  workload.passes(args.seconds),
                                  0 if args.trace else COLD_STARTS)
    if args.trace:
        from ledger import MissingEntryPoints

        try:
            traced, ledger, traced_wall_s = traced_pass(workload, args.seed)
        except MissingEntryPoints as exc:
            print("  FAILED: ledger: %s" % (exc,))
            print_result(len(passes) + 1, 1, {})
            return 1
        passes.append(traced)
    gate(passes)
    if args.trace:
        metrics = per_layer(passes[:-1], traced, ledger, traced_wall_s)
    else:
        metrics = end_to_end(passes, setups)

    failed = [outcome for outcome in passes if outcome.errors]
    print("%s seed=%d: %d passes, wall_s %s"
          % (args.workload, args.seed, len(passes),
             " ".join("%.4f" % outcome.wall_s for outcome in passes)))
    for outcome in failed:
        for error in outcome.errors:
            print("  FAILED: %s" % (error,))
    for name, (value, unit) in metrics.items():
        print("  %-24s %14.6g %s" % (name, value, unit))
    if args.trace:
        print_ledger(ledger)
    print_result(len(passes), len(failed), metrics)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

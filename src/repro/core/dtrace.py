"""A DTrace-style baseline profiler (Figure 5, left).

DTrace instruments the *binary* at run time: it needs no source access,
but every probe firing traps into a generalized tracing framework, which
costs microseconds rather than the tens of nanoseconds of TProfiler's
compiled-in source probes.  We model exactly that difference: the same
selective tracer, with a per-probe virtual-time cost two orders of
magnitude higher.  The Figure 5 experiment varies the number of
instrumented children from 1 to 100 and measures the relative drop in
throughput and rise in mean latency for both tools.
"""

# Per-probe costs in microseconds of virtual time.  TProfiler's source
# probe is a pair of rdtsc-and-store sequences (~tens of ns); DTrace's pid
# provider fires a trap into the kernel tracing framework per entry/return.
TPROFILER_PROBE_COST = 0.04
DTRACE_PROBE_COST = 15.0


def overhead_experiment(system, child_counts, probe_cost):
    """Measure instrumentation overhead as a function of probe count.

    For each ``n`` in ``child_counts``, instruments the ``n`` hottest
    functions (by static-graph breadth-first order, mimicking 'a parent
    and its first n children') and returns rows of
    ``(n, latency_overhead, throughput_overhead)`` relative to an
    uninstrumented run.

    ``system`` is a :class:`~repro.core.profiler.ProfiledSystem` whose
    ``run`` returns an object whose ``traces`` holds the run's
    transactions; the mean latency and the throughput count its
    committed ones, throughput per unit virtual time over the run's span.
    """
    baseline = _measure(system, frozenset(), 0.0)
    rows = []
    ordering = _breadth_first(system.callgraph)
    for n in child_counts:
        chosen = frozenset(ordering[: n + 1])  # parent + n children
        mean, tput = _measure(system, chosen, probe_cost)
        rows.append(
            (
                n,
                mean / baseline[0] - 1.0,
                1.0 - tput / baseline[1],
            )
        )
    return rows


def _measure(system, instrumented, probe_cost):
    traces = system.run(instrumented, probe_cost).traces
    latencies = [t.latency for t in traces if t.committed]
    span = max(t.end for t in traces) - min(t.birth for t in traces)
    mean = sum(latencies) / len(latencies)
    throughput = len(latencies) / span
    return mean, throughput


def _breadth_first(callgraph):
    order = []
    seen = set()
    frontier = [callgraph.root]
    while frontier:
        nxt = []
        for name in frontier:
            if name in seen:
                continue
            seen.add(name)
            order.append(name)
            nxt.extend(callgraph.children(name))
        frontier = nxt
    return order

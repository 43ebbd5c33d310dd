"""The simulated VoltDB engine (event-based, task-concurrent).

Transactions arrive as stored-procedure invocations and wait in a task
queue until one of ``n_workers`` worker threads picks them up; execution
itself is serial per worker with no locking or buffer management (the
VoltDB design).  Appendix A's finding: ~99.9% of latency variance is the
*queue waiting time*, so the tuning knob is the worker-thread count
(Figure 7 sweeps 2 -> 24).

Transactions here are task-concurrent: the queue wait happens in no
thread, so this engine exercises TProfiler's interval-concatenation
annotations (``begin_interval``/``end_interval``) and the tracer's
manual recording path rather than stack-based frames.
"""

from repro.core.callgraph import CallGraph
from repro.engines.base import Engine
from repro.exec.schema import register_config
from repro.sim.rand import HeavyTail, LogNormal, Pareto


QUEUE_WAIT = "[waiting in queue]"


def voltdb_callgraph():
    edges = {
        "transaction": [QUEUE_WAIT, "execute_procedure"],
        "execute_procedure": ["init_procedure", "run_plan_fragments"],
    }
    return CallGraph.from_dict("transaction", edges)


@register_config
class VoltDBConfig:
    """Engine configuration (times in microseconds)."""

    def __init__(
        self,
        n_workers=2,
        base_cpu=400.0,
        per_op_cpu=105.0,
        service_cv=0.9,
        stall_prob=0.012,
        stall_scale=7_000.0,
        stall_alpha=2.2,
        init_fraction=0.15,
        max_queue_depth=None,
        txn_deadline=None,
    ):
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self.n_workers = n_workers
        self.base_cpu = base_cpu
        self.per_op_cpu = per_op_cpu
        self.service_cv = service_cv
        # JVM-style execution stalls (GC, JIT) that persist regardless of
        # the worker count — the irreducible variance floor that bounds
        # how much adding workers can help (Figure 7's 2.6x, not more).
        self.stall_prob = stall_prob
        self.stall_scale = stall_scale
        self.stall_alpha = stall_alpha
        self.init_fraction = init_fraction
        self.max_queue_depth = max_queue_depth
        self.txn_deadline = txn_deadline


class VoltDBEngine(Engine):
    name = "voltdb"

    def __init__(self, sim, tracer, workload, streams, config=None):
        self.config = config or VoltDBConfig()
        super().__init__(
            sim,
            tracer,
            self.config.n_workers,
            max_queue_depth=self.config.max_queue_depth,
            txn_deadline=self.config.txn_deadline,
        )
        self.workload = workload
        self.rng = streams.stream("voltdb.engine")
        self.queue_waits = []
        # Service-time distributions are immutable and fully determined
        # by (config, n_ops), so one instance per op count serves every
        # transaction with bit-identical draws — no per-txn allocation.
        self._service_dists = {}
        # Appendix A: queue wait is ~99.9% of VoltDB's latency variance,
        # so it gets its own histogram next to the per-type latencies.
        self._t_queue_wait = self.telemetry.histogram("voltdb.queue_wait")

    def _service_dist(self, n_ops):
        dist = self._service_dists.get(n_ops)
        if dist is None:
            cfg = self.config
            dist = LogNormal(cfg.base_cpu + cfg.per_op_cpu * n_ops, cfg.service_cv)
            if cfg.stall_prob:
                dist = HeavyTail(
                    dist,
                    Pareto(cfg.stall_scale, cfg.stall_alpha),
                    cfg.stall_prob,
                )
            self._service_dists[n_ops] = dist
        return dist

    def _execute(self, worker, ctx, spec):
        """Generator: one stored-procedure invocation; never retried.

        The engine's one body.  Its trace records run only while a
        function of ``voltdb_callgraph()`` is instrumented
        (``tracer.engine_probed``): otherwise every ``tracer.record``
        would be a no-op, so the key tuples and calls are skipped.
        Recovery's subsystem frames are recorded outside this body and
        never open the gate.
        """
        tracer = self.tracer
        queue_wait = self.sim.now - ctx.birth
        self.queue_waits.append(queue_wait)
        self._t_queue_wait.observe(queue_wait)
        ctx.begin_interval()
        service = self._service_dist(len(spec.ops)).sample(self.rng)
        init_time = service * self.config.init_fraction
        run_time = service - init_time
        yield init_time
        yield run_time
        ctx.end_interval()
        check = self.check
        if check.enabled:
            # Single-threaded-per-partition execution: the whole
            # transaction runs (and commits) atomically at this instant,
            # so its reads observe committed state as of now and no
            # record locks exist to report.
            check.begin_attempt(ctx)
            for op in spec.ops:
                check.record_op(ctx, op, False)
        if tracer.engine_probed:
            root_key = ("transaction", "<root>")
            proc_key = ("execute_procedure", "transaction")
            tracer.record(ctx, QUEUE_WAIT, queue_wait, parent=root_key)
            tracer.record(
                ctx, "execute_procedure", service, site="transaction", parent=root_key
            )
            tracer.record(
                ctx, "init_procedure", init_time, site="execute_procedure", parent=proc_key
            )
            tracer.record(
                ctx,
                "run_plan_fragments",
                run_time,
                site="execute_procedure",
                parent=proc_key,
            )
            tracer.record(ctx, "transaction", self.sim.now - ctx.birth)
        tracer.end_transaction(ctx, committed=True)
        self.observe_txn(ctx, committed=True)

    # ------------------------------------------------------------------
    # Node crash and recovery hooks (repro.recovery)
    # ------------------------------------------------------------------

    def _crash_volatile(self, report):
        """VoltDB models a synchronous command log: commits are durable
        the instant they are reported, so a crash loses no committed
        work — only the in-flight and queued transactions the base
        :meth:`Engine.crash` already failed.  The site queue itself is
        rebuilt by the base recovery path (fresh workers draining the
        surviving submission queue)."""
        return ()

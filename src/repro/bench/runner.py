"""Build and run one experiment configuration.

An :class:`ExperimentConfig` names the engine, the workload (with
keyword overrides), the offered load, and any engine configuration; the
runner assembles the simulator, random streams, tracer, engine and
driver, runs the virtual clock until every transaction completes, and
returns a :class:`RunResult`.

Methodology matches Section 7.1: constant offered throughput (500 tps
default), a warmup fraction discarded from the front of the run (cold
buffer pool, empty queues), and mean / variance / p99 computed over the
remaining committed transactions.

With ``num_shards > 1`` (or an explicit ``topology``) the runner builds
a :class:`~repro.cluster.Cluster` instead of a bare engine: one full
engine stack per shard (per-node seeded streams, ``node=<id>``-labeled
telemetry), a simulated network, and a 2PC coordinator for cross-shard
transactions.  ``num_shards=1`` with no topology never constructs any of
that, so single-node runs stay byte-identical to the pre-cluster tree.
"""

import gc
import inspect
from array import array

from repro.bench.digest import run_digest
from repro.check.recorder import HistoryRecorder
from repro.cluster import Cluster, Node, Topology, make_router
from repro.core.annotations import TransactionLog
from repro.core.tracing import Tracer
from repro.faults.injector import NO_FAULTS, FaultInjector
from repro.engines.mysql import MySQLConfig, MySQLEngine, mysql_callgraph
from repro.engines.postgres import PostgresConfig, PostgresEngine, postgres_callgraph
from repro.engines.voltdb import VoltDBConfig, VoltDBEngine, voltdb_callgraph
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.sim.rand import Streams
from repro.exec.schema import register_config
from repro.sim.stats import summarize
from repro.telemetry import (
    NULL_REGISTRY,
    MetricsRegistry,
    snapshot_node_slice,
    snapshot_rollup,
)
from repro.workloads import WORKLOADS, make_workload
from repro.workloads.driver import LoadDriver

_ENGINES = {
    "mysql": (MySQLEngine, MySQLConfig, mysql_callgraph),
    "postgres": (PostgresEngine, PostgresConfig, postgres_callgraph),
    "voltdb": (VoltDBEngine, VoltDBConfig, voltdb_callgraph),
}


def engine_callgraph(engine_name):
    """The static call graph for an engine by name."""
    return _ENGINES[engine_name][2]()


def _validate_workload(workload, workload_kwargs):
    """Reject unknown workload names / kwarg keys at construction time.

    ``make_workload`` would eventually raise for both, but only once the
    run is already assembling — mid-sweep, or inside a pool worker.
    Failing in the :class:`ExperimentConfig` constructor keeps bad
    configs from ever entering an executor batch.
    """
    try:
        workload_cls = WORKLOADS[workload.lower()]
    except (KeyError, AttributeError):
        raise ValueError(
            "unknown workload %r (known: %s)"
            % (workload, ", ".join(sorted(WORKLOADS)))
        ) from None
    params = inspect.signature(workload_cls.__init__).parameters
    if any(p.kind is p.VAR_KEYWORD for p in params.values()):
        return
    accepted = {name for name in params if name != "self"}
    unknown = sorted(set(workload_kwargs) - accepted)
    if unknown:
        raise ValueError(
            "workload %r does not accept kwarg(s) %s (accepted: %s)"
            % (workload, ", ".join(unknown), ", ".join(sorted(accepted)))
        )


@register_config
class ExperimentConfig:
    """A declarative experiment: engine + workload + load + knobs.

    Registered with :mod:`repro.exec.schema`: the field schema is the
    ``__init__`` parameter list, and ``to_dict``/``from_dict``/
    ``replaced``/``config_digest`` are schema-derived (see
    docs/execution.md).
    """

    def __init__(
        self,
        engine="mysql",
        workload="tpcc",
        workload_kwargs=None,
        engine_config=None,
        seed=42,
        n_txns=3000,
        rate_tps=500.0,
        warmup_fraction=0.1,
        instrumented=(),
        probe_cost=0.0,
        telemetry=True,
        fault_plan=None,
        num_shards=1,
        topology=None,
        replicas=0,
        replication=None,
        check=False,
    ):
        if engine not in _ENGINES:
            raise ValueError("unknown engine %r" % (engine,))
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1, got %r" % (num_shards,))
        if replicas < 0:
            raise ValueError("replicas must be >= 0, got %r" % (replicas,))
        _validate_workload(workload, workload_kwargs or {})
        self.engine = engine
        self.workload = workload
        self.workload_kwargs = dict(workload_kwargs or {})
        self.engine_config = engine_config
        self.seed = seed
        self.n_txns = n_txns
        self.rate_tps = rate_tps
        self.warmup_fraction = warmup_fraction
        self.instrumented = frozenset(instrumented)
        self.probe_cost = probe_cost
        # Telemetry emitters consume zero virtual time, so this flag can
        # never change a run's results — only whether a metrics snapshot
        # is available afterwards.
        self.telemetry = telemetry
        # Optional repro.faults.FaultPlan; None (or a plan with nothing
        # configured) wires the NO_FAULTS null injector, which keeps the
        # run byte-identical to a build without the fault subsystem.
        self.fault_plan = fault_plan
        # Cluster shape: num_shards=1 with no topology is the classic
        # single-node run (no network, no router, no coordinator).
        self.num_shards = num_shards
        self.topology = topology
        # Replication (repro.replication): replicas per shard plus an
        # optional ReplicationConfig.  replicas=0 (the default)
        # constructs zero replication objects — byte-identical to a
        # build without the subsystem (pinned by the golden digests).
        self.replicas = replicas
        self.replication = replication
        # Correctness checking (repro.check): record the run's history
        # for the offline oracles.  The recorder consumes no virtual
        # time, so — like telemetry — this flag can never change a run's
        # results, only whether a history is available afterwards.
        self.check = check

    @property
    def is_clustered(self):
        # Replicated runs always build a Cluster (even with one shard):
        # the coordinator owns the network and the read routing.
        return (
            self.num_shards > 1
            or self.topology is not None
            or self.replicas > 0
        )

class RunResult:
    """Everything one run produced.

    Every reading (``traces``, ``latencies``, ``summary``,
    ``throughput_tps``, ``digest()`` ...) is written once, here, over a
    few primitives: ``all_traces``, ``warmup_count``, ``failed_counts``,
    ``metrics_snapshot()``, ``final_clock`` and ``dispatch_count``.  A
    live result reads them off the simulator;
    :class:`~repro.exec.artifact.RunArtifact` stores them as plain data
    and inherits every reading.
    """

    def __init__(self, config, log, engine, sim, warmup_count):
        self.config = config
        self.log = log
        self.engine = engine
        self.sim = sim
        self.warmup_count = warmup_count

    # -- primitives ----------------------------------------------------

    @property
    def all_traces(self):
        """Every finished transaction, warmup and failures included."""
        return self.log.traces

    @property
    def final_clock(self):
        """The virtual clock when the run drained."""
        return self.sim.now

    @property
    def dispatch_count(self):
        """Wakeups the kernel dispatched over the run."""
        return self.sim.dispatch_count

    @property
    def cluster_stats(self):
        """Single-home and cross-shard totals (``None`` off a cluster)."""
        engine = self.engine
        if not hasattr(engine, "single_home_txns"):
            return None
        return {
            "single_home_txns": engine.single_home_txns,
            "cross_shard_txns": engine.cross_shard_txns,
        }

    def metrics_snapshot(self):
        """The metrics report for this run: plain JSON-serialisable dicts.

        Empty when the run was configured with ``telemetry=False``.
        """
        return self.sim.telemetry.snapshot()

    def event_log_jsonl(self):
        """The structured event log as JSON lines (empty when disabled)."""
        return self.sim.telemetry.events.to_jsonl()

    def node_metrics_snapshot(self, node_id):
        """One node's slice of the metrics, with the label stripped.

        Clustered runs label every node-side instrument ``{node=<id>}``;
        this filters the full snapshot down to one node and returns it
        keyed by the bare instrument name, so per-node reports read
        exactly like a single-node ``metrics_snapshot()``.
        """
        return snapshot_node_slice(self.metrics_snapshot(), node_id)

    def metrics_rollup(self):
        """Cluster-wide totals: labeled instruments merged by base name.

        Counters and gauge values/maxima sum across nodes; histograms
        merge exactly for ``count``/``sum``/``mean``/``min``/``max``
        (per-node quantiles do not compose, so merged histograms omit
        them).  Unlabeled instruments pass through untouched.
        """
        return snapshot_rollup(self.metrics_snapshot())

    # -- the measurement set -------------------------------------------

    @property
    def traces(self):
        """Committed, post-warmup traces (the measurement set)."""
        return [
            t
            for t in self.all_traces
            if t.committed and t.txn_id >= self.warmup_count
        ]

    @property
    def committed_count(self):
        """Committed transactions across the whole run (warmup included)."""
        return sum(1 for t in self.all_traces if t.committed)

    @property
    def latencies(self):
        # Packed doubles, not a list of boxed floats: a large run's
        # latency vector is 3-4x smaller and feeds numpy zero-copy.
        return array("d", (t.latency for t in self.traces))

    def latencies_of(self, txn_type):
        return array(
            "d", (t.latency for t in self.traces if t.txn_type == txn_type)
        )

    @property
    def summary(self):
        return summarize(self.latencies)

    @property
    def throughput_tps(self):
        """Completed transactions per second of virtual time."""
        traces = self.traces
        if not traces:
            return 0.0
        span = max(t.end for t in traces) - min(t.birth for t in traces)
        if span <= 0:
            return 0.0
        return len(traces) / (span / 1_000_000.0)

    # -- robustness accounting -----------------------------------------

    @property
    def abort_counts(self):
        """Per-reason per-attempt abort counts (``deadlock``/``timeout``...)."""
        return dict(self.engine.aborts_by_reason)

    @property
    def failed_counts(self):
        """Per-reason counts of transactions that never committed."""
        return dict(self.engine.failed_by_reason)

    @property
    def failed_txns(self):
        """Transactions that never committed, across all reasons."""
        return self.engine.failed_txns

    @property
    def shed_txns(self):
        """Arrivals rejected by the bounded submission queue."""
        return self.failed_counts.get("shed", 0)

    @property
    def fault_counts(self):
        """Injected-fault totals for the run (empty dict when no plan)."""
        faults = self.sim.faults
        if not faults.enabled:
            return {}
        counts = {
            "io_errors": faults.io_errors,
            "worker_crashes": faults.worker_crashes,
        }
        # Only plans that schedule node crashes report the key, so every
        # pre-recovery fault golden stays byte-identical.
        if faults.plan.node_crash_times:
            counts["node_crashes"] = faults.node_crashes
        return counts

    # -- correctness checking (repro.check) ----------------------------

    @property
    def history(self):
        """The recorded :class:`~repro.check.History` (None when off)."""
        recorder = self.sim.check
        return recorder.history if recorder.enabled else None

    def check_report(self):
        """Run every oracle over the history; ``[]`` means clean.

        ``None`` when the run was configured with ``check=False``.
        """
        history = self.history
        if history is None:
            return None
        from repro.check.oracles import check_all

        return check_all(history)

    @property
    def txn_outcomes(self):
        """Bounded per-transaction ``(txn_id, type, outcome)`` listing.

        Recorded behind the ``check`` flag; ``None`` when checking was
        off.  ``outcome`` is ``"committed"`` or the failure reason
        (``"shed"`` / ``"deadline"`` / ``"deadlock"`` ...).
        """
        recorder = self.sim.check
        return list(recorder.outcomes) if recorder.enabled else None

    @property
    def outcome_counts(self):
        """Exact per-outcome totals (unbounded; ``None`` when check off)."""
        recorder = self.sim.check
        return dict(recorder.outcome_counts) if recorder.enabled else None

    # -- identity ------------------------------------------------------

    def digest(self):
        """SHA-256 over the canonical run payload (``run_digest``)."""
        return run_digest(self)

    def artifact(self):
        """The picklable plain-data extract of this run (repro.exec)."""
        from repro.exec.artifact import RunArtifact

        return RunArtifact.from_result(self)

    def __repr__(self):
        return "<RunResult %s/%s n=%d>" % (
            self.config.engine,
            self.config.workload,
            len(self.traces),
        )


def run_experiment(config, simulator_cls=None):
    """Execute one :class:`ExperimentConfig` to completion.

    ``simulator_cls`` swaps the event-loop implementation (default: the
    production :class:`~repro.sim.kernel.Simulator`);
    ``tests/test_cost_counts.py`` uses it to count the reference
    kernel's heap pushes on identical workloads.
    """
    registry = MetricsRegistry() if config.telemetry else NULL_REGISTRY
    streams = Streams(config.seed)
    plan = config.fault_plan
    if plan is not None and plan.enabled:
        faults = FaultInjector(plan, streams, telemetry=registry)
    else:
        faults = NO_FAULTS
    if simulator_cls is None:
        simulator_cls = Simulator
    sim = simulator_cls(telemetry=registry, faults=faults)
    registry.bind_clock(sim)
    if config.check:
        sim.check = HistoryRecorder(sim)
    workload = make_workload(config.workload, **config.workload_kwargs)
    log = TransactionLog()
    engine_cls, _config_cls, callgraph_factory = _ENGINES[config.engine]
    tracer = Tracer(
        sim,
        callgraph_factory(),
        instrumented=config.instrumented,
        probe_cost=config.probe_cost,
        log=log,
    )
    if config.is_clustered:
        engine = _build_cluster(config, sim, tracer, workload, streams, engine_cls)
    else:
        engine = engine_cls(
            sim, tracer, workload, streams, config=config.engine_config
        )
    if plan is not None and plan.node_crash_times:
        # Crash-recovery runs surface replay and in-doubt stalls as
        # variance-tree frames.  They are subsystem frames, recorded
        # outside every engine chain, so the engines' flat statement
        # loops stay engaged.
        from repro.recovery import RECOVERY_FRAMES, crash_controller

        tracer.instrument_subsystem(RECOVERY_FRAMES)
        if config.is_clustered:
            controller = crash_controller(sim, plan, cluster=engine)
        else:
            controller = crash_controller(sim, plan, engine=engine)
        sim.spawn(controller, name="recovery.controller")
    driver = LoadDriver(
        sim,
        engine,
        workload,
        streams,
        rate_tps=config.rate_tps,
        n_txns=config.n_txns,
    )
    driver.start()
    # The run allocates generators and tuples at a rate that makes the
    # cyclic GC's periodic scans pure overhead (simulation state is one
    # big live object graph; almost nothing is collectable mid-run).
    # Pausing collection is invisible in virtual time.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        sim.run()
    finally:
        if gc_was_enabled:
            gc.enable()
    warmup_count = int(config.n_txns * config.warmup_fraction)
    return RunResult(config, log, engine, sim, warmup_count)


def _build_cluster(config, sim, tracer, workload, streams, engine_cls):
    """Assemble nodes + network + router + coordinator for a sharded run."""
    if not engine_cls.supports_branches:
        raise ValueError(
            "engine %r does not support 2PC participant branches; "
            "it cannot host a multi-shard or replicated cluster"
            % (config.engine,)
        )
    topology = config.topology or Topology()
    network = Network(
        sim, streams.stream("cluster.network"), config=topology.network
    )
    router = make_router(
        topology.router,
        config.num_shards,
        num_homes=getattr(workload, "warehouses", None),
    )
    nodes = [
        Node(
            node_id,
            sim,
            streams,
            lambda node_sim, node_streams: engine_cls(
                node_sim,
                tracer,
                workload,
                node_streams,
                config=config.engine_config,
            ),
        )
        for node_id in range(config.num_shards)
    ]
    groups = None
    if config.replicas > 0:
        from repro.replication import (
            REPLICATION_FRAMES,
            ReplicaGroup,
            ReplicationConfig,
        )

        repl_config = config.replication or ReplicationConfig()
        tracer.instrument_subsystem(REPLICATION_FRAMES)
        groups = {}
        for node in nodes:
            group = ReplicaGroup(
                sim,
                tracer,
                node.node_id,
                node.node_id,
                network,
                streams,
                repl_config,
                config.replicas,
            )
            groups[node.node_id] = group
            node.engine.replication = group
    return Cluster(
        sim, tracer, nodes, network, router, streams, topology, groups=groups
    )

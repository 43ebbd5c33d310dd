"""Differential testing: each engine's statement body, probed vs unprobed.

MySQL carries one flat statement body (``_mysql_execute_fast``, a
single generator frame, used unless a function of its call graph is
instrumented) and one traced delegation chain through
:meth:`Tracer.traced`; each serves both single-node attempts and 2PC
participant branches.  Postgres and VoltDB have one body each, which
opens its probe spans (``Tracer.enter`` / ``Tracer.exit``; VoltDB's
trace records) only while probed.  Hypothesis generates random
programs — benchmark, seed, arrival rate, worker count and the run mode
(shards, replicas and their mode, a node crash, the history recorder) —
and runs each one twice: once uninstrumented and once with every
function of the engine's call graph instrumented at ``probe_cost=0``.
Zero-cost probes may not change anything observable, so the full run
digests — latency sequence, final clock, metrics snapshot, abort/fault
counts — must be byte-identical, and so must the oracle reports.

Each pair also checks that probing really engaged, or a gate that
silently stayed shut would compare unprobed with unprobed.  MySQL's
untraced run must call the flat body, for every branch it executed
too, and its probed run must not.  For the one-body engines the probed
run's traces must carry the body's frames (Postgres's
``exec_simple_query`` and ``ExecutorRun``, VoltDB's
``execute_procedure``) and the untraced run's no call-graph name.
Two-shard programs run TPC-C with cross-shard Payments, so 2PC rounds
happen.

Every name an engine opens, traces or records must be either an engine
function or a subsystem frame, which never opens an engine span: the
last test pins this in a probed clustered, replicated, crashing run,
and that every call-graph name is seen there.

This is the engine-level analogue of ``test_kernel_differential``: the
goldens pin a handful of fixed macro cells, these tests walk the
configuration space around them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.digest import run_digest
from repro.bench.runner import ExperimentConfig, run_experiment
from repro.cluster.coordinator import DIST_FRAMES
from repro.core.tracing import Tracer
from repro.engines.base import Branch
from repro.engines.mysql import MySQLConfig, MySQLEngine, mysql_callgraph
from repro.engines.postgres import (
    PostgresConfig,
    PostgresEngine,
    postgres_callgraph,
)
from repro.engines.voltdb import VoltDBConfig, VoltDBEngine, voltdb_callgraph
from repro.faults.plan import FaultPlan
from repro.recovery import RECOVERY_FRAMES
from repro.replication import REPLICATION_FRAMES, ReplicationConfig

#: engine -> (every function of its call graph, class, flat statement
#: body; None for the engines with one body)
ENGINES = {
    "mysql": (
        frozenset(mysql_callgraph().functions), MySQLEngine,
        "_mysql_execute_fast",
    ),
    "postgres": (frozenset(postgres_callgraph().functions), PostgresEngine, None),
    "voltdb": (frozenset(voltdb_callgraph().functions), VoltDBEngine, None),
}
#: one-body engine -> the names its probed run must record
ENGAGED = {
    "postgres": ("exec_simple_query", "ExecutorRun"),
    "voltdb": ("execute_procedure",),
}
SUBSYSTEM_FRAMES = frozenset(DIST_FRAMES + REPLICATION_FRAMES + RECOVERY_FRAMES)

#: Small benchmarks with different op shapes: TPC-C mixes reads, writes
#: and explicit lock modes; YCSB is key-value point ops; TATP is short
#: read-mostly transactions.
_workloads = st.sampled_from(
    [
        ("tpcc", {"warehouses": 2}),
        ("ycsb", {}),
        ("tatp", {}),
    ]
)
_seeds = st.integers(min_value=0, max_value=2**16)
_n_txns = st.integers(min_value=20, max_value=50)
_rates = st.sampled_from([200.0, 500.0, 2_000.0])
#: When the node crashes, as a fraction of the arrival horizon.
_crashes = st.none() | st.floats(min_value=0.1, max_value=0.9)
#: The run modes of an engine that can host a cluster.
_cluster_modes = dict(
    num_shards=st.sampled_from([1, 2]),
    replicas=st.sampled_from([0, 1, 2]),
    mode=st.sampled_from(["sync", "semi_sync", "async"]),
    crash=_crashes,
    check=st.booleans(),
)


def _config(engine, engine_config, workload, seed, n_txns, rate, crash,
            check, num_shards=1, replicas=0, mode=None):
    name, kwargs = workload
    if num_shards > 1:
        # Cross-shard Payments, so 2PC branches run, probed and unprobed.
        name, kwargs = "tpcc", {"warehouses": 2, "remote_payment_prob": 0.3}
    fault_plan = None
    if crash is not None:
        crash_at = crash * n_txns / rate * 1_000_000.0
        fault_plan = FaultPlan(name="node-crash", node_crash_times=((0, crash_at),))
    return ExperimentConfig(
        engine=engine,
        workload=name,
        workload_kwargs=kwargs,
        engine_config=engine_config,
        seed=seed,
        n_txns=n_txns,
        rate_tps=rate,
        warmup_fraction=0.0,
        num_shards=num_shards,
        replicas=replicas,
        replication=ReplicationConfig(mode=mode) if replicas else None,
        fault_plan=fault_plan,
        check=check,
    )


def _assert_fast_matches_traced(config):
    probes, engine_cls, flat_name = ENGINES[config.engine]
    if flat_name is None:
        _assert_one_body_matches_probed(config, probes, ENGAGED[config.engine])
        return
    flat, branch_execute = getattr(engine_cls, flat_name), engine_cls._branch_execute
    calls = {"flat": 0, "flat_branch": 0, "branch": 0}

    def counted_flat(self, *args):
        calls["flat_branch" if isinstance(args[-1], Branch) else "flat"] += 1
        return flat(self, *args)

    def counted_branch(self, *args):
        calls["branch"] += 1
        return branch_execute(self, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine_cls, flat_name, counted_flat)
        mp.setattr(engine_cls, "_branch_execute", counted_branch)
        fast = run_experiment(config)
        untraced = dict(calls)
        traced = run_experiment(
            config.replaced(instrumented=probes, probe_cost=0.0)
        )
    assert untraced["flat"] > 0, "the untraced run never took %s" % flat_name
    assert untraced["flat_branch"] == untraced["branch"], (
        "the untraced run ran a 2PC branch outside %s" % flat_name
    )
    assert calls["flat"] == untraced["flat"], "the probed run took %s" % flat_name
    assert calls["flat_branch"] == untraced["flat_branch"], (
        "the probed run ran a 2PC branch through %s" % flat_name
    )
    assert run_digest(fast) == run_digest(traced)
    assert fast.check_report() == traced.check_report()


def _traced_names(result):
    return {name for trace in result.traces for name, _site in trace.durations}


def _assert_one_body_matches_probed(config, probes, engaged):
    """A one-body engine records its frames only while probed."""
    fast = run_experiment(config)
    traced = run_experiment(config.replaced(instrumented=probes, probe_cost=0.0))
    recorded = _traced_names(fast) & probes
    assert not recorded, "the untraced run recorded %s" % sorted(recorded)
    missing = set(engaged) - _traced_names(traced)
    assert not missing, "the probed run never recorded %s" % sorted(missing)
    assert run_digest(fast) == run_digest(traced)
    assert fast.check_report() == traced.check_report()


@settings(max_examples=25, deadline=None)
@given(workload=_workloads, seed=_seeds, n_txns=_n_txns, rate=_rates,
       **_cluster_modes)
def test_mysql_fast_path_matches_traced(workload, seed, n_txns, rate,
                                        num_shards, replicas, mode, crash,
                                        check):
    _assert_fast_matches_traced(_config(
        "mysql", MySQLConfig(n_workers=8), workload, seed, n_txns, rate,
        crash, check, num_shards, replicas, mode,
    ))


@settings(max_examples=25, deadline=None)
@given(workload=_workloads, seed=_seeds, n_txns=_n_txns, rate=_rates,
       **_cluster_modes)
def test_postgres_fast_path_matches_traced(workload, seed, n_txns, rate,
                                           num_shards, replicas, mode, crash,
                                           check):
    _assert_fast_matches_traced(_config(
        "postgres", PostgresConfig(n_workers=8), workload, seed, n_txns, rate,
        crash, check, num_shards, replicas, mode,
    ))


@settings(max_examples=25, deadline=None)
@given(
    workload=_workloads, seed=_seeds, n_txns=_n_txns, rate=_rates,
    n_workers=st.integers(min_value=1, max_value=4), crash=_crashes,
    check=st.booleans(),
)
def test_voltdb_fast_path_matches_traced(workload, seed, n_txns, rate,
                                         n_workers, crash, check):
    _assert_fast_matches_traced(_config(
        "voltdb", VoltDBConfig(n_workers=n_workers), workload, seed, n_txns,
        rate, crash, check,
    ))


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_every_traced_name_is_in_the_call_graph_or_a_subsystem_frame(
    engine, monkeypatch
):
    """The gate's invariant: a name outside both sets would be recorded
    while probed but silently dropped whenever the engine runs
    unprobed (MySQL's flat loop, a span body with its spans shut).
    Every call-graph name must be seen, or a frame the body stopped
    opening would go unnoticed.  The clustered engines run 2 shards with
    a replica each, a node crash and a coordinator crash (which leaves a
    branch in doubt); VoltDB hosts no cluster, so its run is a
    single-node crash."""
    probes = ENGINES[engine][0]
    seen = set()

    def spy(method):
        def spied(self, ctx, name, *args, **kwargs):
            seen.add(name)
            return method(self, ctx, name, *args, **kwargs)
        return spied

    for name in ("traced", "enter", "record"):
        monkeypatch.setattr(Tracer, name, spy(getattr(Tracer, name)))
    if engine == "voltdb":
        crashes, cluster = ((0, 200_000.0),), {}
    else:
        crashes = ((0, 100_000.0), ("coord", 120_000.0))
        cluster = dict(num_shards=2, replicas=1,
                       replication=ReplicationConfig(mode="semi_sync"))
    run_experiment(ExperimentConfig(
        engine=engine,
        workload="tpcc",
        workload_kwargs={"warehouses": 4, "remote_payment_prob": 0.3},
        seed=5,
        n_txns=200,
        rate_tps=500.0,
        fault_plan=FaultPlan(name="crash", node_crash_times=crashes),
        check=True,
        instrumented=probes,
        probe_cost=0.0,
        **cluster,
    ))
    assert seen - probes - SUBSYSTEM_FRAMES == set()
    assert probes - seen == set()
    assert seen & SUBSYSTEM_FRAMES

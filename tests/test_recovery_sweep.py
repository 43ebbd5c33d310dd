"""Crash-point sweeps: recovery must be correct at *every* instant.

The crash controller kills a node (or the 2PC coordinator) at a planned
virtual-time instant; these tests sweep that instant across a tiny fixed
workload's whole execution — every k-th event boundary observed in a
crash-free baseline, plus adversarially chosen points bracketing each
coordinator decision (just before the vote deadline, and in the window
between the decision-log write and the branch notifications) — and
require, at every single point:

- all four oracles clean (serializability, 2PC atomicity, lock
  intervals, durability/in-doubt resolution);
- exact client accounting: every submitted transaction reaches exactly
  one outcome, ``sum(outcome_counts.values()) == n_txns``, including
  under load shedding;
- the run still terminates (no leaked in-flight counts, no processes
  parked forever on events nobody will fire).

The cross-process test at the bottom locks down determinism: the same
seed and fault plan must produce a byte-identical post-recovery run
digest in interpreters with different ``PYTHONHASHSEED``.
"""

import gc
import json
import sys

import pytest

from repro.bench import paperconfig as pc
from repro.bench.digest import run_digest
from repro.bench.runner import ExperimentConfig, run_experiment
from repro.core.tracing import Tracer
from repro.engines.mysql import mysql_callgraph
from repro.engines.postgres import postgres_callgraph
from repro.exec import run_many
from repro.faults.plan import FaultPlan, named_plan
from repro.replication import ReplicationConfig

from tests.util import assert_hash_seed_invariant


def _single_node_config(engine, **overrides):
    kwargs = dict(
        engine=engine,
        workload="tpcc",
        workload_kwargs={"warehouses": 4},
        n_txns=80,
        rate_tps=600.0,
        seed=23,
        check=True,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def _cluster_config(**overrides):
    kwargs = dict(
        engine="mysql",
        workload="tpcc",
        workload_kwargs={"warehouses": 8, "remote_payment_prob": 0.35},
        n_txns=80,
        rate_tps=600.0,
        seed=23,
        num_shards=2,
        check=True,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def _event_boundaries(result, every_kth):
    """Every k-th distinct virtual-time event boundary of a baseline run.

    "Event boundary" here is every instant the recorder observed state
    change at: transaction/branch completions and 2PC decision points.
    Crashing half a microsecond *after* each lands the crash between
    adjacent events — the adversarial placement.
    """
    times = {rec.commit_time for rec in result.history.txns}
    for rnd in result.history.rounds:
        if rnd.decision is not None:
            times.add(rnd.decision[2])
    ordered = sorted(times)
    return [round(t + 0.5, 1) for t in ordered[::every_kth]]


def _sweep(base_config, crash_points, target):
    """Run one crash per point; return the aggregated outcome counts.

    The points are independent deterministic runs, so the sweep fans
    out through the execution layer (``repro.exec.run_many``); the
    returned artifacts carry everything the assertions need.
    """
    n = base_config.n_txns
    configs = [
        base_config.replaced(fault_plan=FaultPlan(
            name="sweep-crash", node_crash_times=((target, crash_at),)
        ))
        for crash_at in crash_points
    ]
    aggregate = {}
    for crash_at, artifact in zip(crash_points, run_many(configs)):
        violations = artifact.check_report()
        assert violations == [], (
            "crash target=%r t=%r: %r" % (target, crash_at, violations)
        )
        counts = artifact.outcome_counts
        assert sum(counts.values()) == n, (
            "crash target=%r t=%r lost/duplicated clients: %r"
            % (target, crash_at, counts)
        )
        assert artifact.fault_counts["node_crashes"] == 1
        for outcome, count in counts.items():
            aggregate[outcome] = aggregate.get(outcome, 0) + count
    return aggregate


@pytest.mark.parametrize("engine", ["mysql", "postgres", "voltdb"])
def test_single_node_crash_sweep(engine):
    base = _single_node_config(engine)
    baseline = run_experiment(base)
    assert baseline.check_report() == []
    points = _event_boundaries(baseline, every_kth=12)
    # One point past the crash-free end: crash after all work finished.
    points.append(round(baseline.sim.now + 10_000.0, 1))
    aggregate = _sweep(base, points, target=0)
    assert aggregate["committed"] > 0


def test_cluster_node_crash_sweep():
    base = _cluster_config()
    baseline = run_experiment(base)
    assert baseline.check_report() == []
    points = _event_boundaries(baseline, every_kth=10)
    for target in (0, 1):
        aggregate = _sweep(base, points, target)
        assert aggregate["committed"] > 0


def test_cluster_node_crash_at_prepared_branches_resolves_indoubt():
    """Crash a node just before each decision: branches are prepared
    (voted yes, undecided) and must resolve through the in-doubt path
    after restart, never leaking locks or losing the global outcome."""
    base = _cluster_config()
    baseline = run_experiment(base)
    decisions = sorted(
        rnd.decision[2]
        for rnd in baseline.history.rounds
        if rnd.decision is not None
    )
    assert decisions, "fixture must exercise 2PC"
    points = [round(t - 1.0, 1) for t in decisions[::3]]
    _sweep(base, points, target=0)
    _sweep(base, points, target=1)


def test_coord_crash_sweep_including_log_notify_window():
    """Coordinator crashes at event boundaries AND in the window between
    the decision-log write and the branch notifications (decision time
    + 0.5us: durable decision, no participant informed yet).  Recovery
    must re-drive logged commits — the sweep as a whole has to produce
    at least one ``recovered_commit`` — and presumed-abort the rest."""
    base = _cluster_config()
    baseline = run_experiment(base)
    decisions = sorted(
        rnd.decision[2]
        for rnd in baseline.history.rounds
        if rnd.decision is not None
    )
    assert decisions, "fixture must exercise 2PC"
    points = _event_boundaries(baseline, every_kth=10)
    points += [round(t + 0.5, 1) for t in decisions[::2]]
    aggregate = _sweep(base, sorted(set(points)), target="coord")
    assert aggregate.get("recovered_commit", 0) > 0, (
        "no crash point exercised the logged-commit redrive: %r" % (aggregate,)
    )


def test_outcome_sum_under_shedding_and_crash():
    """Shedding and crashing together must not double- or under-count."""
    from repro.engines.mysql import MySQLConfig

    base = _single_node_config(
        "mysql",
        rate_tps=2_000.0,
        engine_config=MySQLConfig(n_workers=2, max_queue_depth=4),
    )
    baseline = run_experiment(base)
    points = _event_boundaries(baseline, every_kth=15)
    aggregate = _sweep(base, points, target=0)
    assert aggregate.get("shed", 0) > 0, "fixture must actually shed"
    assert aggregate.get("node_crash", 0) > 0


def test_post_crash_digest_cross_process():
    """Same seed + fault plan => byte-identical post-recovery digest,
    across interpreters with different ``PYTHONHASHSEED``."""
    code = (
        "import sys, json; sys.path[:0] = json.loads(sys.argv[1]); "
        "from repro.bench.digest import run_digest; "
        "from repro.bench.runner import ExperimentConfig, run_experiment; "
        "from repro.faults.plan import FaultPlan; "
        "plan = FaultPlan(name='sweep-crash', "
        "node_crash_times=((0, 60_000.0), ('coord', 140_000.0))); "
        "r = run_experiment(ExperimentConfig(engine='mysql', "
        "workload_kwargs={'warehouses': 8, 'remote_payment_prob': 0.35}, "
        "n_txns=80, rate_tps=600.0, seed=23, num_shards=2, check=True, "
        "fault_plan=plan)); "
        "print(json.dumps([run_digest(r), "
        "sorted(r.outcome_counts.items()), r.fault_counts, "
        "r.check_report()]))"
    )
    output = assert_hash_seed_invariant(code)
    digest, outcomes, fault_counts, violations = json.loads(output)
    assert fault_counts["node_crashes"] == 2
    assert sum(count for _outcome, count in outcomes) == 80
    assert violations == []


def test_post_crash_digest_in_process_repeatable():
    """And the digest is stable across repeated in-process runs."""
    plan = FaultPlan(
        name="sweep-crash", node_crash_times=((0, 60_000.0),)
    )
    config = _cluster_config(fault_plan=plan)
    assert run_digest(run_experiment(config)) == run_digest(
        run_experiment(config)
    )


@pytest.mark.parametrize("engine", ["mysql", "postgres"])
def test_probed_crash_leaves_dead_workers_quiet(engine, monkeypatch):
    """A node crash abandons its workers mid traced frame and empties
    their transactions' frame stacks; finalising those generators later
    must raise nothing (it used to report "traced frames exited out of
    order" through ``sys.unraisablehook``), and the probes stay free."""
    if engine == "mysql":
        base = pc.mysql_2wh_experiment(seed=3, n_txns=400)
        probes = frozenset(mysql_callgraph().functions)
    else:
        base = pc.postgres_experiment(seed=3, n_txns=400)
        probes = frozenset(postgres_callgraph().functions)
    base = base.replaced(fault_plan=named_plan("node-crash"), check=True)
    raised = []
    monkeypatch.setattr(
        sys, "unraisablehook", lambda args: raised.append(repr(args.exc_value))
    )
    probed = run_experiment(base.replaced(instrumented=probes, probe_cost=0.0))
    assert probed.failed_counts.get("node_crash"), "the crash hit no txn"
    digest = run_digest(probed)
    del probed
    gc.collect()
    assert raised == []
    assert digest == run_digest(run_experiment(base))


@pytest.mark.parametrize("engine,seed",
                         [("mysql", 1), ("postgres", 5), ("postgres", 1)])
def test_crashed_branch_records_no_frame_when_finalised(engine, seed,
                                                        monkeypatch):
    """A node crash empties the frame stack of every 2PC branch, in
    doubt or not, as it does a client transaction's, so its dead worker
    records nothing when it is finalised.  At these seeds the crash lands
    while branches are mid statement (MySQL's ``200/n0`` inside
    ``os_event_wait`` [A]; Postgres's ``197/n0`` inside ``XLogWrite`` and
    ``199/n0`` inside ``ProcSleep``; at Postgres seed 1 the in-doubt
    ``200/n0`` inside ``LWLockAcquireOrWait``).  Left on the stack, their
    open frames would be recorded when the kernel drops the dead worker's
    wakeup, or after the run when the cyclic collector runs, with
    durations running up to that moment."""
    graph = mysql_callgraph() if engine == "mysql" else postgres_callgraph()
    config = ExperimentConfig(
        engine=engine,
        workload="tpcc",
        workload_kwargs={"warehouses": 4, "remote_payment_prob": 0.3},
        seed=seed,
        n_txns=300,
        rate_tps=500.0,
        num_shards=2,
        replicas=1,
        replication=ReplicationConfig(mode="semi_sync"),
        fault_plan=named_plan("node-crash"),
        instrumented=frozenset(graph.functions),
        probe_cost=0.05,
    )
    exits = []
    real_exit = Tracer.exit

    def spy(tracer, ctx):
        if isinstance(sys.exc_info()[1], GeneratorExit):
            exits.append((ctx.txn_id, ctx.stack[-1].key))
        return real_exit(tracer, ctx)

    gc.collect()
    monkeypatch.setattr(Tracer, "exit", spy)
    result = run_experiment(config)
    assert result.fault_counts["node_crashes"] == 1
    del result
    gc.collect()
    assert exits == []

"""Failover sweeps: promotion must be correct at *every* instant.

Same discipline as ``tests/test_recovery_sweep.py``, but with replica
groups attached: the primary is crashed at every event boundary observed
in a crash-free baseline run, and at every single point the run must

- keep all oracles clean — including the replication family
  (stale reads, lost acks, split brain, promotion losing an
  ack-satisfied commit);
- promote exactly once (a ``promote`` record at epoch 1, a retired
  replica, one fewer live log consumer afterwards);
- preserve exact client accounting:
  ``sum(outcome_counts.values()) == n_txns``;
- terminate (no ship/apply loop parked on an event nobody fires).

Unlike the recovery sweeps this file crashes at *every* boundary, not
every k-th — failover has more moving state (ship cursors, ack waits,
apply queues) so the sweep leaves no gaps; the workload is kept small to
compensate.  The cross-process test at the bottom pins a replicated
failover run's digest across interpreters with different
``PYTHONHASHSEED``.
"""

import json

import pytest

from repro.bench.digest import run_digest
from repro.bench.runner import ExperimentConfig, run_experiment
from repro.exec import run_many
from repro.faults.plan import FaultPlan
from repro.replication import ReplicationConfig

from tests.util import assert_hash_seed_invariant


def _replicated_config(mode, **overrides):
    repl_kwargs = overrides.pop("repl_kwargs", {})
    kwargs = dict(
        engine="mysql",
        workload="tpcc",
        workload_kwargs={"warehouses": 4},
        n_txns=50,
        rate_tps=600.0,
        seed=23,
        replicas=2,
        replication=ReplicationConfig(mode=mode, ack_k=1, **repl_kwargs),
        check=True,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def _event_boundaries(result):
    """Every distinct commit/ship boundary of a crash-free baseline."""
    times = {rec.commit_time for rec in result.history.txns}
    for rec in result.history.repl:
        times.add(rec.t)
    return [round(t + 0.5, 1) for t in sorted(times)]


def _promotions(result):
    return [r for r in result.history.repl if r.kind == "promote"]


def _failover_sweep(base_config, crash_points):
    # Independent deterministic runs: fan out through repro.exec (the
    # artifacts carry the history, so _promotions works unchanged).
    n = base_config.n_txns
    configs = [
        base_config.replaced(fault_plan=FaultPlan(
            name="failover-sweep", node_crash_times=((0, crash_at),)
        ))
        for crash_at in crash_points
    ]
    aggregate = {}
    promoted_runs = 0
    for crash_at, result in zip(crash_points, run_many(configs)):
        violations = result.check_report()
        assert violations == [], (
            "failover at t=%r: %r" % (crash_at, violations)
        )
        counts = result.outcome_counts
        assert sum(counts.values()) == n, (
            "failover at t=%r lost/duplicated clients: %r"
            % (crash_at, counts)
        )
        assert result.fault_counts["node_crashes"] == 1
        promotions = _promotions(result)
        assert len(promotions) <= 1
        if promotions:
            promoted_runs += 1
            promo = promotions[0]
            assert promo.epoch == 1
            assert promo.shard == 0
            assert promo.replica in (0, 1)
        for outcome, count in counts.items():
            aggregate[outcome] = aggregate.get(outcome, 0) + count
    return aggregate, promoted_runs


@pytest.mark.parametrize("mode", ["sync", "semi_sync", "async"])
def test_failover_sweep_every_event_boundary(mode):
    base = _replicated_config(mode)
    baseline = run_experiment(base)
    assert baseline.check_report() == []
    assert _promotions(baseline) == []
    points = _event_boundaries(baseline)
    assert len(points) >= base.n_txns
    aggregate, promoted_runs = _failover_sweep(base, points)
    assert aggregate["committed"] > 0
    # Crashing mid-run must actually exercise failover, not just the
    # single-node restart path.
    assert promoted_runs == len(points)


def test_failover_sweep_with_replica_reads():
    """replica_ok routing + failover: promoted/retired replicas must
    drop out of the read pool without stranding any client."""
    base = _replicated_config(
        "async",
        repl_kwargs={"read_policy": "replica_ok",
                     "staleness_bound_us": 50_000.0},
    )
    baseline = run_experiment(base)
    assert baseline.check_report() == []
    points = _event_boundaries(baseline)[::4]
    aggregate, promoted_runs = _failover_sweep(base, points)
    assert aggregate["committed"] > 0
    assert promoted_runs == len(points)


def test_failover_under_replica_lag():
    """A lag window forces promotion of a replica with a shipped-but-
    unapplied tail: the tail replay must happen before service resumes
    and the promotion must never lose an ack-satisfied commit."""
    base = _replicated_config(
        "semi_sync",
        fault_plan=FaultPlan(
            name="lag-then-crash",
            node_crash_times=((0, 40_000.0),),
            replica_lag_windows=((0.0, 40_000.0),),
            replica_lag_stall_us=1_500.0,
        ),
    )
    result = run_experiment(base)
    assert result.check_report() == []
    assert sum(result.outcome_counts.values()) == base.n_txns
    promotions = _promotions(result)
    assert len(promotions) == 1
    assert promotions[0].epoch == 1


def test_last_replica_crash_degrades_to_restart():
    """Two crashes on the same shard: the second failover finds no live
    replica left (one promoted, one... with replicas=1 none remain) and
    must fall back to the plain restart-and-replay path, still clean."""
    base = _replicated_config(
        "semi_sync",
        replicas=1,
        fault_plan=FaultPlan(
            name="double-crash",
            node_crash_times=((0, 30_000.0), (0, 60_000.0)),
        ),
    )
    result = run_experiment(base)
    assert result.check_report() == []
    assert sum(result.outcome_counts.values()) == base.n_txns
    assert result.fault_counts["node_crashes"] == 2
    promotions = _promotions(result)
    assert len(promotions) == 1
    assert promotions[0].epoch == 1


def test_cross_process_hash_seed_failover_determinism():
    """A replicated failover run with a replica-lag window must produce
    a byte-identical digest in interpreters with different hash seeds,
    promote the replica and leave the oracles clean."""
    code = (
        "import sys, json; sys.path[:0] = json.loads(sys.argv[1]); "
        "from repro.bench.digest import run_digest; "
        "from repro.bench.runner import ExperimentConfig, run_experiment; "
        "from repro.faults.plan import FaultPlan; "
        "from repro.replication import ReplicationConfig; "
        "config = ExperimentConfig(engine='mysql', workload='tpcc', "
        "workload_kwargs={'warehouses': 4}, n_txns=60, rate_tps=600.0, "
        "seed=23, replicas=2, "
        "replication=ReplicationConfig(mode='semi_sync', ack_k=1, "
        "read_policy='replica_ok', staleness_bound_us=50_000.0), "
        "fault_plan=FaultPlan(name='xproc', "
        "node_crash_times=((0, 45_000.0),), "
        "replica_lag_windows=((0.0, 45_000.0),), "
        "replica_lag_stall_us=1_000.0), check=True); "
        "result = run_experiment(config); "
        "print(json.dumps([run_digest(result), "
        "sorted(result.outcome_counts.items()), result.check_report(), "
        "sum(rec.kind == 'promote' for rec in result.history.repl)]))"
    )
    output = assert_hash_seed_invariant(code)
    digest, counts, violations, promotions = json.loads(output)
    assert len(digest) == 64
    assert sum(count for _outcome, count in counts) == 60
    assert violations == []
    assert promotions >= 1


def test_in_process_failover_digest_repeatable():
    base = _replicated_config(
        "semi_sync",
        fault_plan=FaultPlan(
            name="repeat", node_crash_times=((0, 45_000.0),)
        ),
    )
    first = run_experiment(base)
    second = run_experiment(base)
    assert _promotions(first)
    assert run_digest(first) == run_digest(second)

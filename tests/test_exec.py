"""The execution layer: schema, artifacts, executor.

Three properties carry everything:

1. **Canonical serialization round-trips.**  For any registered config,
   ``from_dict(to_dict(c))`` digests equal to ``c`` — constructors
   re-normalise the relaxed JSON forms (lists back to tuples and
   frozensets, enum tags back to members), so the canonical form is a
   faithful identity.
2. **The schema is the signature.**  Every ``__init__`` parameter of
   :class:`ExperimentConfig` is a field, and ``replaced``/``to_dict``/
   ``from_dict`` cover all of them — the drift guard below fails the
   moment someone adds a parameter without it round-tripping (the old
   hand-maintained ``replaced()`` dict silently dropped new fields).
3. **The executor is ``run_experiment``.**  Inline and pool execution
   both produce artifacts whose ``run_digest`` equals the one computed
   from a direct ``run_experiment`` call, and an artifact reads every
   number through ``RunResult``'s own read API.
"""

import pickle

import pytest

from repro.bench.digest import run_digest, run_payload
from repro.bench.runner import ExperimentConfig, RunResult, run_experiment
from repro.cluster import Topology
from repro.engines.mysql import MySQLConfig
from repro.engines.postgres import PostgresConfig
from repro.engines.voltdb import VoltDBConfig
from repro.exec import Executor, config_fields, from_dict, run_many, to_dict
from repro.exec import executor as executor_module
from repro.exec.artifact import RunArtifact
from repro.faults.plan import FaultPlan
from repro.replication import ReplicationConfig
from repro.sim.disk import DiskConfig
from repro.sim.network import NetworkConfig
from repro.wal.mysql_log import FlushPolicy


def tiny(**overrides):
    kwargs = dict(
        workload="ycsb",
        workload_kwargs={"scale_factor": 1, "rows_per_sf": 32},
        n_txns=30,
        seed=11,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


# ----------------------------------------------------------------------
# Schema: canonical round-trips and digests
# ----------------------------------------------------------------------


ROUND_TRIP_CONFIGS = [
    ExperimentConfig(),
    tiny(),
    tiny(engine="mysql", engine_config=MySQLConfig(
        scheduler="VATS", flush_policy=FlushPolicy.LAZY_FLUSH,
        log_disk=DiskConfig.battery_backed(),
    )),
    tiny(engine="postgres", engine_config=PostgresConfig(parallel_wal=True)),
    tiny(engine="voltdb", engine_config=VoltDBConfig(n_workers=4)),
    tiny(fault_plan=FaultPlan(
        name="mixed", io_error_prob=0.01,
        brownout_windows=((1_000.0, 2_000.0),),
        node_crash_times=((0, 5_000.0),),
    )),
    tiny(workload="tpcc", workload_kwargs={"warehouses": 8,
                                           "remote_payment_prob": 0.2},
         num_shards=2,
         topology=Topology(router="range",
                           network=NetworkConfig(latency_mean=300.0)),
         check=True),
    tiny(workload="tpcc", workload_kwargs={"warehouses": 4}, replicas=2,
         replication=ReplicationConfig(mode="semi_sync", ack_k=2,
                                       read_policy="replica_ok"),
         instrumented=("os_event_wait", "fil_flush"), probe_cost=0.05),
]


@pytest.mark.parametrize("config", ROUND_TRIP_CONFIGS,
                         ids=lambda c: c.config_digest()[:8])
def test_round_trip_digest_identity(config):
    data = config.to_dict()
    rebuilt = ExperimentConfig.from_dict(data)
    assert rebuilt.config_digest() == config.config_digest()
    # The canonical form itself is stable under a second trip.
    assert rebuilt.to_dict() == data


def test_round_trip_digests_all_distinct():
    digests = [c.config_digest() for c in ROUND_TRIP_CONFIGS]
    assert len(set(digests)) == len(digests)


def test_canonical_form_is_plain_json_data():
    import json

    data = tiny(
        engine_config=MySQLConfig(flush_policy=FlushPolicy.LAZY_WRITE),
        fault_plan=FaultPlan(name="x", io_error_prob=0.5),
    ).to_dict()
    json.dumps(data)  # no custom types anywhere


def test_enum_round_trips_through_tag():
    config = MySQLConfig(flush_policy=FlushPolicy.LAZY_FLUSH)
    rebuilt = MySQLConfig.from_dict(config.to_dict())
    assert rebuilt.flush_policy is FlushPolicy.LAZY_FLUSH


def test_from_dict_rejects_wrong_class_and_garbage():
    payload = MySQLConfig().to_dict()
    with pytest.raises(TypeError):
        ExperimentConfig.from_dict(payload)
    with pytest.raises(TypeError):
        from_dict({"no": "tag"})
    with pytest.raises(TypeError):
        from_dict({"__config__": "NoSuchConfig"})


def test_module_level_to_dict_matches_method():
    config = tiny()
    assert to_dict(config) == config.to_dict()


# ----------------------------------------------------------------------
# Drift guard: every __init__ parameter round-trips (satellite 2)
# ----------------------------------------------------------------------

#: One non-default value per ExperimentConfig field.  The guard below
#: fails when a new __init__ parameter is added without extending this
#: table — and the round-trip assertions then prove the new field
#: survives replaced()/to_dict()/from_dict(), which the old
#: hand-maintained replaced() dict could not promise.
NON_DEFAULT_VALUES = {
    "engine": "postgres",
    "workload": "ycsb",
    "workload_kwargs": {"warehouses": 3},
    "engine_config": MySQLConfig(scheduler="VATS"),
    "seed": 7,
    "n_txns": 50,
    "rate_tps": 123.0,
    "warmup_fraction": 0.25,
    "instrumented": ("os_event_wait", "fil_flush"),
    "probe_cost": 0.5,
    "telemetry": False,
    "fault_plan": FaultPlan(name="guard", io_error_prob=0.01),
    "num_shards": 2,
    "topology": Topology(router="range"),
    "replicas": 1,
    "replication": ReplicationConfig(mode="async"),
    "check": True,
}


def test_drift_guard_table_covers_schema_exactly():
    assert set(NON_DEFAULT_VALUES) == set(config_fields(ExperimentConfig))


@pytest.mark.parametrize("field", sorted(NON_DEFAULT_VALUES))
def test_every_field_round_trips(field):
    base = ExperimentConfig()
    changed = base.replaced(**{field: NON_DEFAULT_VALUES[field]})
    # replaced() carried the override (digest must move)...
    assert changed.config_digest() != base.config_digest()
    # ...and the serialisation round-trip preserves it exactly.
    rebuilt = ExperimentConfig.from_dict(changed.to_dict())
    assert rebuilt.config_digest() == changed.config_digest()
    # Changing the field back restores the base identity.
    restored = changed.replaced(**{field: getattr(base, field)})
    assert restored.config_digest() == base.config_digest()


def test_replaced_rejects_unknown_fields():
    with pytest.raises(TypeError, match="no field"):
        ExperimentConfig().replaced(engin="mysql")
    with pytest.raises(TypeError, match="no field"):
        MySQLConfig().replaced(not_a_knob=1)


# ----------------------------------------------------------------------
# Eager workload validation (satellite 1)
# ----------------------------------------------------------------------


def test_unknown_workload_rejected_at_construction():
    with pytest.raises(ValueError, match="unknown workload"):
        ExperimentConfig(workload="tpcc_typo")


def test_unknown_workload_kwarg_rejected_at_construction():
    with pytest.raises(ValueError, match="does not accept"):
        ExperimentConfig(workload="ycsb",
                         workload_kwargs={"warehouses": 4})
    with pytest.raises(ValueError, match="scale_factr"):
        ExperimentConfig(workload="ycsb",
                         workload_kwargs={"scale_factr": 1})


def test_valid_workload_kwargs_accepted():
    ExperimentConfig(workload="ycsb",
                     workload_kwargs={"scale_factor": 2, "zipf_theta": 0.9})
    ExperimentConfig(workload="tpcc", workload_kwargs={"warehouses": 4})


# ----------------------------------------------------------------------
# Artifacts
# ----------------------------------------------------------------------


#: Readings written once on RunResult; RunArtifact inherits every one.
READINGS = (
    "traces", "committed_count", "latencies", "latencies_of", "summary",
    "throughput_tps", "shed_txns", "node_metrics_snapshot",
    "metrics_rollup", "digest",
)


def test_artifact_mirrors_run_result():
    config = tiny(check=True)
    result = run_experiment(config)
    artifact = result.artifact()
    assert isinstance(artifact, RunResult)
    assert not set(READINGS) & set(vars(RunArtifact))
    for name in ("committed_count", "warmup_count", "final_clock",
                 "dispatch_count", "abort_counts", "failed_counts",
                 "failed_txns", "fault_counts", "outcome_counts",
                 "txn_outcomes", "shed_txns", "throughput_tps",
                 "latencies"):
        assert getattr(artifact, name) == getattr(result, name), name
    assert [(t.txn_id, t.latency) for t in artifact.traces] == [
        (t.txn_id, t.latency) for t in result.traces
    ]
    for txn_type in sorted({t.txn_type for t in result.traces}):
        assert artifact.latencies_of(txn_type) == result.latencies_of(txn_type)
    assert artifact.summary.mean == result.summary.mean
    assert artifact.summary.variance == result.summary.variance
    assert artifact.metrics_snapshot() == result.metrics_snapshot()
    assert artifact.event_log_jsonl() == result.event_log_jsonl()
    # Only the artifact's slot is named ``metrics``; a live result reads
    # its registry through ``metrics_snapshot()`` alone.
    assert not hasattr(result, "metrics")
    assert artifact.check_report() == result.check_report() == []
    assert artifact.config_digest == config.config_digest()
    assert artifact.digest() == result.digest() == run_digest(result)


def test_artifact_pickle_round_trip():
    config = tiny(
        workload="tpcc", workload_kwargs={"warehouses": 4}, num_shards=2,
        fault_plan=FaultPlan(name="p", io_error_prob=0.005), check=True,
    )
    artifact = run_experiment(config).artifact()
    clone = pickle.loads(pickle.dumps(artifact, pickle.HIGHEST_PROTOCOL))
    assert run_digest(clone) == run_digest(artifact)
    assert clone.outcome_counts == artifact.outcome_counts
    assert [repr(v) for v in clone.check_report() or []] == []
    assert len(clone.history.txns) == len(artifact.history.txns)
    # The config rebuilds from the embedded canonical payload.
    assert clone.config.config_digest() == config.config_digest()


def test_artifact_cluster_stats():
    config = tiny(workload="tpcc",
                  workload_kwargs={"warehouses": 8,
                                   "remote_payment_prob": 0.3},
                  num_shards=2)
    result = run_experiment(config)
    artifact = result.artifact()
    stats = artifact.cluster_stats
    assert stats == result.cluster_stats
    assert stats["single_home_txns"] + stats["cross_shard_txns"] > 0
    for node_id in (0, 1):
        assert artifact.node_metrics_snapshot(node_id) == (
            result.node_metrics_snapshot(node_id)
        )
    assert artifact.metrics_rollup() == result.metrics_rollup()
    assert artifact.digest() == result.digest()
    assert tiny().replaced(n_txns=20).config_digest()  # smoke: replaced chains


# ----------------------------------------------------------------------
# Executor: inline backend, ordering, dedup
# ----------------------------------------------------------------------


def test_inline_executor_equals_run_experiment():
    config = tiny()
    artifact = Executor(jobs=1).run_one(config)
    assert run_digest(artifact) == run_digest(run_experiment(config))


def test_run_many_preserves_input_order():
    configs = [tiny(seed=s) for s in (5, 3, 9)]
    artifacts = run_many(configs)
    assert [a.config.seed for a in artifacts] == [5, 3, 9]
    for config, artifact in zip(configs, artifacts):
        assert artifact.config_digest == config.config_digest()


def test_identical_configs_run_once_and_share_artifacts(monkeypatch):
    calls = []
    real = executor_module._execute

    def counting(config_data):
        calls.append(config_data["seed"])
        return real(config_data)

    monkeypatch.setattr(executor_module, "_execute", counting)
    configs = [tiny(seed=1), tiny(seed=2), tiny(seed=1)]
    artifacts = Executor(jobs=1).run(configs)
    assert sorted(calls) == [1, 2]
    assert run_digest(artifacts[0]) == run_digest(artifacts[2])
    assert run_digest(artifacts[0]) != run_digest(artifacts[1])


def test_executor_validation():
    with pytest.raises(ValueError):
        Executor(jobs=0)
    # An empty sweep returns at once; no pool is ever built for it.
    assert Executor(jobs=1).run([]) == Executor(jobs=4).run([]) == []

"""Same-seed determinism regression tests.

A run must be a pure function of ``(config, seed)`` — that is the
foundation under every variance figure in the reproduction.  These
tests run each engine twice with the same seed and assert *byte
identical* telemetry: the JSONL event log and the full metrics snapshot
(counters, gauge high-water marks, every histogram's moments and quantiles),
plus the latency vector itself.  Any nondeterminism smuggled into a hot
path (dict-order dependence, wall-clock leakage, id()-keyed state)
breaks these before it can silently skew a figure.
"""

import json

import pytest

from repro.bench import paperconfig as pc
from repro.bench.runner import run_experiment

from tests.util import assert_hash_seed_invariant


def tiny_config(engine):
    if engine == "mysql":
        return pc.mysql_128wh_experiment("VATS", n_txns=400)
    if engine == "postgres":
        return pc.postgres_experiment(n_txns=400)
    if engine == "voltdb":
        return pc.voltdb_experiment(n_txns=400)
    raise ValueError(engine)


def run_twice(engine):
    config = tiny_config(engine)
    return run_experiment(config), run_experiment(config)


@pytest.mark.parametrize("engine", ["mysql", "postgres", "voltdb"])
def test_same_seed_identical_event_logs(engine):
    first, second = run_twice(engine)
    a = first.event_log_jsonl()
    b = second.event_log_jsonl()
    assert a.encode("utf-8") == b.encode("utf-8")


@pytest.mark.parametrize("engine", ["mysql", "postgres", "voltdb"])
def test_same_seed_identical_metrics_snapshots(engine):
    first, second = run_twice(engine)
    a = json.dumps(first.metrics_snapshot(), sort_keys=True)
    b = json.dumps(second.metrics_snapshot(), sort_keys=True)
    assert a == b
    # The snapshot must actually contain signal, not vacuous equality.
    counters = first.metrics_snapshot()["counters"]
    assert counters["sim.dispatches"] > 0
    assert counters["%s.txns_committed" % engine] > 0


@pytest.mark.parametrize("engine", ["mysql", "postgres", "voltdb"])
def test_same_seed_identical_latencies(engine):
    first, second = run_twice(engine)
    assert first.latencies == second.latencies
    assert first.sim.now == second.sim.now


def test_different_seeds_differ():
    """Sanity check that the comparison has teeth."""
    base = tiny_config("mysql")
    first = run_experiment(base)
    second = run_experiment(base.replaced(seed=base.seed + 1))
    assert first.latencies != second.latencies


def test_cross_process_hash_seed_determinism():
    """Results must not depend on ``PYTHONHASHSEED``.

    In-process double runs share one hash seed, so they cannot see
    str-hash iteration-order bugs (e.g. a grant pass walking a ``set``
    of lock ids).  Run the same config in two interpreters with
    different hash seeds and require identical totals.
    """
    code = (
        "import sys, json; sys.path[:0] = json.loads(sys.argv[1]); "
        "from repro.bench import paperconfig as pc; "
        "from repro.bench.runner import run_experiment; "
        "r = run_experiment(pc.mysql_128wh_experiment('VATS', n_txns=300)); "
        "print(json.dumps([sum(r.latencies), r.sim.now]))"
    )
    assert_hash_seed_invariant(code)


def test_cross_process_hash_seed_determinism_clustered():
    """The 4-shard 2PC path must also be hash-seed independent.

    The cluster adds dict-heavy machinery the single-node check never
    exercises — router group maps, per-link bandwidth state, merged
    per-reason abort dicts — so it gets its own two-interpreter run.
    """
    code = (
        "import sys, json; sys.path[:0] = json.loads(sys.argv[1]); "
        "from repro.bench.runner import ExperimentConfig, run_experiment; "
        "r = run_experiment(ExperimentConfig(engine='mysql', "
        "workload_kwargs={'warehouses': 16, 'remote_payment_prob': 0.15}, "
        "n_txns=300, num_shards=4, seed=9)); "
        "print(json.dumps([sum(r.latencies), r.sim.now, "
        "sorted(r.abort_counts.items()), r.engine.cross_shard_txns]))"
    )
    output = assert_hash_seed_invariant(code)
    assert json.loads(output)[3] > 0


def test_telemetry_flag_does_not_change_results():
    """Emitters are zero virtual time: disabling telemetry is invisible
    to the simulation (the Figure 5 overhead study depends on this)."""
    base = tiny_config("mysql")
    with_telemetry = run_experiment(base)
    without = run_experiment(base.replaced(telemetry=False))
    assert with_telemetry.latencies == without.latencies
    assert with_telemetry.sim.now == without.sim.now
    assert without.metrics_snapshot() == {}

"""Golden equivalence digests: the fast paths change nothing observable.

``tests/goldens/equivalence_digests.json`` holds one SHA-256 digest per
(engine, seed, telemetry) macro cell plus one full-chaos fault-plan
run, captured from the pre-optimisation tree.  Every run here must
reproduce its digest byte for byte: same (config, seed) ⇒ identical
latency sequence, final clock, metrics snapshot and abort/fault counts,
no matter what wall-clock fast paths the kernel or engines grow.

``tests/goldens/traced_digests.json`` pins probed runs at TProfiler's
probe cost (0.05 µs), spans and traced chains alike: its digests add
every trace's per-factor ``durations`` and ``under`` maps to the run
payload, so a moved probe yield or site label fails here even though
zero-cost probes would hide it.

Regenerate with ``scripts/gen_equivalence_goldens.py`` — but only for
an intentional *semantic* change to the simulation, or an intentional
change to what the metrics report whose ``--dump`` diff shows virtual
time unchanged; never to make a performance patch pass.
"""

import importlib.util
import json
import os

import pytest

from repro.bench import paperconfig as pc
from repro.bench.digest import run_digest
from repro.bench.runner import ExperimentConfig, run_experiment
from repro.engines.mysql import mysql_callgraph
from repro.engines.postgres import postgres_callgraph
from repro.engines.voltdb import voltdb_callgraph
from repro.faults.plan import named_plan
from repro.replication import ReplicationConfig

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")


def _load_goldens(name):
    with open(os.path.join(GOLDEN_DIR, name)) as fh:
        return json.load(fh)


def _generator():
    script = os.path.join(
        os.path.dirname(__file__), "..", "scripts",
        "gen_equivalence_goldens.py",
    )
    spec = importlib.util.spec_from_file_location("gen_goldens", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN = _generator()
GOLDENS = _load_goldens("equivalence_digests.json")
CONFIGS = list(GEN.golden_configs())
TRACED_GOLDENS = _load_goldens("traced_digests.json")
TRACED_CONFIGS = list(GEN.traced_golden_configs())


def test_golden_set_is_complete():
    assert sorted(GOLDENS) == sorted(key for key, _ in CONFIGS)


@pytest.mark.parametrize(
    "key,config", CONFIGS, ids=[key for key, _ in CONFIGS]
)
def test_run_digest_matches_golden(key, config):
    assert run_digest(run_experiment(config)) == GOLDENS[key], (
        "digest drift on %s: the optimised kernel/engine produced a "
        "different observable run than the committed golden" % key
    )


def test_traced_golden_set_is_complete():
    assert sorted(TRACED_GOLDENS) == sorted(key for key, _ in TRACED_CONFIGS)


@pytest.mark.parametrize(
    "key,config", TRACED_CONFIGS, ids=[key for key, _ in TRACED_CONFIGS]
)
def test_trace_digest_matches_golden(key, config):
    assert GEN.trace_digest(run_experiment(config)) == TRACED_GOLDENS[key], (
        "trace drift on %s: a probe-cost yield, frame or site label of "
        "the traced chain moved" % key
    )


def _sharded(engine):
    """Two shards with cross-shard Payments, so 2PC branches run."""
    return ExperimentConfig(
        engine=engine,
        workload="tpcc",
        workload_kwargs={"warehouses": 4, "remote_payment_prob": 0.3},
        seed=7,
        n_txns=200,
        rate_tps=500.0,
        num_shards=2,
        check=True,
    )


#: name -> (base config, the engine's call graph).
ZERO_COST_CASES = {
    "mysql": (
        pc.mysql_128wh_experiment("VATS", seed=7, n_txns=200),
        mysql_callgraph(),
    ),
    "mysql-replicated-crash": (
        pc.mysql_2wh_experiment(seed=7, n_txns=400).replaced(
            replicas=1,
            replication=ReplicationConfig(mode="semi_sync"),
            fault_plan=named_plan("node-crash"),
            check=True,
        ),
        mysql_callgraph(),
    ),
    "mysql-2shard": (_sharded("mysql"), mysql_callgraph()),
    "postgres": (
        pc.postgres_experiment(seed=7, n_txns=200), postgres_callgraph(),
    ),
    "postgres-2shard": (_sharded("postgres"), postgres_callgraph()),
    "voltdb": (pc.voltdb_experiment(seed=7, n_txns=200), voltdb_callgraph()),
}


@pytest.mark.parametrize("name", sorted(ZERO_COST_CASES))
def test_zero_cost_instrumentation_is_invisible(name):
    """Each engine's unprobed run vs its fully probed run.

    With every function of the engine's call graph probed at
    ``probe_cost=0`` (MySQL's traced chain, Postgres's spans, VoltDB's
    records) the run must be byte-identical to the unprobed one:
    instrumentation may only add its probe cost, never change
    scheduling.  The sharded cases run 2PC branches both ways; the
    oracles must stay clean.
    """
    base, graph = ZERO_COST_CASES[name]
    run = run_experiment(base)
    traced = run_experiment(
        base.replaced(instrumented=frozenset(graph.functions), probe_cost=0.0)
    )
    assert run_digest(run) == run_digest(traced), (
        "%s: the probed run drifted from the unprobed one" % name
    )
    assert run.check_report() in (None, []), run.check_report()

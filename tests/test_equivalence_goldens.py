"""Golden equivalence digests: the fast paths change nothing observable.

``tests/goldens/equivalence_digests.json`` holds one SHA-256 digest per
(engine, seed, telemetry) macro cell plus one full-chaos fault-plan
run, captured from the pre-optimisation tree.  Every run here must
reproduce its digest byte for byte: same (config, seed) ⇒ identical
latency sequence, final clock, metrics snapshot and abort/fault counts,
no matter what wall-clock fast paths the kernel or engines grow.

Regenerate with ``scripts/gen_equivalence_goldens.py`` — but only for
an intentional *semantic* change to the simulation, never to make a
performance patch pass.
"""

import json
import os

import pytest

from repro.bench import paperconfig as pc
from repro.bench.digest import run_digest
from repro.bench.runner import run_experiment
from repro.engines.mysql import mysql_callgraph


def _load_goldens():
    path = os.path.join(
        os.path.dirname(__file__), "goldens", "equivalence_digests.json"
    )
    with open(path) as fh:
        return json.load(fh)


def _golden_configs():
    import importlib.util

    script = os.path.join(
        os.path.dirname(__file__), "..", "scripts",
        "gen_equivalence_goldens.py",
    )
    spec = importlib.util.spec_from_file_location("gen_goldens", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return list(module.golden_configs())


GOLDENS = _load_goldens()
CONFIGS = _golden_configs()


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


def test_zero_cost_instrumentation_is_invisible():
    """The flattened uninstrumented statement path vs the traced chain.

    With ``probe_cost=0`` the traced delegation chain must produce a
    byte-identical run to the fast path — instrumentation may only add
    its probe cost, never change scheduling.  Instrumenting every MySQL
    function pins ``_mysql_execute_fast`` directly against the whole
    traced chain it replaces.
    """
    base = pc.mysql_128wh_experiment("VATS", seed=7, n_txns=150)
    probes = frozenset(mysql_callgraph().functions)
    fast = run_digest(run_experiment(base))
    traced = run_digest(
        run_experiment(base.replaced(instrumented=probes, probe_cost=0.0))
    )
    assert fast == traced


def test_postgres_zero_cost_instrumentation_is_invisible():
    """Pins ``_postgres_execute_fast`` against the traced statement loop.

    Instrumenting every Postgres factor with ``probe_cost=0`` forces the
    full ``_portal_run`` delegation chain; the flattened fast path must
    produce a byte-identical run.
    """
    base = pc.postgres_experiment(seed=7, n_txns=150)
    probes = (
        "exec_simple_query", "PortalRun", "ExecutorRun", "index_fetch",
        "PredicateLockTuple", "heap_lock_tuple", "LockAcquireExtended",
        "ProcSleep", "CommitTransaction", "RecordTransactionCommit",
        "XLogFlush", "ReleasePredicateLocks",
    )
    fast = run_digest(run_experiment(base))
    traced = run_digest(
        run_experiment(base.replaced(instrumented=probes, probe_cost=0.0))
    )
    assert fast == traced


def test_voltdb_zero_cost_instrumentation_is_invisible():
    """Pins ``_voltdb_execute_fast`` against the traced partition loop."""
    base = pc.voltdb_experiment(seed=7, n_txns=150)
    probes = (
        "transaction", "execute_procedure", "init_procedure",
        "run_plan_fragments", "[waiting in queue]",
    )
    fast = run_digest(run_experiment(base))
    traced = run_digest(
        run_experiment(base.replaced(instrumented=probes, probe_cost=0.0))
    )
    assert fast == traced

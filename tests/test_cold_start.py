"""A cold process loads numpy only when it first computes a statistic.

``repro.sim.stats`` and ``repro.core.variance_tree`` import numpy inside
the functions that compute with it, so ``import repro``, building and
running an experiment, and extracting its ``RunArtifact`` (all a
``repro.exec`` pool worker does) never load it.  The checks run in a
fresh interpreter, because other tests load numpy into this one.
"""

import os
import subprocess
import sys

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


def _run_fresh(code):
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


SIMULATE = """
import sys

import repro
from repro.bench import paperconfig as pc
from repro.engines.postgres import postgres_callgraph
from repro.faults.plan import named_plan
from repro.replication import ReplicationConfig

configs = {
    "mysql": repro.ExperimentConfig(
        engine="mysql",
        workload="tpcc",
        workload_kwargs={"warehouses": 4, "remote_payment_prob": 0.3},
        seed=1,
        n_txns=200,
        rate_tps=500.0,
        num_shards=2,
        replicas=1,
        replication=ReplicationConfig(mode="semi_sync"),
        fault_plan=named_plan("node-crash"),
        check=True,
    ),
    "postgres": pc.postgres_experiment(seed=1, n_txns=200).replaced(
        instrumented=frozenset(postgres_callgraph().functions),
    ),
    "voltdb": pc.voltdb_experiment(seed=1, n_txns=200),
}
for name, config in configs.items():
    artifact = repro.run_experiment(config).artifact()
    assert artifact.check_report() == ([] if config.check else None), name
    assert artifact.metrics_snapshot(), name
    assert "numpy" not in sys.modules, name
assert artifact.summary.count > 0
assert "numpy" in sys.modules
print("ok")
"""

VARIANCE_TREE = """
import sys

import repro
from repro.bench import paperconfig as pc
from repro.engines.postgres import postgres_callgraph

config = pc.postgres_experiment(seed=1, n_txns=100).replaced(
    instrumented=frozenset(postgres_callgraph().functions),
)
traces = repro.run_experiment(config).traces
assert "numpy" not in sys.modules
tree = repro.VarianceTree(traces)
assert tree.overall_variance > 0.0
assert "numpy" in sys.modules
print("ok")
"""


def test_simulation_loads_no_numpy_until_summary():
    assert _run_fresh(SIMULATE) == "ok\n"


def test_variance_tree_loads_numpy():
    assert _run_fresh(VARIANCE_TREE) == "ok\n"

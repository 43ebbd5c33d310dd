#!/usr/bin/env python
"""Regenerate the kernel-equivalence golden digests.

Usage::

    PYTHONPATH=src python scripts/gen_equivalence_goldens.py

Writes ``tests/goldens/equivalence_digests.json``: one SHA-256 digest
per (engine, seed, telemetry) cell, one fault-plan run and three
fault-free clustered runs, each covering the run's full observable
output (exact latency sequence, final virtual clock, metrics snapshot,
abort/failure/fault counts — see ``repro.bench.digest``).

Also writes ``tests/goldens/traced_digests.json``: probed runs at
TProfiler's probe cost, one :func:`trace_digest` per
:func:`traced_golden_configs` cell.  Every other golden runs
unprobed, and the probed-vs-unprobed checks run at ``probe_cost=0`` and
compare only ``run_digest``, which carries no trace attribution; these
cells pin the probe-cost yields and the factor keys (function, site)
that every profile is built from.

These goldens were captured from the *pre-optimisation* kernel and are
the contract every kernel fast path must honour: same (config, seed) ⇒
byte-identical RunResult.  Regenerate them only for an intentional
change, never to make a performance patch pass.  Two kinds qualify:

- a semantic change to the simulation (new engine behaviour, workload
  fix), naming every cell it moves;
- a change to what the metrics report, when a field-by-field diff of
  the payloads shows virtual time unchanged: the latencies, final clock,
  counts and every other field equal, and only the reported metric
  fields differ.

``--dump DIR`` writes that diff's inputs instead of the goldens: each
cell's canonical payload, traced cells with their attribution, as
``DIR/<equivalence|traced>/<key>.json`` with one field per line.  Run it
in two checkouts and compare them with ``diff -r``::

    PYTHONPATH=src python scripts/gen_equivalence_goldens.py --dump /tmp/new
"""

import argparse
import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench import paperconfig as pc
from repro.bench.digest import run_payload
from repro.bench.runner import ExperimentConfig, run_experiment
from repro.engines.mysql import mysql_callgraph
from repro.engines.postgres import postgres_callgraph
from repro.engines.voltdb import voltdb_callgraph
from repro.faults import named_plan
from repro.faults.plan import FaultPlan
from repro.replication import ReplicationConfig

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "tests", "goldens")
GOLDEN_PATH = os.path.join(GOLDEN_DIR, "equivalence_digests.json")
TRACED_GOLDEN_PATH = os.path.join(GOLDEN_DIR, "traced_digests.json")

SEEDS = (7, 21, 99)
N_TXNS = 250


def golden_configs():
    """Yield (key, ExperimentConfig) pairs for every golden cell."""
    factories = {
        "mysql": lambda **kw: pc.mysql_128wh_experiment("VATS", **kw),
        "postgres": pc.postgres_experiment,
        "voltdb": pc.voltdb_experiment,
    }
    for engine, factory in sorted(factories.items()):
        for seed in SEEDS:
            base = factory(seed=seed, n_txns=N_TXNS)
            for telemetry in (True, False):
                key = "%s/seed%d/telemetry-%s" % (
                    engine, seed, "on" if telemetry else "off")
                yield key, base.replaced(telemetry=telemetry)
    # One chaos run: the fault subsystem's scheduling (extra fault
    # processes, retries, crash-restarts) must survive the fast paths too.
    chaos = pc.mysql_128wh_experiment(
        "VATS", seed=SEEDS[0], n_txns=N_TXNS,
    ).replaced(fault_plan=named_plan("full-chaos"))
    yield "mysql/seed7/full-chaos", chaos
    # Fault-free clustered runs: the single-home hop, the replica
    # ship/ack loop and the net/cluster/repl counters, with no fault plan.
    for engine in ("mysql", "postgres"):
        yield "%s/2shard/seed%d" % (engine, SEEDS[0]), ExperimentConfig(
            engine=engine,
            workload="tpcc",
            workload_kwargs={"warehouses": 4, "remote_payment_prob": 0.3},
            seed=SEEDS[0],
            n_txns=N_TXNS,
            num_shards=2,
        )
    yield "mysql/replicated/seed%d" % SEEDS[0], pc.mysql_2wh_experiment(
        seed=SEEDS[0], n_txns=N_TXNS,
    ).replaced(replicas=1, replication=ReplicationConfig(
        mode="semi_sync", read_policy="replica_ok"))


def _hex_map(durations):
    """``{(name, site): seconds}`` as sorted ``[name, site, hex]`` rows."""
    return sorted([name, site, value.hex()]
                  for (name, site), value in durations.items())


def trace_payload(result):
    """``run_payload`` plus every trace's attribution.

    Each trace in log order contributes its ``txn_id``, ``committed``,
    ``attempts`` and its ``durations`` and ``under`` maps, keys sorted
    and floats as ``float.hex``.
    """
    payload = run_payload(result)
    payload["traces"] = [
        [
            trace.txn_id,
            trace.committed,
            trace.attempts,
            _hex_map(trace.durations),
            sorted([name, site, _hex_map(children)]
                   for (name, site), children in trace.under.items()),
        ]
        for trace in result.log.traces
    ]
    return payload


def _digest(payload):
    """SHA-256 over canonical JSON, as ``repro.bench.digest.run_digest``."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def trace_digest(result):
    """SHA-256 over :func:`trace_payload`."""
    return _digest(trace_payload(result))


#: TProfiler's source-level probe cost (microseconds).
TRACED_PROBE_COST = 0.05

#: One partial probe set per engine that skips call-graph levels.
PARTIAL_PROBES = {
    "mysql": ("do_command", "mysql_execute_command", "lock_rec_lock",
              "os_event_wait"),
    "postgres": ("exec_simple_query", "ExecutorRun", "ProcSleep",
                 "XLogFlush"),
    "voltdb": ("transaction", "execute_procedure"),
}


def _sharded_crash_config(engine):
    """2 shards, a semi-sync replica each, a node and a coordinator crash.

    The coordinator crash leaves prepared branches in doubt, so the cell
    covers traced branches and their resolution after restart.
    """
    return ExperimentConfig(
        engine=engine,
        workload="tpcc",
        workload_kwargs={"warehouses": 4, "remote_payment_prob": 0.3},
        seed=5,
        n_txns=200,
        rate_tps=500.0,
        num_shards=2,
        replicas=1,
        replication=ReplicationConfig(mode="semi_sync"),
        fault_plan=FaultPlan(
            name="crash",
            node_crash_times=((0, 100_000.0), ("coord", 120_000.0)),
        ),
        check=True,
    )


def traced_golden_configs():
    """Yield (key, ExperimentConfig) pairs probed at TRACED_PROBE_COST."""
    bases = {
        "mysql": (pc.mysql_128wh_experiment("VATS", seed=SEEDS[0],
                                            n_txns=N_TXNS),
                  mysql_callgraph()),
        "postgres": (pc.postgres_experiment(seed=SEEDS[0], n_txns=N_TXNS),
                     postgres_callgraph()),
        "voltdb": (pc.voltdb_experiment(seed=SEEDS[0], n_txns=N_TXNS),
                   voltdb_callgraph()),
    }
    for engine, (base, graph) in sorted(bases.items()):
        # "root" is TProfiler's first iteration: only the root probed.
        probe_sets = (("all", graph.functions),
                      ("partial", PARTIAL_PROBES[engine]),
                      ("root", (graph.root,)))
        for label, probes in probe_sets:
            yield "%s/seed%d/%s" % (engine, SEEDS[0], label), base.replaced(
                instrumented=frozenset(probes), probe_cost=TRACED_PROBE_COST)
    for engine in ("mysql", "postgres"):
        probes = bases[engine][1].functions
        yield "%s/2shard-crash/all" % engine, _sharded_crash_config(
            engine).replaced(instrumented=frozenset(probes),
                             probe_cost=TRACED_PROBE_COST)


def _write_json(path, value, indent):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(value, fh, indent=indent, sort_keys=True)
        fh.write("\n")


def main():
    parser = argparse.ArgumentParser(
        description="Regenerate the equivalence and traced goldens.")
    parser.add_argument(
        "--dump", metavar="DIR",
        help="write every cell's payload under DIR instead of the goldens")
    args = parser.parse_args()
    for path, kind, configs, payload_of in (
        (GOLDEN_PATH, "equivalence", golden_configs(), run_payload),
        (TRACED_GOLDEN_PATH, "traced", traced_golden_configs(),
         trace_payload),
    ):
        digests = {}
        for key, config in configs:
            payload = payload_of(run_experiment(config))
            digests[key] = _digest(payload)
            print("%s  %s" % (digests[key], key))
            if args.dump:
                _write_json(os.path.join(args.dump, kind, *key.split("/"))
                            + ".json", payload, indent=1)
        if not args.dump:
            _write_json(path, digests, indent=2)
            print("wrote %d digests to %s" % (len(digests), path))
    return 0


if __name__ == "__main__":
    sys.exit(main())

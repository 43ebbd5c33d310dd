"""Exact cost counts: the regression gate for the simulator's wall time.

Wall time on a shared machine swings 1.5-2x from noise, so a wall-clock
gate can only catch a collapse.  What a run costs is counted instead,
exactly, for eight small fixed runs:

- ``sim.dispatch_count``, the wakeups the kernel dispatched;
- ``sim._seq``, the heap pushes.  The ready deque and the direct resume
  keep every other wakeup off the heap;
- Python ``"call"`` profile events in frames of the ``repro`` package,
  generator resumes included.  Code names starting with ``<`` are
  skipped, because Python 3.12 inlines comprehensions.

Dispatches and heap pushes depend only on the simulation and are
asserted on every interpreter.  Calls depend on the interpreter and are
asserted exactly only on ``COUNTS_PYTHON``.  A change that moves a count
on purpose edits ``COUNTS`` (a failing assertion prints the measured
tuple) and says why.  Wall time itself is measured by ``perfbench/``.
"""

import functools
import gc
import os
import sys

import pytest

import repro
from repro.bench import paperconfig as pc
from repro.bench.runner import ExperimentConfig, run_experiment
from repro.engines.postgres import postgres_callgraph
from repro.faults.plan import named_plan
from repro.replication import ReplicationConfig
from repro.sim.refkernel import ReferenceSimulator

_MYSQL = pc.mysql_128wh_experiment("VATS", seed=7, n_txns=200)
_POSTGRES = pc.postgres_experiment(seed=7, n_txns=200)

MODES = {
    "mysql": _MYSQL,
    "mysql-telemetry-off": _MYSQL.replaced(telemetry=False),
    "mysql-replicated-crash": pc.mysql_2wh_experiment(
        seed=7, n_txns=300,
    ).replaced(
        replicas=1,
        replication=ReplicationConfig(mode="semi_sync"),
        fault_plan=named_plan("node-crash"),
        check=True,
    ),
    "mysql-2shard": ExperimentConfig(
        engine="mysql",
        workload="tpcc",
        workload_kwargs={"warehouses": 4, "remote_payment_prob": 0.3},
        seed=7,
        n_txns=200,
        rate_tps=500.0,
        num_shards=2,
    ),
    "postgres": _POSTGRES,
    # TProfiler's first iteration: only the call-graph root is probed.
    "postgres-root-probed": _POSTGRES.replaced(
        instrumented=frozenset({"exec_simple_query"}), probe_cost=0.05,
    ),
    # TProfiler's last iterations: the whole call graph is probed.
    "postgres-all-probed": _POSTGRES.replaced(
        instrumented=frozenset(postgres_callgraph().functions),
        probe_cost=0.05,
    ),
    "voltdb": pc.voltdb_experiment(seed=7, n_txns=2000),
}

#: The interpreter (major, minor) the calls column was taken with.
COUNTS_PYTHON = (3, 11)

#: mode -> (dispatches, heap pushes, calls).
COUNTS = {
    "mysql": (50_933, 10_572, 453_849),
    "mysql-telemetry-off": (50_933, 10_572, 453_203),
    "mysql-replicated-crash": (82_028, 17_092, 665_419),
    "mysql-2shard": (51_552, 11_637, 272_129),
    "postgres": (15_890, 1_669, 99_114),
    "postgres-root-probed": (16_290, 1_766, 100_351),
    "postgres-all-probed": (61_934, 3_098, 239_390),
    "voltdb": (6_679, 3_641, 160_278),
}

_PACKAGE = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def _repro_calls(fn):
    """Call ``fn()``; return (its result, calls in ``repro`` frames).

    The cyclic collector is off for the call: it would otherwise finalise
    dead generators (a crashed node's workers) whenever it happens to
    run, which depends on everything else alive in the process.
    """
    calls = 0
    counted = {}

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            hit = counted.get(code)
            if hit is None:
                hit = counted[code] = (
                    code.co_filename.startswith(_PACKAGE)
                    and not code.co_name.startswith("<"))
            calls += hit

    gc.collect()
    gc.disable()
    try:
        sys.setprofile(profile)
        try:
            result = fn()
        finally:
            sys.setprofile(None)
    finally:
        gc.enable()
    return result, calls


def _counted(config):
    """Run ``config``; return (dispatches, heap pushes, calls)."""
    result, calls = _repro_calls(lambda: run_experiment(config))
    return result.sim.dispatch_count, result.sim._seq, calls


@pytest.fixture(scope="module")
def measured():
    """mode -> its counted tuple; each mode runs once per module."""
    return functools.lru_cache(maxsize=None)(lambda mode: _counted(MODES[mode]))


def test_count_table_covers_every_mode():
    assert sorted(COUNTS) == sorted(MODES)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_counts_match_table(mode, measured):
    got = measured(mode)
    want = COUNTS[mode]
    exact = 3 if sys.version_info[:2] == COUNTS_PYTHON else 2
    assert got[:exact] == want[:exact], (
        "%s: measured %r, table %r" % (mode, got, want))


def test_root_probe_costs_a_span_not_a_chain(measured):
    """Probing the root opens one span in the attempt's own body: every
    resume stays one frame deep, so the calls barely move."""
    ratio = measured("postgres-root-probed")[2] / measured("postgres")[2]
    assert ratio <= 1.05, ratio


def test_telemetry_costs_few_calls(measured):
    """Instrument updates are batched, not paid per event."""
    ratio = measured("mysql")[2] / measured("mysql-telemetry-off")[2]
    assert ratio <= 1.01, ratio


def test_kernel_keeps_wakeups_off_the_heap(measured):
    """Against the reference kernel: the same dispatches, and the ready
    deque and the direct resume take at least half the heap pushes."""
    dispatches, pushes, _ = measured("mysql-telemetry-off")
    ref = run_experiment(MODES["mysql-telemetry-off"],
                         simulator_cls=ReferenceSimulator).sim
    assert dispatches == ref.dispatch_count
    assert 2 * pushes <= ref._seq, (pushes, ref._seq)


def test_snapshot_costs_calls_per_instrument_not_per_value():
    """A snapshot sorts each histogram's values in one C call, so its
    ``repro`` calls grow with the instruments, not with the observed
    values.  The run observes enough values that a fold paying one call
    per 50 of them would break the bound."""
    result = run_experiment(MODES["mysql-replicated-crash"])
    registry = result.sim.telemetry
    instruments = (len(registry._counters) + len(registry._gauges)
                   + len(registry._histograms)
                   + sum(len(readers) for readers in registry._readers.values()))
    values = sum(histogram.count for histogram in registry._histograms.values())
    assert 4 * instruments < values / 50, (instruments, values)
    _snapshot, calls = _repro_calls(result.metrics_snapshot)
    assert calls <= 4 * instruments, (calls, instruments, values)

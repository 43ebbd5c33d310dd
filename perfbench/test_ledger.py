"""Self-tests of the benchmark's per-layer ledger.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
for path in (os.path.join(os.path.dirname(HERE), "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

from ledger import LAYERS, Ledger, installed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.bench import paperconfig as pc  # noqa: E402
from repro.bench.digest import run_digest  # noqa: E402
from repro.bench.runner import run_experiment  # noqa: E402

#: Small sizes that still reach every layer the workload exercises (the
#: failover run's crash lands at 0.4 s of virtual time).
SMALL = {
    "voltdb-tpcc": 2000,
    "mysql-2wh-failover": 300,
    "postgres-tprofiler": 200,
}

#: Contended 128-warehouse TPC-C on MySQL: the fast path engages, so
#: forcing the traced path is a real toggle.
MYSQL_TPCC = pc.mysql_128wh_experiment("VATS", seed=5, n_txns=600)


def traced_run(config):
    """One traced ``run_experiment``: (ledger, wall seconds, digest)."""
    ledger = Ledger()
    start = time.perf_counter()
    with installed(ledger):
        result = run_experiment(config)
    wall = time.perf_counter() - start
    return ledger, wall, run_digest(result)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_pass_has_the_timed_pass_digest(name):
    # As in run.py: the timed pass runs the simulation in segments, the
    # traced pass in one call; neither may change what is computed.
    workload = WORKLOADS[name]
    timed = workload.run_pass(3, SMALL[name])
    ledger = Ledger()
    with installed(ledger):
        traced = workload.run_pass(3, SMALL[name], chunked=False)
    assert len(timed.segments) > len(traced.segments)
    assert traced.digest == timed.digest
    assert traced.errors == timed.errors
    assert ledger.by_layer()["sim.kernel"][0] >= 1


def test_wrappers_are_removed_afterwards():
    from repro.sim.kernel import Simulator

    original = Simulator.run
    with installed(Ledger()):
        assert Simulator.run is not original
    assert Simulator.run is original


def test_layer_self_times_cover_the_traced_wall():
    ledger, wall, _digest = traced_run(MYSQL_TPCC)
    self_total = sum(seconds for _calls, seconds in ledger.by_layer().values())
    # Self times partition the covered time exactly; what no span covers
    # is build code outside every layer, a few percent at most.
    assert self_total == pytest.approx(ledger.covered_s, rel=1e-9)
    assert 0.0 <= wall - ledger.covered_s < 0.05 * wall
    assert set(ledger.by_layer()) == set(LAYERS)


def test_a_missing_entry_point_fails_before_anything_is_wrapped(monkeypatch):
    import ledger as ledger_module
    from repro.sim.kernel import Simulator

    monkeypatch.setattr(ledger_module, "ENTRY_POINTS", ledger_module.ENTRY_POINTS + (
        ("sim.kernel", "repro.sim.kernel:Simulator", ("no_such_entry_point",)),
        ("sim.kernel", "repro.no_such_module:Simulator", ("run",)),
    ))
    original = Simulator.run
    with pytest.raises(ledger_module.MissingEntryPoints,
                       match="no_such_entry_point.*no_such_module"):
        with installed(Ledger()):
            pass
    assert Simulator.run is original


def test_forced_traced_path_growth_lands_in_engines_and_tracing():
    """Forcing MySQL's traced statement chain grows engines + core.tracing.

    A non-empty instrumented set sends every attempt down the traced
    chain (``Tracer.traced`` frames and un-inlined statement bodies)
    instead of ``_mysql_execute_fast``; workload generation is untouched.
    Call counts are exact.  Times are compared as shares within each
    run's own ledger, which a host slow-down scales alike, never as the
    difference between two wall-clock timings.
    """
    base, _wall, base_digest = traced_run(MYSQL_TPCC)
    forced, _wall, forced_digest = traced_run(
        MYSQL_TPCC.replaced(instrumented={"do_command"}))
    assert forced_digest == base_digest
    assert forced.fast_attempts == 0 and base.fast_attempts == base.attempts

    base_layers, forced_layers = base.by_layer(), forced.by_layer()
    assert forced_layers["workloads"][0] == base_layers["workloads"][0]
    assert forced_layers["engines"][0] > base_layers["engines"][0]
    assert forced_layers["core.tracing"][0] > base_layers["core.tracing"][0]

    def traced_share(layers):
        """engines + core.tracing self time per second of workloads self time."""
        grown = layers["engines"][1] + layers["core.tracing"][1]
        return grown / layers["workloads"][1]

    assert traced_share(forced_layers) > 1.5 * traced_share(base_layers)

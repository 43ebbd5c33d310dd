"""The benchmark's three workloads and one measured pass of each.

Every workload runs in this process with ``jobs=1``, telemetry at the
config default (on), and the simulation seed taken from ``--seed``.  In
virtual time each is an open-loop arrival stream at the config's rate
(``LoadDriver``: fixed gaps with 10% jitter); for the simulator each
pass is one batch job: build, simulate, extract results, plus oracles or
profiler analysis where the workload has them.  README.md records each
workload's config, flush policy and size against the buffer pool.
"""

import hashlib
import time

from repro.bench import paperconfig as pc
from repro.bench.digest import run_digest
from repro.bench.profiled import EngineProfiledSystem
from repro.bench.runner import run_experiment
from repro.core.profiler import TProfiler
from repro.faults.plan import named_plan
from repro.replication import ReplicationConfig
from repro.sim.kernel import Simulator
from repro.telemetry import snapshot_rollup

#: Counters the per-layer ratios are computed from (cluster-wide sums).
LAYER_COUNTERS = ("lockmgr.requests", "lockmgr.waits", "buf_pool.hits",
                  "buf_pool.misses")


#: Virtual time simulated per timed segment of ``Simulator.run``.
SEGMENT_US = 50_000.0

#: The fewest passes a run makes, however short ``--seconds`` is.
MIN_PASSES = 3


class PassOutcome:
    """What one pass produced, reduced to plain numbers and a digest."""

    def __init__(self, segments, offered, committed, failed, dispatches,
                 digest, counters, errors):
        #: ``(inside Simulator.run?, wall seconds)`` per segment, in order.
        self.segments = segments
        self.offered = offered
        self.committed = committed
        self.failed = failed
        self.dispatches = dispatches
        self.digest = digest
        self.counters = counters
        #: Failed correctness checks, as messages; empty when the pass is good.
        self.errors = errors

    @property
    def wall_s(self):
        return sum(seconds for _sim, seconds in self.segments)

    @property
    def outcomes(self):
        """Transactions that reached an outcome, committed or failed."""
        return self.committed + self.failed


class _Segments:
    """Splits a pass's wall time at every boundary of ``Simulator.run``.

    With ``chunked``, each run is driven in steps of ``SEGMENT_US`` of
    virtual time through the public ``run(until=...)``, and every step is
    a segment of its own.  The steps dispatch the same events in the same
    order as one call (the gate's digest check holds every pass to the
    unchunked traced pass), so the same segment of every pass does the
    same work and passes can be compared segment by segment.
    """

    def __init__(self, chunked):
        self.chunked = chunked
        self.segments = []

    def _mark(self, sim):
        now = time.perf_counter()
        self.segments.append((sim, now - self._last))
        self._last = now

    def __enter__(self):
        self._run = run = Simulator.run
        chunked = self.chunked
        mark = self._mark

        def segmented_run(sim, until=None):
            mark(False)
            if not chunked or until is not None:
                now = run(sim, until)
                mark(True)
                return now
            target = sim.now
            while True:
                target += SEGMENT_US
                now = run(sim, target)
                mark(True)
                if now < target:
                    return now

        Simulator.run = segmented_run
        self._last = time.perf_counter()
        return self

    def __exit__(self, *exc):
        Simulator.run = self._run
        self._mark(False)


def _counters(snapshots):
    totals = dict.fromkeys(LAYER_COUNTERS, 0)
    for snapshot in snapshots:
        counters = snapshot_rollup(snapshot)["counters"]
        for name in LAYER_COUNTERS:
            totals[name] += counters.get(name, 0)
    return totals


def _outcome_errors(label, offered, committed, failed):
    if committed + failed != offered:
        return ["%s: %d committed + %d failed != %d offered"
                % (label, committed, failed, offered)]
    return []


class Workload:
    """One benchmark workload: a config factory and how a pass runs it."""

    def __init__(self, name, make_config, n_txns, pass_s, profile=False):
        self.name = name
        self.make_config = make_config
        #: Transactions per simulated run.
        self.n_txns = n_txns
        #: Nominal wall seconds of one pass, from which a run's pass
        #: count is set; a fixed number, not a measurement.
        self.pass_s = pass_s
        self.profile = profile

    def passes(self, seconds):
        """Passes in a run of ``seconds``: fixed by the nominal pass time.

        The count depends on ``seconds`` alone, never on how fast the
        passes actually go, so two commits take the per-segment minimum
        over the same number of passes.
        """
        return max(MIN_PASSES, round(seconds / self.pass_s))

    def config(self, seed, n_txns=None):
        return self.make_config(seed, n_txns or self.n_txns)

    def run_pass(self, seed, n_txns=None, chunked=True):
        """One timed pass; everything after the timed region is checking.

        ``chunked`` splits ``Simulator.run`` into segments (see
        :class:`_Segments`); the traced pass runs it in one call.
        """
        config = self.config(seed, n_txns)
        with _Segments(chunked) as timing:
            if self.profile:
                system = EngineProfiledSystem(config)
                profile = TProfiler(system, k=5, max_iterations=8).profile()
            else:
                result = run_experiment(config)
                result.summary
                snapshot = result.metrics_snapshot()
                violations = result.check_report()
        if self.profile:
            return self._profile_outcome(config, system, profile, timing.segments)
        return self._experiment_outcome(config, result, snapshot, violations,
                                        timing.segments)

    def _experiment_outcome(self, config, result, snapshot, violations,
                            segments):
        offered = config.n_txns
        committed = sum(1 for trace in result.log.traces if trace.committed)
        failed = result.failed_txns
        errors = _outcome_errors(self.name, offered, committed, failed)
        if config.check:
            outcomes = result.outcome_counts
            if sum(outcomes.values()) != offered:
                errors.append("outcome_counts %r do not sum to %d"
                              % (outcomes, offered))
            if violations:
                errors.append("oracle violations: %r" % (violations[:3],))
        return PassOutcome(
            segments, offered, committed, failed, result.sim.dispatch_count,
            run_digest(result), _counters([snapshot]), errors,
        )

    def _profile_outcome(self, config, system, profile, segments):
        errors = []
        offered = committed = failed = dispatches = 0
        digest = hashlib.sha256()
        for index, artifact in enumerate(system.runs):
            run_committed = artifact.committed_count
            errors += _outcome_errors("%s run %d" % (self.name, index),
                                      config.n_txns, run_committed,
                                      artifact.failed_txns)
            offered += config.n_txns
            committed += run_committed
            failed += artifact.failed_txns
            dispatches += artifact.dispatch_count
            digest.update(artifact.digest().encode("ascii"))
        ranking = [factor.name for factor in profile.factors]
        digest.update(repr(ranking).encode("utf-8"))
        if not ranking or ranking[0] != "LWLockAcquireOrWait":
            errors.append("TProfiler ranked %r first, not LWLockAcquireOrWait"
                          % (ranking[:1],))
        return PassOutcome(
            segments, offered, committed, failed, dispatches,
            digest.hexdigest(),
            _counters(artifact.metrics for artifact in system.runs), errors,
        )


def _voltdb_tpcc(seed, n_txns):
    return pc.voltdb_experiment(seed=seed, n_txns=n_txns)


def _mysql_failover(seed, n_txns):
    # One shard: with two, a Delivery on each shard can X-lock the same
    # ``orders`` key, which the lock-interval oracle reports as an
    # overlap on some seeds (seed 2 at 1000 txns), so the correctness
    # gate would fail for reasons outside the benchmark.  A replicated
    # run builds the cluster, network and coordinator even with one shard.
    return pc.mysql_2wh_experiment(seed=seed, n_txns=n_txns).replaced(
        workload_kwargs=dict(pc.tpcc_2wh_kwargs(), remote_payment_prob=0.15),
        num_shards=1,
        replicas=1,
        replication=ReplicationConfig(mode="semi_sync", ack_k=1),
        fault_plan=named_plan("node-crash"),
        check=True,
    )


def _postgres_tprofiler(seed, n_txns):
    return pc.postgres_experiment(seed=seed, n_txns=n_txns)


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("voltdb-tpcc", _voltdb_tpcc, 40000, pass_s=2.0),
        Workload("mysql-2wh-failover", _mysql_failover, 2000, pass_s=3.0),
        Workload("postgres-tprofiler", _postgres_tprofiler, 1000, pass_s=3.0,
                 profile=True),
    )
}

"""Failure injection: crash-loss windows, deadlock storms, timeouts,
and the deterministic fault-injection subsystem (``repro.faults``)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.runner import ExperimentConfig, run_experiment
from repro.core.annotations import TransactionContext
from repro.engines.mysql import MySQLConfig
from repro.faults import FaultPlan, NAMED_PLANS, RetryPolicy, named_plan
from repro.lockmgr.locks import LockMode
from repro.lockmgr.manager import LockManager, RequestStatus
from repro.lockmgr.scheduling import FCFSScheduler, VATSScheduler
from repro.sim.kernel import Timeout
from repro.sim.rand import Streams
from repro.wal.mysql_log import FlushPolicy

from tests.util import assert_hash_seed_invariant


class TestCrashLoss:
    def run_policy(self, policy):
        config = ExperimentConfig(
            engine="mysql",
            workload="tpcc",
            workload_kwargs={"warehouses": 8},
            engine_config=MySQLConfig(flush_policy=policy),
            seed=17,
            n_txns=200,
            rate_tps=500.0,
            warmup_fraction=0.0,
        )
        return run_experiment(config)

    def test_eager_flush_never_loses_commits(self):
        result = self.run_policy(FlushPolicy.EAGER_FLUSH)
        assert result.engine.redo.lost_on_crash() == []

    def test_lazy_write_risks_recent_commits(self):
        """Appendix B: lazy policies may lose forward progress — commits
        are reported to the client before their redo is durable."""
        result = self.run_policy(FlushPolicy.LAZY_WRITE)
        redo = result.engine.redo
        # Every write transaction was exposed to a crash for some window
        # (the background flusher only catches up once per interval);
        # eager flush never exposes any.
        assert redo.exposed_commits > 0
        eager = self.run_policy(FlushPolicy.EAGER_FLUSH)
        assert eager.engine.redo.exposed_commits == 0

    def test_lazy_policies_commit_faster_despite_risk(self):
        eager = self.run_policy(FlushPolicy.EAGER_FLUSH)
        lazy = self.run_policy(FlushPolicy.LAZY_WRITE)
        assert lazy.summary.mean < eager.summary.mean


class TestDeadlockStorm:
    def run_storm(self, scheduler_cls, n_pairs=30):
        """Many transactions lock (a, b) in opposite orders."""
        from repro.sim.kernel import Simulator

        sim = Simulator()
        lm = LockManager(sim, scheduler_cls())
        outcomes = {"granted": 0, "deadlock": 0}

        def txn(tid, first, second, delay):
            yield Timeout(delay)
            ctx = TransactionContext(sim, tid, "t")
            ctx.begin()
            status1 = yield from lm.acquire(ctx, first, LockMode.X)
            if status1 is RequestStatus.GRANTED:
                yield Timeout(3.0)
                status2 = yield from lm.acquire(ctx, second, LockMode.X)
                if status2 is RequestStatus.GRANTED:
                    outcomes["granted"] += 1
                else:
                    outcomes["deadlock"] += 1
            lm.release_all(ctx)

        for i in range(n_pairs):
            sim.spawn(txn("f%d" % i, "a", "b", i * 1.0))
            sim.spawn(txn("r%d" % i, "b", "a", i * 1.0 + 0.5))
        sim.run()
        return outcomes, lm

    def test_storm_always_makes_progress(self):
        outcomes, lm = self.run_storm(FCFSScheduler)
        # Every transaction resolved: granted or aborted, none stuck.
        assert outcomes["granted"] + outcomes["deadlock"] == 60
        assert outcomes["granted"] > 0
        assert lm._objects == {}

    def test_storm_under_vats_also_progresses(self):
        outcomes, lm = self.run_storm(VATSScheduler)
        assert outcomes["granted"] + outcomes["deadlock"] == 60
        assert lm._objects == {}


class TestTimeoutRecovery:
    def test_timed_out_waiter_leaves_queue_clean(self, sim):
        lm = LockManager(sim, FCFSScheduler(), wait_timeout=5.0)
        after = []

        def holder():
            ctx = TransactionContext(sim, "h", "t")
            ctx.begin()
            yield from lm.acquire(ctx, "obj", LockMode.X)
            yield Timeout(100.0)
            lm.release_all(ctx)

        def victim():
            yield Timeout(1.0)
            ctx = TransactionContext(sim, "v", "t")
            ctx.begin()
            status = yield from lm.acquire(ctx, "obj", LockMode.X)
            assert status is RequestStatus.TIMEOUT
            lm.release_all(ctx)

        def late():
            # Arrives just before the holder releases, so its own wait
            # stays inside the 5us budget.
            yield Timeout(99.0)
            ctx = TransactionContext(sim, "l", "t")
            ctx.begin()
            status = yield from lm.acquire(ctx, "obj", LockMode.X)
            after.append((status, sim.now))
            lm.release_all(ctx)

        sim.spawn(holder())
        sim.spawn(victim())
        sim.spawn(late())
        sim.run()
        # The late arrival is granted as soon as the holder releases; the
        # timed-out victim neither blocks it nor receives a ghost grant.
        assert after == [(RequestStatus.GRANTED, 100.0)]

    def test_engine_survives_pathological_lock_timeouts(self):
        """With an absurdly short lock-wait timeout the engine retries
        and (mostly) completes rather than wedging."""
        config = ExperimentConfig(
            engine="mysql",
            workload="tpcc",
            workload_kwargs={"warehouses": 1, "warehouse_zipf_theta": None},
            engine_config=MySQLConfig(lock_wait_timeout=2_000.0, max_attempts=30),
            seed=23,
            n_txns=150,
            rate_tps=300.0,
            warmup_fraction=0.0,
        )
        result = run_experiment(config)
        assert len(result.log) == 150
        committed = sum(1 for t in result.log.traces if t.committed)
        assert committed >= 140


# ----------------------------------------------------------------------
# repro.faults: deterministic chaos
# ----------------------------------------------------------------------


def chaos_config(engine="mysql", plan=None, seed=29, n_txns=250, **kwargs):
    return ExperimentConfig(
        engine=engine,
        workload="tpcc",
        workload_kwargs={"warehouses": 8},
        seed=seed,
        n_txns=n_txns,
        rate_tps=500.0,
        warmup_fraction=0.0,
        fault_plan=plan,
        **kwargs
    )


class TestChaosDeterminism:
    @pytest.mark.parametrize("engine", ["mysql", "postgres", "voltdb"])
    def test_same_seed_same_plan_byte_identical(self, engine):
        """Chaos runs are as reproducible as clean runs: same seed + same
        FaultPlan => byte-identical telemetry and latency vectors."""
        config = chaos_config(
            engine, plan=named_plan("full-chaos", crash_prob=0.02)
        )
        first = run_experiment(config)
        second = run_experiment(config)
        a = first.event_log_jsonl()
        b = second.event_log_jsonl()
        assert a.encode("utf-8") == b.encode("utf-8")
        assert json.dumps(first.metrics_snapshot(), sort_keys=True) == json.dumps(
            second.metrics_snapshot(), sort_keys=True
        )
        assert first.latencies == second.latencies
        # The comparison has teeth: faults actually fired.  VoltDB has no
        # disks or lock manager, so its chaos surface is worker crashes.
        if engine == "voltdb":
            assert first.sim.faults.worker_crashes > 0
        else:
            assert first.sim.faults.io_errors > 0
        assert '"fault.' in a

    def test_empty_plan_identical_to_no_plan(self):
        """FaultPlan() with nothing configured is disabled: the runner
        wires NO_FAULTS and the run matches fault_plan=None exactly."""
        plan = FaultPlan()
        assert not plan.enabled
        base = run_experiment(chaos_config(plan=None))
        empty = run_experiment(chaos_config(plan=plan))
        assert base.event_log_jsonl() == empty.event_log_jsonl()
        assert base.latencies == empty.latencies
        assert base.sim.now == empty.sim.now

    def test_inert_enabled_plan_identical_to_baseline(self):
        """An enabled plan whose windows lie beyond the run's end and
        whose probabilities are zero draws no RNG and injects nothing —
        byte-identical to the no-plan baseline."""
        plan = named_plan(
            "log-brownout", brownout_windows=((10.0**15, 1_000.0),)
        )
        assert plan.enabled
        base = run_experiment(chaos_config(plan=None))
        inert = run_experiment(chaos_config(plan=plan))
        assert base.event_log_jsonl() == inert.event_log_jsonl()
        assert base.latencies == inert.latencies

    def test_named_plans_all_run(self):
        for name in sorted(NAMED_PLANS):
            result = run_experiment(chaos_config(plan=named_plan(name), n_txns=120))
            assert len(result.log) == 120

    def test_cross_process_hash_seed_chaos_determinism(self):
        """Chaos totals must not depend on PYTHONHASHSEED either."""
        code = (
            "import sys, json; sys.path[:0] = json.loads(sys.argv[1]); "
            "from repro import ExperimentConfig, run_experiment, named_plan; "
            "r = run_experiment(ExperimentConfig(engine='mysql', workload='tpcc', "
            "workload_kwargs={'warehouses': 8}, seed=29, n_txns=150, "
            "warmup_fraction=0.0, fault_plan=named_plan('full-chaos'))); "
            "print(json.dumps([sum(r.latencies), r.sim.now, "
            "r.sim.faults.io_errors, r.sim.faults.worker_crashes]))"
        )
        assert_hash_seed_invariant(code, hash_seeds=("0", "424242"))


class TestFaultClasses:
    def test_io_errors_retried_by_wal(self):
        """Injected log-device errors are absorbed by the WAL retry loop:
        transactions still commit and the retries are counted."""
        result = run_experiment(
            chaos_config(plan=named_plan("io-errors", io_error_prob=0.08))
        )
        assert result.sim.faults.io_errors > 0
        counters = result.metrics_snapshot()["counters"]
        assert counters["faults.io_errors"] == result.sim.faults.io_errors
        assert counters.get("wal.redo.io_retries", 0) > 0
        # Retries preserved durability: every injected error was absorbed.
        assert result.committed_count == len(result.log)

    def test_io_errors_retried_by_pg_wal(self):
        result = run_experiment(
            chaos_config(
                engine="postgres", plan=named_plan("io-errors", io_error_prob=0.08)
            )
        )
        assert result.sim.faults.io_errors > 0
        counters = result.metrics_snapshot()["counters"]
        assert counters.get("wal.wal.io_retries", 0) > 0
        assert result.committed_count == len(result.log)

    def test_worker_crashes_recovered(self):
        result = run_experiment(
            chaos_config(plan=named_plan("worker-crashes", crash_prob=0.05))
        )
        assert result.sim.faults.worker_crashes > 0
        snapshot = result.metrics_snapshot()
        assert snapshot["counters"]["faults.worker_crashes"] > 0
        assert "faults.worker_restart_time" in snapshot["histograms"]
        # Crashes delay transactions; they never lose them.
        assert result.committed_count == len(result.log)
        assert sum(w.crashes for w in result.engine.workers) == (
            result.sim.faults.worker_crashes
        )

    def test_lock_storm_causes_timeout_aborts(self):
        result = run_experiment(
            chaos_config(
                plan=named_plan(
                    "lock-storm",
                    lock_storm_windows=((0.0, 10.0**9),),
                    lock_storm_timeout=1_500.0,
                )
            )
        )
        assert result.abort_counts.get("timeout", 0) > 0
        # The unified retry loop recovered most of them.
        assert result.committed_count >= 0.9 * len(result.log)

    def test_burst_sheds_when_queue_bounded(self):
        """An arrival burst against a bounded queue sheds load instead of
        building an unbounded backlog — and every arrival is accounted."""
        n = 300
        result = run_experiment(
            chaos_config(
                n_txns=n,
                engine_config=MySQLConfig(n_workers=8, max_queue_depth=6),
                plan=named_plan(
                    "arrival-burst",
                    burst_windows=((0.0, 10.0**9),),
                    burst_rate_factor=12.0,
                ),
            )
        )
        assert result.shed_txns > 0
        assert result.failed_counts.get("shed", 0) == result.shed_txns
        counter = result.metrics_snapshot()["counters"]["mysql.txns_shed"]
        assert counter == result.shed_txns
        # Shed transactions still appear in the log as uncommitted, and
        # stay out of the measurement set.
        assert len(result.log) == n
        assert all(t.committed for t in result.traces)
        assert result.committed_count == n - result.failed_txns

    def test_deadline_gives_up_stale_transactions(self):
        result = run_experiment(
            chaos_config(
                n_txns=300,
                engine_config=MySQLConfig(n_workers=4, txn_deadline=30_000.0),
                plan=named_plan(
                    "arrival-burst",
                    burst_windows=((0.0, 10.0**9),),
                    burst_rate_factor=10.0,
                ),
            )
        )
        assert result.failed_counts.get("deadline", 0) > 0
        assert len(result.log) == 300


class TestRetryPolicyProperties:
    @given(
        attempt=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_backoff_bounded_and_reproducible(self, attempt, seed):
        policy = RetryPolicy(
            max_attempts=12,
            base_backoff=500.0,
            multiplier=2.0,
            max_backoff=2_000.0,
            jitter=0.5,
        )
        first = policy.backoff(attempt, Streams(seed).stream("retry"))
        second = policy.backoff(attempt, Streams(seed).stream("retry"))
        assert first == second
        cap = policy.max_backoff
        raw = min(cap, policy.base_backoff * policy.multiplier ** (attempt - 1))
        assert raw * (1 - policy.jitter) <= first <= raw * (1 + policy.jitter)

    def test_backoff_without_rng_is_deterministic_midpoint(self):
        policy = RetryPolicy(base_backoff=100.0, multiplier=2.0, max_backoff=800.0)
        assert [policy.backoff(a, None) for a in (1, 2, 3, 4, 5)] == [
            100.0,
            200.0,
            400.0,
            800.0,
            800.0,
        ]

    def test_jitter_draws_come_from_dedicated_stream(self):
        """The backoff stream is independent: drawing jitter does not
        perturb any other named stream, and vice versa."""
        clean = Streams(7).stream("mysql.engine")
        other_before = [clean.random() for _ in range(3)]
        streams = Streams(7)
        policy = RetryPolicy()
        rng = streams.stream("mysql.retry")
        for attempt in (1, 2, 3):
            policy.backoff(attempt, rng)
        other_after = [streams.stream("mysql.engine").random() for _ in range(3)]
        assert other_before == other_after

    def test_give_up_accounting_per_reason(self):
        policy = RetryPolicy()
        policy.note_retry("deadlock")
        policy.note_retry("deadlock")
        policy.note_retry("io_error")
        policy.note_give_up("deadlock")
        assert policy.retries_by_reason == {"deadlock": 2, "io_error": 1}
        assert policy.giveups_by_reason == {"deadlock": 1}
        assert policy.total_retries == 3
        assert policy.total_giveups == 1

    def test_validation_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff=float("nan"))
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff=100.0, max_backoff=50.0)


class TestFaultPlanValidation:
    def test_rejects_bad_windows(self):
        with pytest.raises(ValueError):
            FaultPlan(brownout_windows=((-1.0, 10.0),))
        with pytest.raises(ValueError):
            FaultPlan(burst_windows=((0.0, float("nan")),))

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            FaultPlan(io_error_prob=1.5)
        with pytest.raises(ValueError):
            FaultPlan(crash_prob=-0.1)

    def test_unknown_named_plan(self):
        with pytest.raises(KeyError):
            named_plan("no-such-plan")

"""Transaction demarcation: contexts, intervals, traces, the log."""

import pytest

from repro.core.annotations import TransactionContext, TransactionLog
from repro.sim.kernel import Simulator, Timeout


def test_begin_end_latency(sim):
    ctx = TransactionContext(sim, 1, "t")

    def proc():
        ctx.begin()
        yield Timeout(25.0)
        ctx.end()

    sim.spawn(proc())
    sim.run()
    trace = ctx.finish()
    assert trace.latency == 25.0
    assert trace.attempts == 1
    assert trace.committed


def test_latency_measured_from_birth_not_start(sim):
    """A transaction queued before its first attempt still counts the
    queueing in its user-perceived latency."""
    ctx = TransactionContext(sim, 1, "t")

    def proc():
        yield Timeout(10.0)  # queued
        ctx.begin()
        yield Timeout(5.0)
        ctx.end()

    sim.spawn(proc())
    sim.run()
    assert ctx.finish().latency == 15.0


def test_end_before_begin_raises(sim):
    ctx = TransactionContext(sim, 1, "t")
    with pytest.raises(RuntimeError):
        ctx.end()


def test_end_with_open_frames_raises(sim):
    from repro.core.annotations import _Frame

    ctx = TransactionContext(sim, 1, "t")
    ctx.begin()
    ctx.stack.append(_Frame(("f", "s"), 0.0, None))
    with pytest.raises(RuntimeError):
        ctx.end()


def test_age_advances_with_clock(sim):
    ctx = TransactionContext(sim, 1, "t")

    def proc():
        yield Timeout(7.0)

    sim.spawn(proc())
    sim.run()
    assert ctx.age == 7.0


def test_retries_preserve_birth(sim):
    ctx = TransactionContext(sim, 1, "t")

    def proc():
        ctx.begin()
        yield Timeout(5.0)
        ctx.attempts += 1  # retry bookkeeping
        yield Timeout(5.0)
        ctx.end()

    sim.spawn(proc())
    sim.run()
    trace = ctx.finish()
    assert trace.attempts == 2
    assert trace.latency == 10.0


class TestIntervals:
    def test_concatenated_intervals(self, sim):
        """VoltDB-style: latency spans first interval start to last end."""
        ctx = TransactionContext(sim, 1, "t")

        def proc():
            yield Timeout(3.0)
            ctx.begin_interval()
            yield Timeout(2.0)
            ctx.end_interval()
            yield Timeout(4.0)
            ctx.begin_interval()
            yield Timeout(1.0)
            ctx.end_interval()

        sim.spawn(proc())
        sim.run()
        trace = ctx.finish()
        assert ctx.busy_time == 3.0
        assert trace.latency == 10.0  # birth at 0, last end at 10
        assert ctx.intervals == [(3.0, 5.0), (9.0, 10.0)]

    def test_nested_interval_raises(self, sim):
        ctx = TransactionContext(sim, 1, "t")
        ctx.begin_interval()
        with pytest.raises(RuntimeError):
            ctx.begin_interval()

    def test_end_interval_without_begin_raises(self, sim):
        ctx = TransactionContext(sim, 1, "t")
        with pytest.raises(RuntimeError):
            ctx.end_interval()


class TestTransactionLog:
    def test_records_and_filters(self, sim):
        log = TransactionLog()
        for i, (txn_type, commit) in enumerate(
            [("a", True), ("b", True), ("a", False)]
        ):
            ctx = TransactionContext(sim, i, txn_type)
            ctx.begin()
            ctx.end()
            log.record(ctx, committed=commit)
        assert len(log) == 3
        assert [t.committed for t in log.traces] == [True, True, False]

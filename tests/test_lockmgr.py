"""Lock manager: grant rules, schedulers, deadlock, timeout, bookkeeping."""

import pytest

from repro.core.annotations import TransactionContext
from repro.lockmgr.locks import LockMode, compatible, stronger_or_equal
from repro.lockmgr.manager import LockManager, RequestStatus
from repro.lockmgr.scheduling import (
    FCFSScheduler,
    RandomScheduler,
    VATSScheduler,
    make_scheduler,
)
from repro.sim.kernel import Timeout


def ctx_at(sim, txn_id, birth):
    return TransactionContext(sim, txn_id, "t", birth=birth)


class TestCompatibility:
    def test_matrix(self):
        assert compatible(LockMode.S, LockMode.S)
        assert not compatible(LockMode.S, LockMode.X)
        assert not compatible(LockMode.X, LockMode.S)
        assert not compatible(LockMode.X, LockMode.X)

    def test_stronger_or_equal(self):
        assert stronger_or_equal(LockMode.X, LockMode.S)
        assert stronger_or_equal(LockMode.X, LockMode.X)
        assert stronger_or_equal(LockMode.S, LockMode.S)
        assert not stronger_or_equal(LockMode.S, LockMode.X)


class TestBasicGranting:
    def test_free_object_granted_immediately(self, sim):
        lm = LockManager(sim, FCFSScheduler())
        ctx = ctx_at(sim, 1, 0.0)
        request = lm.request(ctx, "obj", LockMode.X)
        assert request.status is RequestStatus.GRANTED
        assert lm.held_locks(ctx) == {"obj": LockMode.X}

    def test_shared_locks_coexist(self, sim):
        lm = LockManager(sim, FCFSScheduler())
        a, b = ctx_at(sim, 1, 0.0), ctx_at(sim, 2, 0.0)
        assert lm.request(a, "obj", LockMode.S).status is RequestStatus.GRANTED
        assert lm.request(b, "obj", LockMode.S).status is RequestStatus.GRANTED

    def test_exclusive_blocks_shared(self, sim):
        lm = LockManager(sim, FCFSScheduler())
        a, b = ctx_at(sim, 1, 0.0), ctx_at(sim, 2, 0.0)
        lm.request(a, "obj", LockMode.X)
        assert lm.request(b, "obj", LockMode.S).status is RequestStatus.WAITING

    def test_reentrant_same_mode(self, sim):
        lm = LockManager(sim, FCFSScheduler())
        ctx = ctx_at(sim, 1, 0.0)
        lm.request(ctx, "obj", LockMode.X)
        again = lm.request(ctx, "obj", LockMode.S)
        assert again.status is RequestStatus.GRANTED

    def test_release_grants_next(self, sim):
        lm = LockManager(sim, FCFSScheduler())
        granted = []

        def holder():
            ctx = ctx_at(sim, 1, sim.now)
            yield from lm.acquire(ctx, "obj", LockMode.X)
            yield Timeout(10.0)
            lm.release_all(ctx)

        def waiter():
            yield Timeout(1.0)
            ctx = ctx_at(sim, 2, sim.now)
            status = yield from lm.acquire(ctx, "obj", LockMode.X)
            granted.append((status, sim.now))
            lm.release_all(ctx)

        sim.spawn(holder())
        sim.spawn(waiter())
        sim.run()
        assert granted == [(RequestStatus.GRANTED, 10.0)]

    def test_release_grants_all_compatible(self, sim):
        lm = LockManager(sim, FCFSScheduler())
        granted = []

        def holder():
            ctx = ctx_at(sim, 1, sim.now)
            yield from lm.acquire(ctx, "obj", LockMode.X)
            yield Timeout(10.0)
            lm.release_all(ctx)

        def reader(tid, arrive):
            yield Timeout(arrive)
            ctx = ctx_at(sim, tid, sim.now)
            yield from lm.acquire(ctx, "obj", LockMode.S)
            granted.append((tid, sim.now))

        sim.spawn(holder())
        sim.spawn(reader(2, 1.0))
        sim.spawn(reader(3, 2.0))
        sim.run()
        assert granted == [(2, 10.0), (3, 10.0)]

    def test_writer_not_starved_by_late_readers(self, sim):
        """An S request behind a waiting X request must queue (the paper's
        footnote 7: reads may not pass waiting writes)."""
        lm = LockManager(sim, FCFSScheduler())
        order = []

        def first_reader():
            ctx = ctx_at(sim, 1, sim.now)
            yield from lm.acquire(ctx, "obj", LockMode.S)
            yield Timeout(10.0)
            lm.release_all(ctx)

        def writer():
            yield Timeout(1.0)
            ctx = ctx_at(sim, 2, sim.now)
            yield from lm.acquire(ctx, "obj", LockMode.X)
            order.append(("writer", sim.now))
            yield Timeout(5.0)
            lm.release_all(ctx)

        def late_reader():
            yield Timeout(2.0)
            ctx = ctx_at(sim, 3, sim.now)
            yield from lm.acquire(ctx, "obj", LockMode.S)
            order.append(("late_reader", sim.now))
            lm.release_all(ctx)

        sim.spawn(first_reader())
        sim.spawn(writer())
        sim.spawn(late_reader())
        sim.run()
        assert order == [("writer", 10.0), ("late_reader", 15.0)]


class TestSchedulerOrder:
    def run_three_waiters(self, sim, scheduler, births):
        """txn0 holds; three waiters with given births arrive in order."""
        lm = LockManager(sim, scheduler)
        grants = []

        def holder():
            ctx = ctx_at(sim, "holder", 0.0)
            yield from lm.acquire(ctx, "obj", LockMode.X)
            yield Timeout(100.0)
            lm.release_all(ctx)

        def waiter(tid, arrive, birth):
            yield Timeout(arrive)
            ctx = ctx_at(sim, tid, birth)
            yield from lm.acquire(ctx, "obj", LockMode.X)
            grants.append(tid)
            yield Timeout(1.0)
            lm.release_all(ctx)

        sim.spawn(holder())
        for i, (arrive, birth) in enumerate(births):
            sim.spawn(waiter("w%d" % i, arrive, birth))
        sim.run()
        return grants

    def test_fcfs_grants_in_arrival_order(self, sim):
        # Births reversed vs arrivals: FCFS must ignore age.
        grants = self.run_three_waiters(
            sim, FCFSScheduler(), [(1.0, 50.0), (2.0, 20.0), (3.0, 0.0)]
        )
        assert grants == ["w0", "w1", "w2"]

    def test_vats_grants_eldest_first(self, sim):
        grants = self.run_three_waiters(
            sim, VATSScheduler(), [(1.0, 50.0), (2.0, 20.0), (3.0, 0.0)]
        )
        assert grants == ["w2", "w1", "w0"]

    def test_vats_tie_broken_by_seq(self, sim):
        grants = self.run_three_waiters(
            sim, VATSScheduler(), [(1.0, 5.0), (2.0, 5.0), (3.0, 5.0)]
        )
        assert grants == ["w0", "w1", "w2"]

    def test_random_scheduler_deterministic_with_seed(self):
        import random

        from repro.sim.kernel import Simulator

        def run(seed):
            sim = Simulator()
            return self.run_three_waiters(
                sim,
                RandomScheduler(random.Random(seed)),
                [(1.0, 50.0), (2.0, 20.0), (3.0, 0.0)],
            )

        assert run(3) == run(3)

    def test_strict_vats_never_grants_on_arrival(self, sim):
        """Theorem 1's S_a: compatible arrivals still wait while any lock
        is held."""
        lm = LockManager(sim, VATSScheduler(strict_arrival=True))
        events = []

        def holder():
            ctx = ctx_at(sim, 1, sim.now)
            yield from lm.acquire(ctx, "obj", LockMode.S)
            yield Timeout(10.0)
            lm.release_all(ctx)

        def reader():
            yield Timeout(1.0)
            ctx = ctx_at(sim, 2, sim.now)
            yield from lm.acquire(ctx, "obj", LockMode.S)
            events.append(sim.now)

        sim.spawn(holder())
        sim.spawn(reader())
        sim.run()
        # Default VATS would grant at 1.0 (S compatible with S); strict waits.
        assert events == [10.0]


class TestUpgrade:
    def test_upgrade_succeeds_when_alone(self, sim):
        lm = LockManager(sim, FCFSScheduler())
        ctx = ctx_at(sim, 1, 0.0)
        lm.request(ctx, "obj", LockMode.S)
        up = lm.request(ctx, "obj", LockMode.X)
        assert up.status is RequestStatus.GRANTED
        assert lm.held_locks(ctx)["obj"] is LockMode.X

    def test_upgrade_deadlock_detected(self, sim):
        lm = LockManager(sim, FCFSScheduler())
        results = []

        def upgrader(tid, delay):
            yield Timeout(delay)
            ctx = ctx_at(sim, tid, sim.now)
            yield from lm.acquire(ctx, "obj", LockMode.S)
            yield Timeout(5.0)
            status = yield from lm.acquire(ctx, "obj", LockMode.X)
            results.append((tid, status))
            lm.release_all(ctx)

        sim.spawn(upgrader(1, 0.0))
        sim.spawn(upgrader(2, 1.0))
        sim.run()
        statuses = dict(results)
        assert RequestStatus.DEADLOCK in statuses.values()
        assert RequestStatus.GRANTED in statuses.values()
        assert lm.deadlocks == 1


class TestDeadlock:
    def test_two_object_cycle(self, sim):
        lm = LockManager(sim, FCFSScheduler())
        results = []

        def txn(tid, first, second, delay):
            yield Timeout(delay)
            ctx = ctx_at(sim, tid, sim.now)
            yield from lm.acquire(ctx, first, LockMode.X)
            yield Timeout(5.0)
            status = yield from lm.acquire(ctx, second, LockMode.X)
            results.append((tid, status))
            lm.release_all(ctx)

        sim.spawn(txn(1, "a", "b", 0.0))
        sim.spawn(txn(2, "b", "a", 1.0))
        sim.run()
        statuses = [s for _tid, s in results]
        assert RequestStatus.DEADLOCK in statuses
        assert RequestStatus.GRANTED in statuses

    def test_three_txn_cycle(self, sim):
        lm = LockManager(sim, FCFSScheduler())
        results = []

        def txn(tid, first, second, delay):
            yield Timeout(delay)
            ctx = ctx_at(sim, tid, sim.now)
            yield from lm.acquire(ctx, first, LockMode.X)
            yield Timeout(5.0)
            status = yield from lm.acquire(ctx, second, LockMode.X)
            results.append((tid, status))
            yield Timeout(1.0)
            lm.release_all(ctx)

        sim.spawn(txn(1, "a", "b", 0.0))
        sim.spawn(txn(2, "b", "c", 1.0))
        sim.spawn(txn(3, "c", "a", 2.0))
        sim.run()
        statuses = [s for _tid, s in results]
        assert statuses.count(RequestStatus.DEADLOCK) == 1
        assert statuses.count(RequestStatus.GRANTED) == 2

    def test_no_false_deadlock_on_simple_wait(self, sim):
        lm = LockManager(sim, FCFSScheduler())

        def holder():
            ctx = ctx_at(sim, 1, sim.now)
            yield from lm.acquire(ctx, "obj", LockMode.X)
            yield Timeout(5.0)
            lm.release_all(ctx)

        statuses = []

        def waiter():
            yield Timeout(1.0)
            ctx = ctx_at(sim, 2, sim.now)
            status = yield from lm.acquire(ctx, "obj", LockMode.X)
            statuses.append(status)

        sim.spawn(holder())
        sim.spawn(waiter())
        sim.run()
        assert statuses == [RequestStatus.GRANTED]
        assert lm.deadlocks == 0


class TestTimeoutAndCancel:
    def test_lock_wait_timeout(self, sim):
        lm = LockManager(sim, FCFSScheduler(), wait_timeout=5.0)
        statuses = []

        def holder():
            ctx = ctx_at(sim, 1, sim.now)
            yield from lm.acquire(ctx, "obj", LockMode.X)
            yield Timeout(100.0)
            lm.release_all(ctx)

        def waiter():
            yield Timeout(1.0)
            ctx = ctx_at(sim, 2, sim.now)
            status = yield from lm.acquire(ctx, "obj", LockMode.X)
            statuses.append((status, sim.now))

        sim.spawn(holder())
        sim.spawn(waiter())
        sim.run()
        assert statuses == [(RequestStatus.TIMEOUT, 6.0)]
        assert lm.timeouts == 1

    def test_release_all_cancels_waiting_request(self, sim):
        lm = LockManager(sim, FCFSScheduler())

        def holder():
            ctx = ctx_at(sim, 1, sim.now)
            yield from lm.acquire(ctx, "obj", LockMode.X)
            yield Timeout(50.0)
            lm.release_all(ctx)

        def quitter():
            yield Timeout(1.0)
            ctx = ctx_at(sim, 2, sim.now)
            request = lm.request(ctx, "obj", LockMode.X)
            assert request.status is RequestStatus.WAITING
            lm.release_all(ctx)  # abort while waiting
            assert request.status is RequestStatus.CANCELLED

        sim.spawn(holder())
        sim.spawn(quitter())
        sim.run()
        assert lm.queue_length("obj") == 0


class TestBookkeeping:
    def test_bookkeeping_charges_time(self, sim):
        lm = LockManager(
            sim,
            FCFSScheduler(),
            bookkeeping=True,
            bookkeeping_base=1.0,
            bookkeeping_per_entry=0.5,
        )

        def proc():
            ctx = ctx_at(sim, 1, sim.now)
            request = yield from lm.request_timed(ctx, "obj", LockMode.X)
            assert request.status is RequestStatus.GRANTED
            yield from lm.release_all_timed(ctx)

        sim.spawn(proc())
        sim.run()
        # 1.0 for the request scan of an empty table, 1.0 + 0.5 for the
        # release scan over its one granted entry.
        assert lm.bookkeeping_time == 2.5
        assert sim.now == 2.5

    def test_head_placement_shortens_scans(self, sim):
        fcfs = LockManager(sim, FCFSScheduler(), bookkeeping=True)
        vats = LockManager(sim, VATSScheduler(), bookkeeping=True)
        assert fcfs._scan_fraction() == 1.0
        assert vats._scan_fraction() < 1.0

    def test_bookkeeping_disabled_is_free(self, sim):
        lm = LockManager(sim, FCFSScheduler(), bookkeeping=False)

        def proc():
            ctx = ctx_at(sim, 1, sim.now)
            yield from lm.request_timed(ctx, "obj", LockMode.X)
            yield from lm.release_all_timed(ctx)

        sim.spawn(proc())
        sim.run()
        assert sim.now == 0.0
        assert lm.bookkeeping_time == 0.0


class TestAcquireProtocol:
    """``LockManager.acquire``: bookkeeping, request, wait, abort reason."""

    @staticmethod
    def counting_hook(lm, calls):
        def wait(request):
            calls.append(request)
            return lm.wait(request)

        return wait

    def test_immediate_grant_neither_suspends_nor_calls_the_hook(self, sim):
        lm = LockManager(sim, FCFSScheduler())
        ctx = ctx_at(sim, 1, 0.0)
        calls = []
        protocol = lm.acquire(ctx, "obj", LockMode.X, self.counting_hook(lm, calls))
        with pytest.raises(StopIteration) as done:
            next(protocol)  # runs to completion without one yield
        assert done.value.value is RequestStatus.GRANTED
        assert calls == []
        assert ctx.abort_reason is None

    def test_contended_request_suspends_through_the_hook_once(self, sim):
        lm = LockManager(sim, FCFSScheduler())
        calls = []
        outcome = []

        def holder():
            ctx = ctx_at(sim, 1, sim.now)
            lm.request(ctx, "obj", LockMode.X)
            yield Timeout(10.0)
            lm.release_all(ctx)

        def waiter():
            yield Timeout(1.0)
            ctx = ctx_at(sim, 2, sim.now)
            status = yield from lm.acquire(
                ctx, "obj", LockMode.X, self.counting_hook(lm, calls)
            )
            outcome.append((status, sim.now, ctx.abort_reason))

        sim.spawn(holder())
        sim.spawn(waiter())
        sim.run()
        assert outcome == [(RequestStatus.GRANTED, 10.0, None)]
        assert len(calls) == 1

    def test_deadlock_victim_ends_not_granted(self, sim):
        lm = LockManager(sim, FCFSScheduler())
        outcomes = {}

        def txn(tid, first, second, delay):
            yield Timeout(delay)
            ctx = ctx_at(sim, tid, sim.now)
            yield from lm.acquire(ctx, first, LockMode.X)
            yield Timeout(5.0)
            status = yield from lm.acquire(ctx, second, LockMode.X)
            outcomes[tid] = (status, ctx.abort_reason)
            lm.release_all(ctx)

        sim.spawn(txn(1, "a", "b", 0.0))
        sim.spawn(txn(2, "b", "a", 1.0))
        sim.run()
        # Txn 2 closes the cycle, so it is the victim.
        assert outcomes == {
            1: (RequestStatus.GRANTED, None),
            2: (RequestStatus.DEADLOCK, "deadlock"),
        }

    def test_wait_past_the_timeout_ends_not_granted(self, sim):
        lm = LockManager(sim, FCFSScheduler(), wait_timeout=5.0)
        outcome = []

        def holder():
            ctx = ctx_at(sim, 1, sim.now)
            lm.request(ctx, "obj", LockMode.X)
            yield Timeout(100.0)
            lm.release_all(ctx)

        def waiter():
            yield Timeout(1.0)
            ctx = ctx_at(sim, 2, sim.now)
            status = yield from lm.acquire(ctx, "obj", LockMode.X)
            outcome.append((status, sim.now, ctx.abort_reason))

        sim.spawn(holder())
        sim.spawn(waiter())
        sim.run()
        assert outcome == [(RequestStatus.TIMEOUT, 6.0, "timeout")]

    def test_bookkeeping_is_charged_once_per_acquire(self, sim):
        lm = LockManager(
            sim,
            FCFSScheduler(),
            bookkeeping=True,
            bookkeeping_base=1.0,
            bookkeeping_per_entry=0.5,
        )
        outcome = []

        def holder():
            ctx = ctx_at(sim, 1, sim.now)
            lm.request(ctx, "obj", LockMode.X)  # uncharged
            yield Timeout(10.0)
            lm.release_all(ctx)

        def waiter():
            yield Timeout(1.0)
            ctx = ctx_at(sim, 2, sim.now)
            status = yield from lm.acquire(ctx, "obj", LockMode.X)
            outcome.append((status, sim.now))

        sim.spawn(holder())
        sim.spawn(waiter())
        sim.run()
        # One scan over the holder's entry (1.0 + 0.5), paid before the
        # wait and not again after it.
        assert outcome == [(RequestStatus.GRANTED, 10.0)]
        assert lm.bookkeeping_time == 1.5
        assert lm.lock_sys_mutex.total_acquisitions == 1


class TestAccounting:
    def test_wait_statistics(self, sim):
        lm = LockManager(sim, FCFSScheduler())

        def holder():
            ctx = ctx_at(sim, 1, sim.now)
            yield from lm.acquire(ctx, "obj", LockMode.X)
            yield Timeout(10.0)
            lm.release_all(ctx)

        def waiter():
            yield Timeout(2.0)
            ctx = ctx_at(sim, 2, sim.now)
            yield from lm.acquire(ctx, "obj", LockMode.X)
            lm.release_all(ctx)

        sim.spawn(holder())
        sim.spawn(waiter())
        sim.run()
        assert lm.total_requests == 2
        assert lm.immediate_grants == 1
        assert lm.total_waits == 1
        assert lm.total_wait_time == pytest.approx(8.0)

    def test_lock_table_cleaned_up(self, sim):
        lm = LockManager(sim, FCFSScheduler())

        def proc():
            ctx = ctx_at(sim, 1, sim.now)
            yield from lm.acquire(ctx, "obj", LockMode.X)
            lm.release_all(ctx)

        sim.spawn(proc())
        sim.run()
        assert lm._objects == {}
        assert lm._held == {}


def test_make_scheduler_factory():
    import random

    assert make_scheduler("fcfs").name == "FCFS"
    assert make_scheduler("VATS").name == "VATS"
    assert make_scheduler("rs", rng=random.Random(0)).name == "RS"
    with pytest.raises(ValueError):
        make_scheduler("rs")
    with pytest.raises(ValueError):
        make_scheduler("mystery")

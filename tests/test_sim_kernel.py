"""Kernel semantics: clock, ordering, events, timeouts, processes."""

import pytest

from repro.sim.kernel import (
    Event,
    SimulationError,
    Simulator,
    Timeout,
    WaitEvent,
)
from repro.sim.refkernel import ReferenceSimulator


@pytest.fixture(params=[Simulator, ReferenceSimulator],
                ids=["kernel", "refkernel"])
def either_sim(request):
    """The contract cases below hold on both kernels."""
    return request.param()


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_timeout_advances_clock(sim):
    seen = []

    def proc():
        yield Timeout(5.0)
        seen.append(sim.now)
        yield Timeout(2.5)
        seen.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert seen == [5.0, 7.5]


def test_negative_timeout_rejected():
    with pytest.raises(SimulationError):
        Timeout(-1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_timeout_rejected(bad):
    # NaN passes a bare ``< 0`` check and then poisons heap ordering
    # (every comparison with NaN is False), so the kernel must reject
    # non-finite delays explicitly.
    with pytest.raises(SimulationError):
        Timeout(bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -1.0])
def test_non_finite_wait_event_timeout_rejected(sim, bad):
    from repro.sim.kernel import WaitEvent

    with pytest.raises(SimulationError):
        WaitEvent(sim.event(), timeout=bad)


def test_wait_event_none_timeout_still_allowed(sim):
    from repro.sim.kernel import WaitEvent

    fired = []

    def waiter():
        event = sim.event()
        sim.spawn(firer(event))
        yield WaitEvent(event, timeout=None)
        fired.append(sim.now)

    def firer(event):
        yield Timeout(4.0)
        event.fire()

    sim.spawn(waiter())
    sim.run()
    assert fired == [4.0]


def test_zero_timeout_allowed(sim):
    done = []

    def proc():
        yield Timeout(0.0)
        done.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert done == [0.0]


def test_fifo_tiebreak_at_same_time(sim):
    """Processes scheduled for the same instant run in spawn order."""
    order = []

    def proc(tag):
        yield Timeout(10.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        sim.spawn(proc(tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_event_wakes_all_waiters(sim):
    event = sim.event()
    woken = []

    def waiter(tag):
        yield WaitEvent(event)
        woken.append((tag, sim.now))

    def firer():
        yield Timeout(3.0)
        event.fire("payload")

    sim.spawn(waiter("x"))
    sim.spawn(waiter("y"))
    sim.spawn(firer())
    sim.run()
    assert woken == [("x", 3.0), ("y", 3.0)]
    assert event.value == "payload"


def test_wait_on_already_fired_event_returns_immediately(sim):
    event = sim.event()
    event.fire()
    seen = []

    def proc():
        fired = yield WaitEvent(event)
        seen.append((fired, sim.now))

    sim.spawn(proc())
    sim.run()
    assert seen == [(True, 0.0)]


def test_event_cannot_fire_twice(sim):
    event = sim.event()
    event.fire()
    with pytest.raises(SimulationError):
        event.fire()


def test_wait_with_timeout_times_out(sim):
    event = sim.event()
    results = []

    def proc():
        fired = yield WaitEvent(event, timeout=4.0)
        results.append((fired, sim.now))

    sim.spawn(proc())
    sim.run()
    assert results == [(False, 4.0)]


def test_wait_with_timeout_fires_first(sim):
    event = sim.event()
    results = []

    def proc():
        fired = yield WaitEvent(event, timeout=10.0)
        results.append((fired, sim.now))

    def firer():
        yield Timeout(2.0)
        event.fire()

    sim.spawn(proc())
    sim.spawn(firer())
    sim.run()
    assert results == [(True, 2.0)]


def test_timed_out_waiter_not_woken_by_later_fire(sim):
    event = sim.event()
    wakeups = []

    def proc():
        fired = yield WaitEvent(event, timeout=1.0)
        wakeups.append(fired)
        yield Timeout(100.0)

    def firer():
        yield Timeout(5.0)
        event.fire()

    sim.spawn(proc())
    sim.spawn(firer())
    sim.run()
    assert wakeups == [False]


def test_process_return_value_on_done_event(sim):
    def proc():
        yield Timeout(1.0)
        return 42

    process = sim.spawn(proc())
    sim.run()
    assert process.done.fired
    assert process.done.value == 42


def test_waiting_on_process_sugar(sim):
    results = []

    def child():
        yield Timeout(7.0)
        return "done"

    def parent():
        proc = sim.spawn(child())
        yield proc
        results.append((sim.now, proc.done.value))

    sim.spawn(parent())
    sim.run()
    assert results == [(7.0, "done")]


def test_yield_from_composes_subcalls(sim):
    trace = []

    def inner():
        yield Timeout(2.0)
        return "inner-result"

    def outer():
        value = yield from inner()
        trace.append((sim.now, value))

    sim.spawn(outer())
    sim.run()
    assert trace == [(2.0, "inner-result")]


def test_unsupported_command_raises(sim):
    def proc():
        yield "nonsense"

    sim.spawn(proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_run_until_bound_pauses_and_resumes(sim):
    seen = []

    def proc():
        yield Timeout(10.0)
        seen.append(sim.now)

    sim.spawn(proc())
    assert sim.run(until=5.0) == 5.0
    assert seen == []
    sim.run()
    assert seen == [10.0]


def test_run_until_in_the_past_never_moves_clock_backwards(sim):
    """Regression: ``run(until=t)`` with ``t < now`` used to rewind the
    clock to ``t``.  The clock is monotone; a past bound runs nothing
    and leaves ``now`` untouched."""

    def proc():
        yield Timeout(10.0)

    sim.spawn(proc())
    sim.run()
    assert sim.now == 10.0
    assert sim.run(until=3.0) == 10.0
    assert sim.now == 10.0


def test_run_until_equal_to_now_is_a_noop_bound(sim):
    def proc():
        yield Timeout(2.0)
        yield Timeout(2.0)

    sim.spawn(proc())
    assert sim.run(until=2.0) == 2.0
    assert sim.now == 2.0
    sim.run()
    assert sim.now == 4.0


def test_bare_float_yield_is_timeout_shorthand(sim):
    seen = []

    def proc():
        yield 5.0
        seen.append(sim.now)
        yield 2.5
        seen.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert seen == [5.0, 7.5]


def test_bare_int_yield_is_timeout_shorthand(sim):
    seen = []

    def proc():
        yield 3
        seen.append(sim.now)
        yield 0
        seen.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert seen == [3.0, 3.0]


@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), float("-inf"), -1.0, -0.001]
)
def test_bare_float_yield_rejects_invalid_delays(sim, bad):
    """The bare-float fast path applies the exact ``Timeout`` guard:
    negative, infinite and NaN delays raise instead of poisoning the
    wakeup heap."""

    def proc():
        yield bad

    sim.spawn(proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_bare_negative_int_yield_rejected(sim):
    def proc():
        yield -1

    sim.spawn(proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_determinism_two_identical_sims():
    def build():
        sim = Simulator()
        log = []

        def proc(tag, delay):
            yield Timeout(delay)
            log.append((tag, sim.now))

        sim.spawn(proc("a", 3))
        sim.spawn(proc("b", 1))
        sim.spawn(proc("c", 2))
        sim.run()
        return log

    assert build() == build()


def test_exception_in_process_propagates(sim):
    def proc():
        yield Timeout(1.0)
        raise ValueError("boom")

    sim.spawn(proc())
    with pytest.raises(ValueError, match="boom"):
        sim.run()


def test_current_process_tracked(sim):
    observed = []

    def proc():
        observed.append(sim.current.name)
        yield Timeout(1.0)

    sim.spawn(proc(), name="myproc")
    sim.run()
    assert observed == ["myproc"]
    assert sim.current is None


def test_bare_event_yield_waits_until_fired(either_sim):
    sim = either_sim
    event = sim.event()
    seen = []

    def waiter():
        fired = yield event
        seen.append((fired, sim.now))

    def firer():
        yield 4.0
        event.fire()

    sim.spawn(waiter())
    sim.spawn(firer())
    sim.run()
    assert seen == [(True, 4.0)]


def test_bare_event_yield_on_fired_event_resumes_at_once(either_sim):
    sim = either_sim
    event = sim.event()
    event.fire()
    seen = []

    def proc():
        yield 2.0
        fired = yield event
        seen.append((fired, sim.now))

    sim.spawn(proc())
    sim.run()
    assert seen == [(True, 2.0)]


class _MyTimeout(Timeout):
    __slots__ = ()


class _MyWaitEvent(WaitEvent):
    __slots__ = ()


@pytest.mark.parametrize("make", [
    lambda sim: True,
    lambda sim: _MyTimeout(1.0),
    lambda sim: _MyWaitEvent(sim.event()),
], ids=["true", "timeout-subclass", "wait-event-subclass"])
def test_commands_match_by_exact_class(either_sim, make):
    """bool is an int subclass but never a delay, and an instance of a
    command subclass is an unsupported command, on both kernels."""
    sim = either_sim

    def proc():
        yield make(sim)

    sim.spawn(proc())
    with pytest.raises(SimulationError):
        sim.run()

"""The reference simulation kernel.

This is the straightforward, pre-optimisation event loop, preserved
verbatim as the executable specification of kernel semantics.  The
production kernel (:mod:`repro.sim.kernel`) is a fast-path rewrite of
this file; ``tests/test_kernel_differential.py`` runs hypothesis-random
process programs on both and requires identical event traces, return
values and final clocks.

Keep this file boring.  Performance work belongs in ``kernel.py``;
the only changes this file should ever see are genuine *semantic*
changes to the simulation model, made in both kernels at once (e.g.
the bare-``float`` yield shorthand, the ``run(until=...)`` clock
clamp and exact-class command matching, which landed here and in the
fast kernel together).
"""

import math
from heapq import heappop, heappush

from repro.check.recorder import NO_CHECK
from repro.faults.injector import NO_FAULTS
from repro.telemetry.registry import NULL_REGISTRY

from repro.sim.kernel import (
    Event,
    Process,
    SimulationError,
    Timeout,
    WaitEvent,
    _TimeoutCheck,
)

_INF = math.inf


class ReferenceSimulator:
    """The event loop: a virtual clock plus a heap of scheduled wakeups.

    Same contract as :class:`repro.sim.kernel.Simulator`; shares the
    command classes (``Timeout``/``WaitEvent``/``Event``/``Process``)
    with the production kernel so programs and events are portable
    between the two.
    """

    def __init__(self, telemetry=None, faults=None):
        self.now = 0.0
        self.current = None
        self.telemetry = telemetry if telemetry is not None else NULL_REGISTRY
        self.faults = faults if faults is not None else NO_FAULTS
        # The run's history recorder (repro.check); the null object by
        # default, so checking off costs one attribute and nothing else.
        self.check = NO_CHECK
        self.dispatch_count = 0
        self._heap = []
        self._seq = 0
        self._spawned = 0
        self._t_enabled = self.telemetry.enabled
        self.telemetry.counter_from("sim.dispatches", lambda: self.dispatch_count)
        self.telemetry.counter_from("sim.spawns", lambda: self._spawned)
        self._t_runq_depth = self.telemetry.gauge("sim.runq_depth")

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def spawn(self, gen, name=None):
        """Start ``gen`` as a new process; it first runs at the current time."""
        if name is None:
            name = "proc-%d" % self._spawned
        self._spawned += 1
        process = Process(self, gen, name)
        self._schedule(0, process, None)
        return process

    def event(self):
        """Create a fresh one-shot :class:`Event` bound to this simulator."""
        return Event(self)

    def run(self, until=None):
        """Run until the heap drains or the clock passes ``until``.

        Returns the final virtual time.  The clock never moves
        backwards: an ``until`` already in the past leaves ``now``
        untouched.
        """
        heap = self._heap
        telemetry_on = self._t_enabled
        while heap:
            time, _seq, process, value = heappop(heap)
            if until is not None and time > until:
                # Put it back so a later run() continues from here.
                heappush(heap, (time, _seq, process, value))
                if until > self.now:
                    self.now = until
                return self.now
            self.now = time
            self.dispatch_count += 1
            if telemetry_on:
                self._t_runq_depth.set(len(heap))
            self._resume(process, value)
        return self.now

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _schedule(self, delay, process, value):
        self._seq += 1
        heappush(self._heap, (self.now + delay, self._seq, process, value))

    def _schedule_timeout_check(self, delay, waiter):
        """Arrange for ``waiter`` to be woken with False after ``delay``."""
        self._seq += 1
        heappush(self._heap, (self.now + delay, self._seq, _TimeoutCheck(waiter), None))

    def _resume(self, process, value):
        if isinstance(process, _TimeoutCheck):
            waiter = process.waiter
            if waiter.active:
                waiter.active = False
                self._resume(waiter.process, False)
            return
        if not process.alive:
            return
        previous = self.current
        self.current = process
        try:
            command = process.gen.send(value)
        except StopIteration as stop:
            self.current = previous
            process.done.fire(stop.value)
            return
        except BaseException:
            self.current = previous
            raise
        self.current = previous
        self._dispatch(process, command)

    def _dispatch(self, process, command):
        # Commands match by exact class; subclasses are unsupported.
        kind = type(command)
        if kind in (float, int):
            # Bare-number shorthand for ``Timeout(command)``; rejected
            # with the exact Timeout guard (NaN fails both comparisons,
            # bool is not accepted — `yield True` is always a bug).
            if not (0.0 <= command < _INF):
                raise SimulationError(
                    "Timeout delay must be finite and >= 0, got %r" % (command,)
                )
            self._schedule(command, process, None)
        elif kind is Timeout:
            self._schedule(command.delay, process, None)
        elif kind is WaitEvent:
            self._wait(process, command.event, command.timeout)
        elif kind is Event:
            self._wait(process, command, None)
        elif kind is Process:
            self._wait(process, command.done, None)
        else:
            raise SimulationError(
                "process %s yielded unsupported command %r" % (process.name, command)
            )

    def _wait(self, process, event, timeout):
        waiter = event._add_waiter(process)
        if waiter is None:
            # Already fired: resume immediately with True.
            self._schedule(0, process, True)
            return
        if timeout is not None:
            self._schedule_timeout_check(timeout, waiter)

"""The discrete-event simulation kernel.

A :class:`Simulator` owns a virtual clock (``now``, in microseconds) and a
priority queue of scheduled wakeups.  Simulated activities are *processes*:
plain Python generator functions that ``yield`` command objects —

- ``yield delay`` — a bare non-negative ``float`` (or ``int``): resume
  after ``delay`` microseconds of virtual time (the zero-allocation
  fast path);
- ``yield Timeout(delay)`` — the same, as an explicit command object;
- ``yield WaitEvent(event)`` — block until ``event`` fires; the yield
  evaluates to ``True``;
- ``yield WaitEvent(event, timeout=t)`` — block until the event fires or
  ``t`` microseconds elapse; evaluates to ``True`` if the event fired,
  ``False`` on timeout;
- ``yield event`` — sugar for ``WaitEvent(event)``;
- ``yield proc`` — sugar for waiting on ``proc.done``.

Commands are matched by exact class: an instance of a subclass of
``Timeout``, ``WaitEvent``, ``Event`` or ``Process`` (or of ``float``
or ``int``) is rejected like any other unsupported command.

Sub-calls compose with ``yield from``, so simulated "functions" nest like
ordinary Python calls.  Determinism: ties in wakeup time are broken by a
monotonically increasing sequence number, so a run is a pure function of
the initial configuration and the random seeds.

Performance
-----------

Every paper experiment funnels through :meth:`Simulator.run`, so the
dispatch loop is written for wall-clock speed: a single flat loop with
hoisted locals replaces the ``_resume``/``_dispatch`` call chain, and
each command is handled by one delay block (bare ``float``/``int``,
``Timeout``) or one wait block (``WaitEvent``, bare ``Event``,
``Process``), chosen by exact class.  Same-time wakeups go through a
FIFO ``deque`` instead of heap round-trips, a wakeup that is provably
next resumes the same process directly, and the run-queue gauge is
updated from locals when the loop exits.  None of this may be visible
in *virtual* time: the straightforward loop is preserved in
:mod:`repro.sim.refkernel`, and ``tests/test_kernel_differential.py``
plus the golden digests in ``tests/test_equivalence_goldens.py`` pin
this kernel to its exact semantics — same (config, seed) ⇒
byte-identical results.

The ready-deque short-cut is order-preserving because the global
sequence counter is monotonic: a wakeup scheduled *for* the current
time was necessarily scheduled *at* the current time, so it carries a
higher sequence number than every heap entry for this same time (those
were pushed before the clock got here) — draining the same-time heap
entries first, then the deque in FIFO order, reproduces exact
``(time, seq)`` heap order without paying ``heappush``/``heappop`` for
the ~half of all wakeups that are same-time resumptions.
"""

import math
from collections import deque
from heapq import heappop, heappush

from repro.check.recorder import NO_CHECK
from repro.faults.injector import NO_FAULTS
from repro.telemetry.registry import NULL_REGISTRY

_INF = math.inf


class SimulationError(Exception):
    """Raised for kernel misuse (e.g. negative delays, re-firing events)."""


class Timeout:
    """Command: resume the yielding process after ``delay`` virtual time."""

    __slots__ = ("delay",)

    def __init__(self, delay):
        # Non-finite delays must be rejected, not just negative ones: a
        # NaN passes every comparison check and then poisons the wakeup
        # heap's ordering invariant silently.
        if not math.isfinite(delay) or delay < 0:
            raise SimulationError(
                "Timeout delay must be finite and >= 0, got %r" % (delay,)
            )
        self.delay = delay

    def __repr__(self):
        return "Timeout(%r)" % (self.delay,)


class WaitEvent:
    """Command: block on ``event``, optionally bounded by ``timeout``.

    The ``yield`` expression evaluates to ``True`` if the event fired and
    ``False`` if the timeout elapsed first.  A timed-out waiter is never
    woken again by a later fire.
    """

    __slots__ = ("event", "timeout")

    def __init__(self, event, timeout=None):
        if timeout is not None and (not math.isfinite(timeout) or timeout < 0):
            raise SimulationError(
                "WaitEvent timeout must be finite and >= 0, got %r" % (timeout,)
            )
        self.event = event
        self.timeout = timeout

    def __repr__(self):
        return "WaitEvent(%r, timeout=%r)" % (self.event, self.timeout)


class _Waiter:
    """A single parked process; ``active`` guards against double wakeup."""

    __slots__ = ("process", "active")

    def __init__(self, process):
        self.process = process
        self.active = True


class Event:
    """A one-shot waitable event.

    Processes park on it via ``yield WaitEvent(event)``; :meth:`fire` wakes
    all active waiters at the current virtual time and records ``value``.
    """

    __slots__ = ("sim", "fired", "value", "_waiters")

    def __init__(self, sim):
        self.sim = sim
        self.fired = False
        self.value = None
        self._waiters = []

    def fire(self, value=None):
        """Fire the event, waking every process still parked on it."""
        if self.fired:
            raise SimulationError("event fired twice")
        self.fired = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            if waiter.active:
                waiter.active = False
                self.sim._schedule(0, waiter.process, True)

    def _add_waiter(self, process):
        if self.fired:
            return None
        waiter = _Waiter(process)
        self._waiters.append(waiter)
        return waiter

    def __repr__(self):
        state = "fired" if self.fired else "pending"
        return "<Event %s at t=%s>" % (state, self.sim.now)


class Process:
    """A running simulated activity wrapping a generator.

    ``done`` is an :class:`Event` fired with the generator's return value
    when it finishes.  ``alive`` is True until then.
    """

    __slots__ = ("sim", "name", "gen", "done")

    def __init__(self, sim, gen, name):
        self.sim = sim
        self.name = name
        self.gen = gen
        self.done = Event(sim)

    @property
    def alive(self):
        return not self.done.fired

    def __repr__(self):
        state = "alive" if self.alive else "done"
        return "<Process %s (%s)>" % (self.name, state)


class _TimeoutCheck:
    """Heap placeholder that wakes a waiter with False if still parked."""

    __slots__ = ("waiter",)

    def __init__(self, waiter):
        self.waiter = waiter


class Simulator:
    """The event loop: a virtual clock plus a heap of scheduled wakeups.

    ``telemetry`` is the run's :class:`~repro.telemetry.MetricsRegistry`
    (or the shared null registry); every subsystem built on this
    simulator reads it from here, so one constructor argument plumbs
    observability through the whole stack.  ``faults`` is the run's
    :class:`~repro.faults.FaultInjector` (or the shared null injector),
    distributed the same way.

    ``dispatch_count`` is a plain always-maintained int, so wall-clock
    harnesses can compute events/sec on telemetry-off runs; the
    registry's ``sim.dispatches`` and ``sim.spawns`` counters read it
    and the spawn count at snapshot time.
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
        # Wakeups due at the current virtual time, in schedule order.
        self._ready = deque()
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
        """Run until all wakeups drain or the clock passes ``until``.

        Returns the final virtual time.  The clock never moves
        backwards: an ``until`` already in the past leaves ``now``
        untouched and runs nothing (everything pending is due at ``now``
        or later).
        """
        now = self.now
        # ``limit`` is ``until`` or infinity: one comparison per bound check.
        if until is None:
            limit = _INF
        elif until < now:
            return now
        else:
            limit = until
        heap = self._heap
        ready = self._ready
        pop = heappop
        push = heappush
        popleft = ready.popleft
        append = ready.append
        telemetry_on = self._t_enabled
        n_dispatched = 0
        runq_max = -1
        runq_last = 0
        try:
            while True:
                # Pick the next wakeup in exact (time, seq) order: heap
                # entries already due (lower seq than anything in the
                # deque — see module docstring), then the ready deque,
                # then advance the clock to the earliest future entry.
                if heap and heap[0][0] <= now:
                    _, _, process, value = pop(heap)
                elif ready:
                    process, value = popleft()
                elif heap:
                    time = heap[0][0]
                    if time > limit:
                        now = limit
                        break
                    _, _, process, value = pop(heap)
                    self.now = now = time
                else:
                    break

                n_dispatched += 1
                if telemetry_on:
                    depth = len(heap) + len(ready)
                    if depth > runq_max:
                        runq_max = depth
                    runq_last = depth

                if process.__class__ is _TimeoutCheck:
                    waiter = process.waiter
                    if not waiter.active:
                        continue
                    waiter.active = False
                    process = waiter.process
                    value = False
                if process.done.fired:
                    continue

                # Inner resume loop: the delay block and the wait block
                # each either park the process (``break`` back to the
                # selection above) or — when the wakeup is provably the
                # very next dispatch — fall through to resume the same
                # process directly, skipping the heap round-trip.  The
                # direct resume preserves exact (time, seq) order: a
                # fresh push would carry the highest seq, so it only
                # fires next when nothing is ready, every heap entry is
                # strictly later, and ``until`` is not crossed.
                while True:
                    self.current = process
                    try:
                        command = process.gen.send(value)
                    except StopIteration as stop:
                        self.current = None
                        process.done.fire(stop.value)
                        break
                    except BaseException:
                        self.current = None
                        raise
                    self.current = None

                    tc = command.__class__
                    if tc is float or tc is int or tc is Timeout:
                        # The delay block.  Bare numbers are Timeout
                        # shorthand (bool is not int here: `yield True`
                        # is always a bug) and get the exact Timeout
                        # guard: NaN fails both sides, inf the right one.
                        if tc is Timeout:
                            command = command.delay
                        elif not 0.0 <= command < _INF:
                            raise SimulationError(
                                "Timeout delay must be finite and >= 0, got %r"
                                % (command,)
                            )
                        t = now + command
                        if t <= now:
                            append((process, None))
                            break
                        if ready or (heap and heap[0][0] <= t) or t > limit:
                            self._seq = seq = self._seq + 1
                            push(heap, (t, seq, process, None))
                            break
                        self.now = now = t
                        value = None
                    else:
                        # The wait block; a bare Event or Process is
                        # sugar for waiting on it (on ``done``).
                        if tc is WaitEvent:
                            event = command.event
                            timeout = command.timeout
                        elif tc is Event:
                            event = command
                            timeout = None
                        elif tc is Process:
                            event = command.done
                            timeout = None
                        else:
                            raise SimulationError(
                                "process %s yielded unsupported command %r"
                                % (process.name, command)
                            )
                        if not event.fired:
                            waiter = _Waiter(process)
                            event._waiters.append(waiter)
                            if timeout is not None:
                                t = now + timeout
                                if t > now:
                                    self._seq = seq = self._seq + 1
                                    push(heap, (t, seq, _TimeoutCheck(waiter), None))
                                else:
                                    append((_TimeoutCheck(waiter), None))
                            break
                        if ready or (heap and heap[0][0] <= now):
                            append((process, True))
                            break
                        value = True
                    # Direct resume: the wakeup is provably the very next
                    # dispatch, so ``ready`` is empty and the run-queue
                    # depth is the heap's.
                    n_dispatched += 1
                    if telemetry_on:
                        depth = len(heap)
                        if depth > runq_max:
                            runq_max = depth
                        runq_last = depth
        finally:
            self.now = now
            self.dispatch_count += n_dispatched
            if telemetry_on and n_dispatched:
                gauge = self._t_runq_depth
                gauge.set(runq_max)
                gauge.set(runq_last)
        return now

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _schedule(self, delay, process, value):
        """Queue ``process`` to resume with ``value`` after ``delay``.

        Wakeups due at the current time go to the ready deque (they
        carry a higher notional seq than every same-time heap entry, so
        FIFO order there preserves global (time, seq) order); future
        wakeups take a real sequence number onto the heap.
        """
        now = self.now
        t = now + delay
        if t > now:
            self._seq = seq = self._seq + 1
            heappush(self._heap, (t, seq, process, value))
        else:
            self._ready.append((process, value))

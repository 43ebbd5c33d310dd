"""The 2PL lock manager.

Lifecycle of a lock request::

    status = yield from manager.acquire(ctx, obj_id, mode, wait=None)
    if status is not RequestStatus.GRANTED:
        ...                    # ctx.abort_reason is "deadlock" or "timeout"
    ...
    manager.release_all(ctx)   # at commit/abort (release_all_timed when
                               # the lock_sys bookkeeping is modelled)

:meth:`LockManager.acquire` is the whole protocol, in one place: charge
the lock_sys bookkeeping (when modelled), make the instantaneous
decision (:meth:`LockManager.request`), suspend only while the request
is WAITING (:meth:`LockManager.wait`), and name the abort from the
final status.  The optional ``wait`` hook replaces the bare suspension
so engines can wrap it in their own traced functions — MySQL's
``lock_wait_suspend_thread`` / ``os_event_wait``, Postgres's
``ProcSleep`` — which is how TProfiler sees lock-wait variance where
the paper saw it.

Grant discipline: on every release/cancel, the grant pass walks the wait
queue in the scheduler's order and grants each request that does not
conflict with any lock in front of it — granted locks *and* earlier
waiters — which both prevents starvation (an X waiter blocks later S
arrivals) and implements the paper's VATS granting rule.

Deadlocks are detected at block time by a cycle search over the waits-for
graph; the requesting transaction is the victim (status DEADLOCK) and the
engine aborts and retries it.  A lock-wait timeout (MySQL's
``innodb_lock_wait_timeout``) backstops anything the search misses.
"""

import enum

from repro.lockmgr.locks import LockMode, compatible, stronger_or_equal
from repro.sim.kernel import WaitEvent
from repro.sim.resources import Mutex


class RequestStatus(enum.Enum):
    GRANTED = "granted"
    WAITING = "waiting"
    DEADLOCK = "deadlock"
    TIMEOUT = "timeout"
    CANCELLED = "cancelled"


class LockRequest:
    """One transaction's (possibly waiting) lock on one object."""

    __slots__ = (
        "txn",
        "obj_id",
        "mode",
        "seq",
        "status",
        "event",
        "priority",
        "enqueued_at",
        "granted_at",
        "upgrade",
    )

    def __init__(self, txn, obj_id, mode, seq, now):
        self.txn = txn
        self.obj_id = obj_id
        self.mode = mode
        self.seq = seq
        self.status = RequestStatus.WAITING
        self.event = None
        self.priority = 0.0
        self.enqueued_at = now
        self.granted_at = None
        self.upgrade = False

    def __repr__(self):
        return "<LockRequest %s %s on %r (%s)>" % (
            self.txn.txn_id,
            self.mode.value,
            self.obj_id,
            self.status.value,
        )


class _LockObject:
    """Lock table entry: granted set + wait queue for one object."""

    __slots__ = ("granted", "waiting")

    def __init__(self):
        self.granted = []
        self.waiting = []

    @property
    def empty(self):
        return not self.granted and not self.waiting


class LockManager:
    """Record lock manager with a pluggable queue discipline.

    ``bookkeeping=True`` models InnoDB's lock_sys: every lock operation
    scans the hash-bucket list of lock structs while holding one global
    mutex, so the cost of each operation grows with queue length and all
    operations serialize.  The paper's VATS implementation places
    newly-granted locks at the head of the list ("the time for traversing
    the list is reduced"), which we model as a shorter effective scan
    (``head_scan_fraction``).  This is the superlinear feedback that
    makes deep FCFS queues so much more expensive than their pure
    queueing delay: deep queues -> long scans under a global mutex ->
    every lock operation slows -> queues deepen.
    """

    def __init__(
        self,
        sim,
        scheduler,
        wait_timeout=10_000_000.0,
        bookkeeping=False,
        bookkeeping_base=0.8,
        bookkeeping_per_entry=0.25,
        head_scan_fraction=0.3,
        release_rng=None,
    ):
        self.sim = sim
        self.scheduler = scheduler
        # When set (a seeded random.Random), the 2PL shrink releases a
        # transaction's locks in random order, modelling the effectively
        # arbitrary order real servers wake waiters across objects (lock
        # hash-bucket order, OS scheduling).  Seeded, so runs stay a pure
        # function of (config, seed); None falls back to acquisition order.
        self._release_rng = release_rng
        bind = getattr(scheduler, "bind_manager", None)
        if bind is not None:
            bind(self)
        self.wait_timeout = wait_timeout
        self.bookkeeping = bookkeeping
        self.bookkeeping_base = bookkeeping_base
        self.bookkeeping_per_entry = bookkeeping_per_entry
        self.head_scan_fraction = head_scan_fraction
        self.lock_sys_mutex = Mutex(sim, name="lock_sys") if bookkeeping else None
        self._check = sim.check
        self._objects = {}
        self._held = {}
        self._waiting_request = {}
        self._seq = 0
        # Accounting for the variance studies.
        self.total_requests = 0
        self.immediate_grants = 0
        self.total_waits = 0
        self.total_wait_time = 0.0
        self.deadlocks = 0
        self.timeouts = 0
        self.bookkeeping_time = 0.0
        # (txn, grant_time) for every grant that followed a wait — the
        # scheduling decisions behind the Appendix C.2 age-vs-remaining
        # correlation study (Figure 8).
        self.grant_log = []
        # Telemetry instruments (no-ops when the run carries none).  The
        # wait-time histogram is keyed by queue discipline so scheduler
        # comparisons can assert against the distribution directly.
        tm = sim.telemetry
        self._tm = tm
        # The two hottest counters are the plain accounting attributes
        # above, read at snapshot time: no Counter.inc per request.
        tm.counter_from("lockmgr.requests", lambda: self.total_requests)
        tm.counter_from("lockmgr.immediate_grants",
                        lambda: self.immediate_grants)
        self._t_waits = tm.counter("lockmgr.waits")
        self._t_grants_after_wait = tm.counter("lockmgr.grants_after_wait")
        self._t_deadlocks = tm.counter("lockmgr.deadlocks")
        self._t_timeouts = tm.counter("lockmgr.timeouts")
        self._t_wait_hist = tm.histogram("lockmgr.wait_time.%s" % scheduler.name)
        self._t_queue_depth = tm.gauge("lockmgr.wait_queue_depth")

    # ------------------------------------------------------------------
    # Request / wait / release API
    # ------------------------------------------------------------------

    def request(self, ctx, obj_id, mode):
        """Instantaneous lock decision; never blocks.

        Returns a :class:`LockRequest` whose status is GRANTED, WAITING,
        or DEADLOCK (granting it would close a waits-for cycle).
        """
        self.total_requests += 1
        held = self._held.get(ctx)
        if held is None:
            held = self._held[ctx] = {}
        current = held.get(obj_id)
        if current is not None and stronger_or_equal(current, mode):
            self.immediate_grants += 1
            return self._already_granted(ctx, obj_id, current)

        self._seq += 1
        request = LockRequest(ctx, obj_id, mode, self._seq, self.sim.now)
        request.upgrade = current is not None
        obj = self._objects.get(obj_id)
        if obj is None:
            obj = self._objects[obj_id] = _LockObject()
        self.scheduler.on_enqueue(request)

        if self._can_grant_on_arrival(obj, request):
            self._grant(obj, request)
            self.immediate_grants += 1
            return request

        obj.waiting.append(request)
        if self._closes_cycle(request):
            self._remove_waiter(obj, request)
            request.status = RequestStatus.DEADLOCK
            self.deadlocks += 1
            self._t_deadlocks.inc()
            self._tm.event(
                "lockmgr.deadlock",
                txn=ctx.txn_id,
                obj=str(obj_id),
                mode=mode.value,
            )
            return request

        request.event = self.sim.event()
        self._waiting_request[ctx] = request
        self.total_waits += 1
        self._t_waits.inc()
        self._t_queue_depth.set(len(obj.waiting))
        return request

    def wait(self, request):
        """Generator: suspend until the request resolves.

        Evaluates to the final :class:`RequestStatus` (GRANTED or TIMEOUT).
        """
        if request.status is not RequestStatus.WAITING:
            return request.status
        started = self.sim.now
        timeout = self.wait_timeout
        faults = self.sim.faults
        if faults.enabled:
            # A lock-storm window collapses the effective wait budget,
            # turning long waits into timeout-abort-retry storms.
            timeout = faults.lock_wait_timeout(started, timeout)
        fired = yield WaitEvent(request.event, timeout=timeout)
        waited = self.sim.now - started
        self.total_wait_time += waited
        self._t_wait_hist.observe(waited)
        self._waiting_request.pop(request.txn, None)
        if not fired and request.status is RequestStatus.WAITING:
            obj = self._objects.get(request.obj_id)
            if obj is not None:
                self._remove_waiter(obj, request)
                self._grant_pass(obj)
            request.status = RequestStatus.TIMEOUT
            self.timeouts += 1
            self._t_timeouts.inc()
            self._tm.event(
                "lockmgr.timeout",
                txn=request.txn.txn_id,
                obj=str(request.obj_id),
                waited=waited,
            )
        return request.status

    # -- lock_sys bookkeeping (InnoDB hash-bucket scans) -----------------

    def _scan_entries(self, obj_id):
        obj = self._objects.get(obj_id)
        if obj is None:
            return 0
        return len(obj.granted) + len(obj.waiting)

    def _scan_fraction(self):
        if getattr(self.scheduler, "head_placement", False):
            return self.head_scan_fraction
        return 1.0

    def charge_bookkeeping(self, entries):
        """Generator: pay for one lock_sys operation over ``entries`` structs.

        Serialised on the global lock_sys mutex; with head placement the
        wanted struct is found early, shortening the effective scan.
        Callers check ``bookkeeping`` first.  The uncontended mutex
        acquire is flattened: this runs once per lock request and
        release, and a delegated frame costs real wall time.
        """
        cost = (
            self.bookkeeping_base
            + self.bookkeeping_per_entry * entries * self._scan_fraction()
        )
        mutex = self.lock_sys_mutex
        if mutex.holder is None:
            mutex.holder = self.sim.current
            mutex.total_acquisitions += 1
        else:
            yield from mutex.acquire()
        self.bookkeeping_time += cost
        yield cost
        mutex.release()

    def request_timed(self, ctx, obj_id, mode):
        """Generator: :meth:`request` preceded by its bookkeeping cost."""
        if self.bookkeeping:
            yield from self.charge_bookkeeping(self._scan_entries(obj_id))
        return self.request(ctx, obj_id, mode)

    def release_all_timed(self, ctx):
        """Generator: :meth:`release_all` preceded by its bookkeeping cost."""
        held = self._held.get(ctx, {})
        if self.bookkeeping and held:
            yield from self.charge_bookkeeping(
                sum(self._scan_entries(obj_id) for obj_id in held)
            )
        self.release_all(ctx)

    def acquire(self, ctx, obj_id, mode, wait=None):
        """Generator: the lock-acquire protocol; evaluates to the status.

        Charges the bookkeeping (when modelled), makes the
        :meth:`request`, and suspends only while it is WAITING — through
        ``wait(request)`` when the caller supplies one, else
        :meth:`wait`.  Unless the lock ends GRANTED, ``ctx.abort_reason``
        names the final status (``"deadlock"`` or ``"timeout"``).
        """
        if self.bookkeeping:
            yield from self.charge_bookkeeping(self._scan_entries(obj_id))
        request = self.request(ctx, obj_id, mode)
        status = request.status
        if status is RequestStatus.WAITING:
            yield from (self.wait(request) if wait is None else wait(request))
            status = request.status
        if status is not RequestStatus.GRANTED:
            ctx.abort_reason = status.value
        return status

    def release_all(self, ctx):
        """Release every lock held by ``ctx`` (2PL shrink at commit/abort).

        Also cancels any still-waiting request (abort path) and runs the
        grant pass on each touched object.
        """
        if self._check.enabled:
            self._check.locks_released(ctx, self.sim.now)
        waiting = self._waiting_request.pop(ctx, None)
        objects = self._objects
        objects_get = objects.get
        # Ordered set (insertion = lock-acquisition order).  Iterating a
        # plain set of obj_ids would wake waiters in str-hash order, which
        # varies with PYTHONHASHSEED and breaks cross-process
        # reproducibility; the randomised wake order is reintroduced
        # deterministically below via ``release_rng``.
        touched = {}
        if waiting is not None and waiting.status is RequestStatus.WAITING:
            obj = objects_get(waiting.obj_id)
            if obj is not None:
                self._remove_waiter(obj, waiting)
                touched[waiting.obj_id] = None
            waiting.status = RequestStatus.CANCELLED
        held = self._held.pop(ctx, {})
        for obj_id in held:
            obj = objects_get(obj_id)
            if obj is None:
                continue
            obj.granted = [r for r in obj.granted if r.txn is not ctx]
            touched[obj_id] = None
        order = list(touched)
        if self._release_rng is not None and len(order) > 1:
            self._release_rng.shuffle(order)
        grant_pass = self._grant_pass
        for obj_id in order:
            obj = objects_get(obj_id)
            if obj is None:
                continue
            grant_pass(obj)
            if not obj.granted and not obj.waiting:
                del objects[obj_id]

    def held_locks(self, ctx):
        """``{obj_id: mode}`` currently held by ``ctx``."""
        return dict(self._held.get(ctx, {}))

    def crash(self):
        """Whole-node crash: the lock table is volatile — wipe it.

        Granted sets, wait queues and waiting-request records all die
        with the server process; no grant pass runs because every waiter
        is a dead process.  The lock_sys mutex is reset directly (its
        holder, if any, died too).  Counters survive as run-level
        accounting.  In-doubt 2PC branches get their locks re-granted by
        recovery *before* new work is admitted (``repro.recovery``).
        """
        self._objects.clear()
        self._held.clear()
        self._waiting_request.clear()
        if self.lock_sys_mutex is not None:
            self.lock_sys_mutex.holder = None
            self.lock_sys_mutex._waiters.clear()

    def queue_length(self, obj_id):
        obj = self._objects.get(obj_id)
        return 0 if obj is None else len(obj.waiting)

    # ------------------------------------------------------------------
    # Granting machinery
    # ------------------------------------------------------------------

    def _already_granted(self, ctx, obj_id, mode):
        self._seq += 1
        request = LockRequest(ctx, obj_id, mode, self._seq, self.sim.now)
        request.status = RequestStatus.GRANTED
        request.granted_at = self.sim.now
        return request

    def _conflicts_with(self, request, other):
        if other.txn is request.txn:
            return False
        return not compatible(other.mode, request.mode)

    def _can_grant_on_arrival(self, obj, request):
        if obj.empty:
            return True
        if not self.scheduler.grants_on_arrival:
            return False
        # "In front" = all granted locks plus waiters ahead of this
        # request in the scheduler's order.
        key = self.scheduler.sort_key(request)
        for other in obj.granted:
            if self._conflicts_with(request, other):
                return False
        for other in obj.waiting:
            if self.scheduler.sort_key(other) < key and self._conflicts_with(
                request, other
            ):
                return False
        return True

    def _grant(self, obj, request):
        request.status = RequestStatus.GRANTED
        request.granted_at = self.sim.now
        if request.event is not None:
            self.grant_log.append((request.txn, self.sim.now))
            self._t_grants_after_wait.inc()
        obj.granted.append(request)
        held = self._held.get(request.txn)
        if held is None:
            held = self._held[request.txn] = {}
        if request.upgrade or request.mode is LockMode.X:
            held[request.obj_id] = LockMode.X
        else:
            held.setdefault(request.obj_id, request.mode)
        if self._check.enabled:
            self._check.lock_granted(
                request.txn,
                request.obj_id,
                held[request.obj_id].value,
                request.upgrade,
            )
        if request.event is not None and not request.event.fired:
            request.event.fire()

    def _grant_pass(self, obj):
        """Grant every waiter not conflicting with anything in front of it."""
        if not obj.waiting:
            return
        order = sorted(obj.waiting, key=self.scheduler.sort_key)
        ahead = list(obj.granted)
        still_waiting = []
        for request in order:
            blocked = any(self._conflicts_with(request, other) for other in ahead)
            if blocked:
                still_waiting.append(request)
                ahead.append(request)
            else:
                self._grant(obj, request)
                ahead.append(request)
        obj.waiting = still_waiting

    def _remove_waiter(self, obj, request):
        obj.waiting = [r for r in obj.waiting if r is not request]

    # ------------------------------------------------------------------
    # Deadlock detection
    # ------------------------------------------------------------------

    def _blockers(self, request):
        """Transactions this waiting request is blocked behind."""
        obj = self._objects.get(request.obj_id)
        if obj is None:
            return set()
        blockers = set()
        key = self.scheduler.sort_key(request)
        for other in obj.granted:
            if self._conflicts_with(request, other):
                blockers.add(other.txn)
        for other in obj.waiting:
            if other is request:
                continue
            if self.scheduler.sort_key(other) < key and self._conflicts_with(
                request, other
            ):
                blockers.add(other.txn)
        return blockers

    def _closes_cycle(self, request):
        """DFS over the waits-for graph starting from ``request.txn``."""
        start = request.txn
        stack = [request]
        visited = set()
        while stack:
            req = stack.pop()
            for txn in self._blockers(req):
                if txn is start:
                    return True
                if txn in visited:
                    continue
                visited.add(txn)
                waiting = self._waiting_request.get(txn)
                if waiting is not None and waiting.status is RequestStatus.WAITING:
                    stack.append(waiting)
        return False

    def __repr__(self):
        return "<LockManager %s objects=%d waits=%d deadlocks=%d>" % (
            self.scheduler.name,
            len(self._objects),
            self.total_waits,
            self.deadlocks,
        )

"""Shared engine machinery: the worker pool, retries, and degradation.

Engines process transactions with a fixed pool of worker processes
consuming a submission queue — the thread-per-connection (MySQL) and
process-per-connection (Postgres) architectures collapse to this shape
once clients are rate-limited terminals, and it bounds simulator process
count.  VoltDB overrides the worker loop with its task-concurrent model.

Driver protocol::

    engine.submit(ctx, spec)   # called by the load driver per arrival;
                               # returns False when the txn was shed
    ...
    engine.drain()             # after the last submission: workers stop
                               # once the queue empties

Each worker owns the per-thread state the substrates need (the Lazy LRU
Update backlog lives here, matching the paper's "thread-local backlog of
deferred LRU updates").

Robustness machinery shared by the lock-based engines:

- **One retry loop.**  The worker loop runs ``_attempt`` (the subclass
  hook) under the engine's :class:`~repro.faults.RetryPolicy` —
  exponential backoff with jitter drawn from a *dedicated* seeded
  stream, so retry activity never perturbs the engine's other draws.
  Engines that never retry (VoltDB) define ``_execute`` instead, which
  runs in the retry loop's place.  Aborts and final failures are
  accounted per reason (``deadlock``/``timeout``/``shed``/``deadline``)
  and surfaced on ``RunResult``.
- **Graceful degradation.**  ``max_queue_depth`` bounds the submission
  queue — an arrival that finds it full is *shed* (rejected immediately)
  instead of growing the backlog without bound; ``txn_deadline`` gives
  up on transactions whose age exceeds the budget, both at dequeue and
  between retry attempts.  Both default to off, preserving the open-loop
  measurement methodology of the paper's experiments.
- **Worker crash-and-restart.**  Under an active fault plan, a seeded
  coin crashes the dequeuing worker: it loses its thread-local state,
  pays a restart delay (the recovery-time histogram in telemetry), and
  then resumes — the queued transaction survives and simply waits.
"""

from repro.faults.retry import RetryPolicy
from repro.sim.kernel import WaitEvent
from repro.sim.resources import WaitQueue

#: Canonical abort/failure reasons; anything else an engine reports is
#: still counted, these are just the ones the stack itself produces.
ABORT_REASONS = ("deadlock", "timeout", "shed", "deadline")


class _Shutdown:
    """Queue sentinel telling a worker to exit."""


class Branch:
    """One shard's slice of a distributed transaction: a 2PC participant.

    Built by the cluster coordinator (``repro.cluster``) and enqueued on
    a node engine via :meth:`Engine.submit_branch`.  The dequeuing worker
    executes the branch's statements under strict 2PL *without releasing
    locks*, forces a prepare record, fires ``prepared`` with its vote,
    then parks on ``decision`` — the worker is held for the 2PC round
    trip, exactly as a thread-per-connection server's session thread is.
    On the decision it writes the commit record (commit only), releases
    everything, and fires ``done``.

    ``ctx`` is the branch's own :class:`TransactionContext` (lock
    ownership is per-context); the coordinator merges its traced
    durations back into the global transaction's trace.
    """

    __slots__ = (
        "ctx",
        "spec",
        "node_id",
        "prepared",
        "decision",
        "done",
        "vote",
        "reason",
        "redo_bytes",
        "predicate_locks",
    )

    def __init__(self, ctx, spec, node_id, sim):
        self.ctx = ctx
        self.spec = spec
        self.node_id = node_id
        self.prepared = sim.event()
        self.decision = sim.event()
        self.done = sim.event()
        self.vote = False
        self.reason = None
        self.redo_bytes = 0
        self.predicate_locks = 0

    def __repr__(self):
        return "<Branch %r node=%r vote=%r>" % (
            self.ctx.txn_id,
            self.node_id,
            self.vote,
        )


class Worker:
    """One server thread: identity + thread-local state.

    ``current`` tracks the dequeued item the worker is processing right
    now (a ``(ctx, spec)`` pair or a :class:`Branch`), so a whole-node
    crash (``repro.recovery``) can account for in-flight work.  It is a
    pure-Python assignment on the worker loop — no draws, no virtual
    time — so maintaining it never perturbs a fault-free run.
    """

    __slots__ = ("worker_id", "llu_backlog", "txns_executed", "crashes", "current")

    def __init__(self, worker_id):
        self.worker_id = worker_id
        self.llu_backlog = []
        self.txns_executed = 0
        self.crashes = 0
        self.current = None


class NodeCrashReport:
    """What a whole-node crash destroyed and what must be resolved.

    Produced by :meth:`Engine.crash` at the crash instant and consumed by
    :meth:`Engine.recover` (and, for 2PC, by the cluster's termination
    protocol in ``repro.recovery``):

    - ``lost``: txn ids that were reported committed but whose WAL was
      not yet durable — the forward progress the crash erased (empty
      under eager-flush policies; the durability oracle flags any entry
      that the recorder saw commit).
    - ``indoubt``: ``(branch, held_locks)`` pairs for participant
      branches that voted yes and were awaiting (or mid-applying) the
      global decision.  Their prepare records are durable, so recovery
      re-grants their locks and re-contacts the coordinator.
    - ``wal_bytes``: bytes of durable WAL replayed during recovery
      (filled in by :meth:`Engine.recover`).
    """

    __slots__ = ("crash_time", "lost", "indoubt", "wal_bytes")

    def __init__(self, crash_time):
        self.crash_time = crash_time
        self.lost = ()
        self.indoubt = []
        self.wal_bytes = 0

    def __repr__(self):
        return "<NodeCrashReport t=%.1f lost=%d indoubt=%d>" % (
            self.crash_time,
            len(self.lost),
            len(self.indoubt),
        )


class Engine:
    """Base engine: submission queue + N workers running the retry loop."""

    name = "abstract"
    #: Engines that implement the ``_branch_*`` hooks can act as 2PC
    #: participants in a cluster; task-concurrent engines (VoltDB) can't.
    supports_branches = False

    def __init__(
        self,
        sim,
        tracer,
        n_workers,
        retry_policy=None,
        retry_rng=None,
        max_queue_depth=None,
        txn_deadline=None,
    ):
        self.sim = sim
        self.tracer = tracer
        self.telemetry = sim.telemetry
        self.faults = sim.faults
        self.check = sim.check
        self.n_workers = n_workers
        self.retry_policy = retry_policy or RetryPolicy(max_attempts=1)
        self.retry_rng = retry_rng
        self.max_queue_depth = max_queue_depth
        self.txn_deadline = txn_deadline
        # Set by the cluster builder when this engine is a replica
        # group's primary (repro.replication); None otherwise, and the
        # commit paths guard on it with a single attribute test.
        self.replication = None
        self.queue = WaitQueue(sim, name=self.name + ".submit")
        self.workers = [Worker(i) for i in range(n_workers)]
        self._draining = False
        # Per-reason robustness accounting (exposed via RunResult).
        self.aborts_by_reason = {}
        self.failed_by_reason = {}
        self.worker_crashes = 0
        self._t_committed = self.telemetry.counter(self.name + ".txns_committed")
        self._t_failed = self.telemetry.counter(self.name + ".txns_failed")
        self._t_shed = self.telemetry.counter(self.name + ".txns_shed")
        self._t_retries = self.telemetry.counter(self.name + ".txn_retries")
        self._t_submit_depth = self.telemetry.gauge(self.name + ".submit_queue_depth")
        self._worker_procs = [
            sim.spawn(self._worker_loop(worker), name="%s.worker%d" % (self.name, i))
            for i, worker in enumerate(self.workers)
        ]

    # ------------------------------------------------------------------
    # Driver protocol
    # ------------------------------------------------------------------

    def submit(self, ctx, spec):
        """Enqueue one transaction; returns False when it was shed.

        With ``max_queue_depth`` set, an arrival that finds the
        submission queue full is rejected immediately — bounded queues
        trade a fast, explicit failure for the unbounded latency tail an
        overloaded open loop would otherwise build.
        """
        if self._draining:
            raise RuntimeError("submit after drain on %s" % (self.name,))
        if (
            self.max_queue_depth is not None
            and len(self.queue) >= self.max_queue_depth
        ):
            self._give_up(ctx, "shed")
            return False
        self.queue.put((ctx, spec))
        self._t_submit_depth.set(len(self.queue))
        return True

    def submit_branch(self, branch):
        """Enqueue one 2PC participant branch; False when shed.

        A shed branch votes no immediately (its ``prepared`` event fires
        with ``False``) so the coordinator aborts globally — the bounded
        queue degrades a distributed transaction the same way it degrades
        a local one: fast and explicit.
        """
        if self._draining:
            raise RuntimeError("submit_branch after drain on %s" % (self.name,))
        if (
            self.max_queue_depth is not None
            and len(self.queue) >= self.max_queue_depth
        ):
            branch.reason = "shed"
            branch.ctx.abort_reason = "shed"
            self._count_abort("shed")
            self._t_shed.inc()
            if self.check.enabled:
                self.check.branch_vote(branch.ctx, False, "shed")
            branch.prepared.fire(False)
            return False
        self.queue.put(branch)
        self._t_submit_depth.set(len(self.queue))
        return True

    def drain(self):
        """No more submissions; workers exit once the queue empties."""
        self._draining = True
        for _ in self.workers:
            self.queue.put(_Shutdown)

    @property
    def queue_depth(self):
        return len(self.queue)

    # ------------------------------------------------------------------
    # Worker loop
    # ------------------------------------------------------------------

    def _worker_loop(self, worker):
        faults = self.faults
        tracer = self.tracer
        policy = self.retry_policy
        check = self.check
        # The retry loop lives inline here, not in a delegated method:
        # one generator frame fewer on every resume of the run's hottest
        # delegation chain.  Engines that never retry (VoltDB) define
        # ``_execute`` instead, and it runs in the loop's place.
        execute = getattr(self, "_execute", None)
        while True:
            item = yield from self.queue.get()
            if item is _Shutdown:
                return
            worker.current = item
            if item.__class__ is Branch:
                yield from self._run_branch(worker, item)
                worker.current = None
                continue
            ctx, spec = item
            if faults.enabled:
                restart = faults.worker_crash(self.name, worker.worker_id)
                if restart is not None:
                    # Crash-and-restart: thread-local state is lost, the
                    # restart delay is paid, and the dequeued transaction
                    # (still safely queued from the client's view) runs
                    # after recovery.
                    self.worker_crashes += 1
                    worker.crashes += 1
                    worker.llu_backlog = []
                    yield restart
            if (
                self.txn_deadline is not None
                and self.sim.now - ctx.birth >= self.txn_deadline
            ):
                self._give_up(ctx, "deadline")
                worker.current = None
                continue
            worker.txns_executed += 1
            if execute is not None:
                yield from execute(worker, ctx, spec)
                worker.current = None
                continue
            tracer.begin_transaction(ctx)
            committed = False
            reason = None
            for attempt in range(policy.max_attempts):
                if attempt:
                    ctx.attempts += 1
                    self._t_retries.inc()
                    policy.note_retry(reason or "abort")
                    yield policy.backoff(attempt, self.retry_rng)
                    if (
                        self.txn_deadline is not None
                        and self.sim.now - ctx.birth >= self.txn_deadline
                    ):
                        reason = "deadline"
                        break
                ctx.abort_reason = None
                if check.enabled:
                    check.begin_attempt(ctx)
                ok = yield from self._attempt(worker, ctx, spec)
                if ok:
                    committed = True
                    break
                reason = ctx.abort_reason or "abort"
                self._count_abort(reason)
            if not committed:
                final = reason or "abort"
                ctx.abort_reason = final
                policy.note_give_up(final)
                self._count_failed(final)
            tracer.end_transaction(ctx, committed)
            self.observe_txn(ctx, committed)
            worker.current = None

    def _attempt(self, worker, ctx, spec):
        """Generator: one attempt; True on commit (subclass hook).

        On failure ``ctx.abort_reason`` names why; the worker loop
        retries under the engine's policy.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # 2PC participant branches (cluster mode only)
    # ------------------------------------------------------------------

    def _run_branch(self, worker, branch):
        """Generator: execute one participant branch through 2PC.

        Statements run with locks held to the *global* decision, a
        prepare record is forced before the yes vote, and the worker is
        parked on the decision event for the whole round trip — holding
        a session thread across prepare is what turns coordinator waits
        into node-level queueing under cross-shard load.
        """
        ctx = branch.ctx
        faults = self.faults
        check = self.check
        if faults.enabled:
            restart = faults.worker_crash(self.name, worker.worker_id)
            if restart is not None:
                # Crash mid-prepare: the in-flight branch state is lost,
                # so the participant votes no (the coordinator aborts
                # globally and may retry) and the worker pays its restart
                # delay before taking the next task.
                self.worker_crashes += 1
                worker.crashes += 1
                worker.llu_backlog = []
                branch.reason = "crash"
                ctx.abort_reason = "crash"
                self._count_abort("crash")
                if check.enabled:
                    check.branch_vote(ctx, False, "crash")
                branch.prepared.fire(False)
                yield restart
                return
        worker.txns_executed += 1
        ctx.abort_reason = None
        ok = yield from self._branch_execute(worker, ctx, branch)
        if not ok:
            reason = ctx.abort_reason or "abort"
            branch.reason = reason
            self._count_abort(reason)
            yield from self._branch_release(ctx, branch)
            if check.enabled:
                check.branch_vote(ctx, False, reason)
            branch.prepared.fire(False)
            return
        yield from self._branch_prepare(ctx, branch)
        branch.vote = True
        if check.enabled:
            check.branch_vote(ctx, True)
        branch.prepared.fire(True)
        yield WaitEvent(branch.decision)
        commit = bool(branch.decision.value)
        if commit:
            yield from self._branch_commit(ctx, branch)
            if check.enabled:
                check.branch_sealed(ctx)
            self.telemetry.counter(self.name + ".branches_committed").inc()
        else:
            branch.reason = branch.reason or "remote_abort"
            self.telemetry.counter(self.name + ".branches_aborted").inc()
        if commit:
            repl = self.replication
            if repl is not None and branch.redo_bytes:
                # The replication ack gates the branch's 2PC ack (and
                # thus the client response) with locks still held —
                # same AFTER_SYNC discipline as the single-home path.
                yield from repl.commit_barrier(ctx, branch.redo_bytes)
        yield from self._branch_release(ctx, branch)
        if check.enabled:
            check.branch_finished(ctx, commit)
        branch.done.fire(commit)

    def _branch_execute(self, worker, ctx, branch):
        """Generator: run the branch's statements, locks held at return.

        True on success; on failure ``ctx.abort_reason`` names why.
        Subclass hook — only engines with ``supports_branches`` have one.
        """
        raise NotImplementedError(
            "%s cannot execute 2PC branches" % (self.name,)
        )

    def _branch_prepare(self, ctx, branch):
        """Generator: force the participant's prepare record (hook)."""
        raise NotImplementedError

    def _branch_commit(self, ctx, branch):
        """Generator: write the participant's commit record (hook)."""
        raise NotImplementedError

    def _branch_release(self, ctx, branch):
        """Generator: release everything the branch holds (hook)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Node crash and recovery (repro.recovery)
    # ------------------------------------------------------------------

    def crash(self):
        """Kill the node at this virtual-time instant; returns a report.

        Everything volatile dies: worker processes (and whatever they
        were executing), the submission queue, the lock table, the buffer
        pool, and any WAL tail whose flush had not completed.  Only disk
        contents past the durable horizon survive — exactly the boundary
        ``sim/disk.py``'s ``flush`` defines.  No virtual time passes and
        no random numbers are drawn; the crash instant itself comes from
        the fault plan, so a run without a planned ``node_crash`` never
        reaches this code.

        In-flight and queued client transactions are failed with reason
        ``node_crash`` (their sessions died with the server).  Participant
        branches follow the 2PC termination rules: not-yet-prepared
        branches vote no; prepared branches become *in doubt* and are
        listed on the report for resolution after restart.
        """
        now = self.sim.now
        report = NodeCrashReport(now)
        for proc in self._worker_procs:
            if not proc.done.fired:
                proc.done.fire()
        for worker in self.workers:
            item, worker.current = worker.current, None
            if item is not None:
                self._crash_item(item, report)
        for item in self.queue._items:
            if item is not _Shutdown:
                self._crash_item(item, report)
        # Dead getters would silently swallow future puts; dead items
        # would be executed by the reborn pool as if nothing happened.
        self.queue._items.clear()
        self.queue._getters.clear()
        self._t_submit_depth.set(0)
        report.lost = tuple(self._crash_volatile(report))
        return report

    def _crash_item(self, item, report):
        """Classify one in-flight/queued item at the crash instant."""
        if item.__class__ is not Branch:
            self._crash_txn(item[0])
            return
        branch = item
        ctx = branch.ctx
        if branch.done.fired:
            return
        # The branch's worker died with the node, in doubt or not: drop
        # its open frames, so finalising the dead generator records none
        # of them.
        del ctx.stack[:]
        if branch.prepared.fired and branch.vote:
            # Voted yes: the prepare record is durable, the outcome is
            # the coordinator's to give.  Snapshot the locks now — the
            # lock table is about to be wiped — so recovery can re-grant
            # them before new work runs (``indoubt_wait`` holds them
            # until the decision arrives).
            report.indoubt.append((branch, self._held_locks(ctx)))
            return
        if branch.prepared.fired:
            return  # already voted no; nothing volatile left to undo
        # Not yet prepared: the branch's work was volatile — vote no so
        # the coordinator aborts globally.  ``reason`` may already be set
        # (crash landed mid-release of an aborting branch), in which case
        # the abort was already counted.
        reason = branch.reason
        if reason is None:
            reason = "node_crash"
            branch.reason = reason
            ctx.abort_reason = reason
            self._count_abort(reason)
        if self.check.enabled:
            self.check.locks_released(ctx, self.sim.now)
            self.check.branch_vote(ctx, False, reason)
        branch.prepared.fire(False)

    def _crash_txn(self, ctx):
        """Fail one client transaction whose session died with the node."""
        del ctx.stack[:]
        ctx._interval_start = None
        if self.check.enabled:
            self.check.locks_released(ctx, self.sim.now)
        self._give_up(ctx, "node_crash")

    def recover(self, report, crash_time, replay=True,
                stall_frame="recovery_replay"):
        """Generator: ARIES-style restart, called after the restart delay.

        Analysis + redo collapse to replaying the durable WAL prefix as
        virtual-time disk reads (``_recovery_replay``); undo is implicit
        because strict 2PL never writes uncommitted data to the modelled
        store.  In-doubt branches get their locks re-granted *before* the
        worker pool is rebuilt, so no new transaction can slip past a
        prepared branch's writes while its fate is undecided.

        Failover (``repro.replication``) restarts the engine *warm*:
        the promoted replica's applied state is current, so the caller
        passes ``replay=False`` (the promotion already replayed the
        shipped-but-unapplied tail) and ``stall_frame="promote_wait"``
        so queued transactions attribute the outage to failover rather
        than redo replay.
        """
        replayed = 0
        if replay:
            replayed = yield from self._recovery_replay()
        report.wal_bytes = replayed
        for branch, held in report.indoubt:
            self._regrant_locks(branch.ctx, held)
        self.workers = [Worker(i) for i in range(self.n_workers)]
        self._worker_procs = [
            self.sim.spawn(
                self._worker_loop(worker),
                name="%s.worker%d" % (self.name, worker.worker_id),
            )
            for worker in self.workers
        ]
        if self._draining:
            for _ in self.workers:
                self.queue.put(_Shutdown)
        now = self.sim.now
        tracer = self.tracer
        if stall_frame in tracer.instrumented:
            # Transactions that queued while the node was down spent this
            # stretch waiting on recovery (or failover), not on execution
            # — attribute it so the variance tree can rank the stalls.
            site = "replication" if stall_frame == "promote_wait" else "recovery"
            for item in self.queue._items:
                if item is _Shutdown or item.__class__ is Branch:
                    continue
                ctx = item[0]
                dt = now - max(crash_time, ctx.birth)
                if dt > 0.0:
                    tracer.record(ctx, stall_frame, dt, site=site)
        self.telemetry.event(
            "node.recovered",
            engine=self.name,
            replayed_bytes=replayed,
            downtime=now - crash_time,
            indoubt=len(report.indoubt),
        )

    def _crash_volatile(self, report):
        """Wipe engine-specific volatile state; returns lost txn ids.

        Subclass hook: lock-based engines truncate their WAL to the
        durable horizon (returning commits the crash erased), clear the
        lock table and drop the buffer pool.  The base engine has none of
        those, so nothing is lost.
        """
        return ()

    def _held_locks(self, ctx):
        """Snapshot ``{obj_id: mode}`` held by ``ctx`` (subclass hook)."""
        return {}

    def _regrant_locks(self, ctx, held):
        """Re-grant an in-doubt branch's locks into the fresh lock table.

        Requests into an empty table grant instantaneously and draw no
        randomness; the recorder keeps the original grant time, so the
        lock-interval oracle sees one continuous hold across the crash.
        """
        for obj_id, mode in held.items():
            self.lockmgr.request(ctx, obj_id, mode)

    def _recovery_replay(self):
        """Generator: replay the durable WAL prefix; returns bytes read.

        Subclass hook — the base engine has no WAL, so recovery is
        instantaneous.
        """
        return 0
        yield  # pragma: no cover -- unreachable; makes this a generator

    # ------------------------------------------------------------------
    # Per-reason accounting
    # ------------------------------------------------------------------

    def _count_abort(self, reason):
        self.aborts_by_reason[reason] = self.aborts_by_reason.get(reason, 0) + 1
        self.telemetry.counter("%s.aborts.%s" % (self.name, reason)).inc()

    def _count_failed(self, reason):
        self.failed_by_reason[reason] = self.failed_by_reason.get(reason, 0) + 1
        self.telemetry.counter("%s.failed.%s" % (self.name, reason)).inc()

    def _give_up(self, ctx, reason):
        """Reject ``ctx`` without executing it (shed / missed deadline)."""
        ctx.abort_reason = reason
        self._count_failed(reason)
        if reason == "shed":
            self._t_shed.inc()
        self.tracer.begin_transaction(ctx)
        self.tracer.end_transaction(ctx, committed=False)
        self.observe_txn(ctx, committed=False)

    @property
    def aborts(self):
        """Total per-attempt aborts across reasons (derived)."""
        return sum(self.aborts_by_reason.values())

    @property
    def failed_txns(self):
        """Transactions that never committed, across reasons (derived)."""
        return sum(self.failed_by_reason.values())

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def observe_txn(self, ctx, committed):
        """Publish one finished transaction's outcome and latency.

        Engines call this right after ``tracer.end_transaction``.  The
        latency histogram is keyed by transaction type, so a snapshot
        carries per-type tails (NewOrder vs Payment ...) without keeping
        per-transaction samples.
        """
        if self.check.enabled:
            self.check.finish(ctx, committed)
        tm = self.telemetry
        if not tm.enabled:
            return
        if committed:
            self._t_committed.inc()
            tm.histogram(
                "%s.latency.%s" % (self.name, ctx.txn_type)
            ).observe(self.sim.now - ctx.birth)
        else:
            self._t_failed.inc()
            tm.event(
                "engine.txn_failed",
                engine=self.name,
                txn=ctx.txn_id,
                txn_type=ctx.txn_type,
                attempts=ctx.attempts,
                reason=ctx.abort_reason or "abort",
            )

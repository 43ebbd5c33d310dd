"""The cluster facade and its two-phase-commit coordinator.

:class:`Cluster` speaks the driver protocol (``submit`` / ``drain``),
so :class:`~repro.workloads.driver.LoadDriver` routes through it exactly
as it would through a single engine.  Per transaction:

- **Single-home fast path**: one request hop over the network, then the
  home node's engine owns the whole lifecycle (begin/trace/retry/
  observe), identical to a single-node run of that engine.
- **Cross-shard 2PC**: the coordinator builds one
  :class:`~repro.engines.base.Branch` per touched shard and runs

  1. *prepare*: request hop → branch enqueued on the node → the worker
     executes the slice holding locks, forces a prepare record, votes →
     vote hop back.  The coordinator's wall time across all votes is the
     traced frame ``dist_prepare_wait``.
  2. *decision*: a forced record on the coordinator's own log (the
     classic 2PC decision point), decision hops out, participants seal
     (commit record) and release, ack hops back — waited as
     ``dist_commit_wait``.

  Any no vote (deadlock, lock-wait timeout, shed, worker crash) aborts
  the round globally; voted-yes participants roll back via the decision
  and the whole transaction retries under the coordinator's
  :class:`~repro.faults.RetryPolicy`, mirroring the engines' local
  retry discipline.

Both ``dist_*`` frames are recorded through ``tracer.record`` with the
coordinator's global transaction context, so the variance tree ranks
distributed waits against ``os_event_wait``, ``fil_flush`` and friends
with no new analysis machinery.  Branch-local traced durations (lock
waits inside a participant, its prepare flush) are folded back into the
global trace after each round.
"""

from repro.core.annotations import TransactionContext
from repro.engines.base import Branch
from repro.exec.schema import register_config
from repro.faults.retry import RetryPolicy
from repro.sim.disk import Disk, DiskConfig
from repro.sim.kernel import WaitEvent
from repro.sim.network import NetworkConfig
from repro.workloads.base import TxnSpec

#: The traced factor names the coordinator records; the cluster adds
#: them to the tracer as subsystem frames (they appear in no engine call
#: graph, so engines keep their flat statement loops).
DIST_FRAMES = ("dist_prepare_wait", "dist_commit_wait")


@register_config
class Topology:
    """Cluster shape + message and 2PC cost knobs (pure configuration)."""

    def __init__(
        self,
        router="hash",
        network=None,
        request_bytes=256,
        vote_bytes=64,
        decision_bytes=64,
        ack_bytes=64,
        decision_log=True,
        coord_log_disk=None,
        max_attempts=12,
        backoff_range=(500.0, 2000.0),
    ):
        self.router = router
        self.network = network or NetworkConfig()
        self.request_bytes = request_bytes
        self.vote_bytes = vote_bytes
        self.decision_bytes = decision_bytes
        self.ack_bytes = ack_bytes
        # The coordinator's forced decision record; disable to model an
        # in-memory (presumed-nothing) coordinator.
        self.decision_log = decision_log
        self.coord_log_disk = coord_log_disk or DiskConfig.battery_backed()
        self.max_attempts = max_attempts
        self.backoff_range = backoff_range

    def __repr__(self):
        return "<Topology router=%s decision_log=%r>" % (
            self.router,
            self.decision_log,
        )


class Cluster:
    """N nodes + network + router behind the engine/driver protocol."""

    name = "cluster"
    #: The coordinator's network identity (it is not a shard).
    COORD = -1

    def __init__(self, sim, tracer, nodes, network, router, streams, topology,
                 groups=None):
        self.sim = sim
        self.tracer = tracer
        self.nodes = nodes
        self.network = network
        self.router = router
        self.streams = streams
        self.topology = topology
        #: ``{shard: ReplicaGroup}`` when the experiment configures
        #: replication (repro.replication); empty otherwise — every
        #: replica-aware branch below is guarded on this map, so
        #: replica-free clusters execute the exact same instruction
        #: sequence as before the subsystem existed.
        self.groups = groups or {}
        self.telemetry = sim.telemetry
        self.check = sim.check
        self.retry_policy = RetryPolicy(
            max_attempts=topology.max_attempts,
            base_backoff=topology.backoff_range[0],
            max_backoff=topology.backoff_range[1],
        )
        self.retry_rng = streams.stream("cluster.retry")
        if topology.decision_log:
            self.coord_disk = Disk(
                sim,
                streams.stream("cluster.coord_log"),
                topology.coord_log_disk,
                "coord_log",
            )
        else:
            self.coord_disk = None
        # Distributed waits must be attributable without the caller
        # remembering to instrument them.
        tracer.instrument_subsystem(DIST_FRAMES)
        self._draining = False
        self._inflight = 0
        self._idle = None
        # Crash-recovery state (repro.recovery).  ``_procs`` tracks every
        # coordinator-side process so a coordinator crash can kill them;
        # ``_live`` maps each in-flight global ctx to what recovery needs
        # to terminate it; ``_decision_log`` mirrors the *durable*
        # contents of the coordinator's log disk (appended only after the
        # forced flush completes, with no yield in between, so its
        # in-memory copy can never run ahead of the device); ``_down``
        # makes submissions fail fast while the coordinator is dead.
        # All four are pure-Python state: a run without a planned
        # coordinator crash executes the same instruction sequence.
        self._procs = []
        self._live = {}
        self._decision_log = []
        self._down = False
        # Coordinator-level give-ups (cross-shard transactions that
        # exhausted their retries); per-attempt aborts are counted on the
        # participant nodes, so the merged views below never double count.
        self.coord_failed_by_reason = {}
        self.single_home_txns = 0
        self.cross_shard_txns = 0
        self.replica_read_txns = 0
        tm = self.telemetry
        # The three routing counters are the plain accounting attributes
        # above, read at snapshot time instead of an inc per submit().
        tm.counter_from("cluster.replica_reads",
                        lambda: self.replica_read_txns)
        tm.counter_from("cluster.single_home_txns",
                        lambda: self.single_home_txns)
        tm.counter_from("cluster.cross_shard_txns",
                        lambda: self.cross_shard_txns)
        self._t_committed = tm.counter("cluster.txns_committed")
        self._t_failed = tm.counter("cluster.txns_failed")
        self._t_retries = tm.counter("cluster.txn_retries")
        self._t_prepare_wait = tm.histogram("cluster.prepare_wait")
        self._t_commit_wait = tm.histogram("cluster.commit_wait")

    # ------------------------------------------------------------------
    # Driver protocol
    # ------------------------------------------------------------------

    def submit(self, ctx, spec):
        """Route one transaction; always accepted at the cluster edge.

        Shedding happens at the node engines (their bounded queues), so
        an overloaded shard degrades exactly as an overloaded single-node
        run does.
        """
        if self._draining:
            raise RuntimeError("submit after drain on cluster")
        if self._down:
            # The coordinator is dead: connections fail fast — clients
            # see an explicit error instead of queueing on a dead
            # endpoint (node queues, by contrast, survive their node's
            # crash and simply wait out the restart).
            self._fail_txn(ctx, "coord_down")
            return False
        groups = self.router.split(spec)
        self._inflight += 1
        if len(groups) == 1:
            shard = next(iter(groups))
            self.single_home_txns += 1
            self._live[ctx] = {"kind": "single"}
            replica = self._route_read(shard, spec)
            if replica is not None:
                self.replica_read_txns += 1
                self._spawn(
                    self._replica_read(ctx, spec, shard, replica),
                    "coord.txn%s" % (ctx.txn_id,),
                )
                return True
            self._spawn(
                self._single_home(ctx, spec, self.nodes[shard]),
                "coord.txn%s" % (ctx.txn_id,),
            )
        else:
            self.cross_shard_txns += 1
            self._live[ctx] = {
                "kind": "2pc",
                "branches": (),
                "decision": None,
                "decided": None,
            }
            self._spawn(
                self._coordinate(ctx, groups),
                "coord.txn%s" % (ctx.txn_id,),
            )
        return True

    def _spawn(self, gen, name):
        """Spawn a coordinator-side process, tracked for crash kills."""
        proc = self.sim.spawn(gen, name=name)
        procs = self._procs
        procs.append(proc)
        if len(procs) > 512:
            self._procs = [p for p in procs if not p.done.fired]
        return proc

    def drain(self):
        """No more submissions; nodes drain once 2PC traffic quiesces.

        Coordinators submit branches (and retried rounds) after the last
        client arrival, so node queues can only be sealed once every
        in-flight coordinator has finished.
        """
        self._draining = True
        self._spawn(self._drain_when_idle(), "cluster.drain")

    @property
    def queue_depth(self):
        return sum(node.engine.queue_depth for node in self.nodes)

    def _drain_when_idle(self):
        while self._inflight > 0:
            self._idle = self.sim.event()
            yield WaitEvent(self._idle)
        for node in self.nodes:
            node.engine.drain()

    def _txn_done(self):
        self._inflight -= 1
        if self._inflight == 0 and self._idle is not None:
            idle, self._idle = self._idle, None
            idle.fire()

    # ------------------------------------------------------------------
    # Single-home fast path
    # ------------------------------------------------------------------

    def _single_home(self, ctx, spec, node):
        # Once submit() returns, the home node owns the whole lifecycle;
        # there is no yield between the hand-off and the cleanup below,
        # so a coordinator crash can only catch this process *before* the
        # hand-off (mid network send) — recovery then fails the txn with
        # ``coord_crash``.
        try:
            yield from self.network.send(
                self.COORD, node.node_id, self.topology.request_bytes
            )
            node.engine.submit(ctx, spec)
        finally:
            self._live.pop(ctx, None)
            self._txn_done()

    # ------------------------------------------------------------------
    # Replica reads (repro.replication)
    # ------------------------------------------------------------------

    def _route_read(self, shard, spec):
        """The replica to serve this transaction, or None for the primary.

        Only single-home transactions made entirely of non-locking
        selects qualify — anything that writes or locks must see the
        primary.  :meth:`ReplicaGroup.pick_replica` applies the staleness
        bound; when no live replica is inside it the read falls back to
        the primary, so bounded-staleness reads never fail.
        """
        group = self.groups.get(shard)
        if group is None or group.config.read_policy != "replica_ok":
            return None
        for op in spec.ops:
            if op.kind != "select" or op.lock is not None:
                return None
        return group.pick_replica(self.sim.now)

    def _replica_read(self, ctx, spec, shard, replica):
        """One read-only transaction served by a replica.

        Request hop out, per-statement CPU on the replica, response hop
        back — no locks, no engine queueing, no retry loop.  The
        routing-time staleness is what the recorder logs: that is the
        value the router's bound decision was made on, so the
        ``repl-stale-read-beyond-bound`` oracle audits the policy rather
        than whatever lag accrued mid-flight.
        """
        group = self.groups[shard]
        cfg = group.config
        try:
            tracer = self.tracer
            tracer.begin_transaction(ctx)
            staleness = group.staleness(replica, self.sim.now)
            yield from self.network.send(
                self.COORD, replica.net_id, cfg.read_request_bytes
            )
            for _ in spec.ops:
                yield cfg.replica_read_cpu
            yield from self.network.send(
                replica.net_id, self.COORD, self.topology.ack_bytes
            )
            group.replica_reads += 1
            check = self.check
            if check.enabled:
                check.repl_read(
                    ctx.txn_id, shard, replica.idx, staleness,
                    cfg.staleness_bound_us,
                )
            tracer.end_transaction(ctx, committed=True)
            self.observe_txn(ctx, True)
        finally:
            self._live.pop(ctx, None)
            self._txn_done()

    # ------------------------------------------------------------------
    # Two-phase commit
    # ------------------------------------------------------------------

    def _coordinate(self, ctx, groups):
        try:
            tracer = self.tracer
            policy = self.retry_policy
            tracer.begin_transaction(ctx)
            committed = False
            reason = None
            for attempt in range(policy.max_attempts):
                if attempt:
                    ctx.attempts += 1
                    self._t_retries.inc()
                    policy.note_retry(reason or "abort")
                    yield policy.backoff(attempt, self.retry_rng)
                ctx.abort_reason = None
                ok, reason = yield from self._attempt_2pc(ctx, groups)
                if ok:
                    committed = True
                    break
            if not committed:
                final = reason or "abort"
                ctx.abort_reason = final
                policy.note_give_up(final)
                self.coord_failed_by_reason[final] = (
                    self.coord_failed_by_reason.get(final, 0) + 1
                )
                self.telemetry.counter("cluster.failed.%s" % (final,)).inc()
            tracer.end_transaction(ctx, committed)
            self.observe_txn(ctx, committed)
        finally:
            self._live.pop(ctx, None)
            self._txn_done()

    def _attempt_2pc(self, ctx, groups):
        """Generator: one 2PC round.  Evaluates to (committed, reason)."""
        sim = self.sim
        topology = self.topology
        branches = [
            Branch(
                TransactionContext(sim, "%s/n%d" % (ctx.txn_id, shard), ctx.txn_type),
                TxnSpec(ctx.txn_type, ops),
                shard,
                sim,
            )
            for shard, ops in groups.items()
        ]
        check = self.check
        if check.enabled:
            check.twopc_begin(
                ctx, [(branch.ctx, branch.node_id) for branch in branches]
            )
        live = self._live.get(ctx)
        if live is not None:
            # A fresh round supersedes the previous one for termination:
            # these are the branches a recovering coordinator must drive.
            live["branches"] = branches
            live["decided"] = None
        # Phase 1 — prepare: one courier per branch carries the request
        # out and the vote back; the couriers overlap, the coordinator
        # pays the slowest.
        arrivals = []
        for branch in branches:
            arrived = sim.event()
            self._spawn(
                self._prepare_branch(branch, arrived),
                "coord.prep.%s" % (branch.ctx.txn_id,),
            )
            arrivals.append(arrived)
        started = sim.now
        for arrived in arrivals:
            yield WaitEvent(arrived)
        prepare_wait = sim.now - started
        self._t_prepare_wait.observe(prepare_wait)
        self.tracer.record(ctx, "dist_prepare_wait", prepare_wait, site="cluster")
        commit = all(branch.vote for branch in branches)
        # The decision point: force the outcome to the coordinator log
        # before telling anyone (presumed-nothing 2PC).  Everything from
        # the completed flush to the bookkeeping below runs without a
        # yield, so a crash can never separate the durable record from
        # the in-memory mirror recovery replays.
        if self.coord_disk is not None:
            yield from self.coord_disk.write(topology.decision_bytes)
            yield from self.coord_disk.flush()
            self._decision_log.append((ctx.txn_id, commit))
            if live is not None:
                live["decision"] = commit
        if live is not None:
            live["decided"] = commit
        if check.enabled:
            check.twopc_decision(
                ctx, commit, logged=True if self.coord_disk is not None else None
            )
        # Phase 2 — decision: only voted-yes participants are parked on
        # the decision event (no-voters already released and left).
        started = sim.now
        acks = []
        for branch in branches:
            if not branch.vote:
                continue
            acked = sim.event()
            self._spawn(
                self._decide_branch(branch, commit, acked),
                "coord.decide.%s" % (branch.ctx.txn_id,),
            )
            acks.append(acked)
        for acked in acks:
            yield WaitEvent(acked)
        if acks:
            commit_wait = sim.now - started
            self._t_commit_wait.observe(commit_wait)
            self.tracer.record(ctx, "dist_commit_wait", commit_wait, site="cluster")
        # Fold branch-local traced time (lock waits, prepare flushes)
        # into the global trace so engine factors stay visible for
        # cross-shard transactions.
        for branch in branches:
            self._merge_branch_trace(ctx, branch.ctx)
        if commit:
            return True, None
        for branch in branches:
            if branch.reason:
                return False, branch.reason
        return False, "abort"

    def _prepare_branch(self, branch, arrived):
        topology = self.topology
        yield from self.network.send(
            self.COORD, branch.node_id, topology.request_bytes
        )
        self.nodes[branch.node_id].engine.submit_branch(branch)
        yield WaitEvent(branch.prepared)
        yield from self.network.send(
            branch.node_id, self.COORD, topology.vote_bytes
        )
        arrived.fire(branch.vote)

    def _decide_branch(self, branch, commit, acked):
        topology = self.topology
        yield from self.network.send(
            self.COORD, branch.node_id, topology.decision_bytes
        )
        branch.decision.fire(commit)
        yield WaitEvent(branch.done)
        yield from self.network.send(
            branch.node_id, self.COORD, topology.ack_bytes
        )
        acked.fire()

    @staticmethod
    def _merge_branch_trace(ctx, branch_ctx):
        if branch_ctx.durations:
            durations = ctx.durations
            for key, value in branch_ctx.durations.items():
                durations[key] = durations.get(key, 0.0) + value
        if branch_ctx.under:
            under = ctx.under
            for parent_key, children in branch_ctx.under.items():
                per_child = under.setdefault(parent_key, {})
                for child_key, value in children.items():
                    per_child[child_key] = per_child.get(child_key, 0.0) + value

    # ------------------------------------------------------------------
    # Coordinator crash and recovery (repro.recovery)
    # ------------------------------------------------------------------

    def crash_coordinator(self):
        """Kill the coordinator at this instant; returns the live map.

        Every coordinator-side process dies (retry loops, prepare and
        decide couriers, the drain watcher); only the decision-log disk
        contents survive.  No virtual time passes and nothing random is
        drawn.  The returned ``{ctx: rec}`` map is what
        :meth:`recover_coordinator` terminates — it is handed over
        explicitly rather than kept, mirroring how an engine's crash
        report flows into its recovery.
        """
        for proc in self._procs:
            if not proc.done.fired:
                proc.done.fire()
        del self._procs[:]
        live, self._live = self._live, {}
        self._down = True
        self._idle = None
        return live

    def recover_coordinator(self, live, crash_time):
        """Generator: decision-log replay + the 2PC termination protocol.

        Replays the durable decision log as sequential reads, then
        terminates every transaction the dead coordinator left behind:

        - single-home transactions still mid-hand-off fail with
          ``coord_crash`` (the client's connection died with the
          coordinator; handed-off ones were already owned by their node);
        - cross-shard rounds with a logged (or participant-known) commit
          decision are re-driven to completion — outcome
          ``recovered_commit``;
        - everything else is presumed abort: undecided branches are told
          to abort, and the transaction fails with ``resolved_abort``.

        Only then does the coordinator accept new work again.
        """
        if self.coord_disk is not None and self._decision_log:
            yield from self.coord_disk.read_sequential(
                len(self._decision_log) * self.topology.decision_bytes
            )
        for ctx, rec in live.items():
            if rec["kind"] == "single":
                self._fail_txn(ctx, "coord_crash")
                self._txn_done()
                continue
            yield from self._terminate_round(ctx, rec, crash_time)
            self._txn_done()
        self._down = False
        if self._draining:
            self._spawn(self._drain_when_idle(), "cluster.drain")
        self.telemetry.event(
            "cluster.coordinator_recovered",
            terminated=len(live),
            log_records=len(self._decision_log),
        )

    def _terminate_round(self, ctx, rec, crash_time):
        """Generator: terminate one orphaned 2PC transaction."""
        branches = rec.get("branches") or ()
        decision = rec.get("decision")
        if decision is None:
            # Cooperative termination: a participant that already heard
            # the outcome is as good as the log (only possible mid
            # phase 2, when the decision was durable or there is no log).
            for branch in branches:
                if branch.decision.fired:
                    decision = bool(branch.decision.value)
                    break
        if decision:
            yield from self._redrive_commit(ctx, branches, crash_time)
            return
        # Presumed abort: no commit decision survives, so there isn't
        # one.  Record the abort decision for the live round unless the
        # round had already recorded one before the crash.
        if self.check.enabled and rec.get("decided") is None:
            self.check.twopc_decision(ctx, False, logged=None)
        topology = self.topology
        for branch in branches:
            if branch.done.fired or branch.decision.fired:
                continue
            if branch.prepared.fired and not branch.vote:
                continue  # voted no; already released and left
            if branch.prepared.fired:
                # A prepared participant is parked holding locks: pay the
                # decision hop that releases it.
                yield from self.network.send(
                    self.COORD, branch.node_id, topology.decision_bytes
                )
            branch.decision.fire(False)
        for branch in branches:
            self._merge_branch_trace(ctx, branch.ctx)
        self._record_indoubt_wait(ctx, crash_time)
        self._fail_txn(ctx, "resolved_abort", outcome="resolved_abort")

    def _redrive_commit(self, ctx, branches, crash_time):
        """Generator: re-drive a logged commit decision to its branches.

        A logged commit implies unanimous yes votes, so every branch is
        (or will be) parked on its decision event; crashed participants
        resolve through their own in-doubt path once their node rejoins.
        """
        topology = self.topology
        redriven = []
        for branch in branches:
            if branch.done.fired:
                continue
            if not branch.decision.fired:
                yield from self.network.send(
                    self.COORD, branch.node_id, topology.decision_bytes
                )
                branch.decision.fire(True)
            redriven.append(branch)
        for branch in redriven:
            if not branch.done.fired:
                yield WaitEvent(branch.done)
            yield from self.network.send(
                branch.node_id, self.COORD, topology.ack_bytes
            )
        for branch in branches:
            self._merge_branch_trace(ctx, branch.ctx)
        self._record_indoubt_wait(ctx, crash_time)
        del ctx.stack[:]
        self.tracer.begin_transaction(ctx)
        self.tracer.end_transaction(ctx, committed=True)
        self.observe_txn(ctx, True, outcome="recovered_commit")

    def _record_indoubt_wait(self, ctx, crash_time):
        if "indoubt_wait" in self.tracer.instrumented:
            dt = self.sim.now - crash_time
            if dt > 0.0:
                self.tracer.record(ctx, "indoubt_wait", dt, site="recovery")

    def _fail_txn(self, ctx, reason, outcome=None):
        """Fail one transaction on the coordinator's behalf."""
        ctx.abort_reason = reason
        self.retry_policy.note_give_up(reason)
        self.coord_failed_by_reason[reason] = (
            self.coord_failed_by_reason.get(reason, 0) + 1
        )
        self.telemetry.counter("cluster.failed.%s" % (reason,)).inc()
        del ctx.stack[:]
        self.tracer.begin_transaction(ctx)
        self.tracer.end_transaction(ctx, committed=False)
        self.observe_txn(ctx, False, outcome=outcome)

    def resolve_indoubt(self, node, branch, crash_time):
        """Generator: in-doubt resolution for one restarted participant.

        Spawned per in-doubt branch by the crash controller after the
        branch's node rejoins (its locks were re-granted during
        recovery).  The participant re-sends its yes vote to the
        coordinator, waits for the decision if it is still outstanding,
        and then runs exactly the tail :meth:`Engine._run_branch` would
        have run: commit record + seal on commit, release, done.  Firing
        ``done`` is also what unparks the coordinator's decide courier,
        whose ack then completes the global transaction.
        """
        engine = node.engine
        topology = self.topology
        ctx = branch.ctx
        check = self.check
        yield from self.network.send(node.node_id, self.COORD, topology.vote_bytes)
        if not branch.decision.fired:
            yield WaitEvent(branch.decision)
        yield from self.network.send(
            self.COORD, node.node_id, topology.decision_bytes
        )
        self._record_indoubt_wait(ctx, crash_time)
        commit = bool(branch.decision.value)
        if commit:
            yield from engine._branch_commit(ctx, branch)
            if check.enabled:
                check.branch_sealed(ctx)
            engine.telemetry.counter(engine.name + ".branches_committed").inc()
        else:
            branch.reason = branch.reason or "remote_abort"
            engine.telemetry.counter(engine.name + ".branches_aborted").inc()
        if commit:
            repl = engine.replication
            if repl is not None and branch.redo_bytes:
                yield from repl.commit_barrier(ctx, branch.redo_bytes)
        yield from engine._branch_release(ctx, branch)
        if check.enabled:
            check.branch_finished(ctx, commit)
        if not branch.done.fired:
            branch.done.fire(commit)

    # ------------------------------------------------------------------
    # Accounting (RunResult protocol)
    # ------------------------------------------------------------------

    def observe_txn(self, ctx, committed, outcome=None):
        if self.check.enabled:
            self.check.finish(ctx, committed, outcome=outcome)
        tm = self.telemetry
        if committed:
            self._t_committed.inc()
            if tm.enabled:
                tm.histogram("cluster.latency.%s" % (ctx.txn_type,)).observe(
                    self.sim.now - ctx.birth
                )
        else:
            self._t_failed.inc()
            if tm.enabled:
                tm.event(
                    "cluster.txn_failed",
                    txn=ctx.txn_id,
                    txn_type=ctx.txn_type,
                    attempts=ctx.attempts,
                    reason=ctx.abort_reason or "abort",
                )

    @property
    def aborts_by_reason(self):
        """Per-attempt aborts across all nodes (branches included)."""
        merged = {}
        for node in self.nodes:
            for reason, count in node.engine.aborts_by_reason.items():
                merged[reason] = merged.get(reason, 0) + count
        return merged

    @property
    def failed_by_reason(self):
        """Never-committed transactions: node-level + coordinator give-ups."""
        merged = dict(self.coord_failed_by_reason)
        for node in self.nodes:
            for reason, count in node.engine.failed_by_reason.items():
                merged[reason] = merged.get(reason, 0) + count
        return merged

    @property
    def aborts(self):
        return sum(self.aborts_by_reason.values())

    @property
    def failed_txns(self):
        return sum(self.failed_by_reason.values())

    @property
    def worker_crashes(self):
        return sum(node.engine.worker_crashes for node in self.nodes)

    def __repr__(self):
        return "<Cluster nodes=%d router=%s>" % (
            len(self.nodes),
            self.router.kind,
        )

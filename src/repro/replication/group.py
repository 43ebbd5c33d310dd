"""One shard's replica group: log shipping, acks, apply loops, failover.

The primary is the shard's ordinary :class:`~repro.engines.base.Engine`;
replicas are *log consumers*, not engine stacks — each one owns a relay
disk and two simulation processes:

- a **ship loop**: takes the next committed record from the group's
  replication log, pays the network transfer primary → replica (per-link
  FIFO + heavy-tail latency, the same fabric 2PC messages ride), marks
  it received, hands it to the apply loop, and sends the ack back;
- an **apply loop**: replays received records as virtual-time relay-disk
  writes (the same sequential-I/O modelling recovery replay uses),
  advancing the replica's applied LSN and its staleness clock.  A
  ``replica_lag`` fault window stalls this loop, which is how lag is
  injected without touching the primary.

Commit-side coupling: the engines call :meth:`ReplicaGroup
.commit_barrier` after the commit record is durable but *before*
releasing locks — MySQL's lossless-semisync (AFTER_SYNC) point, so
replication latency stretches lock hold times and couples into lock
waits downstream, not just the client response.  The barrier
appends the commit's redo to the replication log, wakes the shippers and
blocks until the mode's required ack count
(:meth:`~repro.replication.config.ReplicationConfig.required_acks`) is
reached; the wait is recorded as the ``repl_ack_wait`` variance-tree
frame, ranking commit-ack round trips against ``os_event_wait`` and
``fil_flush`` exactly as the paper's methodology demands.

Failover: when the primary crashes, :meth:`ReplicaGroup.promote` picks
the most-caught-up live replica (max received LSN, lowest index on a
tie — deterministic), replays its shipped-but-unapplied tail as
sequential disk reads, retires it from the group and bumps the *epoch*.
The engine then restarts warm (no WAL replay — the promotee's state is
current); transactions queued across the outage record the stall as
``promote_wait`` frames.  Everything the group does is recorded for the
replication oracles (:func:`repro.check.oracles.check_replication`).
"""

from repro.sim.disk import Disk, DiskConfig
from repro.sim.kernel import WaitEvent

#: Variance-tree frames replication adds.  The runner adds them as
#: subsystem frames only when the experiment configures replicas; they
#: are in no engine call graph, so engines keep their flat statement loops.
REPLICATION_FRAMES = ("repl_ack_wait", "promote_wait")

#: Replica network identities live far above any shard id (shards are
#: 0..N-1 and the coordinator is -1): ``BASE + shard * 1000 + idx``.
REPLICA_NET_BASE = 1_000_000


class Replica:
    """One log consumer: relay disk + shipping/apply cursors.

    Received-but-unapplied records are not queued separately: the apply
    loop indexes the group's shared replication log directly, so the
    window between ``apply_cursor`` and ``recv_cursor`` *is* the apply
    backlog — no per-record tuple is ever copied out of the log.
    """

    __slots__ = (
        "shard", "idx", "net_id", "disk", "cursor", "received_lsn",
        "acked_lsn", "applied_lsn", "applied_origin", "recv_cursor",
        "apply_cursor", "retired", "ship_wakeup", "apply_wakeup",
        "lag_gauge",
    )

    def __init__(self, shard, idx, net_id, disk, lag_gauge):
        self.shard = shard
        self.idx = idx
        self.net_id = net_id
        self.disk = disk
        self.cursor = 0
        self.received_lsn = 0
        self.acked_lsn = 0
        self.applied_lsn = 0
        #: Primary-side commit time of the last applied record — the
        #: age of this replica's view is ``now - applied_origin``.
        self.applied_origin = 0.0
        #: Log indices: records below ``recv_cursor`` have arrived over
        #: the network; records below ``apply_cursor`` are replayed.
        self.recv_cursor = 0
        self.apply_cursor = 0
        self.retired = False
        self.ship_wakeup = None
        self.apply_wakeup = None
        self.lag_gauge = lag_gauge

    def __repr__(self):
        return "<Replica s%dr%d recv=%d applied=%d%s>" % (
            self.shard, self.idx, self.received_lsn, self.applied_lsn,
            " retired" if self.retired else "",
        )


class ReplicaGroup:
    """Primary + N replicas for one shard, over the shared network."""

    def __init__(self, sim, tracer, shard, net_id, network, streams,
                 config, n_replicas):
        self.sim = sim
        self.tracer = tracer
        self.shard = shard
        #: The primary's network identity (its shard id).
        self.net_id = net_id
        self.network = network
        self.config = config
        self.check = sim.check
        self.faults = sim.faults
        self.telemetry = sim.telemetry
        #: The replication log: ``(lsn_end, nbytes, origin_time)`` per
        #: committed batch.  LSNs are cumulative shipped bytes.
        self.log = []
        self.ship_lsn = 0
        #: Promotion epoch: bumped on every failover; commit records
        #: carry it so the split-brain oracle can audit primacy.
        self.epoch = 0
        self.promotions = 0
        self.replica_reads = 0
        #: Lazily allocated: only exists while a commit barrier is
        #: parked, so the common no-waiter ack costs no event object.
        self._ack_event = None
        disk_config = config.apply_disk or DiskConfig.battery_backed()
        # Both counts change on every commit/ack; the registry reads the
        # plain attributes at snapshot time instead of a Counter.inc each.
        self.shipped_bytes = 0
        self.acks = 0
        self.telemetry.counter_from("repl.s%d.shipped_bytes" % (shard,),
                                    lambda: self.shipped_bytes)
        self.telemetry.counter_from("repl.s%d.acks" % (shard,),
                                    lambda: self.acks)
        self.replicas = []
        for idx in range(n_replicas):
            label = "repl.s%dr%d" % (shard, idx)
            replica = Replica(
                shard,
                idx,
                net_id=REPLICA_NET_BASE + shard * 1_000 + idx,
                disk=Disk(sim, streams.stream(label + ".disk"),
                          disk_config, label),
                lag_gauge=self.telemetry.gauge(label + ".lag_us"),
            )
            self.replicas.append(replica)
            sim.spawn(self._ship_loop(replica), name=label + ".ship")
            sim.spawn(self._apply_loop(replica), name=label + ".apply")

    # ------------------------------------------------------------------
    # Wakeup plumbing (condition-variable pattern on kernel events)
    # ------------------------------------------------------------------

    def _wake(self, replica, attr):
        event = getattr(replica, attr)
        if event is not None:
            setattr(replica, attr, None)
            event.fire(None)

    def _fire_acks(self):
        # Broadcast: detach the event, fire it so every parked commit
        # barrier re-checks its ack predicate.  ``None`` means nobody is
        # parked — the common case — and costs nothing; scheduling is
        # cooperative, so a barrier cannot park between this check and
        # the fire.
        event = self._ack_event
        if event is not None:
            self._ack_event = None
            event.fire(None)

    # ------------------------------------------------------------------
    # Shipping and apply loops (one pair per replica)
    # ------------------------------------------------------------------

    def _ship_loop(self, replica):
        cfg = self.config
        net = self.network
        while True:
            if replica.retired:
                return
            if replica.cursor >= len(self.log):
                event = self.sim.event()
                replica.ship_wakeup = event
                yield WaitEvent(event)
                continue
            lsn_end, nbytes, origin = self.log[replica.cursor]
            replica.cursor += 1
            yield from net.send(
                self.net_id, replica.net_id, nbytes + cfg.ship_record_bytes
            )
            if replica.retired:
                continue
            replica.received_lsn = lsn_end
            # Hand the record to the apply loop by cursor: it replays
            # straight out of ``self.log``, so no per-record tuple is
            # copied.  This loop is serial, so ``cursor`` is exactly the
            # count of records shipped to this replica.
            replica.recv_cursor = replica.cursor
            self._wake(replica, "apply_wakeup")
            yield from net.send(replica.net_id, self.net_id, cfg.ack_bytes)
            if replica.retired:
                continue
            replica.acked_lsn = lsn_end
            self.acks += 1
            self._fire_acks()

    def _apply_loop(self, replica):
        sim = self.sim
        faults = self.faults
        while True:
            if replica.retired:
                return
            if replica.apply_cursor >= replica.recv_cursor:
                event = sim.event()
                replica.apply_wakeup = event
                yield WaitEvent(event)
                continue
            lsn_end, nbytes, origin = self.log[replica.apply_cursor]
            replica.apply_cursor += 1
            yield from replica.disk.write(nbytes)
            if faults.enabled:
                stall = faults.replica_apply_stall(sim.now)
                if stall > 0.0:
                    yield stall
            replica.applied_lsn = lsn_end
            replica.applied_origin = origin
            replica.lag_gauge.set(sim.now - origin)

    # ------------------------------------------------------------------
    # Commit-side barrier (called by the engines after lock release)
    # ------------------------------------------------------------------

    def _acks_at(self, target):
        count = 0
        for replica in self.replicas:
            if not replica.retired and replica.acked_lsn >= target:
                count += 1
        return count

    def commit_barrier(self, ctx, redo_bytes):
        """Generator: ship one commit's redo, wait for the mode's acks.

        Runs in the committing worker's process with locks still held
        (lossless semisync, AFTER_SYNC): the transaction is durable
        locally, and both the lock release and the client response wait
        for the ack quota.
        """
        sim = self.sim
        self.ship_lsn += redo_bytes
        target = self.ship_lsn
        self.log.append((target, redo_bytes, sim.now))
        self.shipped_bytes += redo_bytes
        live = 0
        for replica in self.replicas:
            if not replica.retired:
                live += 1
                self._wake(replica, "ship_wakeup")
        required = self.config.required_acks(live)
        epoch = self.epoch
        if required > 0:
            t0 = sim.now
            while self._acks_at(target) < required:
                event = self._ack_event
                if event is None:
                    event = self._ack_event = sim.event()
                yield WaitEvent(event)
            dt = sim.now - t0
            tracer = self.tracer
            if dt > 0.0 and "repl_ack_wait" in tracer.instrumented:
                tracer.record(ctx, "repl_ack_wait", dt, site="replication")
        check = self.check
        if check.enabled:
            check.repl_commit(
                ctx.txn_id, self.shard, epoch, target, required,
                self._acks_at(target),
            )

    # ------------------------------------------------------------------
    # Read routing support
    # ------------------------------------------------------------------

    def staleness(self, replica, now):
        """Age of ``replica``'s view: 0 when fully applied, else the
        time since its last applied record committed on the primary."""
        if replica.applied_lsn >= self.ship_lsn:
            return 0.0
        return now - replica.applied_origin

    def pick_replica(self, now):
        """The most-caught-up live replica within the staleness bound.

        Highest applied LSN wins, lowest index on a tie (deterministic);
        ``None`` when no live replica qualifies — the caller falls back
        to the primary, so bounded-staleness reads never fail.
        """
        bound = self.config.staleness_bound_us
        best = None
        for replica in self.replicas:
            if replica.retired:
                continue
            if self.staleness(replica, now) > bound:
                continue
            if best is None or replica.applied_lsn > best.applied_lsn:
                best = replica
        return best

    def live_replicas(self):
        return [r for r in self.replicas if not r.retired]

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------

    def promote(self, crash_time):
        """Generator: promote the most-caught-up replica; returns it.

        Deterministic choice (max received LSN, lowest index on a tie).
        The promotee replays its shipped-but-unapplied tail as
        sequential relay-disk reads — that replay is the failover stall
        the ``promote_wait`` frames account — then leaves the group
        (its apply state *is* the new primary's state) and the epoch
        advances.  Callers must check :meth:`live_replicas` first.
        """
        live = self.live_replicas()
        promotee = live[0]
        for replica in live[1:]:
            if replica.received_lsn > promotee.received_lsn:
                promotee = replica
        tail = promotee.received_lsn - promotee.applied_lsn
        if tail > 0:
            yield from promotee.disk.read_sequential(int(tail))
        promotee.apply_cursor = promotee.recv_cursor
        promotee.applied_lsn = promotee.received_lsn
        promotee.retired = True
        self._wake(promotee, "ship_wakeup")
        self._wake(promotee, "apply_wakeup")
        self.epoch += 1
        self.promotions += 1
        if self.check.enabled:
            self.check.repl_promote(
                self.shard, self.epoch, promotee.idx,
                promotee.received_lsn, self.sim.now,
            )
        self.telemetry.event(
            "repl.promoted",
            shard=self.shard,
            epoch=self.epoch,
            replica=promotee.idx,
            tail_bytes=tail,
            crash_at=crash_time,
            at=self.sim.now,
        )
        return promotee

    def __repr__(self):
        return "<ReplicaGroup s%d %s replicas=%d epoch=%d>" % (
            self.shard, self.config.mode, len(self.replicas), self.epoch,
        )

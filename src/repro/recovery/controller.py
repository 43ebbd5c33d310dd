"""The crash controller: plan-driven node and coordinator crashes.

One simulation process walks the plan's ``node_crash_times`` in order.
At each instant it kills the target — discarding volatile state exactly
as a power cut would — then models the restart: a fixed restart delay
(process respawn, listener up) followed by ARIES-style log replay whose
cost is real virtual-time disk reads.  Crash instants come straight from
the plan (no RNG draw), so scheduling a crash perturbs nothing before
the crash itself: a run whose plan has no ``node_crash_times`` is
byte-identical to one without this module.

Determinism: the crash is a pure function of (plan, virtual time).  The
kill primitive fires each victim process's ``done`` event — the kernel
never resumes a done process, and killed generators' ``finally`` blocks
never run, which is precisely the crash semantics we want (a real crash
runs no destructors either).  Everything recovery does afterwards is
ordinary simulation code drawing from the same seeded streams, so the
same seed and plan replay to the same post-recovery digest in any
process.
"""

# Variance-tree frames recovery adds.  The runner adds these as subsystem
# frames only when the plan actually schedules a node crash; they are in
# no engine call graph, so engines keep their flat statement loops.
RECOVERY_FRAMES = ("recovery_replay", "indoubt_wait")


def crash_controller(sim, plan, engine=None, cluster=None):
    """Generator: execute every planned crash, in time order.

    Exactly one of ``engine`` (single-node run) / ``cluster`` must be
    the run's top-level submission target.  Targets in the plan:

    - ``"coord"`` — kill the 2PC coordinator (clustered runs only;
      silently skipped single-node, where there is no coordinator).
    - ``int`` — kill that node's engine.  Single-node runs only have
      node 0; out-of-range indices are skipped rather than raised so a
      fuzzer-drawn plan can run against any topology.

    Crashes are handled sequentially: if a second crash instant falls
    inside an earlier recovery, it slips until that recovery finishes
    (documented caveat in ``docs/recovery.md``; the fuzzer draws single
    crashes).
    """
    if cluster is not None:
        engines = [(node, node.engine) for node in cluster.nodes]
    else:
        engines = [(None, engine)]
    for target, crash_at in plan.node_crash_times:
        if crash_at > sim.now:
            yield crash_at - sim.now
        if target == "coord":
            if cluster is None:
                continue
            yield from _crash_coordinator(sim, plan, cluster)
            continue
        if not 0 <= target < len(engines):
            continue
        node, victim = engines[target]
        yield from _crash_node(sim, plan, cluster, node, victim, target)


def _crash_node(sim, plan, cluster, node, victim, target):
    """Kill one engine, restart it, replay its log, resolve in-doubts."""
    crash_time = sim.now
    sim.faults.note_node_crash(target, crash_time)
    report = victim.crash()
    if sim.check.enabled:
        sim.check.node_crash(
            target,
            crash_time,
            report.lost,
            tuple(branch.ctx.txn_id for branch, _held in report.indoubt),
        )
    group = cluster.groups.get(target) if cluster is not None else None
    if group is not None and group.live_replicas():
        # Failover instead of restart-in-place: promote the most-caught-up
        # replica (it replays its shipped-but-unapplied tail), then bring
        # the engine back *warm* — the promotee's state is current, so
        # there is no restart delay and no WAL replay.  Transactions
        # queued across the outage record the stall as ``promote_wait``.
        yield from group.promote(crash_time)
        yield from victim.recover(
            report, crash_time, replay=False, stall_frame="promote_wait"
        )
    else:
        yield plan.node_restart_delay
        yield from victim.recover(report, crash_time)
    if cluster is None:
        return
    # The node is back and its in-doubt branches hold their re-granted
    # locks; each now re-contacts the coordinator for the outcome.  The
    # resolvers run concurrently — they are ordinary processes, not part
    # of the controller, so a later planned crash can kill them too.
    for branch, _held in report.indoubt:
        sim.spawn(
            cluster.resolve_indoubt(node, branch, crash_time),
            name="recovery.indoubt.%s" % (branch.ctx.txn_id,),
        )


def _crash_coordinator(sim, plan, cluster):
    """Kill the coordinator, restart it, terminate orphaned rounds."""
    crash_time = sim.now
    sim.faults.note_node_crash("coord", crash_time)
    live = cluster.crash_coordinator()
    if sim.check.enabled:
        # The coordinator's only durable state is its decision log,
        # which survives by construction: nothing is lost, and branch
        # in-doubt states belong to the (still-alive) participants.
        sim.check.node_crash("coord", crash_time, (), ())
    yield plan.node_restart_delay
    yield from cluster.recover_coordinator(live, crash_time)

"""The simulated Postgres engine (process-per-connection).

Architecture per the paper's Section 4.2 study: backends execute
statements over a large shared buffer (the 30 GB pool caches the whole
working set, so buffer contention is not a factor here), take row locks
through the regular lock manager, register SSI predicate locks as they
read, and at commit must flush WAL behind the single global
WALWriteLock — the ``LWLockAcquireOrWait`` call that Table 2 charges
with 76.8% of overall latency variance.  ``ReleasePredicateLocks`` runs
at commit with a cost that varies with the number of predicate locks and
conflicts discovered (the remaining 6%).

Call graph::

    exec_simple_query
      PortalRun
        ExecutorRun
          index_fetch                  (per-statement work)
          PredicateLockTuple           (selects register SIREAD locks)
          heap_lock_tuple -> LockAcquireExtended -> ProcSleep
        CommitTransaction
          RecordTransactionCommit -> XLogFlush
            LWLockAcquireOrWait / XLogWrite
          ReleasePredicateLocks

``parallel_wal=True`` swaps the single WAL stream for the paper's
two-disk parallel-logging scheme (Section 6.2).
"""

from repro.core.callgraph import CallGraph
from repro.engines.base import Engine
from repro.exec.schema import register_config
from repro.faults.retry import RetryPolicy
from repro.lockmgr.locks import LockMode
from repro.lockmgr.manager import LockManager, RequestStatus
from repro.lockmgr.scheduling import make_scheduler
from repro.sim.disk import Disk, DiskConfig
from repro.sim.rand import LogNormal
from repro.storage.tables import TableCatalog
from repro.wal.pg_wal import ParallelWAL, WALConfig, WALWriter


def postgres_callgraph():
    edges = {
        "exec_simple_query": ["PortalRun"],
        "PortalRun": ["ExecutorRun", "CommitTransaction"],
        "ExecutorRun": ["index_fetch", "PredicateLockTuple", "heap_lock_tuple"],
        "heap_lock_tuple": ["LockAcquireExtended"],
        "LockAcquireExtended": ["ProcSleep"],
        "CommitTransaction": ["RecordTransactionCommit", "ReleasePredicateLocks"],
        "RecordTransactionCommit": ["XLogFlush"],
        "XLogFlush": ["LWLockAcquireOrWait", "XLogWrite"],
    }
    return CallGraph.from_dict("exec_simple_query", edges)


@register_config
class PostgresConfig:
    """Engine configuration (times in microseconds)."""

    def __init__(
        self,
        scheduler="FCFS",
        n_workers=64,
        wal_block_size=8192,
        parallel_wal=False,
        row_bytes=800,
        log_disk=None,
        statement_cpu=10.0,
        index_cpu_mean=6.0,
        index_cpu_cv=0.4,
        predicate_lock_cpu=0.4,
        predicate_release_cpu=0.6,
        predicate_conflict_prob=0.05,
        predicate_conflict_cpu=40.0,
        commit_cpu=8.0,
        lock_wait_timeout=10_000_000.0,
        max_attempts=12,
        backoff_range=(500.0, 2000.0),
        max_queue_depth=None,
        txn_deadline=None,
    ):
        self.scheduler = scheduler
        self.n_workers = n_workers
        self.wal_block_size = wal_block_size
        self.parallel_wal = parallel_wal
        # Full-page-ish WAL records (row images + index entries): TPC-C
        # on Postgres writes kilobytes of WAL per transaction, which is
        # what makes the block-size knob (Figure 4 right) matter.
        self.row_bytes = row_bytes
        self.log_disk = log_disk or DiskConfig()
        self.statement_cpu = statement_cpu
        self.index_cpu_mean = index_cpu_mean
        self.index_cpu_cv = index_cpu_cv
        self.predicate_lock_cpu = predicate_lock_cpu
        self.predicate_release_cpu = predicate_release_cpu
        self.predicate_conflict_prob = predicate_conflict_prob
        self.predicate_conflict_cpu = predicate_conflict_cpu
        self.commit_cpu = commit_cpu
        self.lock_wait_timeout = lock_wait_timeout
        self.max_attempts = max_attempts
        self.backoff_range = backoff_range
        self.max_queue_depth = max_queue_depth
        self.txn_deadline = txn_deadline


class PostgresEngine(Engine):
    name = "postgres"
    supports_branches = True

    def __init__(self, sim, tracer, workload, streams, config=None):
        self.config = config or PostgresConfig()
        cfg = self.config
        super().__init__(
            sim,
            tracer,
            cfg.n_workers,
            retry_policy=RetryPolicy(
                max_attempts=cfg.max_attempts,
                base_backoff=cfg.backoff_range[0],
                max_backoff=cfg.backoff_range[1],
            ),
            retry_rng=streams.stream("postgres.retry"),
            max_queue_depth=cfg.max_queue_depth,
            txn_deadline=cfg.txn_deadline,
        )
        self.workload = workload
        self.catalog = TableCatalog.from_schema(
            workload.schema, row_bytes=self.config.row_bytes
        )
        self.rng = streams.stream("postgres.engine")
        self.lockmgr = LockManager(
            sim,
            make_scheduler(
                self.config.scheduler, rng=streams.stream("postgres.scheduler")
            ),
            wait_timeout=self.config.lock_wait_timeout,
            release_rng=streams.stream("postgres.lockmgr_release"),
        )
        wal_config = WALConfig(block_size=self.config.wal_block_size)
        if self.config.parallel_wal:
            disks = [
                Disk(sim, streams.stream("pg.wal_disk0"), self.config.log_disk, "wal0"),
                Disk(sim, streams.stream("pg.wal_disk1"), self.config.log_disk, "wal1"),
            ]
            self.wal = ParallelWAL(sim, tracer, disks, config=wal_config)
        else:
            disk = Disk(sim, streams.stream("pg.wal_disk0"), self.config.log_disk, "wal0")
            self.wal = WALWriter(sim, tracer, disk, config=wal_config)
        self._index_cpu = LogNormal(
            self.config.index_cpu_mean, self.config.index_cpu_cv
        )

    # ------------------------------------------------------------------
    # Transaction execution
    # ------------------------------------------------------------------

    def _attempt(self, worker, ctx, spec):
        """One attempt (returns a generator); retries run in the base loop."""
        return self._postgres_execute_fast(ctx, spec.ops)

    def _postgres_execute_fast(self, ctx, ops, branch=None):
        """Generator: the engine's one statement body; True on success.

        Serves attempts and, with ``branch`` set, 2PC branches, probed
        or not.  An attempt commits and releases its locks, or releases
        them on abort.  A branch stops after the statements, stores the
        redo bytes and predicate-lock count on ``branch`` and releases
        nothing: locks stay held until the global decision
        (``Engine._run_branch``).

        Probed functions of ``postgres_callgraph()`` open spans
        (``Tracer.enter`` / ``Tracer.exit``) where the server's call
        graph has them, so the body stays one generator frame deep.  A
        branch runs outside ``exec_simple_query`` and ``PortalRun``, so
        its statement spans keep the ``<root>`` site.  The lock
        protocol, WAL commit and the replication barrier stay ``yield
        from``: they are shared subsystems with their own state and
        their own ``traced()`` frames (``ProcSleep``,
        ``LWLockAcquireOrWait``, ``XLogWrite``).
        """
        tracer = self.tracer
        enter = tracer.enter
        exit_ = tracer.exit
        cost = tracer.probe_cost
        # Subsystem-only runs test no name.
        probed = tracer.instrumented if tracer.engine_probed else ()
        span_query = branch is None and "exec_simple_query" in probed
        span_portal = branch is None and "PortalRun" in probed
        span_executor = "ExecutorRun" in probed
        span_index = "index_fetch" in probed
        span_predicate = "PredicateLockTuple" in probed
        span_heap = "heap_lock_tuple" in probed
        span_lock = "LockAcquireExtended" in probed
        wait = self._proc_sleep if "ProcSleep" in probed else None
        span_commit = "CommitTransaction" in probed
        span_record = "RecordTransactionCommit" in probed
        span_flush = "XLogFlush" in probed
        span_release = "ReleasePredicateLocks" in probed

        config = self.config
        statement_cpu = config.statement_cpu
        predicate_lock_cpu = config.predicate_lock_cpu
        sample = self._index_cpu.sample
        rng = self.rng
        tables = self.catalog._tables
        lockmgr = self.lockmgr
        acquire = lockmgr.acquire
        check = self.check
        mode_s = LockMode.S
        mode_x = LockMode.X
        granted = RequestStatus.GRANTED

        if span_query:
            enter(ctx, "exec_simple_query")
            if cost:
                yield cost
        if span_portal:
            enter(ctx, "PortalRun")
            if cost:
                yield cost
        predicate_locks = 0
        redo_bytes = 0
        for op in ops:
            table = tables[op.table]
            if span_executor:
                enter(ctx, "ExecutorRun")
                if cost:
                    yield cost
            yield statement_cpu
            if span_index:
                enter(ctx, "index_fetch")
                if cost:
                    yield cost
            yield sample(rng)
            if span_index:
                if cost:
                    yield cost
                exit_(ctx)
            lock = op.lock
            kind = op.kind
            if kind == "select":
                # Serializable reads register SIREAD predicate locks.
                predicate_locks += 1
                if span_predicate:
                    enter(ctx, "PredicateLockTuple")
                    if cost:
                        yield cost
                yield predicate_lock_cpu
                if span_predicate:
                    if cost:
                        yield cost
                    exit_(ctx)
            if lock is not None or kind in ("update", "insert"):
                lock_id = table.lock_id(op.key)
                if span_heap:
                    enter(ctx, "heap_lock_tuple")
                    if cost:
                        yield cost
                if span_lock:
                    enter(ctx, "LockAcquireExtended")
                    if cost:
                        yield cost
                status = yield from acquire(
                    ctx, lock_id, mode_s if lock == "S" else mode_x, wait
                )
                if span_lock:
                    if cost:
                        yield cost
                    exit_(ctx)
                if span_heap:
                    if cost:
                        yield cost
                    exit_(ctx)
                if status is not granted:
                    if span_executor:
                        if cost:
                            yield cost
                        exit_(ctx)
                    if branch is None:
                        lockmgr.release_all(ctx)
                    if span_portal:
                        if cost:
                            yield cost
                        exit_(ctx)
                    if span_query:
                        if cost:
                            yield cost
                        exit_(ctx)
                    return False
            if span_executor:
                if cost:
                    yield cost
                exit_(ctx)
            redo_bytes += table.redo_bytes(kind)
            if check.enabled:
                check.record_op(ctx, op, lock is not None)
        if branch is not None:
            branch.redo_bytes = redo_bytes
            branch.predicate_locks = predicate_locks
            return True
        if span_commit:
            enter(ctx, "CommitTransaction")
            if cost:
                yield cost
        yield config.commit_cpu
        if redo_bytes:
            # Read-only transactions write no commit record and never
            # touch the WALWriteLock.
            if span_record:
                enter(ctx, "RecordTransactionCommit")
                if cost:
                    yield cost
            if span_flush:
                enter(ctx, "XLogFlush")
                if cost:
                    yield cost
            yield from self.wal.commit(ctx, redo_bytes)
            if span_flush:
                if cost:
                    yield cost
                exit_(ctx)
            if span_record:
                if cost:
                    yield cost
                exit_(ctx)
        # ReleasePredicateLocks opens even when no predicate lock is held.
        if span_release:
            enter(ctx, "ReleasePredicateLocks")
            if cost:
                yield cost
        if predicate_locks:
            yield predicate_locks * config.predicate_release_cpu
            conflict_prob = config.predicate_conflict_prob
            conflict_cpu = config.predicate_conflict_cpu
            for _ in range(predicate_locks):
                if rng.random() < conflict_prob:
                    yield conflict_cpu
        if span_release:
            if cost:
                yield cost
            exit_(ctx)
        if span_commit:
            if cost:
                yield cost
            exit_(ctx)
        repl = self.replication
        if repl is not None and redo_bytes:
            # Synchronous-replication semantics: the ack wait happens
            # with locks still held (PostgreSQL releases at true commit
            # return), so replication latency stretches lock hold times.
            yield from repl.commit_barrier(ctx, redo_bytes)
        lockmgr.release_all(ctx)
        if span_portal:
            if cost:
                yield cost
            exit_(ctx)
        if span_query:
            if cost:
                yield cost
            exit_(ctx)
        return True

    def _proc_sleep(self, request):
        """The lock protocol's wait hook: suspend inside ``ProcSleep``."""
        return self.tracer.traced(
            request.txn, "ProcSleep", self.lockmgr.wait(request)
        )

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def _release_predicate_locks(self, count):
        """Release SIREAD locks; cost varies with conflicts discovered."""
        if count == 0:
            return
        yield count * self.config.predicate_release_cpu
        for _ in range(count):
            if self.rng.random() < self.config.predicate_conflict_prob:
                yield self.config.predicate_conflict_cpu

    # ------------------------------------------------------------------
    # 2PC participant branches (PREPARE TRANSACTION)
    # ------------------------------------------------------------------

    #: The prepare / commit-prepared WAL record per participant round.
    TWOPHASE_RECORD_BYTES = 64

    def _branch_execute(self, worker, ctx, branch):
        """One participant slice (returns a generator): the attempt's
        statement body with ``branch`` set, so no commit and no lock
        release."""
        return self._postgres_execute_fast(ctx, branch.spec.ops, branch)

    def _branch_prepare(self, ctx, branch):
        # PREPARE TRANSACTION: flush the branch's WAL plus the two-phase
        # state record before voting yes.
        yield self.config.commit_cpu
        if branch.redo_bytes:
            yield from self.wal.commit(
                ctx, branch.redo_bytes + self.TWOPHASE_RECORD_BYTES
            )

    def _branch_commit(self, ctx, branch):
        # COMMIT PREPARED: a second forced record seals the decision.
        yield self.config.commit_cpu
        if branch.redo_bytes:
            yield from self.wal.commit(ctx, self.TWOPHASE_RECORD_BYTES)

    def _branch_release(self, ctx, branch):
        yield from self._release_predicate_locks(branch.predicate_locks)
        self.lockmgr.release_all(ctx)

    # ------------------------------------------------------------------
    # Node crash and recovery hooks (repro.recovery)
    # ------------------------------------------------------------------

    def _crash_volatile(self, report):
        # The WAL tail past each stream's durable horizon and the lock
        # table are process memory; the wal devices survive.
        lost = self.wal.crash()
        self.lockmgr.crash()
        return lost

    def _held_locks(self, ctx):
        return self.lockmgr.held_locks(ctx)

    def _recovery_replay(self):
        # Redo: scan each stream's durable prefix on its own device
        # (parallel logging still replays both logs on restart).
        writers = self.wal.writers if isinstance(self.wal, ParallelWAL) else (self.wal,)
        total = 0
        for writer in writers:
            total += yield from writer.disk.read_sequential(int(writer.durable_lsn))
        return total

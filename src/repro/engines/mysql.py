"""The simulated MySQL/InnoDB engine (thread-per-connection).

Composes the full substrate stack — 2PL lock manager with pluggable
scheduler, young/old buffer pool (optionally Lazy LRU Update), redo log
with the three ``innodb_flush_log_at_trx_commit`` policies, and B-tree
storage — under the call graph of the real server, so TProfiler's
profiles name the functions Table 1 names:

    do_command
      dispatch_command
        mysql_execute_command
          row_search_for_mysql        (selects)
            btr_cur_search_to_nth_level
              buf_page_make_young -> buf_pool_mutex_enter [make_young]
                                     buf_LRU_make_block_young
              buf_read_page       -> buf_pool_mutex_enter [read_page]
                                     buf_LRU_get_free_block
            sel_set_rec_lock -> lock_rec_lock
              lock_wait_suspend_thread -> os_event_wait   [site A]
          row_upd_step                (updates)
            lock_rec_lock -> lock_wait_suspend_thread -> os_event_wait [B]
            btr_cur_search_to_nth_level ...
          row_ins                     (inserts)
            lock_rec_lock ...
            row_ins_clust_index_entry_low
              btr_cur_search_to_nth_level ...
          innobase_commit -> trx_commit
            log_write_up_to -> fil_flush

Locks are held to commit (strict 2PL); a deadlock or lock-wait timeout
aborts the attempt, releases everything, and retries under the base
engine's :class:`~repro.faults.RetryPolicy` (exponential backoff with
jitter from the dedicated ``mysql.retry`` stream) — latency is measured
from first submission to final commit, as the paper's client does.
"""

from repro.core.callgraph import CallGraph
from repro.engines.base import Engine
from repro.exec.schema import register_config
from repro.faults.retry import RetryPolicy
from repro.lockmgr.locks import LockMode
from repro.lockmgr.manager import LockManager, RequestStatus
from repro.lockmgr.scheduling import make_scheduler
from repro.bufferpool.pool import BufferPool, BufferPoolConfig
from repro.sim.disk import Disk, DiskConfig
from repro.sim.rand import LogNormal
from repro.sim.resources import CoreSet
from repro.storage.tables import TableCatalog
from repro.wal.mysql_log import FlushPolicy, RedoLog, RedoLogConfig


def mysql_callgraph():
    """The static call graph TProfiler navigates."""
    edges = {
        "do_command": ["dispatch_command"],
        "dispatch_command": ["mysql_execute_command"],
        "mysql_execute_command": [
            "row_search_for_mysql",
            "row_upd_step",
            "row_ins",
            "innobase_commit",
        ],
        "row_search_for_mysql": [
            "btr_cur_search_to_nth_level",
            "sel_set_rec_lock",
        ],
        "sel_set_rec_lock": ["lock_rec_lock"],
        "row_upd_step": ["lock_rec_lock", "btr_cur_search_to_nth_level"],
        "row_ins": ["lock_rec_lock", "row_ins_clust_index_entry_low"],
        "row_ins_clust_index_entry_low": ["btr_cur_search_to_nth_level"],
        "lock_rec_lock": ["lock_wait_suspend_thread"],
        "lock_wait_suspend_thread": ["os_event_wait"],
        "btr_cur_search_to_nth_level": ["buf_page_make_young", "buf_read_page"],
        "buf_page_make_young": [
            "buf_pool_mutex_enter",
            "buf_LRU_make_block_young",
        ],
        "buf_read_page": ["buf_pool_mutex_enter", "buf_LRU_get_free_block"],
        "innobase_commit": ["trx_commit"],
        "trx_commit": ["log_write_up_to"],
        "log_write_up_to": ["fil_flush"],
    }
    return CallGraph.from_dict("do_command", edges)


@register_config
class MySQLConfig:
    """Engine configuration (times in microseconds)."""

    def __init__(
        self,
        scheduler="FCFS",
        strict_vats_arrival=False,
        n_workers=64,
        buffer_pool_fraction=1.2,
        buffer_pool_pages=None,
        lazy_lru=False,
        llu_spin_timeout=10.0,
        flush_policy=FlushPolicy.EAGER_FLUSH,
        group_commit=True,
        log_disk=None,
        data_disk=None,
        n_cores=16,
        statement_cpu=300.0,
        statement_cpu_cv=0.5,
        row_cpu=2.0,
        commit_cpu=6.0,
        prewarm=True,
        lock_sys_bookkeeping=True,
        lock_wait_timeout=10_000_000.0,
        max_attempts=12,
        backoff_range=(500.0, 2000.0),
        max_queue_depth=None,
        txn_deadline=None,
    ):
        self.scheduler = scheduler
        self.strict_vats_arrival = strict_vats_arrival
        self.n_workers = n_workers
        self.buffer_pool_fraction = buffer_pool_fraction
        self.buffer_pool_pages = buffer_pool_pages
        self.lazy_lru = lazy_lru
        self.llu_spin_timeout = llu_spin_timeout
        self.flush_policy = flush_policy
        self.group_commit = group_commit
        self.log_disk = log_disk or DiskConfig.battery_backed()
        self.data_disk = data_disk or DiskConfig.page_cache()
        self.n_cores = n_cores
        self.statement_cpu = statement_cpu
        self.statement_cpu_cv = statement_cpu_cv
        self.row_cpu = row_cpu
        self.commit_cpu = commit_cpu
        self.prewarm = prewarm
        self.lock_sys_bookkeeping = lock_sys_bookkeeping
        self.lock_wait_timeout = lock_wait_timeout
        self.max_attempts = max_attempts
        self.backoff_range = backoff_range
        self.max_queue_depth = max_queue_depth
        self.txn_deadline = txn_deadline


class MySQLEngine(Engine):
    name = "mysql"
    supports_branches = True

    def __init__(self, sim, tracer, workload, streams, config=None):
        self.config = config or MySQLConfig()
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
            retry_rng=streams.stream("mysql.retry"),
            max_queue_depth=cfg.max_queue_depth,
            txn_deadline=cfg.txn_deadline,
        )
        self.workload = workload
        self.catalog = TableCatalog.from_schema(workload.schema)
        self.rng = streams.stream("mysql.engine")
        scheduler = make_scheduler(
            self.config.scheduler,
            rng=streams.stream("mysql.scheduler"),
            strict_arrival=self.config.strict_vats_arrival,
        )
        self.lockmgr = LockManager(
            sim,
            scheduler,
            wait_timeout=self.config.lock_wait_timeout,
            bookkeeping=self.config.lock_sys_bookkeeping,
            release_rng=streams.stream("mysql.lockmgr_release"),
        )
        self.data_disk = Disk(
            sim, streams.stream("mysql.data_disk"), self.config.data_disk, "data"
        )
        self.log_disk = Disk(
            sim, streams.stream("mysql.log_disk"), self.config.log_disk, "log"
        )
        capacity = self.config.buffer_pool_pages
        if capacity is None:
            capacity = max(
                16, int(self.catalog.total_pages * self.config.buffer_pool_fraction)
            )
        pool_config = BufferPoolConfig(
            capacity_pages=capacity,
            lazy_lru=self.config.lazy_lru,
            llu_spin_timeout=self.config.llu_spin_timeout,
        )
        self.pool = BufferPool(sim, tracer, self.data_disk, pool_config)
        if self.config.prewarm:
            self.pool.prewarm(self.catalog.iter_pages())
        self.cpu = CoreSet(sim, self.config.n_cores)
        self._stmt_cpu_dist = LogNormal(
            self.config.statement_cpu, self.config.statement_cpu_cv
        )
        self.redo = RedoLog(
            sim,
            tracer,
            self.log_disk,
            RedoLogConfig(
                policy=self.config.flush_policy,
                group_commit=self.config.group_commit,
            ),
        )

    # ------------------------------------------------------------------
    # Transaction execution
    # ------------------------------------------------------------------

    def _attempt(self, worker, ctx, spec):
        """One attempt (returns a generator); retries run in the base loop.

        The engine has one flat and one traced statement body, and each
        serves both attempts and 2PC branches (``_branch_execute``).
        Unless a function of ``mysql_callgraph()`` is instrumented, every
        ``traced()`` call in the ``do_command`` chain is a pass-through,
        so the flattened ``_mysql_execute_fast`` runs instead — same
        yields, far fewer generator frames on the run's hottest resumes.
        Subsystem frames (cluster, replication, recovery) are recorded
        outside this chain and never close the gate, so clustered,
        replicated and crash runs take the flat loop too.
        """
        if not self.tracer.engine_probed:
            return self._mysql_execute_fast(worker, ctx, spec.ops)
        traced = self.tracer.traced
        return traced(ctx, "do_command", traced(
            ctx, "dispatch_command", traced(
                ctx, "mysql_execute_command",
                self._mysql_execute(worker, ctx, spec.ops),
            ),
        ))

    def _mysql_execute(self, worker, ctx, ops, branch=None):
        """Generator: the traced statement loop; True on success.

        An attempt commits and releases its locks, or releases them on
        abort.  With a ``branch`` the loop stops after the statements,
        stores the redo bytes on the branch and releases nothing: locks
        stay held until the global decision (``Engine._run_branch``).
        """
        redo_bytes = 0
        consume = self.cpu.consume
        sample = self._stmt_cpu_dist.sample
        rng = self.rng
        catalog = self.catalog
        traced = self.tracer.traced
        check = self.check
        for op in ops:
            # Parse/plan/execute CPU runs on a finite core set: near
            # saturation, CPU queueing stretches statements and therefore
            # lock hold times — the paper's hardware regime.
            yield from consume(sample(rng))
            table = catalog[op.table]
            if op.kind == "select":
                ok = yield from traced(
                    ctx, "row_search_for_mysql", self._row_search(worker, ctx, op, table)
                )
            elif op.kind == "update":
                ok = yield from traced(
                    ctx, "row_upd_step", self._row_update(worker, ctx, op, table)
                )
            else:
                ok = yield from traced(
                    ctx, "row_ins", self._row_insert(worker, ctx, op, table)
                )
            if not ok:
                if branch is None:
                    yield from self.lockmgr.release_all_timed(ctx)
                return False
            redo_bytes += table.redo_bytes(op.kind)
            if check.enabled:
                check.record_op(ctx, op, op.lock is not None)
        if branch is not None:
            branch.redo_bytes = redo_bytes
            return True
        yield from traced(ctx, "innobase_commit", self._commit(ctx, redo_bytes))
        repl = self.replication
        if repl is not None and redo_bytes:
            # Lossless semisync (AFTER_SYNC): the ack wait happens with
            # locks still held, so replication latency stretches lock
            # hold times — a cross-layer coupling the variance tree
            # surfaces as repl_ack_wait feeding lock waits downstream.
            yield from repl.commit_barrier(ctx, redo_bytes)
        yield from self.lockmgr.release_all_timed(ctx)
        return True

    def _mysql_execute_fast(self, worker, ctx, ops, branch=None):
        """Uninstrumented ``_mysql_execute`` with the hot chain flattened.

        With no instrumentation active every ``traced()`` wrapper below
        ``_mysql_execute`` is a pass-through, so the per-statement
        delegation frames (``_row_search`` / ``_row_update`` /
        ``_row_insert`` / ``_clust_index_insert``, the B-tree ``search``
        descent, ``fix_page`` and ``CoreSet.consume``) are inlined into
        one generator; only the lock protocol (``LockManager.acquire``)
        stays delegated.  The kernel resumes every yield through each
        frame of the delegation chain, and chain depth is the single
        largest wall-clock cost of a run.  The yield sequence and every
        state mutation are identical to the traced chain, ``branch``
        included — the equivalence goldens and differential tests pin
        the two together.
        """
        redo_bytes = 0
        sim = self.sim
        check = self.check
        cpu = self.cpu
        busy = cpu._busy_until
        sample = self._stmt_cpu_dist.sample
        rng = self.rng
        tables = self.catalog._tables
        pool = self.pool
        pages_get = pool._pages.get
        hit_cost = pool._hit_cost
        lru = pool._lru
        backlog = worker.llu_backlog
        lockmgr = self.lockmgr
        acquire = lockmgr.acquire
        row_cpu = self.config.row_cpu
        GRANTED = RequestStatus.GRANTED
        for op in ops:
            # CoreSet.consume(sample(rng)), inline.
            cost = sample(rng)
            if cost > 0:
                cpu.total_bursts += 1
                cpu.total_busy += cost
                index = busy.index(min(busy))
                now = sim.now
                start = busy[index]
                if now > start:
                    start = now
                end = start + cost
                busy[index] = end
                yield end - now
            table = tables[op.table]
            kind = op.kind
            key = op.key
            if kind == "select":
                dirty = False
            else:
                # Updates and inserts take the record lock *before* the
                # descent (_row_update / _row_insert).
                status = yield from acquire(ctx, table.lock_id(key), LockMode.X)
                if status is not GRANTED:
                    if branch is None:
                        yield from lockmgr.release_all_timed(ctx)
                    return False
                dirty = True
                if kind != "update":
                    table.inserts += 1
            # BTreeIndex.search, inline: one buffer-pool access per
            # interior level plus the leaf, with fix_page's hit protocol
            # flattened (miss / make-young delegate to the pool).  The
            # descent-path cache of ``interior_pages`` and the slot math
            # of ``leaf_page`` are inlined too — both recompute the same
            # leaf slot.
            index_obj = table.index
            level_cost = index_obj.level_cpu_cost
            slot = (key % index_obj.n_keys) // index_obj.keys_per_leaf
            path = index_obj._full_path_cache.get(slot)
            if path is None:
                path = index_obj._full_path_cache[slot] = (
                    index_obj.interior_pages(key)
                    + ((index_obj.name, "leaf", slot),)
                )
            last = len(path) - 1
            for i, page_id in enumerate(path):
                dirty_here = dirty and i == last
                yield level_cost
                while True:
                    page = pages_get(page_id)
                    if page is None:
                        pool.misses += 1
                        page = yield from pool._read_in(ctx, page_id)
                        if dirty_here:
                            page.dirty = True
                        break
                    pool.hits += 1
                    yield hit_cost
                    if pages_get(page_id) is not page:
                        # Evicted while paused: take the miss path.
                        continue
                    if dirty_here:
                        page.dirty = True
                    if page_id in lru._old:
                        promote = True
                    else:
                        young = lru._young
                        if page_id not in young:
                            raise KeyError("page %r not in LRU" % (page_id,))
                        promote = (lru._clock - lru._stamp.get(page_id, 0)) > (
                            lru.young_reorder_depth * len(young)
                        )
                    if promote:
                        yield from pool._make_young(ctx, page_id, backlog)
                    break
            if kind == "select":
                yield row_cpu
                if op.lock is not None:
                    # sel_set_rec_lock -> lock_rec_lock.
                    mode = LockMode.X if op.lock == "X" else LockMode.S
                    status = yield from acquire(ctx, table.lock_id(key), mode)
                    if status is not GRANTED:
                        if branch is None:
                            yield from lockmgr.release_all_timed(ctx)
                        return False
            elif kind == "update":
                yield row_cpu
            else:
                # BTreeIndex.insert_body, inline.
                draw = rng.random()
                if draw < index_obj.reorg_probability:
                    yield index_obj.reorg_cpu_cost
                elif draw < index_obj.reorg_probability + index_obj.split_probability:
                    yield index_obj.split_cpu_cost
                else:
                    yield index_obj.insert_cpu_cost
            redo_bytes += table.redo_bytes(kind)
            if check.enabled:
                check.record_op(ctx, op, op.lock is not None)
        if branch is not None:
            branch.redo_bytes = redo_bytes
            return True
        # innobase_commit (_commit), inline.
        yield self.config.commit_cpu
        if redo_bytes:
            yield from self.redo.commit(ctx, redo_bytes)
        repl = self.replication
        if repl is not None and redo_bytes:
            yield from repl.commit_barrier(ctx, redo_bytes)
        yield from lockmgr.release_all_timed(ctx)
        return True

    # -- statement implementations --------------------------------------

    def _row_search(self, worker, ctx, op, table):
        traced = self.tracer.traced
        yield from traced(
            ctx,
            "btr_cur_search_to_nth_level",
            table.index.search(
                ctx, op.key, self.pool, dirty=False, backlog=worker.llu_backlog
            ),
        )
        yield self.config.row_cpu
        if op.lock is None:
            return True
        mode = LockMode.X if op.lock == "X" else LockMode.S
        status = yield from traced(
            ctx,
            "sel_set_rec_lock",
            self._lock_rec_lock(ctx, table.lock_id(op.key), mode, "A"),
        )
        return status is RequestStatus.GRANTED

    def _row_update(self, worker, ctx, op, table):
        status = yield from self._lock_rec_lock(
            ctx, table.lock_id(op.key), LockMode.X, "B"
        )
        if status is not RequestStatus.GRANTED:
            return False
        yield from self.tracer.traced(
            ctx,
            "btr_cur_search_to_nth_level",
            table.index.search(
                ctx, op.key, self.pool, dirty=True, backlog=worker.llu_backlog
            ),
        )
        yield self.config.row_cpu
        return True

    def _row_insert(self, worker, ctx, op, table):
        status = yield from self._lock_rec_lock(
            ctx, table.lock_id(op.key), LockMode.X, "B"
        )
        if status is not RequestStatus.GRANTED:
            return False
        table.inserts += 1
        yield from self.tracer.traced(
            ctx,
            "row_ins_clust_index_entry_low",
            self._clust_index_insert(worker, ctx, op, table),
        )
        return True

    def _clust_index_insert(self, worker, ctx, op, table):
        yield from self.tracer.traced(
            ctx,
            "btr_cur_search_to_nth_level",
            table.index.search(
                ctx, op.key, self.pool, dirty=True, backlog=worker.llu_backlog
            ),
        )
        yield from table.index.insert_body(self.rng)

    def _lock_rec_lock(self, ctx, obj_id, mode, site):
        """Generator: ``lock_rec_lock``; evaluates to the final status.

        The lock protocol of ``LockManager.acquire``, suspending through
        ``lock_wait_suspend_thread`` -> ``os_event_wait`` labelled with
        ``site`` (the paper's [A] for selects, [B] for updates/inserts).
        """
        traced = self.tracer.traced
        lockmgr = self.lockmgr

        def suspend(request):
            return traced(ctx, "lock_wait_suspend_thread", traced(
                ctx, "os_event_wait", lockmgr.wait(request), site=site,
            ), site=site)

        return traced(
            ctx, "lock_rec_lock", lockmgr.acquire(ctx, obj_id, mode, suspend)
        )

    # -- commit ----------------------------------------------------------

    def _commit(self, ctx, redo_bytes):
        yield self.config.commit_cpu
        if redo_bytes == 0:
            return  # read-only transaction: nothing to make durable
        yield from self.tracer.traced(
            ctx, "trx_commit", self.redo.commit(ctx, redo_bytes)
        )

    # ------------------------------------------------------------------
    # 2PC participant branches (XA)
    # ------------------------------------------------------------------

    #: The XA prepare / commit record appended per participant round.
    XA_RECORD_BYTES = 64

    def _branch_execute(self, worker, ctx, branch):
        """One participant slice (returns a generator), gated as ``_attempt``.

        The attempt's statement bodies with ``branch`` set: no commit
        and no lock release — locks stay held until the global decision
        arrives.  The traced body runs outside the ``do_command`` frames,
        so a branch's statement frames keep their ``<root>`` site.
        """
        if not self.tracer.engine_probed:
            return self._mysql_execute_fast(worker, ctx, branch.spec.ops, branch)
        return self._mysql_execute(worker, ctx, branch.spec.ops, branch)

    def _branch_prepare(self, ctx, branch):
        # XA PREPARE: the branch's redo plus a prepare record must be on
        # stable storage before the yes vote leaves the node.
        yield self.config.commit_cpu
        if branch.redo_bytes:
            yield from self.redo.commit(
                ctx, branch.redo_bytes + self.XA_RECORD_BYTES
            )

    def _branch_commit(self, ctx, branch):
        # XA COMMIT: the decision is sealed with a second forced record —
        # the per-participant cost that makes distributed commit waits a
        # first-order variance source.
        yield self.config.commit_cpu
        if branch.redo_bytes:
            yield from self.redo.commit(ctx, self.XA_RECORD_BYTES)

    def _branch_release(self, ctx, branch):
        yield from self.lockmgr.release_all_timed(ctx)

    # ------------------------------------------------------------------
    # Node crash and recovery hooks (repro.recovery)
    # ------------------------------------------------------------------

    def _crash_volatile(self, report):
        # Redo tail past the durable LSN, the lock table and every cached
        # page die with the server; the devices themselves survive.
        lost = self.redo.crash()
        self.lockmgr.crash()
        self.pool.crash()
        return lost

    def _held_locks(self, ctx):
        return self.lockmgr.held_locks(ctx)

    def _recovery_replay(self):
        # ARIES analysis + redo collapsed to a sequential scan of the
        # durable redo prefix on the log device.
        replayed = yield from self.log_disk.read_sequential(
            int(self.redo.durable_lsn)
        )
        return replayed

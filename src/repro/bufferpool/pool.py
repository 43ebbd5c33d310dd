"""The buffer pool: page table, pool mutex, miss path, traced functions.

Cost model (virtual time):

- a page-table hit costs ``hit_cost`` (hash lookup + frame pin);
- promoting a page (make-young) takes the pool mutex and holds it for
  ``list_op_cost`` — the *wait* for that mutex is the variance source the
  paper attributes to ``buf_pool_mutex_enter``;
- a miss takes the mutex to find a victim (``evict_op_cost`` hold time),
  and — as in MySQL 5.6's single-page-flush pathology — if the victim is
  dirty the evicting thread writes it back *while holding the mutex*;
  the subsequent read of the wanted page happens outside the mutex;
- with Lazy LRU Update enabled, make-young uses a spin lock bounded by
  ``llu_spin_timeout`` (paper: 0.01 ms); on timeout the update is pushed
  to the caller's backlog and applied on a later successful acquisition.

The traced function names match InnoDB so TProfiler's findings read like
Table 1: ``buf_page_make_young`` -> ``buf_pool_mutex_enter`` ->
``buf_LRU_make_block_young``; the miss path is ``buf_read_page`` ->
``buf_pool_mutex_enter`` / ``buf_LRU_get_free_block``.
"""

from repro.bufferpool.lru import LRUList
from repro.sim.resources import Mutex, SpinLock


class Page:
    """A buffered page frame."""

    __slots__ = ("page_id", "dirty")

    def __init__(self, page_id):
        self.page_id = page_id
        self.dirty = False

    def __repr__(self):
        return "<Page %r%s>" % (self.page_id, " dirty" if self.dirty else "")


class BufferPoolConfig:
    """Pool sizing and cost parameters (times in microseconds)."""

    def __init__(
        self,
        capacity_pages=1000,
        page_bytes=16384,
        old_ratio=3.0 / 8.0,
        young_reorder_depth=0.25,
        hit_cost=1.0,
        list_op_cost=2.0,
        evict_op_cost=5.0,
        lazy_lru=False,
        llu_spin_timeout=10.0,
        llu_backlog_apply_cost=1.0,
    ):
        self.capacity_pages = capacity_pages
        self.page_bytes = page_bytes
        self.old_ratio = old_ratio
        self.young_reorder_depth = young_reorder_depth
        self.hit_cost = hit_cost
        self.list_op_cost = list_op_cost
        self.evict_op_cost = evict_op_cost
        self.lazy_lru = lazy_lru
        self.llu_spin_timeout = llu_spin_timeout
        self.llu_backlog_apply_cost = llu_backlog_apply_cost


class BufferPool:
    """An InnoDB-style buffer pool bound to a data disk and a tracer."""

    def __init__(self, sim, tracer, disk, config=None, name="buf_pool"):
        self.sim = sim
        self.tracer = tracer
        self.disk = disk
        self.config = config or BufferPoolConfig()
        self.name = name
        self._pages = {}
        self._lru = LRUList(
            self.config.capacity_pages,
            old_ratio=self.config.old_ratio,
            young_reorder_depth=self.config.young_reorder_depth,
        )
        if self.config.lazy_lru:
            self.mutex = SpinLock(
                sim,
                name=name + ".mutex",
                spin_timeout=self.config.llu_spin_timeout,
            )
        else:
            self.mutex = Mutex(sim, name=name + ".mutex")
        # Accounting.
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_writebacks = 0
        self.make_youngs = 0
        self.llu_deferrals = 0
        self.llu_applied = 0
        # Telemetry instruments.  The hold-time histogram measures how
        # long the pool mutex stays held per critical section — the
        # quantity LLU shrinks and the paper's Table 1 indicts.
        self._hit_cost = float(self.config.hit_cost)
        tm = sim.telemetry
        self._tm = tm
        self._t_hits = tm.counter(name + ".hits")
        self._t_misses = tm.counter(name + ".misses")
        # The hit/miss counters shadow the plain accounting attributes
        # one-for-one; the hit counter is the single hottest instrument
        # in a run, so both are folded in bulk at registry flush (always
        # before a snapshot) instead of paying an inc per page access.
        self._flushed_hits = 0
        self._flushed_misses = 0
        tm.add_flush_hook(self._flush_counters)
        self._t_evictions = tm.counter(name + ".evictions")
        self._t_writebacks = tm.counter(name + ".dirty_writebacks")
        self._t_deferrals = tm.counter(name + ".llu_deferrals")
        self._t_hold_hist = tm.histogram(name + ".mutex_hold_time")
        self._t_resident = tm.gauge(name + ".resident_pages")

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @property
    def hit_ratio(self):
        total = self.hits + self.misses
        return self.hits / total if total else 1.0

    def _flush_counters(self):
        """Fold the deferred hit/miss totals into their counters."""
        delta = self.hits - self._flushed_hits
        if delta:
            self._t_hits.inc(delta)
            self._flushed_hits = self.hits
        delta = self.misses - self._flushed_misses
        if delta:
            self._t_misses.inc(delta)
            self._flushed_misses = self.misses

    def contains(self, page_id):
        return page_id in self._pages

    def crash(self):
        """Whole-node crash: every cached page is gone (cold restart).

        The pool restarts empty — no prewarm; the first transactions
        after recovery pay miss-path disk reads, which is part of the
        crash's latency footprint.  The pool mutex is reset directly
        (``release`` would refuse: its holder died with the worker pool)
        and parked waiters are dropped — they are dead processes.
        """
        self._pages.clear()
        self._lru = LRUList(
            self.config.capacity_pages,
            old_ratio=self.config.old_ratio,
            young_reorder_depth=self.config.young_reorder_depth,
        )
        mutex = self.mutex._mutex if self.config.lazy_lru else self.mutex
        mutex.holder = None
        mutex._waiters.clear()
        self._t_resident.set(0)

    def prewarm(self, page_ids):
        """Populate the pool (up to capacity) without virtual time or I/O.

        Models a warmed server: the paper measures steady state, not the
        cold-start transient.  Pages are inserted clean at the old head;
        the LRU will sort itself out as traffic arrives.  Returns the
        number of pages resident afterwards.
        """
        pages = self._pages
        capacity = self.config.capacity_pages
        n = len(pages)
        fresh = []
        append = fresh.append
        for page_id in page_ids:
            if n >= capacity:
                break
            if page_id in pages:
                continue
            pages[page_id] = Page(page_id)
            n += 1
            append(page_id)
        self._lru.insert_old_many(fresh)
        return len(pages)

    def fix_page(self, ctx, page_id, dirty=False, backlog=None):
        """Generator: pin ``page_id``, reading it in on a miss.

        ``backlog`` is the calling worker's deferred-LRU-update list; it is
        only consulted when the pool runs with Lazy LRU Update.
        """
        pages_get = self._pages.get
        while True:
            page = pages_get(page_id)
            if page is None:
                break
            self.hits += 1
            yield self._hit_cost
            if pages_get(page_id) is not page:
                # Evicted (or replaced) while we paused: take the miss path.
                continue
            if dirty:
                page.dirty = True
            # Inlined ``self._lru.needs_make_young(page_id)`` — the hit
            # path runs once per page access and the call overhead alone
            # shows up in run wall time.
            lru = self._lru
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
                yield from self.tracer.traced(
                    ctx, "buf_page_make_young", self._make_young(ctx, page_id, backlog)
                )
            return page
        self.misses += 1
        page = yield from self.tracer.traced(
            ctx, "buf_read_page", self._read_in(ctx, page_id)
        )
        if dirty:
            page.dirty = True
        return page

    # ------------------------------------------------------------------
    # Make-young path (buf_page_make_young)
    # ------------------------------------------------------------------

    def _make_young(self, ctx, page_id, backlog):
        if self.config.lazy_lru:
            yield from self._make_young_lazy(ctx, page_id, backlog)
        else:
            yield from self._make_young_eager(ctx, page_id)

    def _make_young_eager(self, ctx, page_id):
        yield from self.tracer.traced(
            ctx, "buf_pool_mutex_enter", self.mutex.acquire(), site="make_young"
        )
        held_since = self.sim.now
        yield from self.tracer.traced(
            ctx, "buf_LRU_make_block_young", self._apply_make_young(page_id)
        )
        self._t_hold_hist.observe(self.sim.now - held_since)
        self.mutex.release()

    def _make_young_lazy(self, ctx, page_id, backlog):
        acquired = yield from self.tracer.traced(
            ctx, "buf_pool_mutex_enter", self.mutex.try_acquire(), site="make_young"
        )
        if not acquired:
            self.llu_deferrals += 1
            self._t_deferrals.inc()
            if backlog is not None:
                backlog.append(page_id)
            return
        held_since = self.sim.now
        if backlog:
            yield from self._apply_backlog(backlog)
        yield from self.tracer.traced(
            ctx, "buf_LRU_make_block_young", self._apply_make_young(page_id)
        )
        self._t_hold_hist.observe(self.sim.now - held_since)
        self.mutex.release()

    def _apply_backlog(self, backlog):
        """Apply deferred updates (skipping pages evicted meanwhile)."""
        pending, backlog[:] = list(backlog), []
        for page_id in pending:
            if page_id not in self._pages:
                continue  # evicted since the deferral; nothing to do
            self.llu_applied += 1
            yield self.config.llu_backlog_apply_cost
            self._lru.make_young(page_id)

    def _apply_make_young(self, page_id):
        self.make_youngs += 1
        yield self.config.list_op_cost
        if page_id in self._pages:
            self._lru.make_young(page_id)

    # ------------------------------------------------------------------
    # Miss path (buf_read_page)
    # ------------------------------------------------------------------

    def _read_in(self, ctx, page_id):
        yield from self.tracer.traced(
            ctx, "buf_pool_mutex_enter", self.mutex.acquire(), site="read_page"
        )
        held_since = self.sim.now
        # Somebody else may have read the page in while we waited.
        page = self._pages.get(page_id)
        if page is not None:
            self._t_hold_hist.observe(self.sim.now - held_since)
            self.mutex.release()
            yield self.config.hit_cost
            return page
        yield from self.tracer.traced(
            ctx, "buf_LRU_get_free_block", self._evict_for_free_frame()
        )
        # Reserve the slot so concurrent missers don't double-read, then
        # read the page contents outside the mutex.
        page = Page(page_id)
        self._pages[page_id] = page
        self._lru.insert_old(page_id)
        self._t_hold_hist.observe(self.sim.now - held_since)
        self._t_resident.set(len(self._pages))
        self.mutex.release()
        yield from self.disk.read(self.config.page_bytes)
        return page

    def _evict_for_free_frame(self):
        """Find a free frame, evicting (and flushing) a victim if needed.

        Runs while holding the pool mutex; a dirty victim is written back
        under the mutex (the MySQL 5.6 single-page-flush pathology that
        makes hold times heavy-tailed under memory pressure).
        """
        yield self.config.evict_op_cost
        if len(self._lru) < self._lru.capacity:
            return
        victim_id = self._lru.victim()
        if victim_id is None:
            return
        victim = self._pages.pop(victim_id)
        self._lru.remove(victim_id)
        self.evictions += 1
        self._t_evictions.inc()
        if victim.dirty:
            self.dirty_writebacks += 1
            self._t_writebacks.inc()
            yield from self.disk.write(self.config.page_bytes)

    def __repr__(self):
        return "<BufferPool %s pages=%d/%d hit_ratio=%.2f>" % (
            self.name,
            len(self._pages),
            self.config.capacity_pages,
            self.hit_ratio,
        )

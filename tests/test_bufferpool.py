"""Buffer pool: LRU behaviour, miss path, Lazy LRU Update."""

import pytest

from repro.bufferpool.lru import LRUList
from repro.bufferpool.pool import BufferPool, BufferPoolConfig
from repro.core.annotations import TransactionContext, TransactionLog
from repro.core.tracing import Tracer
from repro.sim.disk import Disk, DiskConfig
from repro.sim.kernel import Timeout
from repro.sim.rand import Streams


class TestLRUList:
    def test_insert_old_keeps_first_insert_as_victim(self):
        lru = LRUList(10)
        lru.insert_old("a")
        lru.insert_old("b")
        assert "a" in lru and "b" in lru
        # The earliest unpromoted page is the replacement victim.
        assert lru.victim() == "a"

    def test_make_young_promotes(self):
        lru = LRUList(10)
        for page in "abcde":
            lru.insert_old(page)
        lru.make_young("a")
        assert "a" in lru.young_pages

    def test_victim_from_old_tail(self):
        lru = LRUList(10)
        for page in "abc":
            lru.insert_old(page)
        # "a" was inserted first so sits at the old tail.
        assert lru.victim() == "a"

    def test_old_ratio_maintained(self):
        lru = LRUList(16, old_ratio=3.0 / 8.0)
        for i in range(16):
            lru.insert_old(i)
        for i in range(16):
            lru.make_young(i)
        # After promotions, rebalancing keeps the old list near target.
        assert abs(len(lru.old_pages) - lru.old_target) <= 1

    def test_needs_make_young_for_old_pages(self):
        lru = LRUList(10)
        lru.insert_old("a")
        assert lru.needs_make_young("a")

    def test_fresh_young_page_not_repromoted(self):
        lru = LRUList(40)
        for i in range(20):
            lru.insert_old(i)
        for i in range(20):
            lru.make_young(i)
        # Page 19 was promoted last: it sits at the young head.
        assert not lru.needs_make_young(19)

    def test_stale_young_page_repromoted(self):
        lru = LRUList(40)
        for i in range(20):
            lru.insert_old(i)
        lru.make_young(0)
        for i in range(1, 20):
            lru.make_young(i)
        # 19 promotions since page 0's: it has sunk past the zone.
        assert lru.needs_make_young(0)

    def test_remove(self):
        lru = LRUList(4)
        lru.insert_old("a")
        lru.remove("a")
        assert "a" not in lru
        with pytest.raises(KeyError):
            lru.remove("a")

    def test_insert_beyond_capacity_raises(self):
        lru = LRUList(2)
        lru.insert_old("a")
        lru.insert_old("b")
        with pytest.raises(RuntimeError):
            lru.insert_old("c")

    def test_duplicate_insert_raises(self):
        lru = LRUList(4)
        lru.insert_old("a")
        with pytest.raises(KeyError):
            lru.insert_old("a")

    def test_unknown_page_queries_raise(self):
        lru = LRUList(4)
        with pytest.raises(KeyError):
            lru.make_young("ghost")
        with pytest.raises(KeyError):
            lru.needs_make_young("ghost")


def make_pool(sim, **config_kwargs):
    streams = Streams(5)
    disk = Disk(sim, streams.stream("disk"), DiskConfig.page_cache())
    log = TransactionLog()
    tracer = Tracer(sim, None, instrumented=set(), log=log)
    pool = BufferPool(sim, tracer, disk, BufferPoolConfig(**config_kwargs))
    return pool, disk


def run_fix(sim, pool, ctx, page_id, dirty=False, backlog=None):
    result = {}

    def proc():
        page = yield from pool.fix_page(ctx, page_id, dirty=dirty, backlog=backlog)
        result["page"] = page

    sim.spawn(proc())
    sim.run()
    return result["page"]


class TestBufferPool:
    def test_miss_then_hit(self, sim):
        pool, disk = make_pool(sim, capacity_pages=8)
        ctx = TransactionContext(sim, 1, "t")
        run_fix(sim, pool, ctx, "p1")
        assert pool.misses == 1
        assert disk.reads == 1
        run_fix(sim, pool, ctx, "p1")
        assert pool.hits == 1
        assert disk.reads == 1

    def test_eviction_when_full(self, sim):
        pool, disk = make_pool(sim, capacity_pages=4)
        ctx = TransactionContext(sim, 1, "t")
        for i in range(6):
            run_fix(sim, pool, ctx, "p%d" % i)
        assert pool.evictions == 2
        assert len(pool._pages) == 4

    def test_dirty_victim_written_back(self, sim):
        pool, disk = make_pool(sim, capacity_pages=2)
        ctx = TransactionContext(sim, 1, "t")
        run_fix(sim, pool, ctx, "dirty1", dirty=True)
        run_fix(sim, pool, ctx, "dirty2", dirty=True)
        writes_before = disk.writes
        run_fix(sim, pool, ctx, "p3")
        run_fix(sim, pool, ctx, "p4")
        assert disk.writes > writes_before
        assert pool.dirty_writebacks >= 1

    def test_prewarm_fills_to_capacity(self, sim):
        pool, _disk = make_pool(sim, capacity_pages=3)
        count = pool.prewarm(["a", "b", "c", "d", "e"])
        assert count == 3
        assert pool.contains("a") and not pool.contains("d")

    def test_prewarm_costs_no_time_or_io(self, sim):
        pool, disk = make_pool(sim, capacity_pages=8)
        pool.prewarm(["a", "b"])
        assert sim.now == 0.0
        assert disk.reads == 0

    def test_hit_ratio(self, sim):
        pool, _disk = make_pool(sim, capacity_pages=8)
        ctx = TransactionContext(sim, 1, "t")
        run_fix(sim, pool, ctx, "p")
        run_fix(sim, pool, ctx, "p")
        run_fix(sim, pool, ctx, "p")
        assert pool.hit_ratio == pytest.approx(2.0 / 3.0)

    def test_make_young_tracked(self, sim):
        pool, _disk = make_pool(sim, capacity_pages=8)
        ctx = TransactionContext(sim, 1, "t")
        run_fix(sim, pool, ctx, "p")  # miss: inserted at old head
        run_fix(sim, pool, ctx, "p")  # hit in old: promoted
        assert pool.make_youngs == 1


class TestLazyLRU:
    def test_llu_defers_on_contention(self, sim):
        pool, _disk = make_pool(
            sim, capacity_pages=8, lazy_lru=True, llu_spin_timeout=2.0
        )
        ctx = TransactionContext(sim, 1, "t")
        pool.prewarm(["p", "q"])
        backlog = []
        done = []

        def hog():
            yield from pool.mutex.acquire()
            yield Timeout(50.0)
            pool.mutex.release()

        def toucher():
            yield Timeout(1.0)
            yield from pool.fix_page(ctx, "p", backlog=backlog)
            done.append(sim.now)

        sim.spawn(hog())
        sim.spawn(toucher())
        sim.run()
        # The toucher gave up after the spin timeout instead of waiting 50.
        assert done[0] < 10.0
        assert pool.llu_deferrals == 1
        assert backlog == ["p"]

    def test_llu_applies_backlog_on_next_acquire(self, sim):
        pool, _disk = make_pool(
            sim, capacity_pages=8, lazy_lru=True, llu_spin_timeout=2.0
        )
        ctx = TransactionContext(sim, 1, "t")
        pool.prewarm(["p", "q"])
        # Touch a page that is in the old sublist (so make-young fires)
        # with another resident page in the deferred backlog.
        target = pool._lru.old_pages[0]
        other = "p" if target == "q" else "q"
        backlog = [other]

        def toucher():
            yield from pool.fix_page(ctx, target, backlog=backlog)

        sim.spawn(toucher())
        sim.run()
        assert backlog == []
        assert pool.llu_applied == 1

    def test_llu_skips_evicted_backlog_pages(self, sim):
        pool, _disk = make_pool(
            sim, capacity_pages=8, lazy_lru=True, llu_spin_timeout=2.0
        )
        ctx = TransactionContext(sim, 1, "t")
        pool.prewarm(["q"])
        backlog = ["gone"]  # page no longer resident

        def toucher():
            yield from pool.fix_page(ctx, "q", backlog=backlog)

        sim.spawn(toucher())
        sim.run()
        assert backlog == []
        assert pool.llu_applied == 0

    def test_eager_pool_never_defers(self, sim):
        pool, _disk = make_pool(sim, capacity_pages=8, lazy_lru=False)
        ctx = TransactionContext(sim, 1, "t")
        pool.prewarm(["p"])
        run_fix(sim, pool, ctx, "p")
        assert pool.llu_deferrals == 0


class TestEvictionRace:
    def test_hit_retries_as_miss_if_evicted_during_pause(self, sim):
        """A page evicted while the hitting process pauses must be
        re-read, not promoted as a ghost."""
        pool, disk = make_pool(sim, capacity_pages=2, hit_cost=50.0)
        ctx = TransactionContext(sim, 1, "t")
        pool.prewarm(["p", "q"])
        outcome = {}

        def hitter():
            page = yield from pool.fix_page(ctx, "p")
            outcome["page"] = page

        def evictor():
            # While the hitter pays its 5us hit cost, storm the pool so
            # "p" gets evicted.
            ctx2 = TransactionContext(sim, 2, "t")
            yield Timeout(1.0)
            yield from pool.fix_page(ctx2, "r1")
            yield from pool.fix_page(ctx2, "r2")

        sim.spawn(hitter())
        sim.spawn(evictor())
        sim.run()
        # The hitter still got a page object for "p" — via a re-read,
        # not a stale promotion of the evicted frame.
        assert outcome["page"].page_id == "p"
        assert pool.misses >= 3  # r1, r2, and the retried "p"


class TestInsertOldMany:
    """``insert_old_many`` must equal a loop of ``insert_old`` calls.

    From empty it takes a closed form; on a non-empty list it is that
    loop.
    """

    @staticmethod
    def _state(lru):
        return (list(lru._young), list(lru._old), dict(lru._stamp), lru._clock)

    @pytest.mark.parametrize("n", [1, 2, 5, 37, 100, 511, 513, 2000])
    def test_from_empty_matches_insert_old_loop(self, n):
        pages = ["p%d" % i for i in range(n)]
        for old_ratio in (0.125, 3.0 / 8.0, 0.5, 0.9):
            bulk = LRUList(capacity=4096, old_ratio=old_ratio)
            loop = LRUList(capacity=4096, old_ratio=old_ratio)
            bulk.insert_old_many(pages)
            for page in pages:
                loop.insert_old(page)
            assert self._state(bulk) == self._state(loop), old_ratio

    def test_non_empty_fallback_matches_loop(self):
        bulk = LRUList(capacity=4096)
        loop = LRUList(capacity=4096)
        for lru in (bulk, loop):
            lru.insert_old("seed-1")
            lru.insert_old("seed-2")
            lru.make_young("seed-1")
        pages = ["p%d" % i for i in range(700)]
        bulk.insert_old_many(pages)
        for page in pages:
            loop.insert_old(page)
        assert self._state(bulk) == self._state(loop)

    def test_duplicate_page_raises_keyerror(self):
        lru = LRUList(capacity=4096)
        with pytest.raises(KeyError):
            lru.insert_old_many(["a", "b", "a"])

    def test_duplicate_against_vector_guard(self):
        # A duplicate after 600 pages raises the KeyError insert_old does.
        pages = ["p%d" % i for i in range(600)] + ["p0"]
        lru = LRUList(capacity=4096)
        with pytest.raises(KeyError):
            lru.insert_old_many(pages)

    def test_over_capacity_raises(self):
        lru = LRUList(capacity=16)
        with pytest.raises(RuntimeError):
            lru.insert_old_many(["p%d" % i for i in range(17)])

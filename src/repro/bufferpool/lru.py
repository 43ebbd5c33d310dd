"""The split (young/old) LRU list.

MySQL does not keep a strict LRU: the list is split into a *young* and an
*old* sublist, with the old sublist holding (by default) 3/8 of the pages.
Newly read pages enter at the head of the old sublist; a subsequent access
to an old page promotes it to the head of the young list (make-young);
replacement victims are taken from the old tail.  Within the young list,
pages near the head are not re-ordered on access (to limit mutex traffic),
only pages deeper than ``young_reorder_depth`` fraction are moved.

This module is pure data structure — all virtual-time costs and the mutex
live in :mod:`repro.bufferpool.pool`.
"""

from collections import OrderedDict


class LRUList:
    """Young/old split LRU over opaque page ids."""

    def __init__(self, capacity, old_ratio=3.0 / 8.0, young_reorder_depth=0.25):
        if capacity < 2:
            raise ValueError("LRU capacity must be >= 2")
        if not 0.0 < old_ratio < 1.0:
            raise ValueError("old_ratio must be in (0, 1)")
        self.capacity = capacity
        self.old_ratio = old_ratio
        self.young_reorder_depth = young_reorder_depth
        # First item = head (most recently used end) of each sublist.
        self._young = OrderedDict()
        self._old = OrderedDict()
        # Promotion clock (InnoDB's freed_page_clock heuristic): each
        # promotion ticks the clock; a young page is re-promoted only when
        # enough promotions have happened since its last one that it has
        # sunk past the no-reorder zone.  O(1) instead of a list scan.
        self._clock = 0
        self._stamp = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self):
        return len(self._young) + len(self._old)

    def __contains__(self, page_id):
        return page_id in self._young or page_id in self._old

    @property
    def old_target(self):
        """Desired old-sublist size for the current population."""
        return int(len(self) * self.old_ratio)

    @property
    def young_pages(self):
        return list(self._young)

    @property
    def old_pages(self):
        return list(self._old)

    # ------------------------------------------------------------------
    # Mutations (call under the pool mutex)
    # ------------------------------------------------------------------

    def insert_old(self, page_id):
        """A newly read page enters at the head of the old sublist."""
        young = self._young
        old = self._old
        if page_id in young or page_id in old:
            raise KeyError("page %r already in LRU" % (page_id,))
        if len(young) + len(old) >= self.capacity:
            raise RuntimeError("LRU full; evict first")
        old[page_id] = True
        old.move_to_end(page_id, last=False)
        self._stamp[page_id] = self._clock
        self._rebalance()

    def insert_old_many(self, page_ids):
        """Insert many new pages, exactly as ``insert_old`` one by one.

        The bulk prewarm path: from empty (the only way prewarm calls
        it) one closed-form pass replaces tens of thousands of calls.
        Final list state is identical to the loop of ``insert_old``
        calls (the equivalence goldens pin this).
        """
        if self._young or self._old or self._clock:
            for page_id in page_ids:
                self.insert_old(page_id)
            return
        # From empty, the rebalance after each insert reduces to at most
        # one promotion of the just-inserted old head: the old sublist
        # only ever *exceeds* its target (n_old >= target is an
        # invariant from empty, so the demote loop is dead), and a
        # single promotion restores n_old <= target + 1.  Hence the
        # final young order is the promotion (= insertion) order of the
        # promoted pages, and the final old order is the other pages
        # newest-first.
        young = self._young
        stamp = self._stamp
        clock = self._clock
        old_ratio = self.old_ratio
        capacity = self.capacity
        stayers = []
        n_old = 0
        i = 0
        for page_id in page_ids:
            if page_id in stamp:
                raise KeyError("page %r already in LRU" % (page_id,))
            if i >= capacity:
                raise RuntimeError("LRU full; evict first")
            i += 1
            n_old += 1
            if n_old > int(i * old_ratio) + 1:
                young[page_id] = True
                n_old -= 1
            else:
                stayers.append(page_id)
            stamp[page_id] = clock
        old = self._old
        for page_id in reversed(stayers):
            old[page_id] = True

    def make_young(self, page_id):
        """Promote a page to the head of the young sublist."""
        young = self._young
        old = self._old
        if page_id in old:
            del old[page_id]
        elif page_id in young:
            del young[page_id]
        else:
            raise KeyError("page %r not in LRU" % (page_id,))
        young[page_id] = True
        young.move_to_end(page_id, last=False)
        self._clock += 1
        self._stamp[page_id] = self._clock
        self._rebalance()

    def needs_make_young(self, page_id):
        """Should an access to this page take the mutex and promote it?

        True for pages in the old sublist, and for young pages that have
        sunk past ``young_reorder_depth`` of the young list since their
        last promotion (pages near the young head are left alone —
        MySQL's re-ordering-avoidance / freed_page_clock heuristic).
        """
        if page_id in self._old:
            return True
        young = self._young
        if page_id not in young:
            raise KeyError("page %r not in LRU" % (page_id,))
        return (self._clock - self._stamp.get(page_id, 0)) > (
            self.young_reorder_depth * len(young)
        )

    def victim(self):
        """The replacement victim: tail of the old sublist."""
        if self._old:
            return next(reversed(self._old))
        if self._young:
            return next(reversed(self._young))
        return None

    def remove(self, page_id):
        if page_id in self._old:
            del self._old[page_id]
        elif page_id in self._young:
            del self._young[page_id]
        else:
            raise KeyError("page %r not in LRU" % (page_id,))
        self._stamp.pop(page_id, None)
        self._rebalance()

    def _rebalance(self):
        """Keep the old sublist at its target share by demoting young tails."""
        young = self._young
        old = self._old
        n_young = len(young)
        n_old = len(old)
        target = int((n_young + n_old) * self.old_ratio)
        while n_old < target and n_young > 0:
            tail = next(reversed(young))
            del young[tail]
            old[tail] = True
            old.move_to_end(tail, last=False)
            n_old += 1
            n_young -= 1
        while n_old > target + 1:
            head = next(iter(old))
            del old[head]
            # Promoted boundary pages join the young *tail* (the lists
            # are disjoint, so plain insertion appends at the end).
            young[head] = True
            n_old -= 1

    def __repr__(self):
        return "<LRUList young=%d old=%d cap=%d>" % (
            len(self._young),
            len(self._old),
            self.capacity,
        )

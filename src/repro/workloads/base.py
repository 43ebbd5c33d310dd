"""Workload building blocks: operations, transaction specs, mixes.

An :class:`Operation` is one statement's worth of work as the engines see
it:

- ``select`` with ``lock=None`` — an MVCC consistent read (no record
  lock; InnoDB's plain SELECT);
- ``select`` with ``lock="X"``/``"S"`` — a locking read (SELECT ... FOR
  UPDATE / LOCK IN SHARE MODE); lock waits here are the paper's
  ``os_event_wait [A]`` call site;
- ``update`` — an X record lock (call site [B]) plus a dirty page write
  and redo bytes;
- ``insert`` — an X lock on a fresh key, the variable-path clustered
  index insert, and redo bytes.

A :class:`TxnSpec` is the ordered operation list of one transaction plus
its type name.  A :class:`Workload` owns the schema (``{table: rows}``)
and the weighted transaction mix, and mints specs from a seeded RNG.

Operations optionally carry a ``home`` — the partition-key value (a
TPC-C warehouse id) the row lives under.  Single-node runs ignore it;
the cluster router (:mod:`repro.cluster.router`) uses it to split a
spec into per-shard branches.  ``home=None`` marks rows on replicated
read-mostly tables (TPC-C's ``item``) that any shard can serve.
"""

import itertools


class Operation:
    """One statement: kind, table, key, and the lock it takes (if any)."""

    __slots__ = ("kind", "table", "key", "lock", "home")

    KINDS = ("select", "update", "insert")

    def __init__(self, kind, table, key, lock=None, home=None):
        if kind not in self.KINDS:
            raise ValueError("unknown operation kind %r" % (kind,))
        if kind == "update" and lock is None:
            lock = "X"
        if kind == "insert" and lock is None:
            lock = "X"
        if lock not in (None, "S", "X"):
            raise ValueError("unknown lock mode %r" % (lock,))
        self.kind = kind
        self.table = table
        self.key = key
        self.lock = lock
        self.home = home

    def __repr__(self):
        lock = "" if self.lock is None else " lock=%s" % self.lock
        home = "" if self.home is None else " home=%s" % self.home
        return "<%s %s[%s]%s%s>" % (self.kind, self.table, self.key, lock, home)


_new_object = object.__new__


def trusted_op(kind, table, key, lock, home):
    """An :class:`Operation` built without re-validating its shape.

    For spec makers only, which mint tens of operations per transaction:
    arguments are positional and ``lock`` is already resolved (``"X"``
    for every update and insert).  Callers pass literal statement shapes
    — the kind and lock written out in the source — so the checks
    ``Operation.__init__`` repeats per op hold by construction, and
    ``tests/test_workloads.py`` rebuilds every minted op through the
    validating constructor to prove it.
    """
    op = _new_object(Operation)
    op.kind = kind
    op.table = table
    op.key = key
    op.lock = lock
    op.home = home
    return op


class TxnSpec:
    """One transaction to execute: its type and ordered operations."""

    __slots__ = ("txn_type", "ops")

    def __init__(self, txn_type, ops):
        self.txn_type = txn_type
        self.ops = ops

    def __len__(self):
        return len(self.ops)

    def __repr__(self):
        return "TxnSpec(%s, %d ops)" % (self.txn_type, len(self.ops))


class Workload:
    """Base class: schema + weighted mix + per-type spec makers.

    Subclasses set ``name``, ``schema`` and ``mix`` — a list of
    ``(txn_type, weight, maker)`` where ``maker(rng)`` returns the
    operation list — in ``__init__`` and get transaction minting and
    insert-key allocation for free.
    """

    name = "abstract"

    def __init__(self):
        self.schema = {}
        self.mix = []
        self._insert_counters = {}
        self._cumulative = None

    def finalize(self):
        """Precompute the mix CDF; call at the end of subclass __init__."""
        total = float(sum(weight for _, weight, _ in self.mix))
        acc = 0.0
        self._cumulative = []
        for txn_type, weight, maker in self.mix:
            acc += weight / total
            self._cumulative.append((acc, txn_type, maker))

    def make_txn(self, rng):
        """Mint one :class:`TxnSpec` according to the mix."""
        if self._cumulative is None:
            raise RuntimeError("%s.finalize() was never called" % (self.name,))
        draw = rng.random()
        for acc, txn_type, maker in self._cumulative:
            if draw <= acc:
                return TxnSpec(txn_type, maker(rng))
        _acc, txn_type, maker = self._cumulative[-1]
        return TxnSpec(txn_type, maker(rng))

    def fresh_key(self, table):
        """A never-before-used key for an insert into ``table``."""
        counter = self._insert_counters.get(table)
        if counter is None:
            counter = itertools.count(self.schema.get(table, 0))
            self._insert_counters[table] = counter
        return next(counter)

    @property
    def txn_types(self):
        return [txn_type for txn_type, _weight, _maker in self.mix]

    def __repr__(self):
        return "<Workload %s tables=%d types=%d>" % (
            self.name,
            len(self.schema),
            len(self.mix),
        )

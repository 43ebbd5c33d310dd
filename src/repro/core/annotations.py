"""Transaction demarcation — TProfiler's only manual annotation.

The paper (Section 3.1) requires the programmer to mark where a
transaction begins and ends.  In the simulated engines this is the
:class:`TransactionContext` handed to the engine by the workload driver:

- MySQL / Postgres (one worker per connection): ``begin()`` at dispatch,
  ``end()`` at commit — one contiguous interval.
- VoltDB (task-concurrent): workers call ``begin_interval()`` /
  ``end_interval()`` around each execution interval they run on behalf of
  the transaction; the transaction spans the first interval's start to the
  last interval's end, exactly the concatenation rule of Section 3.1.

The context also carries everything the rest of the system hangs off a
transaction: its birth time (VATS schedules by age = now - birth, kept
across restarts), retry count, and the tracing state the
:class:`~repro.core.tracing.Tracer` fills in.
"""


class TxnTrace:
    """An immutable record of one finished transaction.

    ``durations`` maps factor key ``(function_name, site_label)`` to the
    total virtual time spent in that factor during the transaction;
    ``under`` maps an instrumented parent's key to the per-child totals
    observed while that parent was the innermost instrumented frame —
    the raw material of the variance tree.
    """

    __slots__ = (
        "txn_id",
        "txn_type",
        "birth",
        "start",
        "end",
        "attempts",
        "durations",
        "under",
        "committed",
    )

    def __init__(
        self, txn_id, txn_type, birth, start, end, attempts, durations, under, committed
    ):
        self.txn_id = txn_id
        self.txn_type = txn_type
        self.birth = birth
        self.start = start
        self.end = end
        self.attempts = attempts
        self.durations = durations
        self.under = under
        self.committed = committed

    @property
    def latency(self):
        """User-perceived latency: birth (submission) to completion."""
        return self.end - self.birth

    def __repr__(self):
        return "TxnTrace(%s, %s, latency=%.1f)" % (
            self.txn_id,
            self.txn_type,
            self.latency,
        )


class _Frame:
    """One active instrumented invocation on a context's frame stack."""

    __slots__ = ("key", "start", "parent")

    def __init__(self, key, start, parent):
        self.key = key
        self.start = start
        self.parent = parent


class TransactionContext:
    """The live state of a transaction inside an engine."""

    __slots__ = (
        "sim",
        "txn_id",
        "txn_type",
        "birth",
        "start_time",
        "end_time",
        "attempts",
        "abort_reason",
        "durations",
        "under",
        "stack",
        "intervals",
        "_interval_start",
        "payload",
    )

    def __init__(self, sim, txn_id, txn_type, birth=None):
        self.sim = sim
        self.txn_id = txn_id
        self.txn_type = txn_type
        self.birth = sim.now if birth is None else birth
        self.start_time = None
        self.end_time = None
        self.attempts = 0
        # Why the most recent attempt aborted ("deadlock", "timeout",
        # "shed", "deadline"); None while no abort has happened.  The
        # engines' per-reason abort/failure accounting keys off this.
        self.abort_reason = None
        self.durations = {}
        self.under = {}
        self.stack = []
        self.intervals = []
        self._interval_start = None
        # Free-form slot for engine- or workload-specific baggage
        # (e.g. the operation list, or a VoltDB task payload).
        self.payload = None

    @property
    def age(self):
        """Time since birth — the quantity VATS schedules by."""
        return self.sim.now - self.birth

    def begin(self):
        """Mark transaction (attempt) start; the birth time is kept."""
        self.attempts += 1
        if self.start_time is None:
            self.start_time = self.sim.now

    def end(self):
        """Mark transaction completion."""
        if self.start_time is None:
            raise RuntimeError("end() before begin() on %r" % (self.txn_id,))
        if self.stack:
            raise RuntimeError(
                "transaction %r ended with open traced frames: %r"
                % (self.txn_id, [f.key for f in self.stack])
            )
        self.end_time = self.sim.now

    # -- VoltDB-style interval concatenation ---------------------------

    def begin_interval(self):
        """A worker starts executing on behalf of this transaction."""
        if self._interval_start is not None:
            raise RuntimeError("nested begin_interval on %r" % (self.txn_id,))
        self._interval_start = self.sim.now
        if self.start_time is None:
            self.start_time = self.sim.now
            self.attempts += 1

    def end_interval(self):
        """The worker stops; the transaction may resume on another worker."""
        if self._interval_start is None:
            raise RuntimeError("end_interval without begin_interval")
        self.intervals.append((self._interval_start, self.sim.now))
        self._interval_start = None
        self.end_time = self.sim.now

    @property
    def busy_time(self):
        """Total time inside execution intervals (VoltDB engines)."""
        return sum(end - start for start, end in self.intervals)

    def finish(self, committed=True):
        """Freeze into a :class:`TxnTrace`."""
        end = self.end_time if self.end_time is not None else self.sim.now
        start = self.start_time if self.start_time is not None else self.birth
        return TxnTrace(
            txn_id=self.txn_id,
            txn_type=self.txn_type,
            birth=self.birth,
            start=start,
            end=end,
            attempts=self.attempts,
            durations=self.durations,
            under=self.under,
            committed=committed,
        )

    def __repr__(self):
        return "<TransactionContext %s type=%s age=%.1f>" % (
            self.txn_id,
            self.txn_type,
            self.age,
        )


class TransactionLog:
    """Collector of finished transaction traces for one run."""

    def __init__(self):
        self.traces = []

    def record(self, ctx, committed=True):
        self.traces.append(ctx.finish(committed))

    def __len__(self):
        return len(self.traces)

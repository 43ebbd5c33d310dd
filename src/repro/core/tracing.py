"""Selective instrumentation of simulated engine functions.

A probed function is a *frame* on the transaction's stack: entry and
exit timestamps on the virtual clock are recorded into the
transaction's trace, and each probe charges ``probe_cost`` of virtual
time.  TProfiler's source-level probes cost a few tens of nanoseconds;
the DTrace baseline (binary rewriting, trap into the tracing framework)
costs microseconds per probe — the difference behind Figure 5 (left).
Only functions in the instrumented set are timed; any other call is
invisible and costs nothing — the paper's key mechanism for keeping the
latency profile representative (Section 3): only a carefully selected
subset of the call graph is timed per run.

Frames open two ways, with one push and one pop between them:

- Engines open *spans* inside their one statement body, as a
  source-level probe sits at function entry and exit.  The body tests
  once per call which names are probed, and around each probed
  function writes::

      tracer.enter(ctx, "ExecutorRun")
      if cost:
          yield cost
      ...                       # the function's work
      if cost:
          yield cost
      tracer.exit(ctx)

  Every resume of the body stays one generator frame deep however many
  spans are open.
- Subsystem helpers (the WAL's flush, the buffer pool, lock waits)
  wrap a sub-generator with :meth:`Tracer.traced`::

      def fil_flush(self, ctx):
          yield from self.tracer.traced(ctx, "fil_flush", self._do_flush(ctx))

  which delegates with zero overhead when the name is not instrumented.
  MySQL's statement chain still traces this way until it is folded
  into one body with spans.

Factor identity: a factor is ``(function_name, site_label)``.  The site
label defaults to the name of the innermost *instrumented* caller, so the
same function invoked from two contexts (the paper's os_event_wait [A] vs
[B]) shows up as two factors; ``traced`` takes an explicit ``site=`` for
finer splits (e.g. the select vs update call sites inside
lock_wait_suspend_thread).

Subsystem frames (the cluster's, replication's and recovery's waits)
join through :meth:`Tracer.instrument_subsystem` and never set
:attr:`Tracer.engine_probed`, so a run that probes only them opens no
engine span.
"""

from repro.core.annotations import _Frame


class Tracer:
    """Records per-transaction time attribution for an instrumented subset."""

    def __init__(self, sim, callgraph, instrumented=(), probe_cost=0.0, log=None):
        self.sim = sim
        self.callgraph = callgraph
        self.instrumented = set()
        #: True once a function of ``callgraph`` is instrumented (with no
        #: graph, once any probe is).  Engines read it once per attempt:
        #: while it is False their statement bodies open no span (MySQL
        #: runs its flat loop); only the mutators below change it.
        self.engine_probed = False
        # Kept a float so probes can use the kernel's bare-float yield.
        self.probe_cost = float(probe_cost)
        self.log = log
        self.probe_firings = 0
        # Exited frames are recycled through this freelist instead of
        # allocated per probed call — instrumented runs make one frame
        # per probe invocation, which is pure garbage the moment the
        # frame exits.  Frames abandoned mid-flight (crash paths clear
        # ``ctx.stack`` wholesale) simply escape the pool; correctness
        # never depends on recycling.
        self._frame_pool = []
        self.instrument(instrumented)

    # ------------------------------------------------------------------
    # Transaction demarcation passthrough
    # ------------------------------------------------------------------

    def begin_transaction(self, ctx):
        ctx.begin()

    def end_transaction(self, ctx, committed=True):
        ctx.end()
        if self.log is not None:
            self.log.record(ctx, committed)

    # ------------------------------------------------------------------
    # Function tracing
    # ------------------------------------------------------------------

    def traced(self, ctx, name, subgen, site=None):
        """Run ``subgen`` as the body of function ``name``.

        For subsystem helpers (and MySQL's statement chain); a statement
        body opens spans with :meth:`enter` and :meth:`exit` instead.
        Delegates with zero overhead when ``name`` is not instrumented:
        the sub-generator itself is returned for the caller to ``yield
        from`` directly, so an uninstrumented call adds no generator
        frame at all.  Otherwise an instrumenting wrapper charges the
        probe cost at entry and exit and records the invocation's
        duration into ``ctx`` under the factor key; every resume of
        ``subgen`` then passes through the wrapper.
        """
        if ctx is None or name not in self.instrumented:
            return subgen
        return self._traced(ctx, name, subgen, site)

    def _traced(self, ctx, name, subgen, site):
        frame = self.enter(ctx, name, site)
        if self.probe_cost:
            yield self.probe_cost
        try:
            result = yield from subgen
        except BaseException:
            # Exit only while this frame is innermost.  A node crash
            # empties the stack of every abandoned transaction and 2PC
            # branch (``Engine._crash_txn``, ``Engine._crash_item``), so
            # when its dead worker is finalised this frame is already
            # gone: nothing to exit.
            if ctx.stack and ctx.stack[-1] is frame:
                self.exit(ctx)
            raise
        if self.probe_cost:
            yield self.probe_cost
        self.exit(ctx)
        return result

    def enter(self, ctx, name, site=None):
        """Open a frame for function ``name``; return it (a plain call).

        The caller has checked that ``name`` is instrumented, and yields
        ``probe_cost`` right after this call when it is nonzero: the
        frame starts when that entry probe ends (the kernel wakes a
        process at ``now + delay``, the sum taken here).  The parent is
        the innermost open frame, and ``site`` defaults to its name.
        """
        cost = self.probe_cost
        if cost:
            self.probe_firings += 1
        stack = ctx.stack
        parent = stack[-1] if stack else None
        if site is None:
            site = parent.key[0] if parent is not None else "<root>"
        key = (name, site)
        start = self.sim.now + cost
        pool = self._frame_pool
        if pool:
            frame = pool.pop()
            frame.key = key
            frame.start = start
            frame.parent = parent
        else:
            frame = _Frame(key, start, parent)
        stack.append(frame)
        return frame

    def exit(self, ctx):
        """Close the innermost frame and record its duration.

        The caller yields the exit probe first, so a node crash during
        that probe abandons the caller before this call and the frame
        stays unrecorded.  The duration is added to ``ctx.durations``
        and under the parent's key in ``ctx.under``.
        """
        if self.probe_cost:
            self.probe_firings += 1
        stack = ctx.stack
        if not stack:
            raise RuntimeError("exit with no open frame in txn %r" % (ctx.txn_id,))
        frame = stack.pop()
        duration = self.sim.now - frame.start
        key = frame.key
        ctx.durations[key] = ctx.durations.get(key, 0.0) + duration
        parent = frame.parent
        if parent is not None:
            per_child = ctx.under.setdefault(parent.key, {})
            per_child[key] = per_child.get(key, 0.0) + duration
        # Recycle: a frame's children have all exited before it, so
        # nothing can still read its fields.  Drop the parent link to
        # keep the pool from pinning frame chains.
        frame.parent = None
        self._frame_pool.append(frame)

    def record(self, ctx, name, duration, site="<root>", parent=None):
        """Record a measured duration for ``name`` without a live frame.

        Used by task-concurrent engines (VoltDB) where the time on behalf
        of a transaction is not spent inside one process's call stack —
        e.g. the queue-wait interval between submission and pickup.
        ``parent`` optionally attributes the time under an instrumented
        parent factor key for variance-tree decomposition.
        """
        if ctx is None or name not in self.instrumented:
            return
        key = (name, site)
        ctx.durations[key] = ctx.durations.get(key, 0.0) + duration
        if parent is not None and parent[0] in self.instrumented:
            per_child = ctx.under.setdefault(parent, {})
            per_child[key] = per_child.get(key, 0.0) + duration

    # ------------------------------------------------------------------
    # Instrumentation control (the iterative-refinement knob)
    # ------------------------------------------------------------------

    def instrument(self, names):
        """Add functions to the instrumented set (validated against the graph)."""
        for name in names:
            if self.callgraph is not None and name not in self.callgraph:
                raise KeyError("unknown function %r" % (name,))
            self.instrumented.add(name)
            self.engine_probed = True

    def instrument_subsystem(self, names):
        """Add subsystem frames, which never count as engine probes.

        The cluster, replication and recovery layers record their waits
        (``DIST_FRAMES``, ``REPLICATION_FRAMES``, ``RECOVERY_FRAMES``)
        through :meth:`record` from the coordinator, the commit barrier
        and ``Engine.recover`` — never inside an engine's statement body
        — so engines open no span and MySQL keeps its flat statement
        loop.  A name in the engine's call graph would break that, and
        is refused.
        """
        for name in names:
            if self.callgraph is not None and name in self.callgraph:
                raise ValueError(
                    "%r is an engine function, not a subsystem frame" % (name,)
                )
            self.instrumented.add(name)

    def clear(self):
        self.instrumented.clear()
        self.engine_probed = False

    def __repr__(self):
        return "<Tracer instrumented=%d probe_cost=%r>" % (
            len(self.instrumented),
            self.probe_cost,
        )

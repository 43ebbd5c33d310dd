"""Selective instrumentation of simulated engine functions.

Engines route every "named function" through :meth:`Tracer.traced`::

    def fil_flush(self, ctx):
        yield from self.tracer.traced(ctx, "fil_flush", self._do_flush(ctx))

When ``"fil_flush"`` is not in the instrumented set the call is delegated
with zero overhead and nothing is recorded — this is the paper's key
mechanism for keeping the latency profile representative (Section 3):
only a carefully selected subset of the call graph is timed per run.

When instrumented, entry and exit timestamps on the virtual clock are
recorded into the transaction's trace, and each probe charges
``probe_cost`` of virtual time.  TProfiler's source-level probes cost a
few tens of nanoseconds; the DTrace baseline (binary rewriting, trap into
the tracing framework) costs microseconds per probe — the difference
behind Figure 5 (left).

Factor identity: a factor is ``(function_name, site_label)``.  The site
label defaults to the name of the innermost *instrumented* caller, so the
same function invoked from two contexts (the paper's os_event_wait [A] vs
[B]) shows up as two factors; engines can pass an explicit ``site=`` for
finer splits (e.g. the select vs update call sites inside
lock_wait_suspend_thread).

Subsystem frames (the cluster's, replication's and recovery's waits)
join through :meth:`Tracer.instrument_subsystem` and never set
:attr:`Tracer.engine_probed`, the flag engines gate their flat statement
loops on.
"""

from repro.core.annotations import _Frame


class Tracer:
    """Records per-transaction time attribution for an instrumented subset."""

    def __init__(self, sim, callgraph, instrumented=(), probe_cost=0.0, log=None):
        self.sim = sim
        self.callgraph = callgraph
        self.instrumented = set()
        #: True once a function of ``callgraph`` is instrumented (with no
        #: graph, once any probe is).  Engines read it per attempt and run
        #: their flat statement loop while it is False; only the mutators
        #: below change it.
        self.engine_probed = False
        # Kept a float so probes can use the kernel's bare-float yield.
        self.probe_cost = float(probe_cost)
        self.log = log
        self.probe_firings = 0
        # Exited frames are recycled through this freelist instead of
        # allocated per traced call — instrumented runs make one frame
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

        Delegates with zero overhead when ``name`` is not instrumented:
        the sub-generator itself is returned for the caller to ``yield
        from`` directly, so an uninstrumented call adds no generator
        frame at all (engines make millions of these calls per run —
        wrapping each in a pass-through ``yield from`` generator used to
        double the delegation depth of every hot path).  Otherwise an
        instrumenting wrapper records the invocation's duration into
        ``ctx`` under the factor key and charges the probe cost at entry
        and exit.
        """
        if ctx is None or name not in self.instrumented:
            return subgen
        return self._traced(ctx, name, subgen, site)

    def _traced(self, ctx, name, subgen, site):
        parent = ctx.stack[-1] if ctx.stack else None
        if site is None:
            site = parent.key[0] if parent is not None else "<root>"
        key = (name, site)

        if self.probe_cost:
            self.probe_firings += 1
            yield self.probe_cost
        pool = self._frame_pool
        if pool:
            frame = pool.pop()
            frame.key = key
            frame.start = self.sim.now
            frame.parent = parent
        else:
            frame = _Frame(key, self.sim.now, parent)
        ctx.stack.append(frame)
        try:
            result = yield from subgen
        except BaseException:
            # A node crash empties an abandoned transaction's stack
            # (``Engine._crash_txn``), so when its dead worker is
            # finalised this frame is already gone: nothing to exit.
            if ctx.stack and ctx.stack[-1] is frame:
                self._exit_frame(ctx, frame)
            raise
        if self.probe_cost:
            self.probe_firings += 1
            yield self.probe_cost
        self._exit_frame(ctx, frame)
        return result

    def _exit_frame(self, ctx, frame):
        if not ctx.stack or ctx.stack[-1] is not frame:
            raise RuntimeError(
                "traced frames exited out of order in txn %r" % (ctx.txn_id,)
            )
        ctx.stack.pop()
        duration = self.sim.now - frame.start
        key = frame.key
        ctx.durations[key] = ctx.durations.get(key, 0.0) + duration
        parent = frame.parent
        if parent is not None:
            per_child = ctx.under.setdefault(parent.key, {})
            per_child[key] = per_child.get(key, 0.0) + duration
        # Recycle: children always exit before their parent (enforced
        # above), so nothing can still read this frame's fields.  Drop
        # the parent link to keep the pool from pinning frame chains.
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
        and ``Engine.recover`` — never inside an engine's statement chain
        — so engines keep their flat statement loops.  A name in the
        engine's call graph would break that, and is refused.
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

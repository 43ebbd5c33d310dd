"""The metrics registry: counters, gauges, quantile histograms, events.

Design constraints, in order:

1. **Zero virtual time.**  Instruments only mutate Python state — no
   emitter ever yields a kernel command, so enabling telemetry cannot
   perturb a simulation's results (the Figure 5 overhead study must be
   bit-identical with telemetry on or off).
2. **Near-zero wall time when disabled.**  Hot paths hold instrument
   objects obtained once at construction; the disabled registry hands
   out shared null instruments whose methods are empty, and exposes
   ``enabled`` so the hottest loops (the kernel dispatch loop) can skip
   even the no-op call.  The hottest counts need no instrument at all:
   they stay plain attributes that :meth:`MetricsRegistry.counter_from`
   reads at snapshot time.
3. **Determinism.**  Metric values are stamped with the virtual clock
   and derive only from simulation state, so same-seed runs produce
   byte-identical snapshots and event logs.

Usage::

    registry = MetricsRegistry()
    sim = Simulator(telemetry=registry)
    registry.bind_clock(sim)
    ...
    registry.counter("lockmgr.deadlocks").inc()
    registry.counter_from("lockmgr.requests", lambda: lockmgr.total_requests)
    registry.histogram("disk.data.service_time").observe(125.0)
    registry.event("deadlock", txn=42, obj="stock:17")
    report = registry.snapshot()
"""

from repro.telemetry.events import EventLog
from repro.telemetry.sketch import GKSketch


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def inc(self, n=1):
        self.value += n

    def __repr__(self):
        return "Counter(%s=%r)" % (self.name, self.value)


class Gauge:
    """A point-in-time level; the high-water mark is kept alongside."""

    __slots__ = ("name", "value", "max")

    def __init__(self, name):
        self.name = name
        self.value = 0
        self.max = 0

    def set(self, value):
        self.value = value
        if value > self.max:
            self.max = value

    def __repr__(self):
        return "Gauge(%s=%r, max=%r)" % (self.name, self.value, self.max)


class Histogram:
    """Moments plus a streaming quantile sketch over parked values.

    ``observe`` is the registry's hottest method, so it only updates the
    cheap moments inline and parks the value in a flat pending list; the
    batch folds into the GK sketch — in arrival order, so sketch state
    is identical to eager per-value folding — when a quantile is asked
    for or the registry flushes, which every snapshot does first.
    Nothing else flushes, so every value since the last flush is
    retained: a run snapshotted only at its end keeps all of them
    (122,235 floats in one ``mysql-2wh-failover`` benchmark pass at
    seed 7), and the folding stays out of the simulation loop.
    Anything reaching into ``_sketch`` directly must call :meth:`flush`
    first.
    """

    __slots__ = ("name", "count", "sum", "min", "max", "_sketch", "_pending")

    def __init__(self, name, epsilon=0.01):
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None
        self._sketch = GKSketch(epsilon)
        self._pending = []

    def observe(self, value):
        value = float(value)
        if value != value:
            raise ValueError("cannot observe NaN")
        self._pending.append(value)
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def flush(self):
        """Fold pending observations into the sketch (arrival order)."""
        if self._pending:
            self._sketch.observe_many(self._pending)
            del self._pending[:]

    @property
    def mean(self):
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q):
        self.flush()
        return self._sketch.quantile(q)

    def snapshot(self):
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def __repr__(self):
        return "Histogram(%s, count=%d, mean=%.2f)" % (
            self.name,
            self.count,
            self.mean,
        )


class _NullCounter:
    __slots__ = ()

    def inc(self, n=1):
        pass


class _NullGauge:
    __slots__ = ()
    value = 0
    max = 0

    def set(self, value):
        pass


class _NullHistogram:
    __slots__ = ()
    count = 0
    sum = 0.0
    mean = 0.0
    min = None
    max = None

    def observe(self, value):
        pass

    def flush(self):
        pass

    def quantile(self, q):
        raise ValueError("quantile of disabled histogram")

    def snapshot(self):
        return {"count": 0}


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """Named instruments plus the structured event log for one run."""

    enabled = True

    def __init__(self, clock=None, event_capacity=65536, sketch_epsilon=0.01):
        self._clock = clock
        self.sketch_epsilon = sketch_epsilon
        self._counters = {}
        self._gauges = {}
        self._histograms = {}
        self._readers = {}
        self.events = EventLog(capacity=event_capacity)

    # ------------------------------------------------------------------
    # Clock binding
    # ------------------------------------------------------------------

    def bind_clock(self, clock):
        """Bind the virtual clock: a callable or anything with ``.now``."""
        if callable(clock):
            self._clock = clock
        else:
            self._clock = lambda: clock.now

    def now(self):
        return self._clock() if self._clock is not None else 0.0

    # ------------------------------------------------------------------
    # Instruments (get-or-create by name)
    # ------------------------------------------------------------------

    def counter(self, name):
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name):
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name, epsilon=None):
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(
                name, epsilon if epsilon is not None else self.sketch_epsilon
            )
        return instrument

    def counter_from(self, name, read):
        """Count ``name`` as ``read()``, called at every snapshot.

        Hot call sites keep their count in a plain attribute and register
        a reader for it instead of paying a ``Counter.inc`` per event.
        Readers of one name, and a :meth:`counter` of that name, add up,
        so two simulators or pools sharing a registry still sum.
        """
        self._readers.setdefault(name, []).append(read)

    def event(self, kind, **fields):
        """Record a structured event stamped with the virtual clock."""
        self.events.emit(self.now(), kind, fields)

    def labeled(self, **labels):
        """A view of this registry that tags instrument names with labels.

        ``registry.labeled(node=3).counter("mysql.txns_committed")`` is
        the shared instrument named ``mysql.txns_committed{node=3}`` —
        one flat namespace, so a cluster of engines writes through
        per-node views into a single registry and the snapshot format
        stays plain string-keyed dicts.  Code that never calls
        ``labeled`` (every single-node run) produces byte-identical
        unlabeled snapshots.
        """
        return LabeledRegistry(self, labels)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def flush(self):
        """Fold every histogram's parked values into its sketch."""
        for histogram in self._histograms.values():
            histogram.flush()

    def snapshot(self):
        """Everything measured so far, as plain JSON-serialisable dicts."""
        self.flush()
        counters = {name: c.value for name, c in self._counters.items()}
        for name, readers in self._readers.items():
            counters[name] = counters.get(name, 0) + sum(
                read() for read in readers)
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": {
                name: {"value": g.value, "max": g.max}
                for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: h.snapshot() for name, h in sorted(self._histograms.items())
            },
            "events": {
                "emitted": self.events.emitted,
                "retained": len(self.events),
                "dropped": self.events.dropped,
            },
        }

    def __repr__(self):
        return "<MetricsRegistry counters=%d gauges=%d histograms=%d events=%d>" % (
            len(self._counters),
            len(self._gauges),
            len(self._histograms),
            len(self.events),
        )


def split_label(name):
    """Split ``"base{k=v,...}"`` into ``(base, labels_dict)``.

    Names without a label suffix return ``(name, {})``.  The inverse of
    the naming scheme :meth:`MetricsRegistry.labeled` applies.
    """
    if name.endswith("}"):
        base, brace, rest = name.partition("{")
        if brace:
            labels = {}
            for pair in rest[:-1].split(","):
                key, _, value = pair.partition("=")
                labels[key] = value
            return base, labels
    return name, {}


class LabeledRegistry:
    """A label-scoped view of a :class:`MetricsRegistry` (see ``labeled``).

    Instruments live in the base registry under ``name{k=v}`` keys;
    events gain the labels as extra fields.  The view is cheap enough to
    mint per node at cluster construction and is itself further
    labelable.
    """

    __slots__ = ("_base", "labels", "_suffix", "enabled")

    def __init__(self, base, labels):
        if not labels:
            raise ValueError("labeled() needs at least one label")
        self._base = base
        self.labels = dict(labels)
        self._suffix = "{%s}" % ",".join(
            "%s=%s" % (key, value) for key, value in sorted(self.labels.items())
        )
        self.enabled = base.enabled

    @property
    def events(self):
        return self._base.events

    def bind_clock(self, clock):
        self._base.bind_clock(clock)

    def now(self):
        return self._base.now()

    def counter(self, name):
        return self._base.counter(name + self._suffix)

    def gauge(self, name):
        return self._base.gauge(name + self._suffix)

    def histogram(self, name, epsilon=None):
        return self._base.histogram(name + self._suffix, epsilon)

    def counter_from(self, name, read):
        self._base.counter_from(name + self._suffix, read)

    def event(self, kind, **fields):
        merged = dict(self.labels)
        merged.update(fields)
        self._base.event(kind, **merged)

    def labeled(self, **labels):
        merged = dict(self.labels)
        merged.update(labels)
        return LabeledRegistry(self._base, merged)

    def snapshot(self):
        """The *base* registry's snapshot (labels are just key suffixes)."""
        return self._base.snapshot()

    def __repr__(self):
        return "<LabeledRegistry %s of %r>" % (self._suffix, self._base)


class NullRegistry:
    """The disabled registry: every instrument is a shared no-op.

    Subsystems cache instruments at construction, so with this registry
    in place the per-emit cost is one empty method call — and the kernel
    skips even that by checking ``enabled`` once.
    """

    enabled = False

    def __init__(self):
        self.events = EventLog(capacity=1)

    def bind_clock(self, clock):
        pass

    def now(self):
        return 0.0

    def counter(self, name):
        return _NULL_COUNTER

    def gauge(self, name):
        return _NULL_GAUGE

    def histogram(self, name, epsilon=None):
        return _NULL_HISTOGRAM

    def counter_from(self, name, read):
        pass

    def event(self, kind, **fields):
        pass

    def labeled(self, **labels):
        return self

    def snapshot(self):
        return {}

    def __repr__(self):
        return "<NullRegistry>"


#: Shared disabled registry; components default to this when the
#: simulator carries no telemetry.
NULL_REGISTRY = NullRegistry()


def snapshot_node_slice(snapshot, node_id):
    """One node's slice of a metrics snapshot, labels stripped.

    Clustered runs label every node-side instrument ``{node=<id>}``;
    this filters a full ``MetricsRegistry.snapshot()`` down to one node
    and returns it keyed by the bare instrument name, so per-node
    reports read exactly like a single-node snapshot.  Pure dict
    transformation — usable on a snapshot long after the run (e.g. from
    a pickled :class:`~repro.exec.RunArtifact`).
    """
    want = {"node": str(node_id)}
    out = {}
    for section in ("counters", "gauges", "histograms"):
        picked = {}
        for name, value in snapshot.get(section, {}).items():
            base, labels = split_label(name)
            if labels == want:
                picked[base] = value
        out[section] = picked
    return out


def snapshot_rollup(snapshot):
    """Cluster-wide totals: labeled instruments merged by base name.

    Counters and gauge values/maxima sum across nodes; histograms merge
    exactly for ``count``/``sum``/``mean``/``min``/``max`` (quantiles do
    not compose across sketches, so merged histograms omit them).
    Unlabeled instruments pass through untouched.
    """
    counters = {}
    for name, value in snapshot.get("counters", {}).items():
        base, _labels = split_label(name)
        counters[base] = counters.get(base, 0) + value
    gauges = {}
    for name, value in snapshot.get("gauges", {}).items():
        base, _labels = split_label(name)
        merged = gauges.setdefault(base, {"value": 0, "max": 0})
        merged["value"] += value["value"]
        merged["max"] += value["max"]
    histograms = {}
    for name, value in snapshot.get("histograms", {}).items():
        base, _labels = split_label(name)
        merged = histograms.get(base)
        if merged is None:
            histograms[base] = dict(value)
            continue
        count = merged.get("count", 0) + value.get("count", 0)
        if not count:
            continue
        total = merged.get("sum", 0.0) + value.get("sum", 0.0)
        mins = [v for v in (merged.get("min"), value.get("min")) if v is not None]
        maxs = [v for v in (merged.get("max"), value.get("max")) if v is not None]
        histograms[base] = {
            "count": count,
            "sum": total,
            "mean": total / count,
            "min": min(mins) if mins else None,
            "max": max(maxs) if maxs else None,
        }
    return {"counters": counters, "gauges": gauges, "histograms": histograms}

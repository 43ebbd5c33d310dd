"""Per-layer wall-clock ledger of one traced run, measured from outside ``src/``.

While :func:`installed` is active, each layer's public entry points
(methods, properties and module functions of the ``repro`` package,
listed in :data:`ENTRY_POINTS`) are replaced by wrappers that record
spans on one stack.  A call is one span.  An entry point that returns a
generator also gets one span per resume slice, because the kernel drives
generators as coroutines: their work happens while they are resumed, not
when they are called.  A span's self time is its duration minus the time
its child spans cover, so the layers' self times plus the time no span
covers (``other``) add up to the traced wall time.

Generators handed to ``Tracer.traced`` are billed to the layer of the
module that defines them, or, for helpers outside every layer (such as
``sim.resources``), to the layer that handed them over.  Otherwise an
instrumented frame's whole body would land in ``core.tracing``.

The wrappers add no yields and pass arguments, return values and
exceptions through unchanged, so a traced run has the same
``run_digest`` as an untraced one.  The benchmark checks this on every
traced run.
"""

import contextlib
import importlib
from time import perf_counter
from types import GeneratorType

#: ``(layer, "module" or "module:Class", entry point names)``.  Engine
#: entry points that run one transaction attempt are also counted by
#: kind (fast path or not) for ``engines.fast_frac``.
ENTRY_POINTS = (
    ("workloads", "repro.workloads.base:Workload", ("make_txn",)),
    ("workloads", "repro.workloads.driver:LoadDriver", ("_arrivals",)),
    ("workloads", "repro.bench.runner", ("make_workload",)),
    ("sim.kernel", "repro.sim.kernel:Simulator", ("run",)),
    ("engines", "repro.engines.base:Engine", ("_worker_loop", "_run_branch")),
    ("engines", "repro.engines.mysql:MySQLEngine",
     ("_attempt", "_branch_execute", "_branch_prepare", "_branch_commit",
      "_branch_release")),
    ("engines", "repro.engines.postgres:PostgresEngine",
     ("_attempt", "_branch_execute", "_branch_prepare", "_branch_commit",
      "_branch_release")),
    ("engines", "repro.engines.voltdb:VoltDBEngine", ("_execute",)),
    ("lockmgr", "repro.lockmgr.manager:LockManager",
     ("request", "wait", "request_timed", "release_all",
      "release_all_timed")),
    ("bufferpool", "repro.bufferpool.pool:BufferPool",
     ("prewarm", "fix_page", "_read_in", "_make_young")),
    ("storage", "repro.storage.btree:BTreeIndex", ("search", "insert_body")),
    ("wal", "repro.wal.mysql_log:RedoLog", ("append", "commit", "_flusher_loop")),
    ("wal", "repro.wal.pg_wal:WALWriter", ("append", "commit")),
    ("wal", "repro.wal.pg_wal:ParallelWAL", ("commit",)),
    ("sim.disk", "repro.sim.disk:Disk",
     ("write", "write_blocks", "read", "read_sequential", "flush")),
    ("sim.network", "repro.sim.network:Network", ("send", "send_delay")),
    ("cluster", "repro.cluster.coordinator:Cluster",
     ("submit", "resolve_indoubt", "_single_home", "_replica_read",
      "_coordinate", "_prepare_branch", "_decide_branch", "_drain_when_idle",
      "crash_coordinator", "recover_coordinator")),
    ("replication", "repro.replication.group:ReplicaGroup",
     ("commit_barrier", "promote", "_ship_loop", "_apply_loop")),
    ("recovery", "repro.engines.base:Engine", ("crash", "recover")),
    ("recovery", "repro.recovery", ("crash_controller",)),
    ("check", "repro.check.recorder:HistoryRecorder",
     ("begin_attempt", "record_op", "finish", "lock_granted",
      "locks_released", "twopc_begin", "branch_vote", "twopc_decision",
      "branch_sealed", "branch_finished", "repl_commit", "repl_read",
      "repl_promote", "node_crash")),
    ("check", "repro.check.oracles", ("check_all",)),
    ("core.tracing", "repro.core.tracing:Tracer",
     ("traced", "_traced", "record", "begin_transaction", "end_transaction")),
    ("core.profiler", "repro.core.profiler:TProfiler",
     ("profile", "_expand", "_final_factors")),
    ("core.profiler", "repro.core.profiler", ("score_factors",)),
    ("core.profiler", "repro.core.variance_tree:VarianceTree",
     ("__init__", "name_shares", "shares")),
    ("exec", "repro.exec.executor:Executor", ("run",)),
    ("exec", "repro.exec.artifact:RunArtifact", ("from_result",)),
    ("bench", "repro.bench.runner:RunResult", ("summary", "traces")),
    ("telemetry", "repro.telemetry.registry:MetricsRegistry",
     ("flush", "snapshot")),
    ("telemetry", "repro.telemetry.registry:Histogram", ("flush",)),
)

#: Every layer, in report order.
LAYERS = tuple(dict.fromkeys(layer for layer, _target, _names in ENTRY_POINTS))

#: Entry points that start one transaction attempt or 2PC branch.
_ATTEMPTS = {"_attempt", "_execute", "_branch_execute"}


class Ledger:
    """Spans folded into per-entry-point self time and call counts.

    Spans nest on one stack (the simulator is single-threaded), and each
    closed span is folded into its entry point's totals at once, so the
    ledger's memory stays constant however long the run.
    """

    def __init__(self):
        self.self_s = {}
        self.calls = {}
        #: Wall time covered by outermost spans.
        self.covered_s = 0.0
        self.attempts = 0
        self.fast_attempts = 0
        self._stack = []

    def enter(self, key):
        self._stack.append([key, perf_counter(), 0.0])

    def exit(self):
        key, start, child = self._stack.pop()
        elapsed = perf_counter() - start
        self.self_s[key] += elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed
        else:
            self.covered_s += elapsed

    def register(self, key):
        self.self_s.setdefault(key, 0.0)
        self.calls.setdefault(key, 0)

    def current_layer(self):
        return self._stack[-1][0][0] if self._stack else None

    def by_layer(self):
        """``{layer: (calls, self seconds)}`` over every layer."""
        totals = {layer: [0, 0.0] for layer in LAYERS}
        for key, seconds in self.self_s.items():
            entry = totals[key[0]]
            entry[0] += self.calls[key]
            entry[1] += seconds
        return {layer: tuple(entry) for layer, entry in totals.items()}

    def slices(self, key, gen):
        """Generator: drive ``gen`` with one span per resume slice."""
        enter = self.enter
        exit_ = self.exit
        resume = gen.send
        value = None
        while True:
            enter(key)
            try:
                command = resume(value)
            except StopIteration as stop:
                exit_()
                return stop.value
            except BaseException:
                exit_()
                raise
            exit_()
            try:
                value = yield command
                resume = gen.send
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:
                resume, value = gen.throw, exc


_SLICES_CODE = Ledger.slices.__code__


def _call_wrapper(ledger, key, fn):
    calls = ledger.calls
    enter = ledger.enter
    exit_ = ledger.exit
    slices = ledger.slices
    count_attempt = key[1].rsplit(".", 1)[-1] in _ATTEMPTS

    def wrapper(*args, **kwargs):
        calls[key] += 1
        enter(key)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_()
        if result.__class__ is GeneratorType:
            if count_attempt:
                ledger.attempts += 1
                if result.gi_code.co_name.endswith("_fast"):
                    ledger.fast_attempts += 1
            return slices(key, result)
        return result

    return wrapper


def _traced_wrapper(ledger, key, fn, module_layers):
    """``Tracer.traced``: a call span, with the body billed to its layer."""
    calls = ledger.calls
    enter = ledger.enter
    exit_ = ledger.exit

    def traced(tracer, ctx, name, subgen, site=None):
        if subgen.__class__ is GeneratorType and subgen.gi_code is not _SLICES_CODE:
            module = subgen.gi_frame.f_globals.get("__name__")
            layer = module_layers.get(module) or ledger.current_layer()
            if layer is not None:
                body = (layer, "traced body " + subgen.gi_code.co_name)
                ledger.register(body)
                calls[body] += 1
                subgen = ledger.slices(body, subgen)
        calls[key] += 1
        enter(key)
        try:
            return fn(tracer, ctx, name, subgen, site)
        finally:
            exit_()

    return traced


class MissingEntryPoints(Exception):
    """Entry points of :data:`ENTRY_POINTS` that the source tree lacks."""


def _resolve(target):
    module_name, _, class_name = target.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _entry_points():
    """``[(layer, target, owner, name, raw attribute)]``; raises if any is missing.

    A renamed or moved entry point would otherwise drop out of its
    layer's calls and self time, and since lower is better for both, the
    drop would read as a gain.
    """
    found = []
    missing = []
    for layer, target, names in ENTRY_POINTS:
        try:
            owner = _resolve(target)
        except (ImportError, AttributeError):
            missing.extend("%s.%s" % (target, name) for name in names)
            continue
        for name in names:
            raw = vars(owner).get(name)
            if raw is None:
                missing.append("%s.%s" % (target, name))
            else:
                found.append((layer, target, owner, name, raw))
    if missing:
        raise MissingEntryPoints("entry points not found: %s"
                                 % ", ".join(missing))
    return found


@contextlib.contextmanager
def installed(ledger):
    """Wrap every entry point for the ``with`` body, then restore them.

    Raises :class:`MissingEntryPoints`, before wrapping anything, when
    the source tree lacks one of them: the benchmark then fails its gate
    rather than report a ledger with a layer quietly missing.
    """
    # Only class entries name the module that defines them; a module
    # entry may be a re-export (``repro.bench.runner.make_workload``).
    module_layers = {}
    for layer, target, _names in ENTRY_POINTS:
        module_name, _, class_name = target.partition(":")
        if class_name:
            module_layers.setdefault(module_name, layer)
    entry_points = _entry_points()
    saved = []
    try:
        for layer, target, owner, name, raw in entry_points:
            key = (layer, "%s.%s" % (target.rpartition(":")[2], name))
            ledger.register(key)
            if isinstance(raw, property):
                patched = property(_call_wrapper(ledger, key, raw.fget))
            elif isinstance(raw, classmethod):
                patched = classmethod(_call_wrapper(ledger, key, raw.__func__))
            elif name == "traced":
                patched = _traced_wrapper(ledger, key, raw, module_layers)
            else:
                patched = _call_wrapper(ledger, key, raw)
            setattr(owner, name, patched)
            saved.append((owner, name, raw))
        yield ledger
    finally:
        for owner, name, raw in reversed(saved):
            setattr(owner, name, raw)

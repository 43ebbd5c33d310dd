"""Selective instrumentation: frames, sites, probe costs, manual records."""

import pytest

from repro.core.annotations import TransactionContext, TransactionLog
from repro.core.callgraph import CallGraph
from repro.core.tracing import Tracer
from repro.sim.kernel import Simulator, Timeout


@pytest.fixture
def graph():
    return CallGraph.from_dict(
        "root", {"root": ["child"], "child": ["grandchild"]}
    )


def make_tracer(sim, graph, instrumented, probe_cost=0.0):
    return Tracer(
        sim, graph, instrumented=instrumented, probe_cost=probe_cost, log=TransactionLog()
    )


def body(duration):
    def gen():
        yield Timeout(duration)
        return "value"

    return gen()


def test_uninstrumented_function_is_invisible(sim, graph):
    tracer = make_tracer(sim, graph, instrumented=set())
    ctx = TransactionContext(sim, 1, "t")

    def proc():
        tracer.begin_transaction(ctx)
        result = yield from tracer.traced(ctx, "root", body(10.0))
        assert result == "value"
        tracer.end_transaction(ctx)

    sim.spawn(proc())
    sim.run()
    assert ctx.durations == {}


def test_instrumented_function_records_duration(sim, graph):
    tracer = make_tracer(sim, graph, instrumented={"root"})
    ctx = TransactionContext(sim, 1, "t")

    def proc():
        tracer.begin_transaction(ctx)
        yield from tracer.traced(ctx, "root", body(10.0))
        tracer.end_transaction(ctx)

    sim.spawn(proc())
    sim.run()
    assert ctx.durations == {("root", "<root>"): 10.0}


def test_nested_frames_attributed_to_parent(sim, graph):
    tracer = make_tracer(sim, graph, instrumented={"root", "child"})
    ctx = TransactionContext(sim, 1, "t")

    def child_gen():
        yield Timeout(4.0)

    def root_gen():
        yield Timeout(3.0)
        yield from tracer.traced(ctx, "child", child_gen())
        yield Timeout(3.0)

    def proc():
        tracer.begin_transaction(ctx)
        yield from tracer.traced(ctx, "root", root_gen())
        tracer.end_transaction(ctx)

    sim.spawn(proc())
    sim.run()
    assert ctx.durations[("root", "<root>")] == 10.0
    assert ctx.durations[("child", "root")] == 4.0
    assert ctx.under[("root", "<root>")] == {("child", "root"): 4.0}


def test_skipped_middle_level_attributes_to_nearest_instrumented(sim, graph):
    """When 'child' is not instrumented, grandchild time lands under root."""
    tracer = make_tracer(sim, graph, instrumented={"root", "grandchild"})
    ctx = TransactionContext(sim, 1, "t")

    def grandchild_gen():
        yield Timeout(2.0)

    def child_gen():
        yield from tracer.traced(ctx, "grandchild", grandchild_gen())

    def root_gen():
        yield from tracer.traced(ctx, "child", child_gen())

    def proc():
        tracer.begin_transaction(ctx)
        yield from tracer.traced(ctx, "root", root_gen())
        tracer.end_transaction(ctx)

    sim.spawn(proc())
    sim.run()
    assert ("child", "root") not in ctx.durations
    assert ctx.durations[("grandchild", "root")] == 2.0
    assert ctx.under[("root", "<root>")] == {("grandchild", "root"): 2.0}


def test_explicit_site_labels_distinguish_call_sites(sim, graph):
    """The paper's os_event_wait [A] vs [B] distinction."""
    tracer = make_tracer(sim, graph, instrumented={"child"})
    ctx = TransactionContext(sim, 1, "t")

    def proc():
        tracer.begin_transaction(ctx)
        yield from tracer.traced(ctx, "child", body(1.0), site="A")
        yield from tracer.traced(ctx, "child", body(2.0), site="B")
        yield from tracer.traced(ctx, "child", body(3.0), site="B")
        tracer.end_transaction(ctx)

    sim.spawn(proc())
    sim.run()
    assert ctx.durations[("child", "A")] == 1.0
    assert ctx.durations[("child", "B")] == 5.0


def test_multiple_invocations_aggregate(sim, graph):
    tracer = make_tracer(sim, graph, instrumented={"root"})
    ctx = TransactionContext(sim, 1, "t")

    def proc():
        tracer.begin_transaction(ctx)
        yield from tracer.traced(ctx, "root", body(10.0))
        yield from tracer.traced(ctx, "root", body(5.0))
        tracer.end_transaction(ctx)

    sim.spawn(proc())
    sim.run()
    assert ctx.durations[("root", "<root>")] == 15.0


def test_probe_cost_charged_per_entry_and_exit(sim, graph):
    tracer = make_tracer(sim, graph, instrumented={"root"}, probe_cost=1.0)
    ctx = TransactionContext(sim, 1, "t")

    def proc():
        tracer.begin_transaction(ctx)
        yield from tracer.traced(ctx, "root", body(10.0))
        tracer.end_transaction(ctx)

    sim.spawn(proc())
    sim.run()
    assert sim.now == 12.0  # 10 body + 2 probes
    assert tracer.probe_firings == 2
    trace = tracer.log.traces[0]
    assert trace.latency == 12.0


def test_no_probe_cost_for_uninstrumented(sim, graph):
    tracer = make_tracer(sim, graph, instrumented=set(), probe_cost=5.0)
    ctx = TransactionContext(sim, 1, "t")

    def proc():
        tracer.begin_transaction(ctx)
        yield from tracer.traced(ctx, "root", body(10.0))
        tracer.end_transaction(ctx)

    sim.spawn(proc())
    sim.run()
    assert sim.now == 10.0
    assert tracer.probe_firings == 0


def test_traced_with_none_ctx_delegates(sim, graph):
    tracer = make_tracer(sim, graph, instrumented={"root"})
    result = []

    def proc():
        value = yield from tracer.traced(None, "root", body(1.0))
        result.append(value)

    sim.spawn(proc())
    sim.run()
    assert result == ["value"]


def test_instrument_validates_names(sim, graph):
    tracer = make_tracer(sim, graph, instrumented=set())
    tracer.instrument(["child"])
    assert "child" in tracer.instrumented
    with pytest.raises(KeyError):
        tracer.instrument(["not_a_function"])
    # The constructor too: a misspelt probe must not silently probe nothing.
    with pytest.raises(KeyError):
        make_tracer(sim, graph, instrumented={"root", "not_a_function"})
    # A tracer with no call graph checks nothing.
    assert make_tracer(sim, None, instrumented={"anything"}).instrumented == {
        "anything"
    }


def test_engine_probed_tracks_call_graph_probes_only(sim, graph):
    tracer = make_tracer(sim, graph, instrumented=set())
    assert not tracer.engine_probed
    tracer.instrument_subsystem(["dist_prepare_wait", "repl_ack_wait"])
    assert "dist_prepare_wait" in tracer.instrumented
    assert not tracer.engine_probed
    tracer.instrument(["child"])
    assert tracer.engine_probed
    tracer.clear()
    assert not tracer.engine_probed and not tracer.instrumented
    assert make_tracer(sim, graph, instrumented={"root"}).engine_probed
    # With no call graph, any probe counts.
    assert make_tracer(sim, None, instrumented={"anything"}).engine_probed


def test_subsystem_frames_must_not_be_engine_functions(sim, graph):
    tracer = make_tracer(sim, graph, instrumented=set())
    with pytest.raises(ValueError):
        tracer.instrument_subsystem(["child"])
    assert not tracer.engine_probed


def test_crash_cleared_stack_finalises_quietly(sim, graph):
    """A worker abandoned by a node crash has its ctx stack emptied; when
    its generator is finalised the traced frame must not raise."""
    tracer = make_tracer(sim, graph, instrumented={"root", "child"})
    ctx = TransactionContext(sim, 1, "t")

    def root_gen():
        yield from tracer.traced(ctx, "child", body(10.0))

    gen = tracer.traced(ctx, "root", root_gen())
    tracer.begin_transaction(ctx)
    next(gen)
    assert len(ctx.stack) == 2
    del ctx.stack[:]  # what Engine._crash_txn does
    gen.close()  # raises RuntimeError if a frame exits out of order
    assert ctx.durations == {}


def test_record_manual_respects_instrumented_set(sim, graph):
    tracer = make_tracer(sim, graph, instrumented={"root", "child"})
    ctx = TransactionContext(sim, 1, "t")
    tracer.record(ctx, "child", 5.0, site="q", parent=("root", "<root>"))
    tracer.record(ctx, "grandchild", 1.0)  # not instrumented: dropped
    assert ctx.durations == {("child", "q"): 5.0}
    assert ctx.under[("root", "<root>")] == {("child", "q"): 5.0}


def test_end_transaction_records_to_log(sim, graph):
    tracer = make_tracer(sim, graph, instrumented=set())
    ctx = TransactionContext(sim, 1, "t")

    def proc():
        tracer.begin_transaction(ctx)
        yield Timeout(1.0)
        tracer.end_transaction(ctx, committed=False)

    sim.spawn(proc())
    sim.run()
    assert len(tracer.log) == 1
    assert not tracer.log.traces[0].committed


# ----------------------------------------------------------------------
# Spans: Tracer.enter / Tracer.exit inside one generator body
# ----------------------------------------------------------------------


def _span_open(tracer, ctx, name):
    """What an engine body does at a probed function's entry."""
    if name in tracer.instrumented:
        tracer.enter(ctx, name)
        if tracer.probe_cost:
            yield tracer.probe_cost


def _span_close(tracer, ctx, name):
    """... and at its exit."""
    if name in tracer.instrumented:
        if tracer.probe_cost:
            yield tracer.probe_cost
        tracer.exit(ctx)


def _traced_program(tracer, ctx):
    """root -> child (twice) -> grandchild as nested traced generators."""

    def grandchild():
        yield Timeout(2.0)

    def child():
        yield Timeout(1.0)
        yield from tracer.traced(ctx, "grandchild", grandchild())
        yield Timeout(1.5)

    def root():
        yield Timeout(3.0)
        yield from tracer.traced(ctx, "child", child())
        yield from tracer.traced(ctx, "child", child())

    yield from tracer.traced(ctx, "root", root())


def _span_program(tracer, ctx):
    """The same program as one body opening spans."""
    yield from _span_open(tracer, ctx, "root")
    yield Timeout(3.0)
    for _ in range(2):
        yield from _span_open(tracer, ctx, "child")
        yield Timeout(1.0)
        yield from _span_open(tracer, ctx, "grandchild")
        yield Timeout(2.0)
        yield from _span_close(tracer, ctx, "grandchild")
        yield Timeout(1.5)
        yield from _span_close(tracer, ctx, "child")
    yield from _span_close(tracer, ctx, "root")


def _span_root_traced_child(tracer, ctx):
    """A root span whose children are traced frames."""

    def grandchild():
        yield Timeout(2.0)

    def child():
        yield Timeout(1.0)
        yield from tracer.traced(ctx, "grandchild", grandchild())
        yield Timeout(1.5)

    yield from _span_open(tracer, ctx, "root")
    yield Timeout(3.0)
    for _ in range(2):
        yield from tracer.traced(ctx, "child", child())
    yield from _span_close(tracer, ctx, "root")


def _traced_root_span_child(tracer, ctx):
    """A traced root whose body opens the child spans, whose own
    grandchild is a traced frame again."""

    def grandchild():
        yield Timeout(2.0)

    def root():
        yield Timeout(3.0)
        for _ in range(2):
            yield from _span_open(tracer, ctx, "child")
            yield Timeout(1.0)
            yield from tracer.traced(ctx, "grandchild", grandchild())
            yield Timeout(1.5)
            yield from _span_close(tracer, ctx, "child")

    yield from tracer.traced(ctx, "root", root())


def _observe(program, graph, instrumented, probe_cost):
    sim = Simulator()
    tracer = make_tracer(sim, graph, instrumented, probe_cost)
    ctx = TransactionContext(sim, 1, "t")

    def proc():
        tracer.begin_transaction(ctx)
        yield from program(tracer, ctx)
        tracer.end_transaction(ctx)

    sim.spawn(proc())
    sim.run()
    return ctx.durations, ctx.under, tracer.probe_firings, sim.now


@pytest.mark.parametrize("probe_cost", [0.05, 0.0])
@pytest.mark.parametrize(
    "instrumented",
    [{"root", "child", "grandchild"}, {"root", "grandchild"}, {"child"}],
    ids=["all", "skip-middle", "child-only"],
)
@pytest.mark.parametrize(
    "program",
    [_span_program, _span_root_traced_child, _traced_root_span_child],
    ids=["spans", "span-around-traced", "traced-around-span"],
)
def test_spans_record_what_traced_frames_record(
    graph, instrumented, probe_cost, program
):
    """Same durations, under maps, site keys, probe firings and clock,
    float for float, as the nested traced generators."""
    want = _observe(_traced_program, graph, instrumented, probe_cost)
    got = _observe(program, graph, instrumented, probe_cost)
    assert got == want
    durations, under, firings, _now = got
    calls = {"root": 1, "child": 2, "grandchild": 2}
    assert firings == (2 * sum(calls[name] for name in instrumented)
                       if probe_cost else 0)
    if instrumented == {"root", "grandchild"}:
        # The skipped middle level: grandchild's site is root.
        assert sorted(durations) == [("grandchild", "root"), ("root", "<root>")]
        assert list(under) == [("root", "<root>")]


def test_exit_with_no_open_frame_raises(sim, graph):
    tracer = make_tracer(sim, graph, instrumented={"root"})
    ctx = TransactionContext(sim, 1, "t")
    with pytest.raises(RuntimeError):
        tracer.exit(ctx)
    tracer.enter(ctx, "root")
    tracer.exit(ctx)
    with pytest.raises(RuntimeError):
        tracer.exit(ctx)
    assert ctx.durations == {("root", "<root>"): 0.0}


"""MetricsRegistry: instruments, exact quantiles, events, snapshots, disabled mode."""

import json
import math

import numpy
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Simulator, Timeout
from repro.telemetry import (
    EventLog,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
)


class TestInstruments:
    def test_counter_get_or_create(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc()
        c.inc(4)
        assert reg.counter("x") is c
        assert reg.counter("x").value == 5

    def test_gauge_tracks_high_water_mark(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(3)
        g.set(10)
        g.set(2)
        assert g.value == 2
        assert g.max == 10

    def test_histogram_snapshot_fields(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(10.0)
        assert snap["mean"] == pytest.approx(2.5)
        assert snap["min"] == 1.0
        assert snap["max"] == 4.0
        assert (snap["p50"], snap["p95"], snap["p99"]) == (2.0, 4.0, 4.0)

    def test_empty_histogram_snapshot(self):
        histogram = MetricsRegistry().histogram("lat")
        assert histogram.snapshot() == {"count": 0}
        histogram.flush()
        assert histogram.snapshot() == {"count": 0}
        with pytest.raises(ValueError, match="empty"):
            histogram.quantile(0.5)

    def test_snapshot_is_json_serialisable_and_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc()
        reg.histogram("h").observe(1.0)
        reg.gauge("g").set(2)
        reg.event("boom", detail="x")
        snap = reg.snapshot()
        json.dumps(snap)
        assert list(snap["counters"]) == ["a", "b"]
        assert snap["events"] == {"emitted": 1, "retained": 1, "dropped": 0}


#: Observed values: floats with ±inf, ints, negatives, and a small pool
#: of repeats so duplicates are common.
VALUES = st.lists(
    st.one_of(
        st.floats(allow_nan=False),
        st.integers(min_value=-(10 ** 6), max_value=10 ** 6),
        st.sampled_from((0.0, -1.5, 2.0, 7, math.inf, -math.inf)),
    ),
    min_size=1,
    max_size=300,
)

QUANTILES = {"p50": 0.50, "p95": 0.95, "p99": 0.99}


def _rank_value(values, q):
    """The value at 1-based rank ``max(1, ceil(q * n))`` of the sorted values."""
    ordered = sorted(float(v) for v in values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def _arrival_order_moments(values):
    """count, sum, mean, min and max folded one value at a time."""
    total = 0.0
    low = high = None
    for value in values:
        value = float(value)
        total += value
        if low is None or value < low:
            low = value
        if high is None or value > high:
            high = value
    return {"count": len(values), "sum": total, "mean": total / len(values),
            "min": low, "max": high}


def _observed(values):
    histogram = MetricsRegistry().histogram("h")
    for value in values:
        histogram.observe(value)
    return histogram


class TestExactQuantiles:
    @settings(max_examples=200, deadline=None)
    @given(VALUES)
    @example([42.0])
    @example([math.inf, -math.inf, math.inf])
    def test_quantiles_are_exact_ranks(self, values):
        snap = _observed(values).snapshot()
        for field, q in QUANTILES.items():
            assert snap[field] == _rank_value(values, q)
            assert snap[field] == numpy.percentile(
                values, 100 * q, method="inverted_cdf")

    @settings(max_examples=200, deadline=None)
    @given(VALUES)
    @example([3])
    @example([1e308, 1e308, -math.inf])
    def test_moments_match_arrival_order_reference(self, values):
        snap = _observed(values).snapshot()
        want = _arrival_order_moments(values)
        for field, value in want.items():
            # repr tells -0.0 from 0.0 and compares NaN (inf + -inf) as equal.
            assert repr(snap[field]) == repr(value), field

    @settings(max_examples=100, deadline=None)
    @given(VALUES, VALUES)
    def test_observing_after_a_snapshot_sorts_again(self, first, second):
        histogram = _observed(first)
        assert histogram.snapshot()["p99"] == _rank_value(first, 0.99)
        for value in second:
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == len(first) + len(second)
        for field, q in QUANTILES.items():
            assert snap[field] == _rank_value(first + second, q)

    def test_quantile_bounds_are_min_and_max(self):
        histogram = _observed([5.0, -2, 9.5, 5.0])
        assert histogram.quantile(0.0) == -2.0
        assert histogram.quantile(1.0) == 9.5

    def test_nan_raises(self):
        histogram = _observed([1.0])
        with pytest.raises(ValueError, match="NaN"):
            histogram.observe(float("nan"))
        assert histogram.snapshot()["count"] == 1

    def test_rejects_quantile_outside_unit_interval(self):
        histogram = _observed([1.0])
        for q in (-0.1, 1.1):
            with pytest.raises(ValueError):
                histogram.quantile(q)


class TestCounterFrom:
    def test_value_is_read_at_each_snapshot(self):
        reg = MetricsRegistry()
        box = {"n": 3}
        reg.counter_from("hits", lambda: box["n"])
        box["n"] = 5
        assert reg.snapshot()["counters"] == {"hits": 5}
        box["n"] = 9
        assert reg.snapshot()["counters"] == {"hits": 9}

    def test_readers_and_a_plain_counter_of_one_name_add_up(self):
        reg = MetricsRegistry()
        reg.counter_from("hits", lambda: 2)
        reg.counter_from("hits", lambda: 3)
        reg.counter("hits").inc(4)
        assert reg.snapshot()["counters"] == {"hits": 9}

    def test_labeled_view_registers_the_labeled_name(self):
        reg = MetricsRegistry()
        reg.labeled(node=1).counter_from("hits", lambda: 7)
        assert reg.snapshot()["counters"] == {"hits{node=1}": 7}

    def test_null_registry_ignores_it(self):
        reg = NullRegistry()
        reg.counter_from("hits", lambda: 7)
        assert reg.snapshot() == {}

    def test_snapshot_keys_stay_sorted(self):
        reg = MetricsRegistry()
        reg.counter_from("c", lambda: 1)
        reg.counter("b").inc()
        reg.counter_from("a", lambda: 1)
        reg.counter("d").inc()
        assert list(reg.snapshot()["counters"]) == ["a", "b", "c", "d"]


class TestEvents:
    def test_events_stamped_with_bound_clock(self):
        sim = Simulator()
        reg = MetricsRegistry()
        reg.bind_clock(sim)

        def proc():
            yield Timeout(25.0)
            reg.event("tick", n=1)

        sim.spawn(proc())
        sim.run()
        [event] = list(reg.events)
        assert event.t == 25.0
        assert event.kind == "tick"
        assert event.fields == {"n": 1}

    def test_ring_buffer_drops_oldest(self):
        log = EventLog(capacity=3)
        for i in range(5):
            log.emit(float(i), "e", {"i": i})
        assert len(log) == 3
        assert log.dropped == 2
        assert [e.fields["i"] for e in log] == [2, 3, 4]

    def test_jsonl_round_trips(self):
        log = EventLog(capacity=10)
        log.emit(1.5, "deadlock", {"txn": 7, "obj": "stock:3"})
        [line] = log.to_jsonl().splitlines()
        assert json.loads(line) == {
            "t": 1.5,
            "kind": "deadlock",
            "txn": 7,
            "obj": "stock:3",
        }

    def test_dump_writes_jsonl(self, tmp_path):
        log = EventLog(capacity=10)
        log.emit(0.0, "a", {})
        path = tmp_path / "events.jsonl"
        log.dump(str(path))
        assert path.read_text() == '{"kind": "a", "t": 0.0}\n'


class TestDisabledMode:
    def test_null_registry_is_inert(self):
        reg = NullRegistry()
        reg.counter("x").inc()
        reg.gauge("g").set(5)
        reg.histogram("h").observe(1.0)
        reg.event("boom")
        assert reg.snapshot() == {}
        assert not reg.enabled
        assert len(reg.events) == 0

    def test_null_instruments_are_shared(self):
        assert NULL_REGISTRY.counter("a") is NULL_REGISTRY.counter("b")
        assert NULL_REGISTRY.histogram("a") is NULL_REGISTRY.histogram("b")

    def test_simulator_defaults_to_null_registry(self):
        sim = Simulator()
        assert sim.telemetry is NULL_REGISTRY

    def test_enabled_kernel_counts_dispatches(self):
        reg = MetricsRegistry()
        sim = Simulator(telemetry=reg)
        reg.bind_clock(sim)

        def proc():
            yield Timeout(1.0)
            yield Timeout(1.0)

        sim.spawn(proc())
        sim.run()
        snap = reg.snapshot()
        assert snap["counters"]["sim.spawns"] == 1
        assert snap["counters"]["sim.dispatches"] >= 3

"""MetricsRegistry: instruments, events, snapshots, disabled mode."""

import json

import pytest

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
        assert 1.0 <= snap["p50"] <= 4.0

    def test_empty_histogram_snapshot(self):
        reg = MetricsRegistry()
        assert reg.histogram("lat").snapshot() == {"count": 0}

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

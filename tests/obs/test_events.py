"""Unit tests for the event log and Observatory facade."""

import json

from repro.obs import EventKind, EventLog, ObsEvent, Observatory
from repro.obs import events as events_module


class TestEventLog:
    def test_bounded_with_drop_accounting(self, monkeypatch):
        monkeypatch.setattr(events_module, "EVENT_CAPACITY", 3)
        log = EventLog()
        for index in range(5):
            log.append(ObsEvent(t=float(index), kind=EventKind.POOL_HIT))
        assert len(log) == 3
        assert log.total_appended == 5
        assert log.dropped == 2
        assert [e.t for e in log] == [2.0, 3.0, 4.0]  # oldest displaced

    def test_counts_by_kind(self):
        log = EventLog()
        log.append(ObsEvent(t=0.0, kind=EventKind.POOL_HIT))
        log.append(ObsEvent(t=1.0, kind=EventKind.POOL_MISS))
        log.append(ObsEvent(t=2.0, kind=EventKind.POOL_HIT))
        assert log.counts_by_kind() == {"pool_hit": 2, "pool_miss": 1}

    def test_jsonl_round_trip(self):
        log = EventLog()
        log.append(
            ObsEvent(
                t=1.5,
                kind=EventKind.BOOT_END,
                host="h0",
                key="k",
                data=(("container", "h0/c1"), ("ok", True)),
            )
        )
        lines = log.to_jsonl().strip().split("\n")
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record == {
            "t": 1.5,
            "kind": "boot_end",
            "host": "h0",
            "key": "k",
            "container": "h0/c1",
            "ok": True,
        }


class TestObservatory:
    def test_emit_sorts_data_fields(self):
        obs = Observatory()
        obs.emit(EventKind.CONTROL_TICK, t=3.0, host="h", key="k", b=2, a=1)
        event = next(iter(obs.events))
        assert event.data == (("a", 1), ("b", 2))
        assert event.kind is EventKind.CONTROL_TICK

    def test_shorthands_hit_registry(self):
        obs = Observatory()
        obs.counter("c", host="h").inc()
        obs.gauge("g", host="h").set(2.0)
        obs.histogram("lat", bounds=(1.0, 2.0), host="h").observe(1.5)
        snapshot = obs.registry.snapshot()
        assert snapshot["counters"][0]["value"] == 1.0
        assert snapshot["gauges"][0]["value"] == 2.0
        assert snapshot["histograms"][0]["count"] == 1

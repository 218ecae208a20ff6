"""Tests for the telemetry subsystem: tracer, wiring, summaries."""

import json

import pytest

from repro.core.schemes import Scheme
from repro.sim.config import small_config
from repro.sim.engine import run_simulation
from repro.telemetry import (
    EVENT_PARTITION,
    EVENT_POM_LOOKUP,
    EVENT_SWITCH,
    EVENT_TLB_MISS,
    EVENT_WALK,
    EventTracer,
    Telemetry,
    TraceEvent,
    chrome_trace,
    read_events,
    summarize_events,
    write_chrome_trace,
)
from repro.workloads.mixes import make_mix


# ----------------------------------------------------------------------
# EventTracer
# ----------------------------------------------------------------------
class TestEventTracer:
    def test_emit_and_iterate(self):
        tracer = EventTracer()
        tracer.emit("walk", 100.0, core=2, duration=50.0, refs=4)
        tracer.emit("tlb.miss", 150.0, core=2, level="l2")
        events = list(tracer)
        assert len(events) == 2
        assert events[0].name == "walk"
        assert events[0].duration == 50.0
        assert events[0].args == {"refs": 4}
        assert events[1].args["level"] == "l2"

    def test_ring_drops_oldest(self):
        tracer = EventTracer(capacity=3)
        for i in range(10):
            tracer.emit("e", float(i))
        assert len(tracer) == 3
        assert tracer.emitted == 10
        assert tracer.dropped == 7
        assert [event.cycles for event in tracer] == [7.0, 8.0, 9.0]

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            EventTracer(capacity=0)

    def test_clear(self):
        tracer = EventTracer()
        tracer.emit("e", 1.0)
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.emitted == 0

    def test_jsonl_round_trip(self, tmp_path):
        tracer = EventTracer()
        tracer.emit("walk", 10.0, core=1, duration=42.0, refs=3,
                    virtualized=True)
        tracer.emit("sched.switch", 20.0, core=0, context=1)
        path = str(tmp_path / "t.jsonl")
        assert tracer.write_jsonl(path) == 2
        events = read_events(path)
        assert len(events) == 2
        assert events[0].name == "walk"
        assert events[0].cycles == 10.0
        assert events[0].duration == 42.0
        assert events[0].args == {"refs": 3, "virtualized": True}
        assert events[1].core == 0

    def test_read_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="not valid JSON"):
            read_events(str(path))

    def test_read_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"cycles": 3}\n')
        with pytest.raises(ValueError, match="missing"):
            read_events(str(path))

    def test_chrome_export(self, tmp_path):
        tracer = EventTracer()
        tracer.emit("walk", 10.0, core=1, duration=42.0)
        tracer.emit("sched.switch", 99.0, vm=1)
        document = chrome_trace(tracer)
        assert "traceEvents" in document
        slices = [e for e in document["traceEvents"] if e.get("ph") == "X"]
        instants = [e for e in document["traceEvents"] if e.get("ph") == "i"]
        names = [e for e in document["traceEvents"] if e.get("ph") == "M"]
        assert len(slices) == 1 and slices[0]["dur"] == 42.0
        assert len(instants) == 1
        assert {m["args"]["name"] for m in names} == {"core 1", "system"}
        path = str(tmp_path / "c.json")
        write_chrome_trace(tracer, path)
        with open(path) as handle:
            assert json.load(handle) == json.loads(json.dumps(document))


class TestEventTracerDropAccounting:
    """Drop accounting under ring overflow (docs/observability.md)."""

    def test_accounting_invariant_with_ring_overflow(self):
        tracer = EventTracer(capacity=4)
        for i in range(60):
            tracer.emit("e", float(i))
        assert len(tracer) == 4
        assert tracer.dropped == 56
        assert tracer.dropped + len(tracer) == tracer.emitted

    def test_dropped_survives_jsonl_round_trip(self, tmp_path):
        tracer = EventTracer(capacity=10)
        for i in range(40):
            tracer.emit("e", float(i))
        path = str(tmp_path / "t.jsonl")
        written = tracer.write_jsonl(path)
        assert written == len(tracer) == 10
        # `repro stats` summarises exactly what was written; the dropped
        # total lives in the tracer, not the file.
        summary = summarize_events(read_events(path))
        assert summary.total_events == written
        assert tracer.emitted == 40
        assert tracer.dropped + written == tracer.emitted

    def test_clear_resets_drop_accounting(self):
        tracer = EventTracer(capacity=4)
        for i in range(10):
            tracer.emit("e", float(i))
        assert tracer.dropped == 6
        tracer.clear()
        assert tracer.emitted == 0
        assert tracer.dropped == 0
        assert tracer.dropped + len(tracer) == tracer.emitted


# ----------------------------------------------------------------------
# Simulation wiring
# ----------------------------------------------------------------------
def run_traced(scheme=Scheme.CSALT_CD, accesses=12_000, **kwargs):
    telemetry = Telemetry(tracer=EventTracer())
    config = small_config(scheme=scheme, **kwargs)
    result = run_simulation(
        config, make_mix("gups"), total_accesses=accesses, telemetry=telemetry,
    )
    return telemetry, result


class TestSimulationTelemetry:
    def test_events_emitted(self):
        telemetry, _ = run_traced()
        counts = summarize_events(list(telemetry.tracer)).counts_by_name
        assert counts.get(EVENT_TLB_MISS, 0) > 0
        assert counts.get(EVENT_POM_LOOKUP, 0) > 0
        assert counts.get(EVENT_WALK, 0) > 0
        walk = next(e for e in telemetry.tracer if e.name == EVENT_WALK)
        assert walk.duration > 0
        assert walk.args["refs"] >= 1
        assert 0 <= walk.core < 8

    def test_pom_lookup_events_match_result(self):
        telemetry, result = run_traced()
        assert telemetry.tracer.dropped == 0
        hits = sum(
            1 for e in telemetry.tracer
            if e.name == EVENT_POM_LOOKUP and e.args["hit"]
        )
        assert hits == result.pom_hits > 0

    def test_partition_decisions_traced(self):
        # Tiny epoch so both L2 and L3 controllers repartition after warmup.
        telemetry, _ = run_traced(epoch_accesses=500)
        partition_events = [
            e for e in telemetry.tracer if e.name == EVENT_PARTITION
        ]
        assert partition_events
        labels = {e.args["label"] for e in partition_events}
        assert "l3" in labels
        event = partition_events[0]
        assert event.args["data_ways"] + event.args["tlb_ways"] > 0
        assert 0.0 <= event.args["tlb_fraction"] <= 1.0

    def test_context_switch_events(self):
        telemetry, result = run_traced(
            accesses=20_000, switch_interval_ms=0.05
        )
        switches = [e for e in telemetry.tracer if e.name == EVENT_SWITCH]
        assert switches
        assert result.extra["context_switches"] > 0
        assert all("vm" in e.args for e in switches)

    def test_warmup_clears_trace(self):
        telemetry = Telemetry(tracer=EventTracer())
        config = small_config(scheme=Scheme.CSALT_CD)
        result = run_simulation(
            config, make_mix("gups"), total_accesses=8_000,
            telemetry=telemetry, warmup_fraction=0.5,
        )
        # The trace covers the measured region only.
        walks = [e for e in telemetry.tracer if e.name == EVENT_WALK]
        assert len(walks) == result.page_walks

    def test_progress_callback(self):
        updates = []
        config = small_config(scheme=Scheme.POM_TLB)
        run_simulation(
            config, make_mix("gups"), total_accesses=5_000,
            progress=updates.append,
        )
        assert updates
        final = updates[-1]
        assert final.executed >= final.total
        assert final.accesses_per_second > 0
        assert "acc/s" in final.format()

    def test_disabled_telemetry_changes_nothing(self):
        config = small_config(scheme=Scheme.CSALT_CD)
        plain = run_simulation(config, make_mix("gups"), total_accesses=6_000)
        traced_tel = Telemetry(tracer=EventTracer())
        traced = run_simulation(
            small_config(scheme=Scheme.CSALT_CD), make_mix("gups"),
            total_accesses=6_000, telemetry=traced_tel,
        )
        assert plain.ipc == pytest.approx(traced.ipc)
        assert plain.l2_tlb_misses == traced.l2_tlb_misses
        assert plain.page_walks == traced.page_walks


# ----------------------------------------------------------------------
# Trace summarization (record -> JSONL -> repro stats round trip)
# ----------------------------------------------------------------------
class TestSummarize:
    def test_round_trip_via_jsonl(self, tmp_path):
        telemetry, result = run_traced(epoch_accesses=500)
        path = str(tmp_path / "run.trace.jsonl")
        telemetry.tracer.write_jsonl(path)
        summary = summarize_events(read_events(path))
        assert summary.total_events == len(telemetry.tracer)
        assert summary.walk_count == result.page_walks
        assert summary.tlb_misses == result.l2_tlb_misses
        assert summary.pom_lookups == result.pom_hits + result.pom_misses
        assert summary.pom_hit_rate == pytest.approx(result.pom_hit_rate)
        assert summary.partition_decisions > 0
        assert "l3" in summary.final_tlb_fraction
        assert summary.walk_p50_cycles <= summary.walk_p95_cycles
        assert summary.walk_p95_cycles <= summary.walk_max_cycles
        document = json.loads(json.dumps(summary.to_dict()))
        assert document["walks"]["count"] == result.page_walks
        assert "page walks" in summary.format()

    def test_summarize_empty(self):
        summary = summarize_events([])
        assert summary.total_events == 0
        assert summary.pom_hit_rate == 0.0
        assert "events" in summary.format()

    def test_chrome_conversion_of_read_events(self, tmp_path):
        events = [
            TraceEvent("walk", 5.0, core=0, duration=10.0),
            TraceEvent("sched.switch", 7.0, core=1),
        ]
        path = str(tmp_path / "c.json")
        write_chrome_trace(events, path)
        with open(path) as handle:
            document = json.load(handle)
        phases = {e["ph"] for e in document["traceEvents"]}
        assert {"X", "i", "M"} <= phases


class TestSummaryRows:
    def test_rows_cover_core_metrics(self):
        telemetry, result = run_traced(accesses=4000)
        summary = summarize_events(list(telemetry.tracer))
        rows = dict(summary.rows())
        assert rows["events"] == summary.total_events
        assert rows["l2_tlb_misses"] == summary.tlb_misses
        assert rows["context_switches"] == summary.context_switches

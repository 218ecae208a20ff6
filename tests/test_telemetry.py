"""Tests for the telemetry subsystem: tracer, metrics, wiring."""

import json

import pytest

from repro.core.schemes import Scheme
from repro.sim.config import small_config
from repro.sim.engine import run_simulation
from repro.sim.system import System
from repro.telemetry import (
    EVENT_PARTITION,
    EVENT_POM_LOOKUP,
    EVENT_SHOOTDOWN,
    EVENT_SWITCH,
    EVENT_TLB_MISS,
    EVENT_WALK,
    EventTracer,
    MetricsRegistry,
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
        tracer.emit("tlb.shootdown", 99.0, dropped=2)
        document = tracer.to_chrome()
        assert "traceEvents" in document
        slices = [e for e in document["traceEvents"] if e.get("ph") == "X"]
        instants = [e for e in document["traceEvents"] if e.get("ph") == "i"]
        names = [e for e in document["traceEvents"] if e.get("ph") == "M"]
        assert len(slices) == 1 and slices[0]["dur"] == 42.0
        assert len(instants) == 1
        assert {m["args"]["name"] for m in names} == {"core 1", "system"}
        path = str(tmp_path / "c.json")
        tracer.write_chrome(path)
        with open(path) as handle:
            assert json.load(handle) == json.loads(json.dumps(document))


class TestEventTracerDropAccounting:
    """Drop accounting under budget downsampling (docs/budgets.md)."""

    def test_downsampling_counts_as_dropped(self):
        tracer = EventTracer()
        tracer.downsample = 8
        for i in range(80):
            tracer.emit("e", float(i))
        assert tracer.emitted == 80
        assert len(tracer) == 10          # every 8th survives
        assert tracer.downsampled == 70
        assert tracer.dropped == 70       # ring never overflowed

    def test_accounting_invariant_with_ring_and_downsampling(self):
        tracer = EventTracer(capacity=4)
        tracer.downsample = 3
        for i in range(60):
            tracer.emit("e", float(i))
        ring_drops = tracer.dropped - tracer.downsampled
        assert ring_drops >= 0
        assert tracer.downsampled + ring_drops + len(tracer) == tracer.emitted

    def test_budget_events_bypass_downsampling(self):
        tracer = EventTracer()
        tracer.downsample = 1000
        for i in range(10):
            tracer.emit("budget.soft", float(i))
            tracer.emit("plain", float(i))
        names = [event.name for event in tracer]
        assert names.count("budget.soft") == 10

    def test_dropped_survives_jsonl_round_trip(self, tmp_path):
        tracer = EventTracer()
        tracer.downsample = 4
        for i in range(40):
            tracer.emit("e", float(i))
        path = str(tmp_path / "t.jsonl")
        written = tracer.write_jsonl(path)
        assert written == len(tracer)
        # `repro stats` summarises exactly what was written; the dropped
        # total lives in the tracer's state, not the file.
        summary = summarize_events(read_events(path))
        assert summary.total_events == written
        state = tracer.state_dict()
        assert state["emitted"] == 40
        assert state["downsampled"] == tracer.downsampled

    def test_counters_never_go_backwards_across_restore(self):
        tracer = EventTracer()
        tracer.downsample = 2
        for i in range(20):
            tracer.emit("e", float(i))
        saved = tracer.state_dict()
        # The live tracer has advanced past the snapshot: load must not
        # rewind it.
        for i in range(10):
            tracer.emit("e", float(i))
        emitted_now, downsampled_now = tracer.emitted, tracer.downsampled
        tracer.load_state(saved)
        assert tracer.emitted == emitted_now
        assert tracer.downsampled == downsampled_now
        # A fresh tracer restoring the snapshot adopts it exactly.
        fresh = EventTracer()
        fresh.load_state(saved)
        assert fresh.emitted == saved["emitted"]
        assert fresh.downsampled == saved["downsampled"]

    def test_clear_resets_downsample_accounting(self):
        tracer = EventTracer()
        tracer.downsample = 2
        for i in range(10):
            tracer.emit("e", float(i))
        tracer.clear()
        assert tracer.emitted == 0
        assert tracer.downsampled == 0
        assert tracer.dropped == 0


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter(self):
        registry = MetricsRegistry()
        counter = registry.counter("a.b")
        counter.inc()
        counter.inc(4)
        assert registry.counter("a.b") is counter
        assert registry.to_dict() == {"a": {"b": 5}}

    def test_gauge_set_and_callback(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(3.5)
        backing = {"v": 7}
        registry.gauge("cb", lambda: backing["v"])
        snapshot = registry.to_dict()
        assert snapshot["g"] == 3.5
        assert snapshot["cb"] == 7.0
        backing["v"] = 8
        assert registry.to_dict()["cb"] == 8.0

    def test_callback_gauge_rejects_set(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("cb", lambda: 1.0)
        with pytest.raises(RuntimeError):
            gauge.set(2.0)

    def test_histogram_log_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        for value in (1, 2, 3, 100, 1000):
            hist.record(value)
        snapshot = hist.snapshot()
        assert snapshot["count"] == 5
        assert snapshot["min"] == 1
        assert snapshot["max"] == 1000
        assert snapshot["mean"] == pytest.approx(1106 / 5)
        # 1 -> le_1; 2 -> le_2; 3 -> le_4; 100 -> le_128; 1000 -> le_1024
        assert snapshot["buckets"] == {
            "le_1": 1, "le_2": 1, "le_4": 1, "le_128": 1, "le_1024": 1,
        }
        assert hist.percentile(0.5) <= hist.percentile(0.99)

    def test_histogram_empty(self):
        hist = MetricsRegistry().histogram("h")
        snapshot = hist.snapshot()
        assert snapshot["count"] == 0
        assert snapshot["p95"] == 0.0

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("x")

    def test_prefix_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("a.b")
        with pytest.raises(ValueError, match="collides"):
            registry.counter("a.b.c")

    def test_reset(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.histogram("h").record(5)
        registry.gauge("live", lambda: 42)
        registry.reset()
        snapshot = registry.to_dict()
        assert snapshot["c"] == 0
        assert snapshot["h"]["count"] == 0
        assert snapshot["live"] == 42.0  # callback gauges stay live

    def test_write_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("runs").inc()
        path = str(tmp_path / "m.json")
        registry.write_json(path, extra={"run": {"mix": "gups"}})
        with open(path) as handle:
            document = json.load(handle)
        assert document["runs"] == 1
        assert document["run"]["mix"] == "gups"


# ----------------------------------------------------------------------
# Simulation wiring
# ----------------------------------------------------------------------
def run_traced(scheme=Scheme.CSALT_CD, accesses=12_000, **kwargs):
    telemetry = Telemetry.enabled()
    config = small_config(scheme=scheme, **kwargs)
    result = run_simulation(
        config, make_mix("gups"), total_accesses=accesses, telemetry=telemetry,
    )
    return telemetry, result


class TestSimulationTelemetry:
    def test_events_emitted(self):
        telemetry, _ = run_traced()
        counts = telemetry.tracer.counts_by_name()
        assert counts.get(EVENT_TLB_MISS, 0) > 0
        assert counts.get(EVENT_POM_LOOKUP, 0) > 0
        assert counts.get(EVENT_WALK, 0) > 0
        walk = next(e for e in telemetry.tracer if e.name == EVENT_WALK)
        assert walk.duration > 0
        assert walk.args["refs"] >= 1
        assert 0 <= walk.core < 8

    def test_walk_histogram_recorded(self):
        telemetry, result = run_traced()
        hist = telemetry.metrics.get("walker.latency_cycles")
        # Cumulative over the whole run, including warmup-era walks.
        assert hist.count >= result.page_walks
        assert hist.count > 0
        assert hist.buckets()

    def test_pom_metrics_registered(self):
        telemetry, result = run_traced()
        snapshot = telemetry.metrics.to_dict()
        assert snapshot["pom"]["hits"] == result.pom_hits
        assert snapshot["pom"]["hit_latency_cycles"]["count"] >= result.pom_hits
        assert 0.0 <= snapshot["pom"]["occupancy"] <= 1.0

    def test_cache_and_dram_metrics(self):
        telemetry, _ = run_traced()
        snapshot = telemetry.metrics.to_dict()
        assert snapshot["cache"]["l3"]["hits"] >= 0
        assert snapshot["core0"]["l2"]["tlb_occupancy"] >= 0.0
        assert snapshot["dram"]["ddr"]["accesses"] > 0

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
        assert telemetry.metrics.to_dict()["partition"]["decisions"] > 0

    def test_context_switch_events(self):
        telemetry, result = run_traced(
            accesses=20_000, switch_interval_ms=0.05
        )
        switches = [e for e in telemetry.tracer if e.name == EVENT_SWITCH]
        assert switches
        assert result.extra["context_switches"] > 0
        assert all("vm" in e.args for e in switches)

    def test_shootdown_event(self):
        from repro.mem.address import Asid

        telemetry = Telemetry.enabled()
        system = System(small_config(scheme=Scheme.POM_TLB), telemetry=telemetry)
        asid = Asid(0, 0)
        system.vms[0].ensure_mapped(0, 0x1000)
        system.access(0, asid, 0x1000, False)
        system.shootdown_page(asid, 0x1000)
        events = [e for e in telemetry.tracer if e.name == EVENT_SHOOTDOWN]
        assert len(events) == 1
        assert events[0].args["dropped"] >= 1

    def test_warmup_clears_trace_but_not_histograms(self):
        telemetry = Telemetry.enabled()
        config = small_config(scheme=Scheme.CSALT_CD)
        result = run_simulation(
            config, make_mix("gups"), total_accesses=8_000,
            telemetry=telemetry, warmup_fraction=0.5,
        )
        # Trace covers the measured region only...
        walks = [e for e in telemetry.tracer if e.name == EVENT_WALK]
        assert len(walks) == result.page_walks
        # ...but histograms keep the warmup-era walks (steady state may
        # have none at all once the POM-TLB is hot).
        hist = telemetry.metrics.get("walker.latency_cycles")
        assert hist.count >= result.page_walks
        assert hist.count > 0
        assert hist.buckets()

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
        traced_tel = Telemetry.enabled()
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


# ----------------------------------------------------------------------
# Histogram edge cases (empty distributions)
# ----------------------------------------------------------------------
class TestHistogramEmpty:
    def test_mean_of_empty_is_zero(self):
        hist = MetricsRegistry().histogram("empty")
        assert hist.mean == 0.0

    def test_percentile_of_empty_is_zero(self):
        hist = MetricsRegistry().histogram("empty")
        for fraction in (0.0, 0.5, 0.95, 1.0):
            assert hist.percentile(fraction) == 0.0

    def test_percentile_still_validates_fraction(self):
        hist = MetricsRegistry().histogram("empty")
        with pytest.raises(ValueError):
            hist.percentile(1.5)
        with pytest.raises(ValueError):
            hist.percentile(-0.1)

    def test_reset_restores_empty_behaviour(self):
        hist = MetricsRegistry().histogram("h")
        hist.record(42)
        hist.reset()
        assert hist.mean == 0.0
        assert hist.percentile(0.99) == 0.0


class TestSummaryRows:
    def test_rows_cover_core_metrics(self):
        telemetry, result = run_traced(accesses=4000)
        summary = summarize_events(list(telemetry.tracer))
        rows = dict(summary.rows())
        assert rows["events"] == summary.total_events
        assert rows["l2_tlb_misses"] == summary.tlb_misses
        assert rows["context_switches"] == summary.context_switches

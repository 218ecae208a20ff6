"""Telemetry: event tracing, metrics, cycle accounting.

The subsystem has three independent sinks bundled by :class:`Telemetry`:

* an :class:`~repro.telemetry.events.EventTracer` — bounded ring of
  typed, cycle-stamped simulator events (JSONL / chrome://tracing);
* a :class:`~repro.telemetry.metrics.MetricsRegistry` — hierarchical
  counters, gauges and log-scale histograms components register into;
* a :class:`~repro.telemetry.accounting.CycleAccountant` — per-(core,
  VM) ledger attributing every simulated cycle to a named component
  (surfaced as ``SimulationResult.cpi_stack``).  The ledger is not
  optional: a System without one in its bundle builds its own.

Design rule: **disabled telemetry costs one ``is None`` check** at each
hook site.  Components hold ``telemetry=None`` by default and guard
every tracer and metrics hook with a single ``if``; no such sink
objects exist unless asked for.

Where *host* time goes is not a telemetry sink: ``perf/trace.py``
splits it across the simulator's layers from the outside
(``examples/host_time_breakdown.py`` runs it on any point).

Usage::

    from repro.telemetry import Telemetry

    telemetry = Telemetry.enabled()
    result = run_simulation(config, workloads, telemetry=telemetry)
    telemetry.tracer.write_jsonl("run.trace.jsonl")
    telemetry.metrics.write_json("metrics.json")

See ``docs/observability.md`` for the event schema and metric names.
"""

from __future__ import annotations

from typing import Optional

from repro.telemetry.accounting import (
    CYCLE_QUANTUM,
    CpiStack,
    CycleAccountant,
    quantize_cycles,
)
from repro.telemetry.events import (
    DEFAULT_TRACE_CAPACITY,
    EVENT_BUDGET_HARD,
    EVENT_BUDGET_SOFT,
    EVENT_FAULT,
    EVENT_PARTITION,
    EVENT_POM_LOOKUP,
    EVENT_SHOOTDOWN,
    EVENT_STORE_SKIP,
    EVENT_SWITCH,
    EVENT_TLB_MISS,
    EVENT_WALK,
    SYSTEM_CORE,
    EventTracer,
    TraceEvent,
    chrome_trace,
    read_events,
    write_chrome_trace,
)
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.progress import ProgressUpdate
from repro.telemetry.summary import TraceSummary, summarize_events

__all__ = [
    "CYCLE_QUANTUM",
    "Counter",
    "CpiStack",
    "CycleAccountant",
    "DEFAULT_TRACE_CAPACITY",
    "EVENT_BUDGET_HARD",
    "EVENT_BUDGET_SOFT",
    "EVENT_FAULT",
    "EVENT_PARTITION",
    "EVENT_POM_LOOKUP",
    "EVENT_SHOOTDOWN",
    "EVENT_STORE_SKIP",
    "EVENT_SWITCH",
    "EVENT_TLB_MISS",
    "EVENT_WALK",
    "EventTracer",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ProgressUpdate",
    "SYSTEM_CORE",
    "Telemetry",
    "TraceEvent",
    "TraceSummary",
    "chrome_trace",
    "quantize_cycles",
    "read_events",
    "summarize_events",
    "write_chrome_trace",
]


class Telemetry:
    """The sink bundle components are wired with.

    Any of the three sinks may be ``None``; hook sites check the sink
    they need, and a System given no ``accounting`` builds its own
    ledger.  Construct directly for fine control or use :meth:`enabled`
    for the common all-on case.
    """

    __slots__ = ("tracer", "metrics", "accounting")

    def __init__(
        self,
        tracer: Optional[EventTracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        accounting: Optional[CycleAccountant] = None,
    ):
        self.tracer = tracer
        self.metrics = metrics
        self.accounting = accounting

    @classmethod
    def enabled(
        cls,
        trace: bool = True,
        metrics: bool = True,
        trace_capacity: int = DEFAULT_TRACE_CAPACITY,
    ) -> "Telemetry":
        return cls(
            tracer=EventTracer(trace_capacity) if trace else None,
            metrics=MetricsRegistry() if metrics else None,
        )

    # ------------------------------------------------------------------
    def emit(
        self,
        name: str,
        cycles: float,
        core: int = SYSTEM_CORE,
        duration: float = 0.0,
        **args: object,
    ) -> None:
        """Emit a trace event if tracing is on (no-op otherwise)."""
        if self.tracer is not None:
            self.tracer.emit(name, cycles, core, duration, **args)

    def reset(self) -> None:
        """Clear all sinks (warmup boundary: see ``System.reset_stats``)."""
        if self.tracer is not None:
            self.tracer.clear()
        if self.metrics is not None:
            self.metrics.reset()
        if self.accounting is not None:
            self.accounting.reset()

"""Telemetry: event tracing and cycle accounting.

The subsystem has two independent sinks bundled by :class:`Telemetry`:

* an :class:`~repro.telemetry.events.EventTracer` — bounded ring of
  typed, cycle-stamped simulator events (JSONL / chrome://tracing);
* a :class:`~repro.telemetry.accounting.CycleAccountant` — per-(core,
  VM) ledger attributing every simulated cycle to a named component
  (surfaced as ``SimulationResult.cpi_stack``).  The ledger is not
  optional: a System without one in its bundle builds its own.

Each question a run answers has one record: counts live in the
:class:`~repro.sim.stats.SimulationResult`, the timeline (walks,
POM-TLB lookups, partition decisions, switches) in the event trace, and
where the simulated cycles went in the CPI stack.

Design rule: **disabled tracing costs one ``is None`` check** at each
hook site.  Components hold ``telemetry=None`` by default and guard
every tracer hook with a single ``if``; no tracer exists unless asked
for.

Where *host* time goes is not a telemetry sink: ``perf/trace.py``
splits it across the simulator's layers from the outside
(``examples/host_time_breakdown.py`` runs it on any point).

Usage::

    from repro.telemetry import EventTracer, Telemetry

    telemetry = Telemetry(tracer=EventTracer())
    result = run_simulation(config, workloads, telemetry=telemetry)
    telemetry.tracer.write_jsonl("run.trace.jsonl")

See ``docs/observability.md`` for the event schema.
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
    EVENT_PARTITION,
    EVENT_POM_LOOKUP,
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
from repro.telemetry.progress import ProgressUpdate
from repro.telemetry.summary import TraceSummary, summarize_events

__all__ = [
    "CYCLE_QUANTUM",
    "CpiStack",
    "CycleAccountant",
    "DEFAULT_TRACE_CAPACITY",
    "EVENT_BUDGET_HARD",
    "EVENT_PARTITION",
    "EVENT_POM_LOOKUP",
    "EVENT_SWITCH",
    "EVENT_TLB_MISS",
    "EVENT_WALK",
    "EventTracer",
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

    Either sink may be ``None``; hook sites check the sink they need,
    and a System given no ``accounting`` builds its own ledger.
    """

    __slots__ = ("tracer", "accounting")

    def __init__(
        self,
        tracer: Optional[EventTracer] = None,
        accounting: Optional[CycleAccountant] = None,
    ):
        self.tracer = tracer
        self.accounting = accounting

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

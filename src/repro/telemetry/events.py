"""Structured event tracing: a bounded ring buffer of typed sim events.

Every interesting simulator transition — a TLB miss escalating past the
L2 TLB, a page walk, a POM-TLB lookup, a partition-controller decision, a
context switch, a TLB shootdown — can be recorded as a
:class:`TraceEvent` carrying a simulated-cycle timestamp on the issuing
core's clock.  The tracer is a fixed-capacity ring (``collections.deque``
with ``maxlen``): when full, the *oldest* events are dropped so a long
run keeps its most recent window, and the drop count is reported.

Two export formats:

* **JSONL** — one event per line, the stable schema consumed by
  ``repro stats`` (see ``docs/observability.md``);
* **Chrome trace_event JSON** — loadable in ``chrome://tracing`` /
  Perfetto, one track per core plus a "system" track, with page walks
  rendered as duration slices.
"""

from __future__ import annotations

import json
from collections import Counter as _Counter
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List

#: Canonical event names (the ``name`` field of every TraceEvent).
EVENT_TLB_MISS = "tlb.miss"
EVENT_WALK = "walk"
EVENT_POM_LOOKUP = "pom.lookup"
EVENT_PARTITION = "partition.decision"
EVENT_SWITCH = "sched.switch"
EVENT_SHOOTDOWN = "tlb.shootdown"
EVENT_CHECKPOINT = "checkpoint.write"
EVENT_RESTORE = "checkpoint.restore"
EVENT_INVARIANT_CHECK = "validate.check"
EVENT_WATCHDOG_TRIP = "watchdog.trip"
EVENT_FAULT = "fault.injected"
EVENT_STORE_SKIP = "store.skip"
EVENT_BUDGET_HARD = "budget.exceeded"

#: Core id used for events not attributable to a single core.
SYSTEM_CORE = -1

#: Default ring capacity (events kept before the oldest are dropped).
DEFAULT_TRACE_CAPACITY = 1 << 16


@dataclass
class TraceEvent:
    """One simulator event.

    ``cycles`` is the issuing core's cycle counter at emission time (the
    per-core clocks are independent; chrome export puts each core on its
    own track).  ``duration`` > 0 marks a span (e.g. a page walk);
    instantaneous events leave it at 0.
    """

    name: str
    cycles: float
    core: int = SYSTEM_CORE
    duration: float = 0.0
    args: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> str:
        record = {"name": self.name, "cycles": self.cycles, "core": self.core}
        if self.duration:
            record["duration"] = self.duration
        if self.args:
            record["args"] = self.args
        return json.dumps(record, separators=(",", ":"), sort_keys=True)

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "TraceEvent":
        return cls(
            name=record["name"],
            cycles=float(record["cycles"]),
            core=int(record.get("core", SYSTEM_CORE)),
            duration=float(record.get("duration", 0.0)),
            args=dict(record.get("args", {})),
        )


class EventTracer:
    """Bounded ring buffer of :class:`TraceEvent`.

    When the ring is full the *oldest* event is pushed out, so
    ``emitted == dropped + len(ring)`` always holds.
    """

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY):
        if capacity < 1:
            raise ValueError(f"trace capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        self.emitted = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def emit(
        self,
        name: str,
        cycles: float,
        core: int = SYSTEM_CORE,
        duration: float = 0.0,
        **args: object,
    ) -> None:
        self.emitted += 1
        self._events.append(TraceEvent(name, cycles, core, duration, args))

    @property
    def dropped(self) -> int:
        """Events pushed out of the full ring instead of buffered."""
        return self.emitted - len(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def counts_by_name(self) -> Dict[str, int]:
        return dict(_Counter(event.name for event in self._events))

    def clear(self) -> None:
        """Drop all buffered events and reset the emission counter.

        The engine calls this at the end of warmup so the exported trace
        covers only the measured (post-reset) region and timestamps stay
        monotone per core.
        """
        self._events.clear()
        self.emitted = 0

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_jsonl_lines(self) -> Iterator[str]:
        for event in self._events:
            yield event.to_json()

    def write_jsonl(self, path: str) -> int:
        """Write one JSON object per line; returns the event count."""
        count = 0
        with open(path, "w") as handle:
            for line in self.to_jsonl_lines():
                handle.write(line + "\n")
                count += 1
        return count

    def to_chrome(self) -> Dict[str, object]:
        return chrome_trace(self._events)

    def write_chrome(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_chrome(), handle)


def read_events(path: str) -> List[TraceEvent]:
    """Load a JSONL trace written by :meth:`EventTracer.write_jsonl`."""
    events: List[TraceEvent] = []
    with open(path) as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_number}: not valid JSON") from exc
            if "name" not in record or "cycles" not in record:
                raise ValueError(
                    f"{path}:{line_number}: missing 'name'/'cycles' field"
                )
            events.append(TraceEvent.from_dict(record))
    return events


def chrome_trace(events: Iterable[TraceEvent]) -> Dict[str, object]:
    """Convert events to the Chrome ``trace_event`` JSON object format.

    Each core becomes one thread track (tid = core id); system-wide
    events land on a "system" track.  Span events (``duration`` > 0) map
    to complete ("X") slices, the rest to instant ("i") events.  The
    cycle timestamps are written through as microseconds — absolute wall
    time is meaningless in simulation, so 1 us in the viewer = 1 cycle.
    """
    trace_events: List[Dict[str, object]] = []
    seen_cores = set()
    for event in events:
        record: Dict[str, object] = {
            "name": event.name,
            "pid": 0,
            "tid": event.core,
            "ts": event.cycles,
            "cat": event.name.split(".")[0],
            "args": event.args,
        }
        seen_cores.add(event.core)
        if event.duration > 0:
            record["ph"] = "X"
            record["dur"] = event.duration
        else:
            record["ph"] = "i"
            record["s"] = "t"  # thread-scoped instant
        trace_events.append(record)
    metadata = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": core,
            "args": {
                "name": "system" if core == SYSTEM_CORE else f"core {core}"
            },
        }
        for core in sorted(seen_cores)
    ]
    return {
        "traceEvents": metadata + trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"timestamp_unit": "simulated CPU cycles"},
    }


def write_chrome_trace(events: Iterable[TraceEvent], path: str) -> None:
    """Write a chrome://tracing-loadable JSON file for ``events``."""
    with open(path, "w") as handle:
        json.dump(chrome_trace(events), handle)


"""Trace summarization: turn a JSONL event trace into run statistics.

Backs the ``repro stats`` CLI command.  Works from the portable
:class:`~repro.telemetry.events.TraceEvent` list, so it can digest a
trace written by any session (or synthesized by tests).
"""

from __future__ import annotations

from collections import Counter as _Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.telemetry.events import (
    EVENT_PARTITION,
    EVENT_POM_LOOKUP,
    EVENT_SWITCH,
    EVENT_TLB_MISS,
    EVENT_WALK,
    SYSTEM_CORE,
    TraceEvent,
)


def _percentile(sorted_values: List[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


@dataclass
class TraceSummary:
    """Aggregates computed by :func:`summarize_events`."""

    total_events: int = 0
    counts_by_name: Dict[str, int] = field(default_factory=dict)
    cores: List[int] = field(default_factory=list)
    cycle_span: Dict[int, Tuple[float, float]] = field(default_factory=dict)
    walk_count: int = 0
    walk_mean_cycles: float = 0.0
    walk_p50_cycles: float = 0.0
    walk_p95_cycles: float = 0.0
    walk_max_cycles: float = 0.0
    pom_lookups: int = 0
    pom_hits: int = 0
    tlb_misses: int = 0
    context_switches: int = 0
    partition_decisions: int = 0
    final_tlb_fraction: Dict[str, float] = field(default_factory=dict)

    @property
    def pom_hit_rate(self) -> float:
        return self.pom_hits / self.pom_lookups if self.pom_lookups else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "total_events": self.total_events,
            "counts_by_name": dict(self.counts_by_name),
            "cores": list(self.cores),
            "cycle_span": {
                str(core): list(span) for core, span in self.cycle_span.items()
            },
            "walks": {
                "count": self.walk_count,
                "mean_cycles": self.walk_mean_cycles,
                "p50_cycles": self.walk_p50_cycles,
                "p95_cycles": self.walk_p95_cycles,
                "max_cycles": self.walk_max_cycles,
            },
            "pom": {
                "lookups": self.pom_lookups,
                "hits": self.pom_hits,
                "hit_rate": self.pom_hit_rate,
            },
            "tlb_misses": self.tlb_misses,
            "context_switches": self.context_switches,
            "partition": {
                "decisions": self.partition_decisions,
                "final_tlb_fraction": dict(self.final_tlb_fraction),
            },
        }

    def rows(self) -> List[Tuple[str, object]]:
        """Flat (metric, value) pairs for table/CSV/markdown rendering."""
        out: List[Tuple[str, object]] = [("events", self.total_events)]
        for name in sorted(self.counts_by_name):
            out.append((f"events.{name}", self.counts_by_name[name]))
        named_cores = [core for core in self.cores if core != SYSTEM_CORE]
        if named_cores:
            out.append(("cores", len(named_cores)))
        if self.walk_count:
            out.extend([
                ("walks", self.walk_count),
                ("walk_mean_cycles", round(self.walk_mean_cycles, 3)),
                ("walk_p50_cycles", self.walk_p50_cycles),
                ("walk_p95_cycles", self.walk_p95_cycles),
                ("walk_max_cycles", self.walk_max_cycles),
            ])
        if self.pom_lookups:
            out.extend([
                ("pom_lookups", self.pom_lookups),
                ("pom_hit_rate", round(self.pom_hit_rate, 4)),
            ])
        out.append(("l2_tlb_misses", self.tlb_misses))
        out.append(("context_switches", self.context_switches))
        if self.partition_decisions:
            out.append(("partition_decisions", self.partition_decisions))
            for label in sorted(self.final_tlb_fraction):
                out.append(
                    (
                        f"final_tlb_fraction.{label}",
                        round(self.final_tlb_fraction[label], 4),
                    )
                )
        return out

    def format(self) -> str:
        lines = [f"events            : {self.total_events}"]
        for name in sorted(self.counts_by_name):
            lines.append(f"  {name:<16}: {self.counts_by_name[name]}")
        named_cores = [core for core in self.cores if core != SYSTEM_CORE]
        if named_cores:
            lines.append(f"cores             : {len(named_cores)}")
        if self.walk_count:
            lines.append(
                f"page walks        : {self.walk_count} "
                f"(mean {self.walk_mean_cycles:.0f}, p50 "
                f"{self.walk_p50_cycles:.0f}, p95 {self.walk_p95_cycles:.0f}, "
                f"max {self.walk_max_cycles:.0f} cycles)"
            )
        if self.pom_lookups:
            lines.append(
                f"POM lookups       : {self.pom_lookups} "
                f"(hit rate {self.pom_hit_rate:.1%})"
            )
        lines.append(f"L2 TLB misses     : {self.tlb_misses}")
        lines.append(f"context switches  : {self.context_switches}")
        if self.partition_decisions:
            lines.append(f"partition moves   : {self.partition_decisions}")
            for label in sorted(self.final_tlb_fraction):
                lines.append(
                    f"  {label:<16}: final TLB share "
                    f"{self.final_tlb_fraction[label]:.1%}"
                )
        return "\n".join(lines)


def summarize_events(events: List[TraceEvent]) -> TraceSummary:
    """Digest a trace into a :class:`TraceSummary`."""
    summary = TraceSummary(total_events=len(events))
    summary.counts_by_name = dict(_Counter(event.name for event in events))
    walk_durations: List[float] = []
    last_partition: Dict[str, float] = {}
    span: Dict[int, Tuple[float, float]] = {}
    for event in events:
        start = event.cycles
        end = event.cycles + event.duration
        low, high = span.get(event.core, (start, end))
        span[event.core] = (min(low, start), max(high, end))
        if event.name == EVENT_WALK:
            walk_durations.append(event.duration)
        elif event.name == EVENT_POM_LOOKUP:
            summary.pom_lookups += 1
            if event.args.get("hit"):
                summary.pom_hits += 1
        elif event.name == EVENT_TLB_MISS:
            summary.tlb_misses += 1
        elif event.name == EVENT_SWITCH:
            summary.context_switches += 1
        elif event.name == EVENT_PARTITION:
            summary.partition_decisions += 1
            label = str(event.args.get("label", "cache"))
            fraction: Optional[float] = event.args.get("tlb_fraction")
            if fraction is not None:
                last_partition[label] = float(fraction)
    summary.cores = sorted(span)
    summary.cycle_span = span
    summary.final_tlb_fraction = last_partition
    if walk_durations:
        walk_durations.sort()
        summary.walk_count = len(walk_durations)
        summary.walk_mean_cycles = sum(walk_durations) / len(walk_durations)
        summary.walk_p50_cycles = _percentile(walk_durations, 0.50)
        summary.walk_p95_cycles = _percentile(walk_durations, 0.95)
        summary.walk_max_cycles = walk_durations[-1]
    return summary

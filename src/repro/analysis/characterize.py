"""Workload characterization without simulation.

The paper motivates its workload choices by their memory behaviour
(Section 4.1: "applications which do not spend a considerable amount of
time in memory are not meaningful").  This module measures exactly those
properties straight from a workload's access stream — footprint, page
sizes, write share, and reuse statistics at line and page granularity —
so a new workload can be placed on the paper's map before burning
simulation time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable

from repro.mem.address import CACHE_LINE_BITS, PAGE_4K_BITS
from repro.workloads.base import Workload


@dataclass
class WorkloadProfile:
    """Stream statistics over a sampled window of one thread."""

    name: str
    accesses: int
    write_fraction: float
    distinct_lines: int
    distinct_pages_4k: int
    huge_page_fraction: float
    line_reuse_median: float
    page_reuse_median: float

    @property
    def footprint_bytes(self) -> int:
        """Touched bytes at 4 KB-page granularity."""
        return self.distinct_pages_4k << PAGE_4K_BITS


def _median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        return float("inf")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[middle])
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def _reuse_distances(keys: Iterable[int]) -> list:
    """Per-reuse gap (in accesses) between touches of the same key."""
    last_seen: Dict[int, int] = {}
    gaps = []
    for position, key in enumerate(keys):
        previous = last_seen.get(key)
        if previous is not None:
            gaps.append(position - previous)
        last_seen[key] = position
    return gaps


def characterize(
    workload: Workload,
    accesses: int = 50_000,
    thread_id: int = 0,
    num_threads: int = 8,
    seed: int = 0,
) -> WorkloadProfile:
    """Profile ``accesses`` of one thread's stream."""
    if accesses < 1:
        raise ValueError("need at least one access to characterize")
    stream = workload.thread_stream(thread_id, num_threads, seed)
    window = list(itertools.islice(stream, accesses))
    addresses = [address for address, _ in window]
    writes = sum(1 for _, is_write in window if is_write)
    lines = [address >> CACHE_LINE_BITS for address in addresses]
    pages = [address >> PAGE_4K_BITS for address in addresses]
    huge = sum(
        1 for address in addresses if address < workload.huge_va_limit
    )
    line_gaps = _reuse_distances(lines)
    page_gaps = _reuse_distances(pages)
    return WorkloadProfile(
        name=workload.name,
        accesses=len(window),
        write_fraction=writes / len(window),
        distinct_lines=len(set(lines)),
        distinct_pages_4k=len(set(pages)),
        huge_page_fraction=huge / len(window),
        line_reuse_median=_median(line_gaps),
        page_reuse_median=_median(page_gaps),
    )


def compare(profiles: Iterable[WorkloadProfile]) -> str:
    """Side-by-side table of several profiles (CLI-friendly)."""
    rows: list = list(profiles)
    if not rows:
        return "(no profiles)"
    header = (
        f"{'workload':<14}{'writes':>8}{'pages':>8}{'MB':>7}"
        f"{'huge':>6}{'line-reuse':>11}{'page-reuse':>11}"
    )
    out = [header, "-" * len(header)]
    for profile in rows:
        out.append(
            f"{profile.name:<14}{profile.write_fraction:>8.2f}"
            f"{profile.distinct_pages_4k:>8}"
            f"{profile.footprint_bytes / (1 << 20):>7.1f}"
            f"{profile.huge_page_fraction:>6.2f}"
            f"{profile.line_reuse_median:>11.0f}"
            f"{profile.page_reuse_median:>11.0f}"
        )
    return "\n".join(out)

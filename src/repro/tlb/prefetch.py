"""Sequential TLB prefetching (paper Section 6's orthogonal technique).

Kandiraju & Sivasubramaniam-style distance/sequential prefetching: on an
L2 TLB miss to virtual page P, speculatively fetch the translation of
P+stride into the L2 TLB.  With a POM-TLB substrate the prefetch is one
(off-critical-path) probe; without one it would cost a page walk, so the
prefetcher only engages when a POM-TLB is present.

The prefetch is *not* charged to the demanding instruction's latency —
real prefetches ride free MSHR/queue slots — but its memory references do
go through the caches, so mis-prefetching pollutes exactly as it would in
hardware.  A small stream detector gates prefetches to avoid flooding the
caches for random-access workloads (gups would otherwise double its POM
traffic for nothing).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

from repro.mem.address import Asid


@dataclass
class PrefetchStats:
    issued: int = 0
    suppressed: int = 0
    useful: int = 0


@dataclass
class SequentialTlbPrefetcher:
    """Stride-1 TLB prefetcher with a per-ASID stream confidence gate.

    ``confidence`` per ASID rises when consecutive L2 TLB misses hit
    adjacent pages (a streaming pattern) and decays otherwise; prefetches
    are issued only above ``threshold``.
    """

    stride: int = 1
    threshold: int = 2
    max_confidence: int = 7
    stats: PrefetchStats = field(default_factory=PrefetchStats)
    _last_vpn: Dict[Asid, int] = field(default_factory=dict)
    _confidence: Dict[Asid, int] = field(default_factory=dict)

    def observe_miss(self, asid: Asid, vpn: int) -> bool:
        """Record an L2 TLB miss; returns whether to prefetch vpn+stride."""
        last = self._last_vpn.get(asid)
        confidence = self._confidence.get(asid, 0)
        if last is not None and vpn == last + self.stride:
            confidence = min(self.max_confidence, confidence + 1)
        else:
            confidence = max(0, confidence - 1)
        self._last_vpn[asid] = vpn
        self._confidence[asid] = confidence
        if confidence >= self.threshold:
            self.stats.issued += 1
            return True
        self.stats.suppressed += 1
        return False

    def credit_hit(self) -> None:
        """A demand access hit a prefetched entry (accuracy accounting)."""
        self.stats.useful += 1

    def state_dict(self) -> dict:
        """A view, valid until the next miss: the live stream tables, and
        a ``replace()`` copy of the stats."""
        return {
            "stats": replace(self.stats),
            "last_vpn": self._last_vpn,
            "confidence": self._confidence,
        }

    def load_state(self, state: dict) -> None:
        self.stats = replace(state["stats"])
        self._last_vpn = dict(state["last_vpn"])
        self._confidence = dict(state["confidence"])

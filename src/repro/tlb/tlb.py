"""On-chip set-associative TLBs (L1 split by page size, L2 unified).

Entries are tagged with the full :class:`~repro.mem.address.Asid`, so VM
context switches do not flush them (the entries simply compete for
capacity — the effect Figure 1 quantifies).  The unified L2 TLB holds both
4 KB and 2 MB translations; a lookup probes one set per supported page
size, as real unified TLBs do.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.mem.address import Asid, PAGE_4K_BITS, PAGE_2M_BITS


@dataclass(frozen=True)
class TlbEntry:
    """A cached translation: virtual page -> host physical frame."""

    frame_base: int
    page_bits: int


@dataclass
class TlbStats:
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0


class Tlb:
    """A set-associative, ASID-tagged TLB with LRU replacement.

    ``page_bits_supported`` lists the page sizes this TLB holds; a unified
    TLB passes both, a split L1 passes exactly one.
    """

    def __init__(
        self,
        name: str,
        entries: int,
        ways: int,
        latency: int,
        page_bits_supported: Tuple[int, ...] = (PAGE_4K_BITS,),
    ):
        if entries % ways:
            raise ValueError(f"{name}: {entries} entries not divisible by {ways} ways")
        self.name = name
        self.entries = entries
        self.ways = ways
        self.latency = latency
        self.num_sets = entries // ways
        self.page_bits_supported = tuple(page_bits_supported)
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]
        self.stats = TlbStats()

    def lookup(self, asid: Asid, virtual_address: int) -> Optional[TlbEntry]:
        """Probe all supported page sizes; LRU-promote on hit.

        Hot path: attributes are hoisted out of the probe loop.  The set
        of a page is ``vpn % num_sets`` in every method.
        """
        sets = self._sets
        num_sets = self.num_sets
        for page_bits in self.page_bits_supported:
            vpn = virtual_address >> page_bits
            tlb_set = sets[vpn % num_sets]
            key = (asid, vpn, page_bits)
            entry = tlb_set.get(key)
            if entry is not None:
                tlb_set.move_to_end(key)
                self.stats.hits += 1
                return entry
        self.stats.misses += 1
        return None

    def probe(self, asid: Asid, virtual_address: int) -> Optional[TlbEntry]:
        """Presence check without statistics or recency update (used by
        prefetchers and tests)."""
        for page_bits in self.page_bits_supported:
            vpn = virtual_address >> page_bits
            entry = self._sets[vpn % self.num_sets].get((asid, vpn, page_bits))
            if entry is not None:
                return entry
        return None

    def insert(self, asid: Asid, virtual_address: int, entry: TlbEntry) -> None:
        """Install a translation, evicting the set's LRU entry if full."""
        page_bits = entry.page_bits
        if page_bits not in self.page_bits_supported:
            raise ValueError(
                f"{self.name} does not hold 2**{page_bits}-byte pages"
            )
        vpn = virtual_address >> page_bits
        tlb_set = self._sets[vpn % self.num_sets]
        key = (asid, vpn, page_bits)
        if key in tlb_set:
            tlb_set.move_to_end(key)
            tlb_set[key] = entry
            return
        if len(tlb_set) >= self.ways:
            tlb_set.popitem(last=False)
            self.stats.evictions += 1
        tlb_set[key] = entry
        self.stats.insertions += 1

    def reset_stats(self) -> None:
        self.stats = TlbStats()

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Plain-data snapshot; set order *is* the LRU order, so each set
        is serialized as an ordered (key, entry) list."""
        return {
            "sets": [list(tlb_set.items()) for tlb_set in self._sets],
            "stats": replace(self.stats),
        }

    def load_state(self, state: dict) -> None:
        sets = state["sets"]
        if len(sets) != self.num_sets:
            raise ValueError(
                f"{self.name}: snapshot has {len(sets)} sets, "
                f"this TLB has {self.num_sets}"
            )
        self._sets = [OrderedDict(items) for items in sets]
        self.stats = replace(state["stats"])


class L1TlbPair:
    """Split L1 TLBs (4 KB and 2 MB), probed in parallel as on Skylake."""

    def __init__(
        self,
        entries_4k: int = 64,
        entries_2m: int = 32,
        ways: int = 4,
        latency: int = 9,
    ):
        self.tlb_4k = Tlb("l1tlb-4k", entries_4k, ways, latency, (PAGE_4K_BITS,))
        self.tlb_2m = Tlb("l1tlb-2m", entries_2m, ways, latency, (PAGE_2M_BITS,))
        self.latency = latency

    def lookup(self, asid: Asid, virtual_address: int) -> Optional[TlbEntry]:
        # Both probes are inlined: this runs once per simulated access, so
        # the two Tlb.lookup calls it replaces were measurable.  Statistics
        # match the nested-call form exactly — a 4 KB hit leaves the 2 MB
        # side untouched (the parallel 2 MB probe would also have happened,
        # but it is not a demand miss).
        tlb = self.tlb_4k
        vpn = virtual_address >> PAGE_4K_BITS
        key = (asid, vpn, PAGE_4K_BITS)
        tlb_set = tlb._sets[vpn % tlb.num_sets]
        entry = tlb_set.get(key)
        if entry is not None:
            tlb_set.move_to_end(key)
            tlb.stats.hits += 1
            return entry
        tlb.stats.misses += 1
        tlb = self.tlb_2m
        vpn = virtual_address >> PAGE_2M_BITS
        key = (asid, vpn, PAGE_2M_BITS)
        tlb_set = tlb._sets[vpn % tlb.num_sets]
        entry = tlb_set.get(key)
        if entry is not None:
            tlb_set.move_to_end(key)
            tlb.stats.hits += 1
            return entry
        tlb.stats.misses += 1
        return None

    def insert(self, asid: Asid, virtual_address: int, entry: TlbEntry) -> None:
        target = self.tlb_4k if entry.page_bits == PAGE_4K_BITS else self.tlb_2m
        target.insert(asid, virtual_address, entry)

    def state_dict(self) -> dict:
        return {
            "tlb_4k": self.tlb_4k.state_dict(),
            "tlb_2m": self.tlb_2m.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        self.tlb_4k.load_state(state["tlb_4k"])
        self.tlb_2m.load_state(state["tlb_2m"])

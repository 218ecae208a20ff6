"""POM-TLB: the very large part-of-memory L3 TLB (Ryoo et al., ISCA 2017).

The POM-TLB is a 16 MB set-associative TLB living in die-stacked DRAM at a
fixed host-physical address range.  Because it is *memory mapped*, probes
and fills are ordinary memory references: they travel through the L2/L3
data caches, which is precisely what creates the data/TLB cache contention
CSALT manages.

Organization (following the ISCA paper as summarized in CSALT Section 3):

* each 64-byte DRAM line is one TLB set holding four translation entries;
* the region is split in half: the lower half indexes 4 KB translations,
  the upper half 2 MB translations;
* a lightweight page-size predictor chooses which half to probe first; a
  wrong first probe costs a second memory reference.

This module models content and geometry; the *timing* of each probe is the
caller's memory access to :meth:`set_address` (see ``repro.sim.system``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.mem.address import Asid, CACHE_LINE_BYTES, PAGE_4K_BITS, PAGE_2M_BITS
from repro.tlb.tlb import TlbEntry

_HASH_MULTIPLIER = 0x9E3779B97F4A7C15
_HASH_MASK = (1 << 64) - 1


@dataclass
class PomTlbStats:
    hits: int = 0
    misses: int = 0
    first_probe_hits: int = 0
    second_probes: int = 0
    insertions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class PageSizePredictor:
    """Per-ASID saturating counter predicting 4 KB vs 2 MB translations."""

    def __init__(self, maximum: int = 15):
        self.maximum = maximum
        self._counters: Dict[Asid, int] = {}

    def predict(self, asid: Asid) -> int:
        """Return the predicted page_bits for the next translation."""
        counter = self._counters.get(asid, 0)
        return PAGE_2M_BITS if counter > self.maximum // 2 else PAGE_4K_BITS

    def update(self, asid: Asid, actual_page_bits: int) -> None:
        counter = self._counters.get(asid, 0)
        if actual_page_bits == PAGE_2M_BITS:
            counter = min(self.maximum, counter + 1)
        else:
            counter = max(0, counter - 1)
        self._counters[asid] = counter

    def state_dict(self) -> dict:
        """A view, valid until the next update: the live counters."""
        return {"counters": self._counters}

    def load_state(self, state: dict) -> None:
        self._counters = dict(state["counters"])


class PomTlb:
    """Content model of the memory-mapped large L3 TLB."""

    def __init__(
        self,
        base_address: int = 0,
        size_bytes: int = 16 * 1024 * 1024,
        entries_per_set: int = 4,
    ):
        self.base_address = base_address
        self.size_bytes = size_bytes
        self.entries_per_set = entries_per_set
        total_sets = size_bytes // CACHE_LINE_BYTES
        # Lower half of the sets index 4 KB pages, upper half 2 MB pages.
        self.sets_per_size = total_sets // 2
        self._contents: Dict[int, OrderedDict] = {}
        self.predictor = PageSizePredictor()
        self.stats = PomTlbStats()

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def _set_index(self, asid: Asid, vpn: int, page_bits: int) -> int:
        mixed = (vpn * _HASH_MULTIPLIER) & _HASH_MASK
        mixed ^= (asid.vm_id & 0xFF) << 57 | (asid.process_id & 0xFF) << 49
        index = (mixed >> 20) % self.sets_per_size
        if page_bits == PAGE_2M_BITS:
            index += self.sets_per_size
        return index

    def set_address(self, asid: Asid, virtual_address: int, page_bits: int) -> int:
        """Host physical address of the set line a probe must read."""
        vpn = virtual_address >> page_bits
        index = self._set_index(asid, vpn, page_bits)
        return self.base_address + index * CACHE_LINE_BYTES

    # ------------------------------------------------------------------
    # Content operations
    # ------------------------------------------------------------------
    def probe(
        self, asid: Asid, virtual_address: int, page_bits: int
    ) -> Optional[TlbEntry]:
        """Check the set for ``page_bits``-sized translation; LRU-promote."""
        vpn = virtual_address >> page_bits
        index = self._set_index(asid, vpn, page_bits)
        pom_set = self._contents.get(index)
        if pom_set is None:
            return None
        key = (asid, vpn)
        entry = pom_set.get(key)
        if entry is not None:
            pom_set.move_to_end(key)
        return entry

    def probe_with_address(
        self, asid: Asid, virtual_address: int, page_bits: int
    ) -> Tuple[Optional[TlbEntry], int]:
        """Fused :meth:`probe` + :meth:`set_address`: one hash, not two.

        The datapath needs both the content answer and the set's line
        address (the memory reference that models the probe's timing);
        computing them together halves the hash-mix work per probe.
        """
        vpn = virtual_address >> page_bits
        mixed = (vpn * _HASH_MULTIPLIER) & _HASH_MASK
        mixed ^= (asid.vm_id & 0xFF) << 57 | (asid.process_id & 0xFF) << 49
        index = (mixed >> 20) % self.sets_per_size
        if page_bits == PAGE_2M_BITS:
            index += self.sets_per_size
        address = self.base_address + index * CACHE_LINE_BYTES
        pom_set = self._contents.get(index)
        if pom_set is None:
            return None, address
        key = (asid, vpn)
        entry = pom_set.get(key)
        if entry is not None:
            pom_set.move_to_end(key)
        return entry, address

    def lookup_order(self, asid: Asid) -> Tuple[int, int]:
        """Page sizes in probe order, predicted size first."""
        predicted = self.predictor.predict(asid)
        other = PAGE_2M_BITS if predicted == PAGE_4K_BITS else PAGE_4K_BITS
        return predicted, other

    def record_outcome(
        self, asid: Asid, hit: bool, page_bits: Optional[int], probes: int
    ) -> None:
        """Update stats and the predictor after a completed lookup."""
        if hit:
            self.stats.hits += 1
            if probes == 1:
                self.stats.first_probe_hits += 1
            self.predictor.update(asid, page_bits)
        else:
            self.stats.misses += 1
        if probes > 1:
            self.stats.second_probes += 1

    def insert(self, asid: Asid, virtual_address: int, entry: TlbEntry) -> int:
        """Install a translation in its set (4-way LRU within the line).

        Returns the host physical address of the set line written (what
        :meth:`set_address` gives), for the fill's memory reference.
        """
        page_bits = entry.page_bits
        vpn = virtual_address >> page_bits
        index = self._set_index(asid, vpn, page_bits)
        pom_set = self._contents.setdefault(index, OrderedDict())
        key = (asid, vpn)
        if key in pom_set:
            pom_set.move_to_end(key)
        elif len(pom_set) >= self.entries_per_set:
            pom_set.popitem(last=False)
        pom_set[key] = entry
        self.stats.insertions += 1
        self.predictor.update(asid, page_bits)
        return self.base_address + index * CACHE_LINE_BYTES

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Each set's entries as a built ``(key, entry)`` list in LRU
        order (the live sets are OrderedDicts), and a ``replace()`` copy
        of the stats."""
        return {
            "contents": {
                index: list(pom_set.items())
                for index, pom_set in self._contents.items()
            },
            "predictor": self.predictor.state_dict(),
            "stats": replace(self.stats),
        }

    def load_state(self, state: dict) -> None:
        total_sets = 2 * self.sets_per_size
        for index in state["contents"]:
            if not 0 <= index < total_sets:
                raise ValueError(
                    f"pom-tlb: snapshot set index {index} outside "
                    f"[0, {total_sets})"
                )
        self._contents = {
            index: OrderedDict(items)
            for index, items in state["contents"].items()
        }
        self.predictor.load_state(state["predictor"])
        self.stats = replace(state["stats"])

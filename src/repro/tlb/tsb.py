"""Translation Storage Buffer baseline (Oracle UltraSPARC, paper Fig. 13).

The TSB is a software-managed, direct-mapped translation table in ordinary
memory.  The trap handler reloads the TLB from it on a miss.  In a
virtualized system the guest's TSB holds gVA -> gPA translations and lives
in *guest* memory, so probing it requires first translating the TSB slot's
own guest-physical address; the resulting hPA must then be translated via
the host's TSB (gPA -> hPA).  That multi-lookup structure — at least two
dependent cacheable references per miss, plus trap overhead — is exactly
why the paper finds TSB inferior to the single-probe POM-TLB (Section 5.2),
even though both benefit from caching their entries in the data caches.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.mem.address import Asid
from repro.tlb.tlb import TlbEntry

#: Cycles of software trap entry/exit charged per TSB reload (Li et al.
#: measure trap costs in the tens of cycles; the TSB handler is short).
TSB_TRAP_CYCLES = 30


@dataclass
class TsbStats:
    probes: int = 0
    hits: int = 0
    misses: int = 0
    insertions: int = 0


class Tsb:
    """One direct-mapped software TSB in a contiguous memory region.

    ``entry_bytes`` is 16 (tag + data) as on UltraSPARC; consecutive slots
    therefore pack four to a cache line, giving TSB probes good spatial
    locality in the data caches.
    """

    def __init__(
        self,
        name: str,
        base_address: int,
        num_entries: int = 512 * 1024,
        entry_bytes: int = 16,
    ):
        if num_entries & (num_entries - 1):
            raise ValueError(f"{name}: entry count must be a power of two")
        self.name = name
        self.base_address = base_address
        self.num_entries = num_entries
        self.entry_bytes = entry_bytes
        self.size_bytes = num_entries * entry_bytes
        self._slots: Dict[int, Tuple[Asid, int, TlbEntry]] = {}
        self.stats = TsbStats()

    def slot_index(self, asid: Asid, virtual_address: int, page_bits: int) -> int:
        vpn = virtual_address >> page_bits
        return (vpn ^ (asid.process_id * 0x85EB)) % self.num_entries

    def slot_address(self, asid: Asid, virtual_address: int, page_bits: int) -> int:
        """Address of the slot the trap handler reads (one load)."""
        index = self.slot_index(asid, virtual_address, page_bits)
        return self.base_address + index * self.entry_bytes

    def probe(
        self, asid: Asid, virtual_address: int, page_bits: int
    ) -> Optional[TlbEntry]:
        self.stats.probes += 1
        index = self.slot_index(asid, virtual_address, page_bits)
        slot = self._slots.get(index)
        if slot is None:
            self.stats.misses += 1
            return None
        slot_asid, slot_vpn, entry = slot
        # The tag must include the page size: a 2 MB probe may otherwise
        # falsely match a 4 KB entry whose VPN collides numerically.
        if (
            slot_asid == asid
            and slot_vpn == (virtual_address >> page_bits)
            and entry.page_bits == page_bits
        ):
            self.stats.hits += 1
            return entry
        self.stats.misses += 1
        return None

    def insert(self, asid: Asid, virtual_address: int, entry: TlbEntry) -> None:
        """Direct-mapped fill: the previous occupant is simply overwritten."""
        index = self.slot_index(asid, virtual_address, entry.page_bits)
        self._slots[index] = (asid, virtual_address >> entry.page_bits, entry)
        self.stats.insertions += 1

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Geometry is included: TSBs are created lazily per (vm, process),
        so a restore may need to rebuild one that the fresh system has not
        allocated yet (see :meth:`from_state`).  A view, valid until the
        next insertion: ``slots`` is the live table."""
        return {
            "name": self.name,
            "base_address": self.base_address,
            "num_entries": self.num_entries,
            "entry_bytes": self.entry_bytes,
            "slots": self._slots,
            "stats": replace(self.stats),
        }

    def load_state(self, state: dict) -> None:
        for field_name in ("name", "base_address", "num_entries", "entry_bytes"):
            if state[field_name] != getattr(self, field_name):
                raise ValueError(
                    f"{self.name}: snapshot {field_name}={state[field_name]!r} "
                    f"does not match this TSB's {getattr(self, field_name)!r}"
                )
        self._slots = dict(state["slots"])
        self.stats = replace(state["stats"])

    @classmethod
    def from_state(cls, state: dict) -> "Tsb":
        """Rebuild a TSB at its recorded base address *without* going
        through the allocator (the frames were already reserved in the
        allocator state restored alongside)."""
        tsb = cls(
            state["name"],
            state["base_address"],
            num_entries=state["num_entries"],
            entry_bytes=state["entry_bytes"],
        )
        tsb.load_state(state)
        return tsb

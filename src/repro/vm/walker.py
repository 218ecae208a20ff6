"""Hardware page-table walkers: native 1-D and virtualized 2-D (nested).

The virtualized walk follows the paper's Figure 2b: each guest page-table
level yields a guest-physical pointer which itself needs a host (EPT)
translation, so a cold 4 KB walk touches up to 24 memory locations (4x4
host references for the guest pointers, 4 guest node references, and a
final 4-reference host walk of the resulting guest-physical address).
Warm walks are much cheaper thanks to the paging-structure caches (guest
dimension) and the nested TLB (host dimension) — reproducing the spread
the paper measures in Table 1.

Every memory reference a walk makes is issued through a caller-provided
accessor, so walk traffic competes for L2/L3 data-cache capacity exactly
as the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple

from repro.mem.address import Asid, PAGE_4K_BITS, RADIX_LEVELS
from repro.mem.cache import LineKind
from repro.telemetry.accounting import (
    LEVEL_NTLB,
    CycleAccountant,
    context_names,
)
from repro.tlb.tlb import TlbEntry
from repro.vm.mmu_cache import NestedTlb, PagingStructureCache, PscConfig
from repro.vm.page_table import PageTable
from repro.vm.physical_memory import FrameAllocator, HostPhysicalMemory

#: Signature of the memory-access callback: (host physical address, line
#: kind, is_write) -> latency in CPU cycles.
MemoryAccessor = Callable[[int, LineKind, bool], int]

#: Guest-physical address space size per VM (frames are virtual bookkeeping;
#: nothing this large is actually allocated).
_GUEST_PHYS_BYTES = 1 << 40

#: Charging context of the host walk of a 2-D walk's final guest-physical
#: address.
_FINAL_NAMES = context_names("walk.nested.final")


@dataclass
class WalkResult:
    """Outcome of one page walk: the entry the TLBs will store."""

    translation: TlbEntry
    latency: int
    memory_refs: int


@dataclass
class WalkerStats:
    walks: int = 0
    total_latency: int = 0
    total_refs: int = 0


class VirtualMachine:
    """Page tables and allocators for one guest VM (or native process group).

    With ``native=True`` there is no host dimension: "guest" tables map
    straight to host frames and are walked with the 1-D walker, modelling
    the paper's native runs (Table 1, Figure 12).
    """

    def __init__(
        self,
        vm_id: int,
        host_memory: HostPhysicalMemory,
        native: bool = False,
        levels: int = RADIX_LEVELS,
    ):
        self.vm_id = vm_id
        self.native = native
        self.levels = levels
        self._host_allocator = host_memory.allocator_for_vm(vm_id)
        if native:
            self._guest_allocator = self._host_allocator
            self.host_table = None
        else:
            # Guest-physical frames are bookkeeping numbers in a private space.
            self._guest_allocator = FrameAllocator(
                base_frame=0, num_frames=_GUEST_PHYS_BYTES // 4096
            )
            # Host (EPT) table: gPA -> hPA.  Its nodes live in host frames.
            self.host_table = PageTable(self._host_allocator, levels=levels)
        # Guest tables per process: gVA -> gPA (or VA -> hPA natively).
        self._guest_tables: Dict[int, PageTable] = {}
        # Host (EPT) mappings only ever grow, so frames proven mapped are
        # memoized and ``ensure_host_mapped`` becomes one set probe after
        # first touch.  Cleared on ``load_state`` (a snapshot may predate
        # mappings the memo has seen).
        self._host_mapped: set = set()

    def guest_table(self, process_id: int) -> PageTable:
        table = self._guest_tables.get(process_id)
        if table is None:
            table = PageTable(self._guest_allocator, levels=self.levels)
            self._guest_tables[process_id] = table
        return table

    def ensure_mapped(
        self, process_id: int, virtual_address: int, page_bits: int = PAGE_4K_BITS
    ) -> None:
        """Demand-map a guest page and (if virtualized) its EPT backing.

        One radix descent per table; the host table is touched only when
        the guest page is new.
        """
        table = self.guest_table(process_id)
        mapped = table.pages_mapped
        guest_translation = table.lookup_or_map(virtual_address, page_bits)
        if self.native or table.pages_mapped == mapped:
            return
        guest_frame = guest_translation.frame_base
        self.host_table.lookup_or_map(guest_frame << PAGE_4K_BITS, page_bits)
        # The page's first frame is now proven mapped: the 2-D walk's
        # final host translation of it skips ``ensure_host_mapped``.
        self._host_mapped.add(guest_frame)

    def ensure_host_mapped(self, guest_physical: int) -> None:
        """Ensure an EPT mapping exists for ``guest_physical`` (node frames)."""
        if self.native:
            raise RuntimeError("native contexts have no host (EPT) dimension")
        frame = guest_physical >> PAGE_4K_BITS
        if frame in self._host_mapped:
            return
        self.host_table.lookup_or_map(guest_physical, PAGE_4K_BITS)
        self._host_mapped.add(frame)

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot the VM's allocators and tables.

        Natively the guest allocator *is* the host allocator (aliased), so
        only the host side is recorded; restoring keeps the alias intact.
        """
        return {
            "vm_id": self.vm_id,
            "native": self.native,
            "levels": self.levels,
            "host_allocator": self._host_allocator.state_dict(),
            "guest_allocator": (
                None if self.native else self._guest_allocator.state_dict()
            ),
            "host_table": (
                None if self.native else self.host_table.state_dict()
            ),
            "guest_tables": {
                process_id: table.state_dict()
                for process_id, table in self._guest_tables.items()
            },
        }

    def load_state(self, state: dict) -> None:
        for field_name in ("vm_id", "native", "levels"):
            if state[field_name] != getattr(self, field_name):
                raise ValueError(
                    f"vm {self.vm_id}: snapshot {field_name}="
                    f"{state[field_name]!r} does not match this VM's "
                    f"{getattr(self, field_name)!r}"
                )
        self._host_allocator.load_state(state["host_allocator"])
        self._host_mapped.clear()
        if not self.native:
            self._guest_allocator.load_state(state["guest_allocator"])
            self.host_table.load_state(state["host_table"])
        # Guest tables are created lazily, so the snapshot may hold tables
        # the fresh VM has not built; rebuild them without allocating.
        self._guest_tables = {
            process_id: PageTable.from_state(self._guest_allocator, table_state)
            for process_id, table_state in state["guest_tables"].items()
        }


class PageWalker:
    """A per-core walker with PSC and nested TLB, issuing cacheable refs."""

    def __init__(
        self,
        accessor: MemoryAccessor,
        accountant: CycleAccountant,
        psc_config: Optional[PscConfig] = None,
        nested_tlb_entries: int = 64,
        walk_kind: LineKind = LineKind.TLB,
        levels: int = RADIX_LEVELS,
    ):
        self._access = accessor
        self.levels = levels
        #: Per-level charging contexts, prebuilt so the per-level loops
        #: below do no string work (index = level number).
        self._level_names = tuple(
            context_names(f"walk.l{n}") for n in range(levels + 1)
        )
        self._nested_names = tuple(
            context_names(f"walk.nested.l{n}") for n in range(levels + 1)
        )
        self.psc = PagingStructureCache(psc_config, levels=levels)
        self.nested_tlb = NestedTlb(entries=nested_tlb_entries)
        self.walk_kind = walk_kind
        self.stats = WalkerStats()
        #: The cycle ledger.  The walker *sets* per-level charging
        #: contexts (``walk.l{n}``, ``walk.nested.l{n}``) but never
        #: restores them — the System brackets each walk and puts the
        #: caller's context back.
        self.accountant = accountant

    def state_dict(self) -> dict:
        """The accessor callback is wiring, not state — only the caches
        and counters are snapshotted."""
        return {
            "psc": self.psc.state_dict(),
            "nested_tlb": self.nested_tlb.state_dict(),
            "stats": replace(self.stats),
        }

    def load_state(self, state: dict) -> None:
        self.psc.load_state(state["psc"])
        self.nested_tlb.load_state(state["nested_tlb"])
        self.stats = replace(state["stats"])

    # ------------------------------------------------------------------
    # Native (1-D) walk
    # ------------------------------------------------------------------
    def walk_native(
        self, asid: Asid, table: PageTable, virtual_address: int
    ) -> WalkResult:
        """Figure 2a: a plain radix walk, shortened by PSC hits."""
        latency = 0
        refs = 0
        acct = self.accountant
        psc_latency = self.psc.config.latency
        hit_level = self.psc.probe_level(asid, virtual_address)
        latency += psc_latency
        current = acct._current
        try:
            current["walk.psc"] += psc_latency
        except KeyError:
            current["walk.psc"] = psc_latency
        acct.charged += psc_latency
        start_level = table.levels if hit_level is None else hit_level
        addresses, translation = table.walk_addresses(virtual_address, start_level)
        if translation is None:
            raise KeyError(
                f"walk of unmapped address {virtual_address:#x} for {asid}"
            )
        access = self._access
        walk_kind = self.walk_kind
        # ``acct.context(f"walk.l{level}")`` inlined: the walker owns the
        # context for the whole walk (the System saved the caller's), so
        # each level is one attribute store, not a method call.
        level_names = self._level_names
        level = start_level
        for entry_address in addresses:
            acct._names = level_names[level]
            latency += access(entry_address, walk_kind, False)
            level -= 1
        refs += len(addresses)
        deepest = start_level - len(addresses) + 1
        self.psc.install(asid, virtual_address, deepest)
        self.stats.walks += 1
        self.stats.total_latency += latency
        self.stats.total_refs += refs
        return WalkResult(
            TlbEntry(translation.frame_base, translation.page_bits),
            latency,
            refs,
        )

    # ------------------------------------------------------------------
    # Virtualized (2-D) walk
    # ------------------------------------------------------------------
    def walk_virtualized(
        self, asid: Asid, vm: VirtualMachine, virtual_address: int
    ) -> WalkResult:
        """Figure 2b: nested walk with PSC (guest) and nested-TLB (host)."""
        latency = 0
        refs = 0
        acct = self.accountant
        guest_table = vm.guest_table(asid.process_id)
        psc_latency = self.psc.config.latency
        hit_level = self.psc.probe_level(asid, virtual_address)
        latency += psc_latency
        current = acct._current
        try:
            current["walk.psc"] += psc_latency
        except KeyError:
            current["walk.psc"] = psc_latency
        acct.charged += psc_latency
        start_level = guest_table.levels if hit_level is None else hit_level
        entry_addresses, guest_translation = guest_table.walk_addresses(
            virtual_address, start_level
        )
        if guest_translation is None:
            raise KeyError(
                f"walk of unmapped guest address {virtual_address:#x} for {asid}"
            )
        # Read each guest node entry; its guest-physical address needs a
        # host-side translation first.
        level = start_level
        access = self._access
        walk_kind = self.walk_kind
        translate = self.translate_guest_physical
        # Context switches inlined, as in :meth:`walk_native`.
        level_names = self._level_names
        nested_names = self._nested_names
        for guest_entry_address in entry_addresses:
            acct._names = nested_names[level]
            host_latency, host_refs, host_entry = translate(
                vm, guest_entry_address
            )
            latency += host_latency
            refs += host_refs
            acct._names = level_names[level]
            latency += access(host_entry, walk_kind, False)
            refs += 1
            level -= 1
        # Final host walk of the translated guest-physical data address.
        acct._names = _FINAL_NAMES
        guest_physical = guest_translation.physical_address(virtual_address)
        host_latency, host_refs, host_physical = translate(vm, guest_physical)
        latency += host_latency
        refs += host_refs
        deepest = start_level - len(entry_addresses) + 1
        self.psc.install(asid, virtual_address, deepest)
        # The effective TLB entry maps the guest page to the host frame of
        # its page base (guest and host page sizes agree by construction).
        page_bits = guest_translation.page_bits
        entry = TlbEntry(
            (host_physical & ~((1 << page_bits) - 1)) >> PAGE_4K_BITS,
            page_bits,
        )
        self.stats.walks += 1
        self.stats.total_latency += latency
        self.stats.total_refs += refs
        return WalkResult(entry, latency, refs)

    def translate_guest_physical(
        self, vm: VirtualMachine, guest_physical: int
    ) -> Tuple[int, int, int]:
        """Translate gPA -> hPA via nested TLB or a host (EPT) walk.

        Used by the 2-D walk and by the TSB trap handler.  Returns
        (latency, memory references, host physical address).  This is
        the nested TLB's lookup and fill, run on its backing store: a
        hit moves the ``(vm_id, guest frame)`` key to MRU and counts in
        ``hits``; a miss counts in ``misses``, walks the host table and
        appends the host frame, evicting the LRU key once the TLB is
        over capacity.
        """
        guest_frame = guest_physical >> PAGE_4K_BITS
        acct = self.accountant
        nested = self.nested_tlb
        cache = nested._cache
        store = cache._store
        key = (vm.vm_id, guest_frame)
        host_frame = store.get(key)
        latency = nested.latency
        names = acct._names
        if names is not None:
            component = names[LEVEL_NTLB]
            current = acct._current
            try:
                current[component] += latency
            except KeyError:
                current[component] = latency
            acct.charged += latency
        if host_frame is not None:
            store.move_to_end(key)
            cache.hits += 1
            offset = guest_physical & ((1 << PAGE_4K_BITS) - 1)
            return latency, 0, (host_frame << PAGE_4K_BITS) + offset
        cache.misses += 1
        if guest_frame not in vm._host_mapped:
            vm.ensure_host_mapped(guest_physical)
        addresses, translation = vm.host_table.walk_addresses(guest_physical)
        access = self._access
        walk_kind = self.walk_kind
        for entry_address in addresses:
            latency += access(entry_address, walk_kind, False)
        host_physical = (translation.frame_base << PAGE_4K_BITS) + (
            guest_physical & ((1 << translation.page_bits) - 1)
        )
        # A miss means the key is absent: the fill is an append plus the
        # LRU eviction.
        store[key] = host_physical >> PAGE_4K_BITS
        if len(store) > cache.entries:
            store.popitem(last=False)
        return latency, len(addresses), host_physical

"""Unit tests for the paging-structure caches and nested TLB.

Their LRU lookup and insert run where the walker needs them: the PSC's
in ``PagingStructureCache.probe_level`` and ``install``, the nested
TLB's in ``PageWalker.translate_guest_physical``, so these tests drive
those methods.
"""

import pytest

from repro.mem.address import Asid, PAGE_4K_BITS
from repro.telemetry.accounting import CycleAccountant
from repro.vm.mmu_cache import (
    PagingStructureCache,
    PscConfig,
    SmallFullyAssocCache,
)
from repro.vm.physical_memory import HostPhysicalMemory
from repro.vm.walker import PageWalker, VirtualMachine

ASID = Asid(0, 0)
OTHER = Asid(1, 0)

#: Walk latency the stub memory returns for every reference.
REF_LATENCY = 10


def stub_memory(address, kind, is_write):
    return REF_LATENCY


def counters(cache):
    state = cache.state_dict()
    return state["hits"], state["misses"]


class TestSmallCache:
    def test_lru_eviction(self):
        psc = PagingStructureCache(PscConfig(pde_entries=2))
        psc.install(ASID, 0 << 21, deepest_level=1)
        psc.install(ASID, 1 << 21, deepest_level=1)
        assert psc.probe_level(ASID, 0 << 21) == 1  # region 0 is now MRU
        psc.install(ASID, 2 << 21, deepest_level=1)  # evicts region 1
        assert psc.probe_level(ASID, 1 << 21) == 2
        assert psc.probe_level(ASID, 0 << 21) == 1

    def test_hits_and_misses_counted(self):
        psc = PagingStructureCache()
        psc.install(ASID, 0x1000, deepest_level=1)
        assert psc.probe_level(ASID, 0x1000) == 1
        assert counters(psc._pde) == (1, 0)
        assert counters(psc._pdp) == (0, 0)
        # A miss everywhere counts once in each cache it probed.
        assert psc.probe_level(OTHER, 0x1000) is None
        assert counters(psc._pde) == (1, 1)
        assert counters(psc._pdp) == (0, 1)
        assert counters(psc._pml4) == (0, 1)

    def test_reinstall_keeps_resident_entry(self):
        psc = PagingStructureCache(PscConfig(pde_entries=1))
        psc.install(ASID, 0x1000, deepest_level=1)
        psc.install(ASID, 0x1000, deepest_level=1)
        assert len(psc._pde.state_dict()["store"]) == 1
        assert psc.probe_level(ASID, 0x1000) == 1

    def test_entries_positive(self):
        with pytest.raises(ValueError):
            SmallFullyAssocCache(entries=0)


class TestPsc:
    def test_cold_probe_misses(self):
        assert PagingStructureCache().probe_level(ASID, 0x1000) is None

    def test_leaf_walk_installs_all_levels(self):
        psc = PagingStructureCache()
        psc.install(ASID, 0x1000, deepest_level=1)
        assert psc.probe_level(ASID, 0x1000) == 1

    def test_huge_walk_installs_upper_levels_only(self):
        psc = PagingStructureCache()
        psc.install(ASID, 0x1000, deepest_level=2)
        assert psc.probe_level(ASID, 0x1000) == 2

    def test_pde_reach_is_2mb(self):
        psc = PagingStructureCache()
        psc.install(ASID, 0x0, deepest_level=1)
        assert psc.probe_level(ASID, 0x1F_FFFF) == 1
        # Past the 2 MB boundary the PDE entry no longer applies, but the
        # PDP entry (1 GB reach) still does.
        assert psc.probe_level(ASID, 0x20_0000) == 2

    def test_asid_isolation(self):
        psc = PagingStructureCache()
        psc.install(ASID, 0x1000, deepest_level=1)
        assert psc.probe_level(OTHER, 0x1000) is None

    def test_capacity_eviction(self):
        psc = PagingStructureCache(PscConfig(pde_entries=2))
        for i in range(3):
            psc.install(ASID, i << 21, deepest_level=1)
        # The first PDE entry was evicted (2-entry cache, 3 inserts), but
        # its PDP/PML4 prefixes still hit.
        assert psc.probe_level(ASID, 0x0) == 2

    def test_reinstall_refreshes_recency(self):
        psc = PagingStructureCache(PscConfig(pde_entries=2))
        psc.install(ASID, 0x0, deepest_level=1)
        psc.install(ASID, 1 << 21, deepest_level=1)
        psc.install(ASID, 0x0, deepest_level=1)  # region 0 is now MRU
        psc.install(ASID, 2 << 21, deepest_level=1)  # evicts region 1
        assert psc.probe_level(ASID, 0x0) == 1
        assert psc.probe_level(ASID, 1 << 21) == 2

    def test_probe_latency_from_config(self):
        memory = HostPhysicalMemory(num_vms=1, vm_bytes=1 << 28)
        vm = VirtualMachine(0, memory, native=True)
        vm.ensure_mapped(0, 0x1000)
        acct = CycleAccountant()
        acct.begin(0, 0)
        walker = PageWalker(stub_memory, acct, psc_config=PscConfig(latency=7))
        result = walker.walk_native(ASID, vm.guest_table(0), 0x1000)
        # The stub memory charges nothing, so the ledger holds the probe.
        assert acct.component_totals() == {"walk.psc": 7}
        assert result.latency == 7 + REF_LATENCY * result.memory_refs


@pytest.fixture
def nested_setup():
    """Two virtualized VMs and a walker with a 2-entry nested TLB."""
    memory = HostPhysicalMemory(num_vms=2, vm_bytes=1 << 28)
    vms = [VirtualMachine(vm_id, memory) for vm_id in range(2)]
    walker = PageWalker(stub_memory, CycleAccountant(), nested_tlb_entries=2)
    return vms, walker


def frame(number):
    return number << PAGE_4K_BITS


class TestNestedTlb:
    def test_roundtrip(self, nested_setup):
        (vm, _), walker = nested_setup
        _, refs, host = walker.translate_guest_physical(vm, frame(100) + 8)
        assert refs == vm.host_table.levels
        latency, refs, again = walker.translate_guest_physical(
            vm, frame(100) + 8
        )
        assert (refs, again) == (0, host)
        assert latency == walker.nested_tlb.latency
        assert counters(walker.nested_tlb._cache) == (1, 1)

    def test_vm_isolation(self, nested_setup):
        (vm, other), walker = nested_setup
        walker.translate_guest_physical(vm, frame(100))
        _, refs, _ = walker.translate_guest_physical(other, frame(100))
        assert refs == other.host_table.levels
        assert counters(walker.nested_tlb._cache) == (0, 2)

    def test_lru(self, nested_setup):
        (vm, _), walker = nested_setup
        translate = walker.translate_guest_physical
        translate(vm, frame(1))
        translate(vm, frame(2))
        assert translate(vm, frame(1))[1] == 0  # frame 1 is now MRU
        translate(vm, frame(3))  # evicts frame 2, the LRU of three
        assert translate(vm, frame(1))[1] == 0
        assert translate(vm, frame(3))[1] == 0
        assert translate(vm, frame(2))[1] == vm.host_table.levels

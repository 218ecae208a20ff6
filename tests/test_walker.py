"""Unit tests for the 1-D and 2-D page walkers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.address import Asid, PAGE_2M_BITS, PAGE_4K_BITS
from repro.mem.cache import LineKind
from repro.telemetry.accounting import CycleAccountant
from repro.vm.physical_memory import HostPhysicalMemory
from repro.vm.walker import PageWalker, VirtualMachine
from tests.test_page_table import (
    any_page_bits,
    clustered_addresses,
    lookup_then_map_page,
    outcome,
)

ASID = Asid(0, 0)


class CountingAccessor:
    """Memory accessor stub that records every reference."""

    def __init__(self, latency=10):
        self.latency = latency
        self.references = []

    def __call__(self, address, kind, is_write):
        self.references.append((address, kind, is_write))
        return self.latency


@pytest.fixture
def native_setup():
    memory = HostPhysicalMemory(num_vms=1, vm_bytes=1 << 28)
    vm = VirtualMachine(0, memory, native=True)
    accessor = CountingAccessor()
    walker = PageWalker(accessor, CycleAccountant())
    return vm, walker, accessor


@pytest.fixture
def virtual_setup():
    memory = HostPhysicalMemory(num_vms=1, vm_bytes=1 << 28)
    vm = VirtualMachine(0, memory)
    accessor = CountingAccessor()
    walker = PageWalker(accessor, CycleAccountant())
    return vm, walker, accessor


class TestNativeWalk:
    def test_cold_walk_reads_four_entries(self, native_setup):
        vm, walker, accessor = native_setup
        vm.ensure_mapped(0, 0x5000)
        result = walker.walk_native(ASID, vm.guest_table(0), 0x5000)
        assert result.memory_refs == 4
        assert len(accessor.references) == 4

    def test_warm_walk_uses_psc(self, native_setup):
        vm, walker, accessor = native_setup
        vm.ensure_mapped(0, 0x5000)
        vm.ensure_mapped(0, 0x6000)
        walker.walk_native(ASID, vm.guest_table(0), 0x5000)
        result = walker.walk_native(ASID, vm.guest_table(0), 0x6000)
        assert result.memory_refs == 1  # PDE hit: leaf PTE only

    def test_translation_matches_table(self, native_setup):
        vm, walker, _ = native_setup
        vm.ensure_mapped(0, 0x5000)
        result = walker.walk_native(ASID, vm.guest_table(0), 0x5123)
        expected = vm.guest_table(0).lookup(0x5123)
        assert result.translation.frame_base == expected.frame_base

    def test_unmapped_raises(self, native_setup):
        vm, walker, _ = native_setup
        with pytest.raises(KeyError):
            walker.walk_native(ASID, vm.guest_table(0), 0xBAD000)

    def test_walk_refs_typed_tlb(self, native_setup):
        vm, walker, accessor = native_setup
        vm.ensure_mapped(0, 0x5000)
        walker.walk_native(ASID, vm.guest_table(0), 0x5000)
        assert all(kind is LineKind.TLB for _, kind, _ in accessor.references)

    def test_stats_accumulate(self, native_setup):
        vm, walker, _ = native_setup
        vm.ensure_mapped(0, 0x5000)
        walker.walk_native(ASID, vm.guest_table(0), 0x5000)
        walker.walk_native(ASID, vm.guest_table(0), 0x5000)
        assert walker.stats.walks == 2
        assert walker.stats.total_latency > 0


class TestVirtualizedWalk:
    def test_cold_walk_reads_24_entries(self, virtual_setup):
        vm, walker, accessor = virtual_setup
        vm.ensure_mapped(0, 0x5000)
        # The very first walk must touch 4 host refs per guest pointer (4
        # guest levels) + 4 guest node reads + a final 4-ref host walk,
        # minus nested-TLB reuse of guest node frames that share a page.
        result = walker.walk_virtualized(ASID, vm, 0x5000)
        assert result.memory_refs <= 24
        assert result.memory_refs >= 8

    def test_warm_walk_much_cheaper(self, virtual_setup):
        vm, walker, _ = virtual_setup
        vm.ensure_mapped(0, 0x5000)
        vm.ensure_mapped(0, 0x6000)
        cold = walker.walk_virtualized(ASID, vm, 0x5000)
        warm = walker.walk_virtualized(ASID, vm, 0x6000)
        assert warm.memory_refs < cold.memory_refs

    def test_final_translation_is_host_frame(self, virtual_setup):
        vm, walker, _ = virtual_setup
        vm.ensure_mapped(0, 0x5000)
        result = walker.walk_virtualized(ASID, vm, 0x5678)
        guest = vm.guest_table(0).lookup(0x5678)
        host = vm.host_table.lookup(guest.frame_base << PAGE_4K_BITS)
        assert result.translation.frame_base == host.frame_base

    def test_huge_page_geometry(self, virtual_setup):
        vm, walker, _ = virtual_setup
        vm.ensure_mapped(0, 0x0, PAGE_2M_BITS)
        result = walker.walk_virtualized(ASID, vm, 0x12345)
        translation = result.translation
        assert translation.page_bits == PAGE_2M_BITS
        # The entry covers the whole 2 MB page: its frame plus the 21-bit
        # offset is where the guest and host tables send the address.
        physical = (translation.frame_base << PAGE_4K_BITS) + (
            0x12345 & ((1 << PAGE_2M_BITS) - 1)
        )
        guest = vm.guest_table(0).lookup(0x12345)
        guest_physical = guest.physical_address(0x12345)
        host = vm.host_table.lookup(guest_physical)
        assert physical == host.physical_address(guest_physical)

    def test_nested_tlb_reduces_host_refs(self, virtual_setup):
        vm, walker, accessor = virtual_setup
        vm.ensure_mapped(0, 0x5000)
        walker.walk_virtualized(ASID, vm, 0x5000)
        before = len(accessor.references)
        walker.walk_virtualized(ASID, vm, 0x5000)
        # Second identical walk: PSC cuts guest levels, nested TLB cuts
        # host walks; only a couple of refs remain.
        assert len(accessor.references) - before <= 2

    def test_public_gpa_translation(self, virtual_setup):
        vm, walker, _ = virtual_setup
        vm.ensure_mapped(0, 0x5000)
        guest = vm.guest_table(0).lookup(0x5000)
        guest_physical = guest.frame_base << PAGE_4K_BITS
        latency, refs, host_physical = walker.translate_guest_physical(
            vm, guest_physical
        )
        assert latency > 0
        host = vm.host_table.lookup(guest_physical)
        assert host_physical == host.physical_address(guest_physical)


class TestVirtualMachine:
    def test_native_has_no_host_table(self):
        memory = HostPhysicalMemory(num_vms=1, vm_bytes=1 << 24)
        vm = VirtualMachine(0, memory, native=True)
        assert vm.host_table is None
        with pytest.raises(RuntimeError):
            vm.ensure_host_mapped(0x1000)

    def test_guest_tables_per_process(self):
        memory = HostPhysicalMemory(num_vms=1, vm_bytes=1 << 24)
        vm = VirtualMachine(0, memory)
        assert vm.guest_table(0) is vm.guest_table(0)
        assert vm.guest_table(0) is not vm.guest_table(1)

    def test_ensure_mapped_builds_both_dimensions(self):
        memory = HostPhysicalMemory(num_vms=1, vm_bytes=1 << 24)
        vm = VirtualMachine(0, memory)
        vm.ensure_mapped(0, 0x7000)
        guest = vm.guest_table(0).lookup(0x7000)
        assert guest is not None
        host = vm.host_table.lookup(guest.frame_base << PAGE_4K_BITS)
        assert host is not None

    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 1), clustered_addresses, any_page_bits),
        max_size=30,
    ))
    def test_ensure_mapped_matches_lookup_then_map_page(self, steps):
        """One descent per table maps exactly what the two-step form
        did: same tables, same allocators, same exceptions."""

        def two_step(vm, process_id, address, page_bits):
            table = vm.guest_table(process_id)
            if table.lookup(address) is not None:
                return
            guest = table.map_page(address, page_bits)
            lookup_then_map_page(
                vm.host_table, guest.frame_base << PAGE_4K_BITS, page_bits
            )

        vm = VirtualMachine(0, HostPhysicalMemory(num_vms=1, vm_bytes=1 << 30))
        reference = VirtualMachine(
            0, HostPhysicalMemory(num_vms=1, vm_bytes=1 << 30)
        )
        for process_id, address, page_bits in steps:
            assert outcome(
                lambda: vm.ensure_mapped(process_id, address, page_bits)
            ) == outcome(
                lambda: two_step(reference, process_id, address, page_bits)
            )
            assert vm.state_dict() == reference.state_dict()
            # The host-mapping memo may only name frames the EPT maps.
            assert all(
                vm.host_table.lookup(frame << PAGE_4K_BITS) is not None
                for frame in vm._host_mapped
            )

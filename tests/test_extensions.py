"""Tests for the paper-motivated LA57 five-level paging extension."""

import pytest

from repro.core.schemes import Scheme
from repro.mem.address import Asid
from repro.sim.config import small_config
from repro.sim.system import System
from repro.telemetry.accounting import CycleAccountant
from repro.vm.page_table import PageTable
from repro.vm.physical_memory import FrameAllocator, HostPhysicalMemory
from repro.vm.walker import PageWalker, VirtualMachine

A = Asid(0, 0)


def make_table(levels=5):
    return PageTable(
        FrameAllocator(base_frame=0, num_frames=1 << 20), levels=levels
    )


class TestFiveLevelPageTable:
    def test_level_validation(self):
        with pytest.raises(ValueError):
            make_table(levels=1)
        with pytest.raises(ValueError):
            make_table(levels=6)

    def test_five_level_walk_reads_five_entries(self):
        table = make_table(5)
        table.map_page(0x1000)
        addresses, translation = table.walk_addresses(0x1000)
        assert len(addresses) == 5
        assert translation is not None

    def test_57_bit_addresses_disambiguated(self):
        """Two VAs differing only in level-5 bits must map separately."""
        table = make_table(5)
        low = 0x1000
        high = 0x1000 | (3 << (12 + 4 * 9))
        frame_low = table.map_page(low).frame_base
        frame_high = table.map_page(high).frame_base
        assert frame_low != frame_high
        assert table.lookup(low).frame_base == frame_low
        assert table.lookup(high).frame_base == frame_high

    def test_node_count_grows_with_depth(self):
        four = make_table(4)
        five = make_table(5)
        four.map_page(0x1000)
        five.map_page(0x1000)
        assert five.nodes_allocated == four.nodes_allocated + 1


class TestFiveLevelWalker:
    def _setup(self, levels):
        memory = HostPhysicalMemory(num_vms=1, vm_bytes=1 << 28)
        vm = VirtualMachine(0, memory, levels=levels)
        refs = []

        def accessor(address, kind, is_write):
            refs.append(address)
            return 10

        walker = PageWalker(accessor, CycleAccountant(), levels=levels)
        return vm, walker, refs

    def test_cold_2d_walk_deeper_with_five_levels(self):
        vm4, walker4, refs4 = self._setup(4)
        vm5, walker5, refs5 = self._setup(5)
        vm4.ensure_mapped(0, 0x5000)
        vm5.ensure_mapped(0, 0x5000)
        result4 = walker4.walk_virtualized(A, vm4, 0x5000)
        result5 = walker5.walk_virtualized(A, vm5, 0x5000)
        assert result5.memory_refs > result4.memory_refs

    def test_psc_still_cuts_warm_walks(self):
        vm, walker, refs = self._setup(5)
        vm.ensure_mapped(0, 0x5000)
        vm.ensure_mapped(0, 0x6000)
        walker.walk_virtualized(A, vm, 0x5000)
        warm = walker.walk_virtualized(A, vm, 0x6000)
        # PDE hit: one guest leaf read plus its host translation.
        assert warm.memory_refs <= 6

    def test_system_runs_with_five_levels(self):
        config = small_config(
            scheme=Scheme.POM_TLB, cores=1, page_table_levels=5
        )
        system = System(config)
        system.vms[0].ensure_mapped(0, 0x5000)
        system.access(0, A, 0x5123, is_write=False)
        assert system.cores[0].stats.page_walks == 1

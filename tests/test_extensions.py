"""Tests for the paper-motivated extensions: LA57 five-level paging and
TLB shootdown / page-migration support."""

import pytest

from repro.core.schemes import Scheme
from repro.mem.address import Asid, PAGE_4K_BITS
from repro.sim.config import small_config
from repro.sim.system import System
from repro.telemetry.accounting import CycleAccountant
from repro.validate import check_translation_coherence
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


class TestShootdown:
    def _system(self, scheme=Scheme.POM_TLB):
        system = System(small_config(scheme=scheme, cores=2))
        system.vms[0].ensure_mapped(0, 0x5000)
        return system

    def test_remap_changes_frame(self):
        system = self._system()
        table = system.vms[0].guest_table(0)
        before = table.lookup(0x5000).frame_base
        system.remap_page(A, 0x5000)
        assert table.lookup(0x5000).frame_base != before

    def test_shootdown_drops_all_tlb_copies(self):
        system = self._system()
        for core in system.cores:
            system.translate_beyond_l1(core, A, 0x5123)
        dropped = system.shootdown_page(A, 0x5123)
        # Each core held L1 and L2 entries; the POM-TLB held one.
        assert dropped >= 2 * len(system.cores) + 1
        for core in system.cores:
            assert core.l2_tlb.lookup(A, 0x5123) is None

    def test_shootdown_charges_every_core(self):
        system = self._system()
        before = [core.stats.cycles for core in system.cores]
        system.shootdown_page(A, 0x5000)
        for core, cycles in zip(system.cores, before):
            assert core.stats.cycles == cycles + System.SHOOTDOWN_CYCLES_PER_CORE

    @pytest.mark.parametrize(
        "virtualized", [True, False], ids=["virtualized", "native"]
    )
    @pytest.mark.parametrize(
        "scheme", [Scheme.POM_TLB, Scheme.TSB], ids=["pom-tlb", "tsb"]
    )
    def test_translation_after_remap_is_fresh(self, scheme, virtualized):
        system = System(
            small_config(scheme=scheme, cores=2, virtualized=virtualized)
        )
        system.vms[0].ensure_mapped(0, 0x5000)
        core = system.cores[0]
        _, old_entry = system.translate_beyond_l1(core, A, 0x5123)
        system.remap_page(A, 0x5123)
        _, new_entry = system.translate_beyond_l1(core, A, 0x5123)
        assert new_entry.frame_base != old_entry.frame_base
        assert list(check_translation_coherence(system)) == []

    def test_shootdown_without_pom(self):
        system = self._system(Scheme.CONVENTIONAL)
        core = system.cores[0]
        system.translate_beyond_l1(core, A, 0x5123)
        assert system.shootdown_page(A, 0x5123) >= 2

    def test_other_pages_unaffected(self):
        system = self._system()
        system.vms[0].ensure_mapped(0, 0x6000)
        core = system.cores[0]
        system.translate_beyond_l1(core, A, 0x5123)
        system.translate_beyond_l1(core, A, 0x6123)
        system.shootdown_page(A, 0x5123)
        assert core.l2_tlb.lookup(A, 0x6123) is not None

    def test_remap_unmapped_raises(self):
        system = self._system()
        with pytest.raises(KeyError):
            system.remap_page(A, 0xDEAD000)

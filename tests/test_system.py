"""Unit tests for the full-system model's translation and data datapaths."""

import pytest

from repro.core.schemes import Scheme
from repro.mem.address import Asid, PAGE_4K_BITS
from repro.mem.cache import LineKind
from repro.sim.config import small_config
from repro.sim.system import System

A = Asid(0, 0)


def make_system(scheme=Scheme.POM_TLB, **overrides):
    overrides.setdefault("cores", 2)
    return System(small_config(scheme=scheme, **overrides))


def mapped_system(scheme=Scheme.POM_TLB, **overrides):
    system = make_system(scheme, **overrides)
    system.vms[0].ensure_mapped(0, 0x5000)
    return system


class TestConstruction:
    def test_core_count(self):
        assert len(make_system(cores=4).cores) == 4

    def test_pom_only_for_pom_schemes(self):
        assert make_system(Scheme.POM_TLB).pom is not None
        assert make_system(Scheme.CONVENTIONAL).pom is None
        assert make_system(Scheme.TSB).pom is None

    def test_controllers_only_for_csalt(self):
        pom = make_system(Scheme.POM_TLB)
        assert pom.l3_controller is None
        assert pom.cores[0].l2_controller is None
        csalt = make_system(Scheme.CSALT_CD)
        assert csalt.l3_controller is not None
        assert csalt.cores[0].l2_controller is not None

    def test_static_partition_installed(self):
        system = make_system(Scheme.CSALT_STATIC)
        assert system.l3.data_ways == system.l3.ways // 2
        assert system.cores[0].l2.data_ways == system.cores[0].l2.ways // 2

    def test_dip_enabled_on_caches(self):
        system = make_system(Scheme.DIP)
        assert system.l3.dip is not None
        assert system.cores[0].l2.dip is not None
        assert make_system(Scheme.POM_TLB).l3.dip is None

    def test_native_vms(self):
        system = make_system(virtualized=False)
        assert all(vm.native for vm in system.vms)


class TestTranslationDatapath:
    def test_walk_fills_tlbs(self):
        system = mapped_system()
        core = system.cores[0]
        stall, entry = system.translate_beyond_l1(core, A, 0x5123)
        assert stall > 0
        assert core.stats.l2_tlb_misses == 1
        assert core.stats.page_walks == 1
        assert core.l2_tlb.lookup(A, 0x5123) is not None

    def test_pom_hit_avoids_walk(self):
        system = mapped_system()
        core0, core1 = system.cores
        system.translate_beyond_l1(core0, A, 0x5123)  # walk + POM fill
        system.translate_beyond_l1(core1, A, 0x5123)  # POM hit, no walk
        assert core1.stats.page_walks == 0
        assert system.pom.stats.hits == 1

    def test_conventional_always_walks(self):
        system = mapped_system(Scheme.CONVENTIONAL)
        core0, core1 = system.cores
        system.translate_beyond_l1(core0, A, 0x5123)
        system.translate_beyond_l1(core1, A, 0x5123)
        assert core0.stats.page_walks == 1
        assert core1.stats.page_walks == 1

    def test_pom_probe_caches_tlb_lines(self):
        system = mapped_system()
        core = system.cores[0]
        system.translate_beyond_l1(core, A, 0x5123)
        set_address = system.pom.set_address(A, 0x5123, PAGE_4K_BITS)
        line = set_address >> core.l2._line_shift
        assert (line >> core.l2._set_bits) in core.l2._tag_to_way[
            line & core.l2._set_mask
        ]
        # Only translation traffic ran, so every resident line is a TLB line.
        assert core.l2.occupancy_by_kind()[LineKind.DATA] == 0

    def test_tsb_path_fills_and_hits(self):
        system = mapped_system(Scheme.TSB)
        core0, core1 = system.cores
        system.translate_beyond_l1(core0, A, 0x5123)
        assert core0.stats.page_walks == 1
        system.translate_beyond_l1(core1, A, 0x5123)
        assert core1.stats.page_walks == 0  # served by the TSBs

    def test_tsb_native_path(self):
        system = mapped_system(Scheme.TSB, virtualized=False)
        core0, core1 = system.cores
        system.translate_beyond_l1(core0, A, 0x5123)
        system.translate_beyond_l1(core1, A, 0x5123)
        assert core1.stats.page_walks == 0

    @pytest.mark.parametrize("virtualized", [True, False])
    def test_walk_entry_is_the_one_the_tlbs_store(self, virtualized):
        system = mapped_system(virtualized=virtualized)
        core = system.cores[0]
        walker = core.walker
        name = "walk_virtualized" if virtualized else "walk_native"
        walk = getattr(walker, name)
        walks = []

        def recording(*args):
            walks.append(walk(*args))
            return walks[-1]

        setattr(walker, name, recording)
        _, entry = system.translate_beyond_l1(core, A, 0x5123)
        [result] = walks
        assert entry is result.translation
        assert core.l2_tlb.probe(A, 0x5123) is entry
        assert system.pom.probe(A, 0x5123, entry.page_bits) is entry
        assert core.l1_tlb.lookup(A, 0x5123) is entry

    def test_l2_tlb_hit_fast_path(self):
        system = mapped_system()
        core = system.cores[0]
        system.translate_beyond_l1(core, A, 0x5123)
        walks_before = core.stats.page_walks
        stall, _entry = system.translate_beyond_l1(core, A, 0x5123)
        assert stall == core.l2_tlb.latency
        assert core.stats.page_walks == walks_before


class TestAccess:
    def test_access_counts_instructions(self):
        system = mapped_system()
        system.access(0, A, 0x5123, is_write=False)
        stats = system.cores[0].stats
        assert stats.memory_accesses == 1
        assert stats.instructions == 1 + system.config.nonmem_per_mem
        assert stats.cycles > 0

    def test_translation_blocking_charged(self):
        system = mapped_system()
        system.access(0, A, 0x5123, is_write=False)
        assert system.cores[0].stats.translation_stall_cycles > 0

    def test_l1d_hit_after_first_access(self):
        system = mapped_system()
        system.access(0, A, 0x5123, is_write=False)
        data_stall_before = system.cores[0].stats.data_stall_cycles
        system.access(0, A, 0x5123, is_write=False)
        assert system.cores[0].stats.data_stall_cycles == data_stall_before

    def test_distinct_pages_distinct_frames(self):
        system = mapped_system()
        system.vms[0].ensure_mapped(0, 0x6000)
        system.access(0, A, 0x5000, is_write=False)
        system.access(0, A, 0x6000, is_write=False)
        # Both lines present in L1D: they did not collide on one frame.
        core = system.cores[0]
        assert core.l1d.stats.misses == 2


class TestIntrospection:
    def test_occupancy_sample(self):
        system = mapped_system()
        system.access(0, A, 0x5123, is_write=False)
        sample = system.sample_occupancy()
        assert 0.0 <= sample.l2_tlb_fraction <= 1.0
        assert 0.0 <= sample.l3_tlb_fraction <= 1.0
        assert system.occupancy_samples

    def test_reset_stats(self):
        system = mapped_system()
        system.access(0, A, 0x5123, is_write=False)
        system.sample_occupancy()
        system.reset_stats()
        assert system.cores[0].stats.memory_accesses == 0
        assert system.l3.stats.accesses == 0
        assert not system.occupancy_samples
        assert system.tlb_ref_levels == {"l2": 0, "l3": 0, "dram": 0}

    def test_result_packaging(self):
        system = mapped_system()
        system.access(0, A, 0x5123, is_write=False)
        result = system.result("unit")
        assert result.workload == "unit"
        assert result.scheme == "pom-tlb"
        assert result.instructions == 3
        assert "tlb_refs_dram" in result.extra

    def test_result_includes_partition_timeline_for_csalt(self):
        system = mapped_system(Scheme.CSALT_CD)
        system.access(0, A, 0x5123, is_write=False)
        result = system.result()
        assert result.l2_partition_timeline
        assert result.l3_partition_timeline


class TestDramAccounting:
    def test_dram_counters_exported(self):
        system = mapped_system()
        system.access(0, A, 0x5123, is_write=False)
        result = system.result()
        assert result.extra["ddr_accesses"] >= 1
        assert 0.0 <= result.extra["ddr_row_hit_rate"] <= 1.0

    def test_pom_region_routed_to_die_stacked(self):
        system = mapped_system()
        core = system.cores[0]
        system.translate_beyond_l1(core, A, 0x5123)
        # The POM probe's set line missed the caches and went to the
        # die-stacked channel.
        assert system.die_stacked.stats.accesses >= 1

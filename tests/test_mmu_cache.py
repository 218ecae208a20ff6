"""Unit tests for the paging-structure caches and nested TLB."""

import pytest

from repro.mem.address import Asid
from repro.vm.mmu_cache import (
    NestedTlb,
    PagingStructureCache,
    PscConfig,
    SmallFullyAssocCache,
)

ASID = Asid(0, 0)
OTHER = Asid(1, 0)


class TestSmallCache:
    def test_lru_eviction(self):
        cache = SmallFullyAssocCache(entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1

    def test_hit_rate(self):
        cache = SmallFullyAssocCache(entries=4)
        cache.put("x", 1)
        cache.get("x")
        cache.get("y")
        assert cache.hit_rate == pytest.approx(0.5)

    def test_put_updates_existing(self):
        cache = SmallFullyAssocCache(entries=1)
        cache.put("x", 1)
        cache.put("x", 2)
        assert cache.get("x") == 2

    def test_entries_positive(self):
        with pytest.raises(ValueError):
            SmallFullyAssocCache(entries=0)


class TestPsc:
    def test_cold_probe_misses(self):
        assert PagingStructureCache().probe(ASID, 0x1000) is None

    def test_leaf_walk_installs_all_levels(self):
        psc = PagingStructureCache()
        psc.install(ASID, 0x1000, deepest_level=1)
        hit = psc.probe(ASID, 0x1000)
        assert hit is not None
        assert hit.start_level == 1

    def test_huge_walk_installs_upper_levels_only(self):
        psc = PagingStructureCache()
        psc.install(ASID, 0x1000, deepest_level=2)
        hit = psc.probe(ASID, 0x1000)
        assert hit.start_level == 2

    def test_pde_reach_is_2mb(self):
        psc = PagingStructureCache()
        psc.install(ASID, 0x0, deepest_level=1)
        assert psc.probe(ASID, 0x1F_FFFF).start_level == 1
        # Past the 2 MB boundary the PDE entry no longer applies, but the
        # PDP entry (1 GB reach) still does.
        assert psc.probe(ASID, 0x20_0000).start_level == 2

    def test_asid_isolation(self):
        psc = PagingStructureCache()
        psc.install(ASID, 0x1000, deepest_level=1)
        assert psc.probe(OTHER, 0x1000) is None

    def test_capacity_eviction(self):
        psc = PagingStructureCache(PscConfig(pde_entries=2))
        for i in range(3):
            psc.install(ASID, i << 21, deepest_level=1)
        # The first PDE entry was evicted (2-entry cache, 3 inserts)...
        hit = psc.probe(ASID, 0x0)
        # ...but its PDP/PML4 prefixes still hit.
        assert hit is not None
        assert hit.start_level == 2

    def test_reinstall_refreshes_recency(self):
        psc = PagingStructureCache(PscConfig(pde_entries=2))
        psc.install(ASID, 0x0, deepest_level=1)
        psc.install(ASID, 1 << 21, deepest_level=1)
        psc.install(ASID, 0x0, deepest_level=1)  # region 0 is now MRU
        psc.install(ASID, 2 << 21, deepest_level=1)  # evicts region 1
        assert psc.probe(ASID, 0x0).start_level == 1
        assert psc.probe(ASID, 1 << 21).start_level == 2

    def test_probe_latency_from_config(self):
        psc = PagingStructureCache(PscConfig(latency=7))
        psc.install(ASID, 0x1000, deepest_level=1)
        assert psc.probe(ASID, 0x1000).latency == 7


class TestNestedTlb:
    def test_roundtrip(self):
        nested = NestedTlb(entries=4)
        nested.put(0, 100, 555)
        assert nested.get(0, 100) == 555

    def test_vm_isolation(self):
        nested = NestedTlb(entries=4)
        nested.put(0, 100, 555)
        assert nested.get(1, 100) is None

    def test_lru(self):
        nested = NestedTlb(entries=2)
        nested.put(0, 1, 11)
        nested.put(0, 2, 22)
        nested.get(0, 1)
        nested.put(0, 3, 33)
        assert nested.get(0, 2) is None
        assert nested.get(0, 1) == 11

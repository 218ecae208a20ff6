"""Unit and property tests for the partitionable cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.cache import Cache, DipDueler, LineKind


def small_cache(ways=4, sets=8, **kwargs):
    return Cache("test", 64 * ways * sets, ways, latency=10, **kwargs)


class TestGeometry:
    def test_sets_and_ways(self):
        cache = Cache("l1", 32 * 1024, 8, 4)
        assert cache.num_sets == 64
        assert cache.ways == 8

    def test_indivisible_size_rejected(self):
        with pytest.raises(ValueError, match="not divisible"):
            Cache("bad", 1000, 3, 1)

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            Cache("bad", 64 * 4 * 3, 4, 1)

    def test_index_of_roundtrip(self):
        cache = small_cache()
        set_index, tag = cache.index_of(0x12340)
        assert set_index == (0x12340 >> 6) % cache.num_sets
        assert tag == (0x12340 >> 6) // cache.num_sets


class TestLookupFill:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert not cache.lookup(0x1000, LineKind.DATA)
        cache.fill(0x1000, LineKind.DATA)
        assert cache.lookup(0x1000, LineKind.DATA)

    def test_same_line_different_bytes(self):
        cache = small_cache()
        cache.fill(0x1000, LineKind.DATA)
        assert cache.lookup(0x103F, LineKind.DATA)
        assert not cache.lookup(0x1040, LineKind.DATA)

    def test_stats_split_by_kind(self):
        cache = small_cache()
        cache.lookup(0x1000, LineKind.DATA)
        cache.lookup(0x2000, LineKind.TLB)
        assert cache.stats.data_misses == 1
        assert cache.stats.tlb_misses == 1
        cache.fill(0x2000, LineKind.TLB)
        cache.lookup(0x2000, LineKind.TLB)
        assert cache.stats.tlb_hits == 1

    def test_eviction_reports_victim_address(self):
        cache = small_cache(ways=2, sets=1)
        cache.fill(0x12340, LineKind.TLB, dirty=True)
        cache.fill(0x40, LineKind.DATA)
        # A dirty victim comes back as its exact (line address, kind).
        assert cache.fill(0x80, LineKind.DATA) == (0x12340, LineKind.TLB)
        assert not cache.probe(0x12340)
        # A clean one needs no write-back: nothing comes back, and the
        # line that left is seen with probe().
        assert cache.fill(0xC0, LineKind.DATA) is None
        assert not cache.probe(0x40)
        assert cache.probe(0x80) and cache.probe(0xC0)

    def test_dirty_eviction_flagged(self):
        cache = small_cache(ways=1, sets=1)
        cache.fill(0x0, LineKind.DATA, dirty=True)
        assert cache.fill(0x40, LineKind.DATA) == (0x0, LineKind.DATA)
        assert cache.stats.writebacks == 1

    def test_write_lookup_dirties_line(self):
        cache = small_cache(ways=1, sets=1)
        cache.fill(0x0, LineKind.DATA)
        cache.lookup(0x0, LineKind.DATA, is_write=True)
        assert cache.fill(0x40, LineKind.DATA) == (0x0, LineKind.DATA)

    def test_lru_victim_order(self):
        cache = small_cache(ways=2, sets=1)
        cache.fill(0x0, LineKind.DATA)
        cache.fill(0x40, LineKind.DATA)
        cache.lookup(0x0, LineKind.DATA)  # 0x40 becomes LRU
        assert cache.fill(0x80, LineKind.DATA) is None  # clean victim
        assert not cache.probe(0x40)
        assert cache.probe(0x0)

    def test_kind_at(self):
        cache = small_cache()
        cache.fill(0x1000, LineKind.TLB)
        assert cache.kind_at(0x1000) is LineKind.TLB
        assert cache.kind_at(0x2000) is None


class TestWriteBack:
    def test_present_line_marked_dirty(self):
        cache = small_cache(ways=1, sets=1)
        cache.fill(0x0, LineKind.DATA)
        assert cache.write_back(0x0, LineKind.DATA) is None
        assert cache.fill(0x40, LineKind.DATA) == (0x0, LineKind.DATA)

    def test_absent_line_installed_dirty(self):
        cache = small_cache()
        cache.write_back(0x1000, LineKind.DATA)
        assert cache.probe(0x1000)

    def test_no_demand_stats(self):
        cache = small_cache()
        cache.write_back(0x1000, LineKind.DATA)
        assert cache.stats.accesses == 0


class TestInvalidate:
    def test_invalidate_drops_line(self):
        cache = small_cache()
        cache.fill(0x1000, LineKind.DATA)
        assert cache.invalidate(0x1000)
        assert not cache.probe(0x1000)

    def test_invalidate_absent(self):
        assert not small_cache().invalidate(0x1000)

    def test_way_reusable_after_invalidate(self):
        cache = small_cache(ways=1, sets=1)
        cache.fill(0x0, LineKind.DATA)
        cache.invalidate(0x0)
        evicted = cache.fill(0x40, LineKind.DATA)
        assert evicted is None


class TestPartition:
    def test_partition_bounds(self):
        cache = small_cache(ways=4)
        with pytest.raises(ValueError):
            cache.set_partition(0)
        with pytest.raises(ValueError):
            cache.set_partition(4)
        cache.set_partition(2)
        assert cache.data_ways == 2
        cache.set_partition(None)
        assert cache.data_ways is None

    def test_data_fills_stay_in_data_ways(self):
        cache = small_cache(ways=4, sets=1)
        cache.set_partition(2)
        for i in range(8):
            cache.fill(i * 64, LineKind.DATA)
        occupancy = cache.occupancy_by_kind()
        # Data may only occupy its 2 of 4 ways.
        assert occupancy[LineKind.DATA] == pytest.approx(0.5)

    def test_tlb_fills_stay_in_tlb_ways(self):
        cache = small_cache(ways=4, sets=1)
        cache.set_partition(3)
        for i in range(8):
            cache.fill(i * 64, LineKind.TLB)
        assert cache.occupancy_by_kind()[LineKind.TLB] == pytest.approx(0.25)

    def test_data_fill_never_evicts_tlb_line(self):
        cache = small_cache(ways=4, sets=1)
        cache.set_partition(2)
        cache.fill(0x0, LineKind.TLB)
        cache.fill(0x40, LineKind.TLB)
        for i in range(2, 12):
            cache.fill(i * 64, LineKind.DATA)
        assert cache.probe(0x0)
        assert cache.probe(0x40)

    def test_lookup_finds_lines_across_partitions(self):
        """After a repartition, resident lines stay visible (Section 3.1)."""
        cache = small_cache(ways=4, sets=1)
        cache.set_partition(3)
        for i in range(3):
            cache.fill(i * 64, LineKind.DATA)
        cache.set_partition(1)  # data shrinks; old lines remain
        assert cache.lookup(0x40, LineKind.DATA)

    def test_repartition_narrows_future_victims(self):
        cache = small_cache(ways=4, sets=1)
        cache.set_partition(1)
        cache.fill(0x0, LineKind.DATA)
        assert cache.fill(0x40, LineKind.DATA) is None  # clean victim
        assert not cache.probe(0x0)
        assert cache.probe(0x40)


class TestDip:
    def test_leader_roles(self):
        dueler = DipDueler(stride=8)
        assert dueler.leader_role(0) == "lru"
        assert dueler.leader_role(1) == "bip"
        assert dueler.leader_role(2) is None

    def test_psel_moves_with_leader_misses(self):
        dueler = DipDueler()
        start = dueler.psel
        dueler.record_miss(0)
        assert dueler.psel == start + 1
        dueler.record_miss(1)
        dueler.record_miss(1)
        assert dueler.psel == start - 1

    def test_bip_inserts_mostly_at_lru(self):
        dueler = DipDueler()
        decisions = [dueler.insert_at_mru(1) for _ in range(64)]
        assert decisions.count(True) == 2  # 1/32 throttle

    def test_followers_follow_psel(self):
        dueler = DipDueler()
        dueler.psel = 0  # LRU leader misses less -> followers use LRU
        assert dueler.insert_at_mru(5) is True
        dueler.psel = dueler.psel_max  # LRU missing badly -> followers BIP
        decisions = [dueler.insert_at_mru(5) for _ in range(32)]
        assert decisions.count(False) == 31

    def test_dip_cache_end_to_end(self):
        cache = small_cache(dip=True)
        for i in range(64):
            cache.lookup(i * 64, LineKind.DATA)
            cache.fill(i * 64, LineKind.DATA)
        assert cache.stats.fills == 64


class TestOccupancy:
    def test_empty(self):
        occupancy = small_cache().occupancy_by_kind()
        assert occupancy[LineKind.DATA] == 0
        assert occupancy[LineKind.TLB] == 0

    def test_mixed(self):
        cache = small_cache(ways=2, sets=2)
        cache.fill(0x0, LineKind.DATA)
        cache.fill(0x40, LineKind.TLB)
        occupancy = cache.occupancy_by_kind()
        assert occupancy[LineKind.DATA] == pytest.approx(0.25)
        assert occupancy[LineKind.TLB] == pytest.approx(0.25)

    def test_sampled_scan_bounds(self):
        cache = small_cache(ways=2, sets=8)
        for i in range(16):
            cache.fill(i * 64, LineKind.DATA)
        sampled = cache.occupancy_by_kind(sample_shift=2)
        assert sampled[LineKind.DATA] == pytest.approx(1.0)


line_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=63),  # line number
        st.sampled_from([LineKind.DATA, LineKind.TLB]),
        st.booleans(),  # write
    ),
    max_size=200,
)


class TestCacheProperties:
    @given(line_ops)
    @settings(max_examples=50)
    def test_lookup_after_fill_always_hits(self, operations):
        cache = small_cache(ways=4, sets=4)
        for line, kind, is_write in operations:
            address = line * 64
            if not cache.lookup(address, kind, is_write):
                cache.fill(address, kind, dirty=is_write)
            assert cache.probe(address)

    @given(line_ops, st.integers(min_value=1, max_value=3))
    @settings(max_examples=50)
    def test_partition_never_overflows(self, operations, data_ways):
        cache = small_cache(ways=4, sets=4)
        cache.set_partition(data_ways)
        for line, kind, is_write in operations:
            address = line * 64
            if not cache.lookup(address, kind, is_write):
                cache.fill(address, kind, dirty=is_write)
        # Count lines by kind per set; each kind bounded by its partition
        # (all fills happened under the partition, so no stragglers).
        for set_index in range(cache.num_sets):
            base = set_index * cache.ways
            kinds = [
                cache._way_kind[base + w]
                for w in range(cache.ways)
                if cache._way_tag[base + w] != -1
            ]
            assert kinds.count(0) <= data_ways
            assert kinds.count(1) <= cache.ways - data_ways

    @given(line_ops)
    @settings(max_examples=50)
    def test_tag_map_consistent_with_ways(self, operations):
        cache = small_cache(ways=4, sets=4)
        for line, kind, is_write in operations:
            address = line * 64
            cache.lookup(address, kind) or cache.fill(address, kind)
        for set_index in range(cache.num_sets):
            for tag, way in cache._tag_to_way[set_index].items():
                assert cache._way_tag[set_index * cache.ways + way] == tag

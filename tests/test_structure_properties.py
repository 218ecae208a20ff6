"""Cheap property tests on pure data structures (no full-system runs)."""

from hypothesis import given, strategies as st

from repro.mem.address import Asid, PAGE_2M_BITS, PAGE_4K_BITS
from repro.mem.cache import DipDueler
from repro.tlb.pom_tlb import PomTlb
from repro.tlb.tlb import Tlb, TlbEntry
from repro.tlb.tsb import Tsb

addresses = st.integers(min_value=0, max_value=(1 << 40) - 1)
asids = st.builds(Asid, st.integers(0, 3), st.integers(0, 3))
page_bits = st.sampled_from([PAGE_4K_BITS, PAGE_2M_BITS])


class TestPomTlbProperties:
    @given(asids, addresses, page_bits)
    def test_set_address_deterministic_and_in_region(self, asid, va, bits):
        pom = PomTlb(base_address=0x4000, size_bytes=1 << 20)
        first = pom.set_address(asid, va, bits)
        assert first == pom.set_address(asid, va, bits)
        assert pom.base_address <= first < pom.base_address + pom.size_bytes
        assert first % 64 == 0

    @given(asids, addresses, page_bits)
    def test_insert_then_probe_roundtrip(self, asid, va, bits):
        pom = PomTlb(size_bytes=1 << 20)
        pom.insert(asid, va, TlbEntry(1234, bits))
        found = pom.probe(asid, va, bits)
        assert found is not None and found.frame_base == 1234

    @given(asids, addresses)
    def test_same_page_same_set_line(self, asid, va):
        pom = PomTlb(size_bytes=1 << 20)
        base = pom.set_address(asid, va & ~0xFFF, PAGE_4K_BITS)
        assert pom.set_address(asid, va, PAGE_4K_BITS) == base


class TestTlbProperties:
    @given(st.lists(st.tuples(asids, addresses), min_size=1, max_size=80))
    def test_capacity_never_exceeded(self, inserts):
        tlb = Tlb("t", 16, 4, 1)
        for asid, va in inserts:
            tlb.insert(asid, va, TlbEntry(7, PAGE_4K_BITS))
        held = sum(len(s) for s in tlb._sets)
        assert held <= 16
        assert all(len(s) <= 4 for s in tlb._sets)

    @given(st.lists(st.tuples(asids, addresses), min_size=1, max_size=80))
    def test_most_recent_insert_always_resident(self, inserts):
        tlb = Tlb("t", 16, 4, 1)
        for asid, va in inserts:
            tlb.insert(asid, va, TlbEntry(7, PAGE_4K_BITS))
        last_asid, last_va = inserts[-1]
        assert tlb.probe(last_asid, last_va) is not None


class TestTsbProperties:
    @given(asids, addresses, page_bits)
    def test_insert_probe_roundtrip(self, asid, va, bits):
        tsb = Tsb("t", 0x1000, num_entries=256)
        tsb.insert(asid, va, TlbEntry(55, bits))
        found = tsb.probe(asid, va, bits)
        assert found is not None and found.frame_base == 55

    @given(asids, addresses, page_bits)
    def test_slot_addresses_stable(self, asid, va, bits):
        tsb = Tsb("t", 0x1000, num_entries=256)
        assert tsb.slot_address(asid, va, bits) == tsb.slot_address(
            asid, va, bits
        )


class TestDipProperties:
    @given(st.lists(st.integers(min_value=0, max_value=255), max_size=300))
    def test_psel_stays_in_range(self, misses):
        dueler = DipDueler()
        for set_index in misses:
            dueler.record_miss(set_index)
            dueler.insert_at_mru(set_index)
            assert 0 <= dueler.psel <= dueler.psel_max

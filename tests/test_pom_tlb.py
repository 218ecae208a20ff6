"""Unit tests for the part-of-memory L3 TLB."""

import pytest

from repro.mem.address import Asid, PAGE_2M_BITS, PAGE_4K_BITS
from repro.tlb.pom_tlb import PageSizePredictor, PomTlb
from repro.tlb.tlb import TlbEntry

A = Asid(0, 0)
B = Asid(1, 0)


class TestGeometry:
    def test_set_addresses_within_region(self):
        pom = PomTlb(base_address=0, size_bytes=1 << 20)
        for va in (0x0, 0x1234_5000, 0xFFFF_F000):
            for bits in (PAGE_4K_BITS, PAGE_2M_BITS):
                _, address = pom.probe_with_address(A, va, bits)
                assert pom.base_address <= address < (
                    pom.base_address + pom.size_bytes
                )
                assert address % 64 == 0

    def test_size_halves_use_disjoint_sets(self):
        pom = PomTlb(size_bytes=1 << 20)
        _, small = pom.probe_with_address(A, 0x1000, PAGE_4K_BITS)
        assert small < pom.base_address + pom.size_bytes // 2
        _, large = pom.probe_with_address(A, 0x1000, PAGE_2M_BITS)
        assert large >= pom.base_address + pom.size_bytes // 2


def probe(pom, asid, virtual_address, page_bits):
    """The entry half of :meth:`PomTlb.probe_with_address`."""
    return pom.probe_with_address(asid, virtual_address, page_bits)[0]


class TestContents:
    def test_probe_miss_then_hit(self):
        pom = PomTlb(size_bytes=1 << 20)
        entry, address = pom.probe_with_address(A, 0x1000, PAGE_4K_BITS)
        assert entry is None
        # The fill writes the set line the probe read.
        assert pom.insert(A, 0x1000, TlbEntry(42, PAGE_4K_BITS)) == address
        found, _ = pom.probe_with_address(A, 0x1000, PAGE_4K_BITS)
        assert found.frame_base == 42

    def test_asid_isolation(self):
        pom = PomTlb(size_bytes=1 << 20)
        pom.insert(A, 0x1000, TlbEntry(42, PAGE_4K_BITS))
        assert probe(pom, B, 0x1000, PAGE_4K_BITS) is None

    def test_set_lru_eviction(self):
        pom = PomTlb(size_bytes=1 << 20, entries_per_set=2)
        # Force all entries into the same set by direct indexing.
        index = pom._set_index(A, 0x1, PAGE_4K_BITS)
        colliding = []
        vpn = 0
        while len(colliding) < 3:
            if pom._set_index(A, vpn, PAGE_4K_BITS) == index:
                colliding.append(vpn)
            vpn += 1
        for i, page in enumerate(colliding):
            pom.insert(A, page << PAGE_4K_BITS, TlbEntry(i, PAGE_4K_BITS))
        oldest, newest = (page << PAGE_4K_BITS for page in colliding[::2])
        assert probe(pom, A, oldest, PAGE_4K_BITS) is None
        assert probe(pom, A, newest, PAGE_4K_BITS) is not None


class TestPredictor:
    def test_learns_huge_pages(self):
        predictor = PageSizePredictor()
        assert predictor.predict(A) == PAGE_4K_BITS
        for _ in range(10):
            predictor.update(A, PAGE_2M_BITS)
        assert predictor.predict(A) == PAGE_2M_BITS

    def test_per_asid(self):
        predictor = PageSizePredictor()
        for _ in range(10):
            predictor.update(A, PAGE_2M_BITS)
        assert predictor.predict(B) == PAGE_4K_BITS

    def test_lookup_order_follows_prediction(self):
        pom = PomTlb(size_bytes=1 << 20)
        assert pom.lookup_order(A) == (PAGE_4K_BITS, PAGE_2M_BITS)
        for _ in range(10):
            pom.predictor.update(A, PAGE_2M_BITS)
        assert pom.lookup_order(A) == (PAGE_2M_BITS, PAGE_4K_BITS)


class TestStats:
    def test_record_outcome(self):
        pom = PomTlb(size_bytes=1 << 20)
        pom.record_outcome(A, True, PAGE_4K_BITS, probes=1)
        pom.record_outcome(A, False, None, probes=2)
        assert pom.stats.hits == 1
        assert pom.stats.misses == 1
        assert pom.stats.first_probe_hits == 1
        assert pom.stats.second_probes == 1
        assert pom.stats.hit_rate == pytest.approx(0.5)

    def test_insert_counts(self):
        pom = PomTlb(size_bytes=1 << 20)
        pom.insert(A, 0x1000, TlbEntry(42, PAGE_4K_BITS))
        assert pom.stats.insertions == 1

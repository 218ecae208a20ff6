"""Unit tests for the on-chip TLBs."""

import pytest

from repro.mem.address import Asid, PAGE_2M_BITS, PAGE_4K_BITS
from repro.tlb.tlb import L1TlbPair, Tlb, TlbEntry

A = Asid(0, 0)
B = Asid(1, 0)


def entry_4k(frame=7):
    return TlbEntry(frame_base=frame, page_bits=PAGE_4K_BITS)


def entry_2m(frame=512):
    return TlbEntry(frame_base=frame, page_bits=PAGE_2M_BITS)


class TestTlb:
    def test_miss_then_hit(self):
        tlb = Tlb("t", 16, 4, 1)
        assert tlb.lookup(A, 0x1234) is None
        tlb.insert(A, 0x1234, entry_4k())
        assert tlb.lookup(A, 0x1777) is not None  # same page
        assert tlb.lookup(A, 0x2000) is None

    def test_entries_divisible_by_ways(self):
        with pytest.raises(ValueError):
            Tlb("bad", 10, 4, 1)

    def test_asid_isolation(self):
        tlb = Tlb("t", 16, 4, 1)
        tlb.insert(A, 0x1000, entry_4k())
        assert tlb.lookup(B, 0x1000) is None

    def test_unsupported_page_size_rejected(self):
        tlb = Tlb("t", 16, 4, 1, page_bits_supported=(PAGE_4K_BITS,))
        with pytest.raises(ValueError):
            tlb.insert(A, 0, entry_2m())

    def test_unified_holds_both_sizes(self):
        tlb = Tlb("t", 24, 12, 1, page_bits_supported=(PAGE_4K_BITS, PAGE_2M_BITS))
        tlb.insert(A, 0x1000, entry_4k())
        tlb.insert(A, 0x40_0000, entry_2m())
        assert tlb.lookup(A, 0x1000).page_bits == PAGE_4K_BITS
        assert tlb.lookup(A, 0x40_0000).page_bits == PAGE_2M_BITS

    def test_lru_eviction_within_set(self):
        tlb = Tlb("t", 2, 2, 1)  # one set, two ways
        tlb.insert(A, 0x0000, entry_4k(1))
        tlb.insert(A, 0x1000, entry_4k(2))
        tlb.lookup(A, 0x0000)  # page 0 becomes MRU
        tlb.insert(A, 0x2000, entry_4k(3))
        assert tlb.lookup(A, 0x1000) is None
        assert tlb.lookup(A, 0x0000) is not None
        assert tlb.stats.evictions == 1

    def test_reinsert_updates(self):
        tlb = Tlb("t", 4, 4, 1)
        tlb.insert(A, 0x1000, entry_4k(1))
        tlb.insert(A, 0x1000, entry_4k(9))
        assert tlb.lookup(A, 0x1000).frame_base == 9
        assert tlb.stats.insertions == 1

    def test_stats(self):
        tlb = Tlb("t", 8, 4, 1)
        tlb.lookup(A, 0)
        tlb.insert(A, 0, entry_4k())
        tlb.lookup(A, 0)
        assert tlb.stats.hits == 1
        assert tlb.stats.misses == 1
        tlb.reset_stats()
        assert (tlb.stats.hits, tlb.stats.misses) == (0, 0)


class TestL1TlbPair:
    def test_routes_by_page_size(self):
        pair = L1TlbPair()
        pair.insert(A, 0x1000, entry_4k())
        pair.insert(A, 0x40_0000, entry_2m(frame=1024))
        assert pair.tlb_4k.probe(A, 0x1000) is not None
        assert pair.tlb_2m.probe(A, 0x40_0000) is not None
        assert pair.tlb_4k.probe(A, 0x40_0000) is None
        assert pair.tlb_2m.probe(A, 0x1000) is None

    def test_lookup_checks_both(self):
        pair = L1TlbPair()
        pair.insert(A, 0x40_0000, entry_2m(frame=1024))
        found = pair.lookup(A, 0x40_0123)
        assert found is not None
        assert found.page_bits == PAGE_2M_BITS

    def test_demand_misses_counted_once(self):
        pair = L1TlbPair()
        assert pair.lookup(A, 0x1000) is None
        # A demand miss missed each structure once.
        assert pair.tlb_4k.stats.misses == 1
        assert pair.tlb_2m.stats.misses == 1

    def test_hits_aggregate(self):
        pair = L1TlbPair()
        pair.insert(A, 0x1000, entry_4k())
        pair.insert(A, 0x40_0000, entry_2m(frame=1024))
        pair.lookup(A, 0x1000)
        pair.lookup(A, 0x40_0123)
        # A 4 KB hit leaves the 2 MB side untouched; a 2 MB hit first
        # missed the 4 KB side.
        assert (pair.tlb_4k.stats.hits, pair.tlb_4k.stats.misses) == (1, 1)
        assert (pair.tlb_2m.stats.hits, pair.tlb_2m.stats.misses) == (1, 0)


class TestProbe:
    def test_probe_does_not_touch_stats(self):
        tlb = Tlb("t", 16, 4, 1)
        tlb.insert(A, 0x1000, entry_4k())
        before = (tlb.stats.hits, tlb.stats.misses)
        assert tlb.probe(A, 0x1000) is not None
        assert tlb.probe(A, 0x9000) is None
        assert (tlb.stats.hits, tlb.stats.misses) == before

    def test_probe_does_not_promote(self):
        tlb = Tlb("t", 2, 2, 1)
        tlb.insert(A, 0x0000, entry_4k(1))
        tlb.insert(A, 0x1000, entry_4k(2))
        tlb.probe(A, 0x0000)  # no recency update
        tlb.insert(A, 0x2000, entry_4k(3))
        assert tlb.probe(A, 0x0000) is None  # page 0 was still LRU

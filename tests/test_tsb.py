"""Unit tests for the Translation Storage Buffer baseline."""

import pytest

from repro.mem.address import Asid, PAGE_4K_BITS
from repro.tlb.tlb import TlbEntry
from repro.tlb.tsb import Tsb

A = Asid(0, 0)
B = Asid(0, 1)


def make_tsb(entries=1024):
    return Tsb("tsb", base_address=0x10_0000, num_entries=entries)


class TestGeometry:
    def test_power_of_two_entries(self):
        with pytest.raises(ValueError):
            Tsb("bad", 0, num_entries=1000)

    def test_slot_addresses_in_region(self):
        tsb = make_tsb()
        for va in (0x0, 0x1234_5000, 0xFFFF_F000):
            slot = tsb.slot_address(A, va, PAGE_4K_BITS)
            assert tsb.base_address <= slot < tsb.base_address + tsb.size_bytes

    def test_slots_pack_into_lines(self):
        tsb = make_tsb()
        assert tsb.entry_bytes == 16
        assert tsb.slot_address(A, 0x0, PAGE_4K_BITS) % 16 == 0


class TestProbeInsert:
    def test_miss_then_hit(self):
        tsb = make_tsb()
        assert tsb.probe(A, 0x5000, PAGE_4K_BITS) is None
        tsb.insert(A, 0x5000, TlbEntry(9, PAGE_4K_BITS))
        assert tsb.probe(A, 0x5000, PAGE_4K_BITS).frame_base == 9

    def test_direct_mapped_conflict_overwrites(self):
        tsb = make_tsb(entries=16)
        conflicting = 0x5000 + 16 * 4096  # same slot index
        tsb.insert(A, 0x5000, TlbEntry(1, PAGE_4K_BITS))
        tsb.insert(A, conflicting, TlbEntry(2, PAGE_4K_BITS))
        assert tsb.probe(A, 0x5000, PAGE_4K_BITS) is None
        assert tsb.probe(A, conflicting, PAGE_4K_BITS).frame_base == 2

    def test_asid_tag_checked(self):
        tsb = make_tsb()
        tsb.insert(A, 0x5000, TlbEntry(1, PAGE_4K_BITS))
        # B hashes to a different slot or fails the tag compare; either
        # way the probe must not return A's entry.
        assert tsb.probe(B, 0x5000, PAGE_4K_BITS) is None

    def test_stats(self):
        tsb = make_tsb()
        tsb.probe(A, 0x5000, PAGE_4K_BITS)
        tsb.insert(A, 0x5000, TlbEntry(1, PAGE_4K_BITS))
        tsb.probe(A, 0x5000, PAGE_4K_BITS)
        assert tsb.stats.probes == 2
        assert tsb.stats.hits == 1
        assert tsb.stats.misses == 1
        assert tsb.stats.insertions == 1

    def test_page_size_in_tag(self):
        """A 2 MB probe must not hit a 4 KB entry with a colliding VPN.

        (Found by hypothesis: VA 0 at 4 KB and VA 0x1000 at 2 MB share
        VPN 0 in their respective size domains.)
        """
        tsb = make_tsb()
        tsb.insert(A, 0x0, TlbEntry(7, PAGE_4K_BITS))
        assert tsb.probe(A, 0x1000, 21) is None

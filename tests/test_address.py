"""Unit tests for address arithmetic (repro.mem.address)."""

import pytest
from hypothesis import given, strategies as st

from repro.mem.address import (
    PAGE_4K_BITS,
    Asid,
    radix_index,
)

addresses = st.integers(min_value=0, max_value=(1 << 48) - 1)


class TestRadixIndex:
    def test_level_bounds(self):
        with pytest.raises(ValueError):
            radix_index(0, 0)
        with pytest.raises(ValueError):
            radix_index(0, 6)
        # Level 5 is valid (Intel LA57 five-level paging).
        assert radix_index(7 << (12 + 4 * 9), 5) == 7

    def test_level1_is_low_bits(self):
        # Level 1 indexes VA bits 12..20.
        assert radix_index(0x1000, 1) == 1
        assert radix_index(0x200000, 1) == 0
        assert radix_index(0x200000, 2) == 1

    def test_level4_is_top_bits(self):
        virtual = 5 << (PAGE_4K_BITS + 27)
        assert radix_index(virtual, 4) == 5

    @given(addresses)
    def test_indices_reconstruct_page_number(self, address):
        vpn = 0
        for level in (4, 3, 2, 1):
            vpn = (vpn << 9) | radix_index(address, level)
        assert vpn == address >> PAGE_4K_BITS

    @given(addresses, st.integers(min_value=1, max_value=4))
    def test_index_in_node_range(self, address, level):
        assert 0 <= radix_index(address, level) < 512


class TestAsid:
    def test_equality_and_hash(self):
        assert Asid(1, 2) == Asid(1, 2)
        assert Asid(1, 2) != Asid(2, 1)
        assert len({Asid(0), Asid(0), Asid(1)}) == 2

    def test_default_process(self):
        assert Asid(3).process_id == 0

    def test_str(self):
        assert str(Asid(1, 2)) == "vm1.p2"

    def test_tuple_behaviour(self):
        vm_id, process_id = Asid(7, 9)
        assert (vm_id, process_id) == (7, 9)

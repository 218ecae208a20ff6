"""Unit and property tests for the radix page tables."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.address import PAGE_2M, PAGE_2M_BITS, PAGE_4K, PAGE_4K_BITS
from repro.vm.page_table import PageTable
from repro.vm.physical_memory import FrameAllocator


def make_table(frames=1 << 20):
    return PageTable(FrameAllocator(base_frame=0, num_frames=frames))


virtual_addresses = st.integers(min_value=0, max_value=(1 << 40) - 1)


class TestMapping:
    def test_map_then_lookup(self):
        table = make_table()
        translation = table.map_page(0x1234_5000)
        found = table.lookup(0x1234_5678)
        assert found is not None
        assert found.frame_base == translation.frame_base
        assert found.page_bits == PAGE_4K_BITS

    def test_unmapped_returns_none(self):
        assert make_table().lookup(0xDEAD_B000) is None

    def test_map_idempotent(self):
        table = make_table()
        first = table.map_page(0x1000)
        second = table.map_page(0x1fff)
        assert first.frame_base == second.frame_base
        assert table.pages_mapped == 1

    def test_huge_page_mapping(self):
        table = make_table()
        table.map_page(0x0, PAGE_2M_BITS)
        found = table.lookup(PAGE_2M - 1)
        assert found.page_bits == PAGE_2M_BITS
        assert table.lookup(PAGE_2M) is None

    def test_huge_page_contiguous_frames(self):
        table = make_table()
        translation = table.map_page(0x0, PAGE_2M_BITS)
        physical = translation.physical_address(PAGE_4K * 3 + 17)
        assert physical == (translation.frame_base << PAGE_4K_BITS) + (
            PAGE_4K * 3 + 17
        )

    def test_page_size_conflicts_rejected(self):
        table = make_table()
        table.map_page(0x0, PAGE_4K_BITS)
        with pytest.raises(ValueError, match="conflict"):
            table.map_page(0x1000, PAGE_2M_BITS)
        other = make_table()
        other.map_page(0x0, PAGE_2M_BITS)
        with pytest.raises(ValueError, match="conflict"):
            other.map_page(0x1000, PAGE_4K_BITS)

    def test_unsupported_page_size(self):
        with pytest.raises(ValueError):
            make_table().map_page(0, 30)

    def test_node_accounting(self):
        table = make_table()
        assert table.nodes_allocated == 1  # root
        table.map_page(0x0)
        assert table.nodes_allocated == 4  # root + L3 + L2 + L1
        table.map_page(0x1000)  # same leaf node
        assert table.nodes_allocated == 4

    @given(st.lists(virtual_addresses, min_size=1, max_size=40))
    @settings(max_examples=40)
    def test_roundtrip_many(self, addresses):
        table = make_table()
        expected = {}
        for address in addresses:
            translation = table.map_page(address)
            expected[address >> PAGE_4K_BITS] = translation.frame_base
        for address in addresses:
            found = table.lookup(address)
            assert found.frame_base == expected[address >> PAGE_4K_BITS]

    @given(st.lists(virtual_addresses, min_size=2, max_size=40, unique=True))
    @settings(max_examples=40)
    def test_distinct_pages_distinct_frames(self, addresses):
        table = make_table()
        frames = [table.map_page(a).frame_base for a in addresses]
        by_page = {}
        for address, frame in zip(addresses, frames):
            by_page.setdefault(address >> PAGE_4K_BITS, set()).add(frame)
        seen = set()
        for frames_of_page in by_page.values():
            assert len(frames_of_page) == 1
            frame = next(iter(frames_of_page))
            assert frame not in seen
            seen.add(frame)


class TestWalkAddresses:
    def test_full_walk_has_four_entries(self):
        table = make_table()
        table.map_page(0x1000)
        addresses, translation = table.walk_addresses(0x1000)
        assert len(addresses) == 4
        assert translation is not None

    def test_huge_walk_has_three_entries(self):
        table = make_table()
        table.map_page(0x0, PAGE_2M_BITS)
        addresses, translation = table.walk_addresses(0x123)
        assert len(addresses) == 3
        assert translation.page_bits == PAGE_2M_BITS

    def test_psc_shortcut_reads_fewer_entries(self):
        table = make_table()
        table.map_page(0x1000)
        addresses, _ = table.walk_addresses(0x1000, start_level=1)
        assert len(addresses) == 1

    def test_unmapped_walk_returns_none(self):
        table = make_table()
        addresses, translation = table.walk_addresses(0x1000)
        assert translation is None
        # The walker reads the root entry and finds it not-present.
        assert len(addresses) == 1

    def test_partially_mapped_walk(self):
        table = make_table()
        table.map_page(0x1000)
        # A sibling page in the same leaf node: walk descends fully but
        # finds no PTE.
        addresses, translation = table.walk_addresses(0x2000)
        assert translation is None
        assert len(addresses) == 4

    def test_entry_addresses_within_nodes(self):
        table = make_table()
        table.map_page(0x1000)
        addresses, _ = table.walk_addresses(0x1000)
        for entry_address in addresses:
            assert entry_address % 8 == 0

    def test_walk_entries_distinct_nodes(self):
        table = make_table()
        table.map_page(0x1000)
        addresses, _ = table.walk_addresses(0x1000)
        nodes = {a >> PAGE_4K_BITS for a in addresses}
        assert len(nodes) == 4


#: Addresses packed into a few 2 MB regions under distinct upper-level
#: nodes, so random sequences revisit pages and collide on page size.
clustered_addresses = st.builds(
    lambda top, region, offset: top + region * PAGE_2M + offset,
    st.sampled_from([0, 1 << 30, 1 << 39]),
    st.integers(0, 3),
    st.integers(0, PAGE_2M - 1),
)
#: 4 KB, 2 MB and an unsupported size (1 GB).
any_page_bits = st.sampled_from([PAGE_4K_BITS, PAGE_2M_BITS, 30])


def outcome(call):
    """A call's return value, or its exception as (type, message)."""
    try:
        return call()
    except Exception as error:
        return type(error), str(error)


def lookup_then_map_page(table, address, page_bits):
    found = table.lookup(address)
    return found if found is not None else table.map_page(address, page_bits)


class TestLookupOrMap:
    def test_existing_mapping_of_any_size_is_returned(self):
        table = make_table()
        huge = table.map_page(0, PAGE_2M_BITS)
        assert table.lookup_or_map(0x1000, PAGE_4K_BITS) == huge
        small = table.map_page(PAGE_2M, PAGE_4K_BITS)
        assert table.lookup_or_map(PAGE_2M, PAGE_2M_BITS) == small
        assert table.pages_mapped == 2
        with pytest.raises(ValueError, match="4K mappings already occupy"):
            table.lookup_or_map(PAGE_2M + PAGE_4K, PAGE_2M_BITS)
        with pytest.raises(ValueError, match="unsupported page size"):
            table.lookup_or_map(PAGE_2M * 7, 30)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(clustered_addresses, any_page_bits), max_size=40))
    def test_matches_lookup_then_map_page(self, steps):
        table, reference = make_table(), make_table()
        for address, page_bits in steps:
            assert outcome(
                lambda: table.lookup_or_map(address, page_bits)
            ) == outcome(
                lambda: lookup_then_map_page(reference, address, page_bits)
            )
            assert table.state_dict() == reference.state_dict()
            assert (
                table._allocator.state_dict()
                == reference._allocator.state_dict()
            )

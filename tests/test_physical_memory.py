"""Unit and property tests for frame allocation and memory layout."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.address import PAGE_4K_BITS
from repro.vm.physical_memory import (
    DEFAULT_POM_TLB_BYTES,
    FrameAllocator,
    HostPhysicalMemory,
)


class TestFrameAllocator:
    def test_single_allocations_unique(self):
        allocator = FrameAllocator(base_frame=0, num_frames=256)
        frames = [allocator.alloc() for _ in range(256)]
        assert len(set(frames)) == 256
        assert all(0 <= f < 256 for f in frames)

    def test_exhaustion_raises(self):
        allocator = FrameAllocator(base_frame=0, num_frames=4)
        for _ in range(4):
            allocator.alloc()
        with pytest.raises(MemoryError):
            allocator.alloc()

    def test_base_frame_offset(self):
        allocator = FrameAllocator(base_frame=1000, num_frames=16)
        assert all(1000 <= allocator.alloc() < 1016 for _ in range(16))

    def test_contiguous_allocation(self):
        allocator = FrameAllocator(base_frame=0, num_frames=1024)
        base = allocator.alloc(contiguous=512)
        assert base == 512  # carved from the top
        other = allocator.alloc(contiguous=256)
        assert other == 256

    def test_contiguous_never_overlaps_singles(self):
        allocator = FrameAllocator(base_frame=0, num_frames=64)
        contiguous = allocator.alloc(contiguous=32)
        contiguous_range = set(range(contiguous, contiguous + 32))
        singles = {allocator.alloc() for _ in range(32)}
        assert not (singles & contiguous_range)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            FrameAllocator(0, 8).alloc(contiguous=0)

    def test_scrambling_not_sequential(self):
        allocator = FrameAllocator(base_frame=0, num_frames=4096)
        frames = [allocator.alloc() for _ in range(16)]
        deltas = {b - a for a, b in zip(frames, frames[1:])}
        assert deltas != {1}

    @given(st.integers(min_value=1, max_value=200))
    @settings(max_examples=20)
    def test_allocation_injective(self, count):
        allocator = FrameAllocator(base_frame=0, num_frames=512)
        frames = [allocator.alloc() for _ in range(count)]
        assert len(set(frames)) == count


class TestHostPhysicalMemory:
    def test_pom_region_at_base(self):
        memory = HostPhysicalMemory(num_vms=2)
        assert 0 in memory.pom_tlb_range
        assert DEFAULT_POM_TLB_BYTES - 1 in memory.pom_tlb_range
        assert DEFAULT_POM_TLB_BYTES not in memory.pom_tlb_range

    def test_vm_slices_disjoint(self):
        memory = HostPhysicalMemory(num_vms=2, vm_bytes=1 << 20)
        frame_a = memory.allocator_for_vm(0).alloc()
        frame_b = memory.allocator_for_vm(1).alloc()
        slice_frames = (1 << 20) // 4096
        assert frame_a // slice_frames != frame_b // slice_frames

    def test_frames_above_pom_region(self):
        memory = HostPhysicalMemory(num_vms=1, vm_bytes=1 << 20)
        frame = memory.allocator_for_vm(0).alloc()
        assert frame << PAGE_4K_BITS >= memory.pom_tlb_bytes

    def test_needs_a_vm(self):
        with pytest.raises(ValueError):
            HostPhysicalMemory(num_vms=0)

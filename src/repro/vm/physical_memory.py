"""Host and guest physical memory layout and frame allocation.

Layout of host physical memory (matching the paper's platform):

* ``[0, pom_tlb_bytes)`` — the POM-TLB region, resident in die-stacked
  DRAM (16 MB by default, as in Ryoo et al. and the paper's Section 3);
* everything above — ordinary off-chip DDR4, holding page-table nodes and
  program data.

Each virtual machine receives frames from a disjoint host range, so VM
context switches thrash the physically-tagged caches naturally (no flush
modeling needed).  Frame numbers are scrambled with a multiplicative hash
so that consecutive virtual pages do not map to consecutive physical rows,
mimicking a long-running system's fragmented allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.mem.address import PAGE_4K, PAGE_4K_BITS

DEFAULT_POM_TLB_BYTES = 16 * 1024 * 1024

# Knuth's multiplicative constant, used to scatter frame numbers.
_SCRAMBLE = 2654435761
_SCRAMBLE_MASK = (1 << 32) - 1


@dataclass
class FrameAllocator:
    """Hands out 4 KB frame numbers from a contiguous range, scrambled.

    ``alloc(contiguous=n)`` returns the first of ``n`` physically
    contiguous frames (needed for 2 MB huge pages and page-table nodes).
    Contiguous requests are carved sequentially from the top of the range
    so they never collide with scrambled single-frame allocations, which
    are carved from the bottom.
    """

    base_frame: int
    num_frames: int
    _next_single: int = 0
    _next_contig_end: int = field(default=-1)

    def __post_init__(self) -> None:
        if self._next_contig_end < 0:
            self._next_contig_end = self.num_frames

    def alloc(self, contiguous: int = 1) -> int:
        """Allocate frames; returns the base frame number."""
        if contiguous < 1:
            raise ValueError("must allocate at least one frame")
        if contiguous == 1:
            if self._next_single >= self._next_contig_end:
                raise MemoryError("physical frame range exhausted")
            index = self._next_single
            self._next_single += 1
            # Scramble within the single-allocation subrange.
            span = max(1, self._next_contig_end)
            scrambled = ((index * _SCRAMBLE) & _SCRAMBLE_MASK) % span
            # Linear-probe for an unused slot to keep allocation injective.
            frame = self._probe(scrambled, span)
            return self.base_frame + frame
        start = self._next_contig_end - contiguous
        if start < self._next_single:
            raise MemoryError("physical frame range exhausted")
        self._next_contig_end = start
        return self.base_frame + start

    # A tiny open-addressing table records which scrambled slots were used.
    _used: Dict[int, bool] = field(default_factory=dict)

    def _probe(self, start: int, span: int) -> int:
        slot = start
        while slot in self._used:
            slot = (slot + 1) % span
        self._used[slot] = True
        return slot

    @property
    def frames_allocated(self) -> int:
        return len(self._used) + (self.num_frames - self._next_contig_end)

    def state_dict(self) -> dict:
        return {
            "base_frame": self.base_frame,
            "num_frames": self.num_frames,
            "next_single": self._next_single,
            "next_contig_end": self._next_contig_end,
            "used": dict(self._used),
        }

    def load_state(self, state: dict) -> None:
        for field_name in ("base_frame", "num_frames"):
            if state[field_name] != getattr(self, field_name):
                raise ValueError(
                    f"allocator snapshot {field_name}={state[field_name]} "
                    f"does not match this range's {getattr(self, field_name)}"
                )
        self._next_single = state["next_single"]
        self._next_contig_end = state["next_contig_end"]
        self._used = dict(state["used"])


class HostPhysicalMemory:
    """Carves host physical memory into the POM-TLB region and VM slices."""

    def __init__(
        self,
        num_vms: int,
        vm_bytes: int = 1 << 32,
        pom_tlb_bytes: int = DEFAULT_POM_TLB_BYTES,
    ):
        if num_vms < 1:
            raise ValueError("need at least one virtual machine")
        self.pom_tlb_bytes = pom_tlb_bytes
        self.pom_tlb_base = 0
        #: Host physical addresses resident in the POM-TLB's die-stacked
        #: DRAM; ``address in pom_tlb_range`` routes a DRAM access.
        self.pom_tlb_range = range(
            self.pom_tlb_base, self.pom_tlb_base + pom_tlb_bytes
        )
        vm_frames = vm_bytes // PAGE_4K
        first_frame = pom_tlb_bytes // PAGE_4K
        self._vm_allocators = [
            FrameAllocator(first_frame + vm * vm_frames, vm_frames)
            for vm in range(num_vms)
        ]

    def allocator_for_vm(self, vm_id: int) -> FrameAllocator:
        return self._vm_allocators[vm_id]

    @staticmethod
    def frame_to_address(frame: int) -> int:
        return frame << PAGE_4K_BITS

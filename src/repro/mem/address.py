"""Address arithmetic for the simulated x86-64-like machine.

All addresses are plain integers.  Pages come in two sizes (4 KB base pages
and 2 MB huge pages, matching the paper's Skylake host with Transparent Huge
Pages enabled).  Cache lines are 64 bytes.

Address space identifiers (ASIDs) name a (virtual machine, process) pair so
TLB entries survive context switches without flushes, exactly as in the
paper's baseline (Section 1, "Tagging the entry with ASID eliminates the
need to flush the TLB upon a context switch").
"""

from __future__ import annotations

from typing import NamedTuple

CACHE_LINE_BYTES = 64
CACHE_LINE_BITS = 6

PAGE_4K = 4096
PAGE_2M = 2 * 1024 * 1024
PAGE_4K_BITS = 12
PAGE_2M_BITS = 21

#: Bits of virtual address consumed by each radix level.  x86-64 uses four
#: levels; Intel's LA57 extension (cited by the paper as motivation — "a
#: five-level page table will only strengthen the motivation") adds a
#: fifth.
RADIX_LEVEL_BITS = 9
RADIX_LEVELS = 4
MAX_RADIX_LEVELS = 5
ENTRIES_PER_NODE = 512


def radix_index(virtual_address: int, level: int) -> int:
    """Return the 9-bit page-table index for ``level``.

    ``level`` follows the paper's Figure 2 naming: level 4 is the PML4
    root (topmost 9 bits of a 48-bit VA), level 1 is the leaf page table;
    level 5 is the LA57 root for 57-bit address spaces.
    """
    if not 1 <= level <= MAX_RADIX_LEVELS:
        raise ValueError(f"radix level must be 1..{MAX_RADIX_LEVELS}, got {level}")
    shift = PAGE_4K_BITS + (level - 1) * RADIX_LEVEL_BITS
    return (virtual_address >> shift) & (ENTRIES_PER_NODE - 1)


class Asid(NamedTuple):
    """Address space identifier: one guest process on one virtual machine.

    A NamedTuple rather than a dataclass: ASIDs are hashed on every TLB
    probe, and tuple hashing is significantly cheaper.
    """

    vm_id: int
    process_id: int = 0

    def __str__(self) -> str:
        return f"vm{self.vm_id}.p{self.process_id}"

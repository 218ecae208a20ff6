"""x86-64 four-level radix page tables, built lazily in simulated memory.

Two instantiations exist:

* a **guest page table** per (VM, process), mapping guest-virtual to
  guest-physical addresses, whose nodes live in guest-physical frames;
* a **host page table** per VM (the extended page table), mapping
  guest-physical to host-physical addresses, whose nodes live in host
  physical frames.

Nodes are real simulated objects with physical addresses, so a page walk
emits the exact memory references the hardware walker would, and those
references contend for data-cache capacity — the effect the paper's
Figure 3 measures.

Both tables support 4 KB leaf pages and 2 MB huge pages (leaf at the PDE
level), reflecting the paper's host and guest running with Transparent
Huge Pages enabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.mem.address import (
    MAX_RADIX_LEVELS,
    PAGE_2M_BITS,
    PAGE_4K_BITS,
    RADIX_LEVELS,
    radix_index,
)
from repro.vm.physical_memory import FrameAllocator


@dataclass
class PageTableNode:
    """One 4 KB radix node with a physical base address."""

    level: int
    base_address: int
    children: Dict[int, "PageTableNode"]
    leaves: Dict[int, int]


@dataclass
class Translation:
    """Result of a table lookup: frame plus page geometry."""

    frame_base: int
    page_bits: int

    def physical_address(self, virtual_address: int) -> int:
        offset = virtual_address & ((1 << self.page_bits) - 1)
        return (self.frame_base << PAGE_4K_BITS) + offset


class PageTable:
    """A lazily-populated radix-4 page table.

    ``frame_allocator`` provides the physical frames backing nodes and (by
    default) the data pages themselves.  ``map_page`` installs a mapping on
    demand; ``walk_addresses`` returns, without side effects, the physical
    addresses of the entries a hardware walker would read.
    """

    def __init__(
        self,
        frame_allocator: FrameAllocator,
        frame_of_page: Optional[Callable[[int, int], int]] = None,
        levels: int = RADIX_LEVELS,
    ):
        if not 2 <= levels <= MAX_RADIX_LEVELS:
            raise ValueError(
                f"page tables support 2..{MAX_RADIX_LEVELS} levels, got {levels}"
            )
        self.levels = levels
        self._allocator = frame_allocator
        self._frame_of_page = frame_of_page or self._default_frame_of_page
        root_frame = frame_allocator.alloc(contiguous=1)
        self.root = PageTableNode(
            level=levels,
            base_address=root_frame << PAGE_4K_BITS,
            children={},
            leaves={},
        )
        self.pages_mapped = 0
        self.nodes_allocated = 1

    def _default_frame_of_page(self, virtual_address: int, page_bits: int) -> int:
        frames_needed = 1 << (page_bits - PAGE_4K_BITS)
        return self._allocator.alloc(contiguous=frames_needed)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def map_page(self, virtual_address: int, page_bits: int = PAGE_4K_BITS) -> Translation:
        """Ensure a mapping exists for the page containing ``virtual_address``."""
        if page_bits not in (PAGE_4K_BITS, PAGE_2M_BITS):
            raise ValueError(f"unsupported page size: 2**{page_bits}")
        leaf_level = 1 if page_bits == PAGE_4K_BITS else 2
        node = self.root
        for level in range(self.levels, leaf_level, -1):
            index = radix_index(virtual_address, level)
            child = node.children.get(index)
            if child is None:
                if index in node.leaves:
                    raise ValueError(
                        "page-size conflict: a huge page already maps this range"
                    )
                frame = self._allocator.alloc(contiguous=1)
                child = PageTableNode(
                    level=level - 1,
                    base_address=frame << PAGE_4K_BITS,
                    children={},
                    leaves={},
                )
                node.children[index] = child
                self.nodes_allocated += 1
            node = child
        index = radix_index(virtual_address, leaf_level)
        frame = node.leaves.get(index)
        if frame is None:
            if index in node.children:
                raise ValueError(
                    "page-size conflict: 4K mappings already occupy this range"
                )
            frame = self._frame_of_page(virtual_address, page_bits)
            node.leaves[index] = frame
            self.pages_mapped += 1
        return Translation(frame_base=frame, page_bits=page_bits)

    def lookup_or_map(
        self, virtual_address: int, page_bits: int = PAGE_4K_BITS
    ) -> Translation:
        """``lookup``, and on a miss ``map_page``, in one descent.

        Returns and raises what ``lookup`` followed by ``map_page`` would,
        with the same frame-allocation order: the missing path is built
        from the node where the lookup stopped.  This is the demand-map
        step of every first touch (``radix_index`` inlined as in
        ``lookup``).
        """
        node = self.root
        for level in range(self.levels, 0, -1):
            index = (virtual_address >> (3 + 9 * level)) & 0x1FF
            frame = node.leaves.get(index)
            if frame is not None:
                return Translation(frame, PAGE_4K_BITS + (level - 1) * 9)
            child = node.children.get(index)
            if child is None:
                break
            node = child
        if page_bits not in (PAGE_4K_BITS, PAGE_2M_BITS):
            raise ValueError(f"unsupported page size: 2**{page_bits}")
        leaf_level = 1 if page_bits == PAGE_4K_BITS else 2
        if level < leaf_level:
            raise ValueError(
                "page-size conflict: 4K mappings already occupy this range"
            )
        while level > leaf_level:
            frame = self._allocator.alloc(contiguous=1)
            child = PageTableNode(
                level=level - 1,
                base_address=frame << PAGE_4K_BITS,
                children={},
                leaves={},
            )
            node.children[index] = child
            self.nodes_allocated += 1
            node = child
            level -= 1
            index = (virtual_address >> (3 + 9 * level)) & 0x1FF
        frame = self._frame_of_page(virtual_address, page_bits)
        node.leaves[index] = frame
        self.pages_mapped += 1
        return Translation(frame, page_bits)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, virtual_address: int) -> Optional[Translation]:
        """Translate without side effects; None if unmapped.

        Hot path (demand-map checks and walk warm-up): the 9-bit
        ``radix_index`` extraction is inlined — shift amount is
        ``PAGE_4K_BITS + (level - 1) * 9 = 3 + 9 * level``.
        """
        node = self.root
        for level in range(self.levels, 0, -1):
            index = (virtual_address >> (3 + 9 * level)) & 0x1FF
            frame = node.leaves.get(index)
            if frame is not None:
                page_bits = PAGE_4K_BITS + (level - 1) * 9
                return Translation(frame_base=frame, page_bits=page_bits)
            child = node.children.get(index)
            if child is None:
                return None
            node = child
        return None

    def walk_addresses(
        self, virtual_address: int, start_level: Optional[int] = None
    ) -> Tuple[List[int], Optional[Translation]]:
        """Physical addresses of the entries read walking from ``start_level``.

        ``start_level`` below the root models an MMU-cache hit that skips
        the upper levels (default: the full walk from the root).  Returns
        (entry addresses in walk order, translation or None if the address
        is unmapped).
        """
        if start_level is None:
            start_level = self.levels
        addresses: List[int] = []
        node = self.root
        # Descend silently to the node at start_level (radix_index inlined,
        # as in ``lookup``: shift = 3 + 9 * level).
        for level in range(self.levels, start_level, -1):
            index = (virtual_address >> (3 + 9 * level)) & 0x1FF
            if index in node.leaves:
                # Huge-page leaf above the requested start level.
                frame = node.leaves[index]
                page_bits = PAGE_4K_BITS + (level - 1) * 9
                return addresses, Translation(frame, page_bits)
            child = node.children.get(index)
            if child is None:
                return addresses, None
            node = child
        for level in range(start_level, 0, -1):
            index = (virtual_address >> (3 + 9 * level)) & 0x1FF
            addresses.append(node.base_address + index * 8)
            frame = node.leaves.get(index)
            if frame is not None:
                page_bits = PAGE_4K_BITS + (level - 1) * 9
                return addresses, Translation(frame, page_bits)
            child = node.children.get(index)
            if child is None:
                return addresses, None
            node = child
        return addresses, None

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Plain-data snapshot of the radix tree (recursion depth is the
        table's level count, at most :data:`MAX_RADIX_LEVELS`).

        A view, valid until the next mapping: each node's ``leaves`` dict
        is handed out as it is; the node dicts and ``children`` dicts are
        built, because the live nodes are ``PageTableNode`` objects.
        """
        return {
            "levels": self.levels,
            "root": _node_state(self.root),
            "pages_mapped": self.pages_mapped,
            "nodes_allocated": self.nodes_allocated,
        }

    def load_state(self, state: dict) -> None:
        """Replace this table's tree with a copy of the snapshot's.

        The frames the restored nodes sit in were handed out by the
        allocator whose own state is restored alongside, so no frames are
        (re)allocated here.
        """
        if state["levels"] != self.levels:
            raise ValueError(
                f"snapshot is a {state['levels']}-level table, this table "
                f"has {self.levels} levels"
            )
        self.root = _node_from_state(state["root"])
        self.pages_mapped = state["pages_mapped"]
        self.nodes_allocated = state["nodes_allocated"]

    @classmethod
    def from_state(
        cls,
        frame_allocator: FrameAllocator,
        state: dict,
        frame_of_page: Optional[Callable[[int, int], int]] = None,
    ) -> "PageTable":
        """Rebuild a table from a snapshot without allocating a root frame.

        Used for tables created lazily per (VM, process): the fresh system
        has not built them, and going through ``__init__`` would burn an
        allocator frame the snapshot never spent.
        """
        table = cls.__new__(cls)
        table.levels = state["levels"]
        table._allocator = frame_allocator
        table._frame_of_page = frame_of_page or table._default_frame_of_page
        table.root = _node_from_state(state["root"])
        table.pages_mapped = state["pages_mapped"]
        table.nodes_allocated = state["nodes_allocated"]
        return table


def _node_state(node: PageTableNode) -> dict:
    return {
        "level": node.level,
        "base_address": node.base_address,
        "leaves": node.leaves,
        "children": {
            index: _node_state(child) for index, child in node.children.items()
        },
    }


def _node_from_state(state: dict) -> PageTableNode:
    return PageTableNode(
        level=state["level"],
        base_address=state["base_address"],
        children={
            index: _node_from_state(child)
            for index, child in state["children"].items()
        },
        leaves=dict(state["leaves"]),
    )

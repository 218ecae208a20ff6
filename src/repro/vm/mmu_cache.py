"""MMU page-structure caches (PSC) and the nested (gPA -> hPA) walk TLB.

Modern walkers keep small caches of partial translations so a walk can
skip upper radix levels (Intel's paging-structure caches, AMD's page walk
cache — paper Section 6).  The paper's platform (Table 2) has:

* PML4 cache — 2 entries, skips level 4 (walk starts at level 3);
* PDP cache — 4 entries, skips levels 4-3 (walk starts at level 2);
* PDE cache — 32 entries, skips levels 4-3-2 (only the leaf PTE is read).

Virtualized walks additionally use a **nested TLB** caching guest-physical
to host-physical translations, so most of the up-to-20 host references of
a 2-D walk are skipped once the guest's page-table pages are warm — this
is what keeps the measured virtualized walk cost near the native cost for
well-behaved workloads (Table 1) while letting it explode for workloads
whose walks miss everywhere.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Hashable, Optional

from repro.mem.address import Asid, PAGE_4K_BITS, RADIX_LEVEL_BITS

#: VA shift that yields the PSC tag prefix for a walk resuming at level
#: L = 1 (PDE), 2 (PDP) and 3 (PML4): the VA bits from the index at level
#: L + 1 up.  A hit tagged with this prefix lets the walk resume at level
#: L, whether the table has 4 or 5 levels.
_SHIFT_PDE = PAGE_4K_BITS + RADIX_LEVEL_BITS
_SHIFT_PDP = PAGE_4K_BITS + 2 * RADIX_LEVEL_BITS
_SHIFT_PML4 = PAGE_4K_BITS + 3 * RADIX_LEVEL_BITS


class SmallFullyAssocCache:
    """Tiny fully-associative LRU store for one PSC level or the nested TLB.

    Its owners run the lookup and the insert on ``_store`` themselves
    (:meth:`PagingStructureCache.probe_level` and
    :meth:`PagingStructureCache.install`, and
    ``PageWalker.translate_guest_physical``): a hit moves its key to the
    MRU end and counts in ``hits``, a miss counts in ``misses``, and an
    insert past ``entries`` evicts the LRU (first) key.
    """

    def __init__(self, entries: int):
        if entries < 1:
            raise ValueError("cache needs at least one entry")
        self.entries = entries
        self._store: OrderedDict[Hashable, object] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def state_dict(self) -> dict:
        # Insertion order of the OrderedDict *is* the LRU order.
        return {
            "store": list(self._store.items()),
            "hits": self.hits,
            "misses": self.misses,
        }

    def load_state(self, state: dict) -> None:
        store = state["store"]
        if len(store) > self.entries:
            raise ValueError(
                f"snapshot holds {len(store)} entries, cache capacity is "
                f"{self.entries}"
            )
        self._store = OrderedDict(store)
        self.hits = state["hits"]
        self.misses = state["misses"]


@dataclass(frozen=True)
class PscConfig:
    """Sizes and latency of the three paging-structure caches (Table 2)."""

    pml4_entries: int = 2
    pdp_entries: int = 4
    pde_entries: int = 32
    latency: int = 2


class PagingStructureCache:
    """The three-level PSC, probed longest-prefix-first.

    Keys are (asid, virtual-address prefix) where the prefix covers the
    radix indices above the skipped levels.  A PDE hit means only the leaf
    level-1 entry must be read; a PML4 hit skips just the root.
    """

    def __init__(self, config: PscConfig | None = None):
        self.config = config or PscConfig()
        self._pde = SmallFullyAssocCache(self.config.pde_entries)
        self._pdp = SmallFullyAssocCache(self.config.pdp_entries)
        self._pml4 = SmallFullyAssocCache(self.config.pml4_entries)
        #: (resume level, cache, tag shift) in ``install`` order.
        self._by_level = (
            (1, self._pde, _SHIFT_PDE),
            (2, self._pdp, _SHIFT_PDP),
            (3, self._pml4, _SHIFT_PML4),
        )

    def probe_level(self, asid: Asid, virtual_address: int) -> Optional[int]:
        """The level the walk resumes at after the deepest hit, or ``None``.

        Probes longest prefix first (PDE, PDP, PML4): a hit promotes its
        key to MRU and counts in that cache's ``hits``, and each cache
        probed without a hit counts one ``miss``.  A hit costs
        ``config.latency``, which the walker books itself."""
        cache = self._pde
        store = cache._store
        key = (asid, virtual_address >> _SHIFT_PDE)
        if store.get(key) is not None:
            store.move_to_end(key)
            cache.hits += 1
            return 1
        cache.misses += 1
        cache = self._pdp
        store = cache._store
        key = (asid, virtual_address >> _SHIFT_PDP)
        if store.get(key) is not None:
            store.move_to_end(key)
            cache.hits += 1
            return 2
        cache.misses += 1
        cache = self._pml4
        store = cache._store
        key = (asid, virtual_address >> _SHIFT_PML4)
        if store.get(key) is not None:
            store.move_to_end(key)
            cache.hits += 1
            return 3
        cache.misses += 1
        return None

    def install(self, asid: Asid, virtual_address: int, deepest_level: int) -> None:
        """Record partial translations learned by a completed walk.

        ``deepest_level`` is the level of the last *interior* node read
        (1 means the walk reached a leaf PTE, so all three prefixes are
        cacheable; a 2 MB walk stops at level 2 so only PML4/PDP apply).
        A present key moves to MRU; a new one is appended and evicts the
        LRU key once the cache is over capacity.  Counters do not move.
        """
        for level, cache, shift in self._by_level:
            if deepest_level <= level:
                store = cache._store
                key = (asid, virtual_address >> shift)
                if key in store:
                    store.move_to_end(key)
                store[key] = True
                if len(store) > cache.entries:
                    store.popitem(last=False)

    def state_dict(self) -> dict:
        return {
            "pde": self._pde.state_dict(),
            "pdp": self._pdp.state_dict(),
            "pml4": self._pml4.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        self._pde.load_state(state["pde"])
        self._pdp.load_state(state["pdp"])
        self._pml4.load_state(state["pml4"])


@dataclass
class NestedTlb:
    """Guest-physical to host-physical translation cache used during walks.

    Keyed by ``(vm_id, guest_frame)``, valued by the host frame;
    ``PageWalker.translate_guest_physical`` looks it up and fills it.
    """

    entries: int = 64
    latency: int = 1
    _cache: SmallFullyAssocCache = field(init=False)

    def __post_init__(self) -> None:
        self._cache = SmallFullyAssocCache(self.entries)

    def state_dict(self) -> dict:
        return {"cache": self._cache.state_dict()}

    def load_state(self, state: dict) -> None:
        self._cache.load_state(state["cache"])

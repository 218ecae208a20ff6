"""Set-associative cache with type-tagged lines and way partitioning.

Every line carries a *kind* — ``DATA`` or ``TLB`` — because CSALT's whole
premise is that the L2/L3 data caches hold both ordinary data lines and
cached POM-TLB (translation) entries, and that a content-oblivious
replacement policy lets the two streams thrash each other (paper Section
2.2).  The cache exposes:

* ``lookup`` / ``fill`` — the datapath operations; fills honor the active
  way partition when one is installed (victims are chosen inside the
  owning partition, lookups always scan all ways — paper Section 3.1);
* ``set_partition`` — installs a new data/TLB way split (the epoch-boundary
  action of CSALT-D / CSALT-CD);
* ``occupancy_by_kind`` — the periodic scan the authors added to their
  simulator to produce Figure 3;
* optional DIP set-dueling insertion (the Figure 13 comparison scheme).

Internally each set is a ``{tag: way}`` dict and a bitmask of its free
ways, plus *flat* preallocated tag/dirty/kind arrays indexed
``set_index * ways + way``; this is the simulator's hottest structure,
so it avoids per-line objects, per-set sublists and tuple-returning
index helpers on the datapath.  Replacement bookkeeping runs through the
three closures the policy's ``operations()`` returns, bound once at
construction.

``LineKind`` is an ``IntEnum`` so the datapath can use a kind directly as
an index and a truth value (``DATA`` is falsy, ``TLB`` truthy) without
paying the ``Enum.value`` descriptor per access.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import IntEnum
from itertools import chain
from typing import Dict, List, Optional, Tuple

from repro.mem.address import CACHE_LINE_BYTES
from repro.mem.replacement import make_policy


class LineKind(IntEnum):
    """What a cache line holds: program data or a translation entry."""

    DATA = 0
    TLB = 1


#: Cheap int -> member table for the datapath (``LineKind(value)`` runs
#: the enum ``__call__`` machinery; a tuple index does not).
_KINDS = (LineKind.DATA, LineKind.TLB)

_INVALID = -1


def _free_mask_of(way_tags: List[int]) -> int:
    """Bitmask of the invalid ways among one set's way tags."""
    return sum(1 << way for way, tag in enumerate(way_tags) if tag == _INVALID)


@dataclass
class CacheStats:
    """Hit/miss counters, split by line kind."""

    hits: int = 0
    misses: int = 0
    data_hits: int = 0
    data_misses: int = 0
    tlb_hits: int = 0
    tlb_misses: int = 0
    writebacks: int = 0
    fills: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses


@dataclass
class DipDueler:
    """DIP set-dueling monitor (Qureshi et al.): LRU-insert vs BIP-insert.

    Leader sets are chosen by set-index stride; a saturating PSEL counter
    tracks which leader policy misses less, and follower sets adopt the
    winner.  BIP inserts at MRU only once every ``bip_throttle`` fills.
    """

    stride: int = 32
    psel: int = 512
    psel_max: int = 1023
    bip_throttle: int = 32
    _bip_count: int = field(default=0, repr=False)

    def leader_role(self, set_index: int) -> Optional[str]:
        if set_index % self.stride == 0:
            return "lru"
        if set_index % self.stride == 1:
            return "bip"
        return None

    def record_miss(self, set_index: int) -> None:
        role = self.leader_role(set_index)
        if role == "lru":
            self.psel = min(self.psel_max, self.psel + 1)
        elif role == "bip":
            self.psel = max(0, self.psel - 1)

    def insert_at_mru(self, set_index: int) -> bool:
        role = self.leader_role(set_index)
        use_bip = role == "bip" or (role is None and self.psel > self.psel_max // 2)
        if not use_bip:
            return True
        self._bip_count += 1
        return self._bip_count % self.bip_throttle == 0


class Cache:
    """One level of a set-associative, write-back, write-allocate cache."""

    def __init__(
        self,
        name: str,
        size_bytes: int,
        ways: int,
        latency: int,
        policy: str = "lru",
        line_bytes: int = CACHE_LINE_BYTES,
        dip: bool = False,
    ):
        if size_bytes % (ways * line_bytes):
            raise ValueError(
                f"{name}: size {size_bytes} not divisible by ways*line "
                f"({ways}*{line_bytes})"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.latency = latency
        self.line_bytes = line_bytes
        self.num_sets = size_bytes // (ways * line_bytes)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(f"{name}: set count {self.num_sets} not a power of two")
        self._line_shift = line_bytes.bit_length() - 1
        self._set_mask = self.num_sets - 1
        self._set_bits = self.num_sets.bit_length() - 1
        self.policy = make_policy(policy, ways)
        sets = self.num_sets
        lines = sets * ways
        self._tag_to_way: List[Dict[int, int]] = [dict() for _ in range(sets)]
        # Flat parallel arrays, indexed ``set_index * ways + way``.
        self._way_tag: List[int] = [_INVALID] * lines
        self._way_dirty: List[bool] = [False] * lines
        # Kinds stored as plain ints (LineKind is an IntEnum) for speed.
        self._way_kind: List[int] = [0] * lines
        self._recency = [self.policy.new_set_state() for _ in range(sets)]
        # Per set, a bitmask of its invalid ways (bit ``way`` set = free).
        self._free_mask: List[int] = [(1 << ways) - 1] * sets
        self.stats = CacheStats()
        # Partition: number of ways reserved for DATA lines; None = unpartitioned.
        self._data_ways: Optional[int] = None
        self._partition_bounds = ((0, ways), (0, ways))
        self.dip = DipDueler() if dip else None
        # Most recent access's estimated LRU stack position, for profilers
        # running in pseudo-LRU estimation mode (paper Section 3.4).
        self.last_stack_position: Optional[int] = None
        self._hit_update, self._select_victim, self._insert = (
            self.policy.operations()
        )

    # ------------------------------------------------------------------
    # Partition control (CSALT epoch boundary)
    # ------------------------------------------------------------------
    @property
    def data_ways(self) -> Optional[int]:
        return self._data_ways

    def set_partition(self, data_ways: Optional[int]) -> None:
        """Reserve ``data_ways`` ways per set for data lines.

        ``None`` removes the partition.  At least one way must remain on
        each side, mirroring the paper's search range ``Nmin..K-1``.
        """
        if data_ways is not None and not 1 <= data_ways <= self.ways - 1:
            raise ValueError(
                f"{self.name}: data_ways must be in [1, {self.ways - 1}], "
                f"got {data_ways}"
            )
        self._data_ways = data_ways
        if data_ways is None:
            self._partition_bounds = ((0, self.ways), (0, self.ways))
        else:
            self._partition_bounds = ((0, data_ways), (data_ways, self.ways))

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------
    def lookup(self, address: int, kind: int, is_write: bool = False) -> bool:
        """Probe for ``address``; update recency and stats.

        All ways are scanned regardless of the partition, because lines may
        sit in the other partition's ways after a repartition (paper
        Section 3.1, Cache Lookup).  ``kind`` may be a :class:`LineKind`
        or its plain int value.
        """
        line = address >> self._line_shift
        set_index = line & self._set_mask
        way = self._tag_to_way[set_index].get(line >> self._set_bits)
        stats = self.stats
        if way is not None:
            self.last_stack_position = self._hit_update(
                self._recency[set_index], way
            )
            if is_write:
                self._way_dirty[set_index * self.ways + way] = True
            stats.hits += 1
            if kind:
                stats.tlb_hits += 1
            else:
                stats.data_hits += 1
            return True
        self.last_stack_position = None
        stats.misses += 1
        if kind:
            stats.tlb_misses += 1
        else:
            stats.data_misses += 1
        if self.dip is not None:
            self.dip.record_miss(set_index)
        return False

    def fill(
        self, address: int, kind: int, dirty: bool = False
    ) -> Optional[Tuple[int, LineKind]]:
        """Install ``address`` after a miss; return a dirty victim.

        The line takes the first free way owned by ``kind``'s partition,
        else the replacement policy's victim among those ways (paper
        Section 3.1, Cache Replacement).  Only a dirty victim needs a
        write-back, so only a dirty victim is returned, as its
        ``(address, kind)``; a clean or invalid one gives ``None``, and
        :meth:`probe` tells which line left.
        """
        line = address >> self._line_shift
        set_index = line & self._set_mask
        tag = line >> self._set_bits
        tags = self._tag_to_way[set_index]
        way_tag = self._way_tag
        ways = self.ways
        base = set_index * ways
        lo, hi = self._partition_bounds[kind]
        free = self._free_mask[set_index]
        if free:
            # Only the free ways that ``kind``'s partition owns.
            free &= (1 << hi) - (1 << lo)
        if free:
            free &= -free
            self._free_mask[set_index] ^= free
            victim_way = free.bit_length() - 1
        else:
            victim_way = self._select_victim(self._recency[set_index], lo, hi)
        victim = None
        slot = base + victim_way
        old_tag = way_tag[slot]
        if old_tag != _INVALID:
            del tags[old_tag]
            if self._way_dirty[slot]:
                self.stats.writebacks += 1
                victim = (
                    ((old_tag << self._set_bits) | set_index) << self._line_shift,
                    _KINDS[self._way_kind[slot]],
                )
        way_tag[slot] = tag
        tags[tag] = victim_way
        self._way_dirty[slot] = dirty
        self._way_kind[slot] = kind & 1
        at_mru = True
        if self.dip is not None:
            at_mru = self.dip.insert_at_mru(set_index)
        self._insert(self._recency[set_index], victim_way, at_mru)
        self.stats.fills += 1
        return victim

    def write_back(
        self, address: int, kind: int
    ) -> Optional[Tuple[int, LineKind]]:
        """Absorb a dirty victim from the level above.

        If the line is present it is just marked dirty; otherwise it is
        installed dirty (non-inclusive hierarchy), and the dirty victim
        that install displaces, if any, is returned as from :meth:`fill`.
        Writebacks do not touch the demand hit/miss statistics.
        """
        line = address >> self._line_shift
        set_index = line & self._set_mask
        way = self._tag_to_way[set_index].get(line >> self._set_bits)
        if way is not None:
            self._way_dirty[set_index * self.ways + way] = True
            return None
        return self.fill(address, kind, dirty=True)

    # ------------------------------------------------------------------
    # Introspection (Figure 3 occupancy scan and friends)
    # ------------------------------------------------------------------
    def occupancy_by_kind(self, sample_shift: int = 0) -> dict:
        """Fraction of capacity holding valid lines of each kind.

        ``sample_shift`` scans only every ``2**sample_shift``-th set — the
        periodic-scan shortcut the paper's footnote 2 describes.
        """
        step = 1 << sample_shift
        data_count = 0
        tlb_count = 0
        scanned_sets = 0
        ways = self.ways
        way_tag = self._way_tag
        way_kind = self._way_kind
        for set_index in range(0, self.num_sets, step):
            scanned_sets += 1
            base = set_index * ways
            for slot in range(base, base + ways):
                if way_tag[slot] != _INVALID:
                    if way_kind[slot]:
                        tlb_count += 1
                    else:
                        data_count += 1
        total = scanned_sets * self.ways
        return {
            LineKind.DATA: data_count / total,
            LineKind.TLB: tlb_count / total,
        }

    def reset_stats(self) -> None:
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Plain-data snapshot: tags, recency stacks, partition, stats.

        A view, valid until the next access: the ``{tag: way}`` dicts and
        the recency lists are handed out as they are.  Built are the
        *nested* per-set rows of the flat arrays (``way_tag[set_index]
        [way]``, the pre-flat-array layout, so older snapshots stay
        loadable and new ones byte-compatible), the free counts, and a
        ``replace()`` copy of the stats, because pickling a live dataclass
        materializes its ``__dict__`` and slows every later counter
        update.  Geometry (sets/ways/policy) is construction state and is
        *not* serialized — ``load_state`` verifies it.
        """
        ways = self.ways
        return {
            "tag_to_way": self._tag_to_way,
            "way_tag": [
                self._way_tag[base:base + ways]
                for base in range(0, self.num_sets * ways, ways)
            ],
            "way_dirty": [
                self._way_dirty[base:base + ways]
                for base in range(0, self.num_sets * ways, ways)
            ],
            "way_kind": [
                self._way_kind[base:base + ways]
                for base in range(0, self.num_sets * ways, ways)
            ],
            "recency": self._recency,
            "free_count": [mask.bit_count() for mask in self._free_mask],
            "data_ways": self._data_ways,
            "dip": (
                None if self.dip is None
                else {"psel": self.dip.psel, "bip_count": self.dip._bip_count}
            ),
            "last_stack_position": self.last_stack_position,
            "stats": replace(self.stats),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot onto this (same-shaped)
        cache, copying every container it takes from ``state``."""
        way_tag = state["way_tag"]
        if len(way_tag) != self.num_sets or any(
            len(tags) != self.ways for tags in way_tag
        ):
            raise ValueError(
                f"{self.name}: snapshot geometry does not match "
                f"{self.num_sets} sets x {self.ways} ways"
            )
        if (state["dip"] is None) != (self.dip is None):
            raise ValueError(
                f"{self.name}: snapshot DIP state does not match configuration"
            )
        self._tag_to_way = [dict(tags) for tags in state["tag_to_way"]]
        self._way_tag = list(chain.from_iterable(way_tag))
        self._way_dirty = list(chain.from_iterable(state["way_dirty"]))
        self._way_kind = [int(kind) for kind in chain.from_iterable(state["way_kind"])]
        self._recency = [list(recency) for recency in state["recency"]]
        self._free_mask = [_free_mask_of(tags) for tags in way_tag]
        self.set_partition(state["data_ways"])
        if self.dip is not None:
            self.dip.psel = state["dip"]["psel"]
            self.dip._bip_count = state["dip"]["bip_count"]
        self.last_stack_position = state["last_stack_position"]
        self.stats = replace(state["stats"])

    def __repr__(self) -> str:
        return (
            f"Cache({self.name}, {self.size_bytes // 1024}KB, "
            f"{self.ways}-way, {self.num_sets} sets)"
        )

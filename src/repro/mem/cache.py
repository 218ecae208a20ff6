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

Internally each set is a ``{tag: way}`` dict plus *flat* preallocated
tag/dirty/kind arrays indexed ``set_index * ways + way``; this is the
simulator's hottest structure, so it avoids per-line objects, per-set
sublists and tuple-returning index helpers on the datapath.  Replacement
bookkeeping runs through monomorphic fast paths bound at construction
(``repro.mem.replacement.fast_paths``); the abstract policy object stays
attached as the reference oracle and can be forced with
``fast_path=False`` (or globally via :func:`set_fast_paths`) for
equivalence testing.

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
from repro.mem.replacement import ReplacementPolicy, fast_paths, make_policy


class LineKind(IntEnum):
    """What a cache line holds: program data or a translation entry."""

    DATA = 0
    TLB = 1


#: Cheap int -> member table for the datapath (``LineKind(value)`` runs
#: the enum ``__call__`` machinery; a tuple index does not).
_KINDS = (LineKind.DATA, LineKind.TLB)

_INVALID = -1

#: Module default for new caches; tests flip it to pin the generic
#: reference path (see :func:`set_fast_paths`).
_FAST_PATHS_ENABLED = True


def set_fast_paths(enabled: bool) -> bool:
    """Set the module-wide fast-path default; returns the previous value.

    Only affects caches constructed afterwards — existing caches keep the
    datapath they were built with.
    """
    global _FAST_PATHS_ENABLED
    previous = _FAST_PATHS_ENABLED
    _FAST_PATHS_ENABLED = bool(enabled)
    return previous


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

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


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
        policy: str | ReplacementPolicy = "lru",
        line_bytes: int = CACHE_LINE_BYTES,
        dip: bool = False,
        fast_path: Optional[bool] = None,
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
        if isinstance(policy, ReplacementPolicy):
            self.policy = policy
        else:
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
        self._free_count: List[int] = [ways] * sets
        self.stats = CacheStats()
        # Partition: number of ways reserved for DATA lines; None = unpartitioned.
        self._data_ways: Optional[int] = None
        self._partition_ranges = (range(ways), range(ways))
        self._partition_bounds = ((0, ways), (0, ways))
        self.dip = DipDueler() if dip else None
        # Most recent access's estimated LRU stack position, for profilers
        # running in pseudo-LRU estimation mode (paper Section 3.4).
        self.last_stack_position: Optional[int] = None
        if fast_path is None:
            fast_path = _FAST_PATHS_ENABLED
        bundle = fast_paths(self.policy) if fast_path else None
        self.fast_path = bundle is not None
        if bundle is not None:
            self._hit_update, self._select_victim, self._insert = bundle
        else:
            self._hit_update, self._select_victim, self._insert = (
                self._generic_bundle()
            )

    def _generic_bundle(self):
        """Reference datapath: the abstract policy behind fast-path shims."""
        policy = self.policy
        stack_position = policy.stack_position
        touch = policy.touch
        policy_victim = policy.victim
        policy_insert = policy.insert

        def hit_update(state, way):
            position = stack_position(state, way)
            touch(state, way)
            return position

        def victim(state, lo, hi):
            return policy_victim(state, range(lo, hi))

        def insert(state, way, at_mru):
            policy_insert(state, way, at_mru=at_mru)

        return hit_update, victim, insert

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def index_of(self, address: int):
        """Return (set index, tag) for a byte address.

        Kept for tests and cold paths; the datapath inlines this math to
        avoid the tuple allocation.
        """
        line = address >> self._line_shift
        return line & self._set_mask, line >> self._set_bits

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
            self._partition_ranges = (range(self.ways), range(self.ways))
            self._partition_bounds = ((0, self.ways), (0, self.ways))
        else:
            self._partition_ranges = (
                range(data_ways),
                range(data_ways, self.ways),
            )
            self._partition_bounds = ((0, data_ways), (data_ways, self.ways))

    def _candidate_ways(self, kind: LineKind) -> range:
        return self._partition_ranges[kind]

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

        The victim is the LRU line among the ways owned by ``kind``'s
        partition (paper Section 3.1, Cache Replacement).  Only a dirty
        victim needs a write-back, so only a dirty victim is returned,
        as its ``(address, kind)``; a clean or invalid one gives
        ``None``, and :meth:`probe` tells which line left.
        """
        line = address >> self._line_shift
        set_index = line & self._set_mask
        tag = line >> self._set_bits
        tags = self._tag_to_way[set_index]
        way_tag = self._way_tag
        ways = self.ways
        base = set_index * ways
        lo, hi = self._partition_bounds[kind]
        victim_way = None
        if self._free_count[set_index]:
            for way in range(lo, hi):
                if way_tag[base + way] == _INVALID:
                    victim_way = way
                    self._free_count[set_index] -= 1
                    break
        if victim_way is None:
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

    def probe(self, address: int) -> bool:
        """Side-effect-free presence check (no recency or stats update)."""
        set_index, tag = self.index_of(address)
        return tag in self._tag_to_way[set_index]

    def invalidate(self, address: int) -> bool:
        """Drop ``address`` if present; returns whether a line was dropped."""
        set_index, tag = self.index_of(address)
        way = self._tag_to_way[set_index].pop(tag, None)
        if way is None:
            return False
        slot = set_index * self.ways + way
        self._way_tag[slot] = _INVALID
        self._way_dirty[slot] = False
        self._free_count[set_index] += 1
        return True

    def kind_at(self, address: int) -> Optional[LineKind]:
        """Kind of the resident line, or None if absent (test helper)."""
        set_index, tag = self.index_of(address)
        way = self._tag_to_way[set_index].get(tag)
        if way is None:
            return None
        return _KINDS[self._way_kind[set_index * self.ways + way]]

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

    def register_metrics(self, registry, prefix: str) -> None:
        """Expose this cache's counters as callback gauges under ``prefix``.

        Callbacks read ``self.stats`` lazily (the stats object is replaced
        on ``reset_stats``) and the occupancy scan runs only at registry
        export time, so the datapath pays nothing.
        """
        registry.gauge(f"{prefix}.hits", lambda: self.stats.hits)
        registry.gauge(f"{prefix}.misses", lambda: self.stats.misses)
        registry.gauge(f"{prefix}.miss_rate", lambda: self.stats.miss_rate)
        registry.gauge(f"{prefix}.data_hits", lambda: self.stats.data_hits)
        registry.gauge(f"{prefix}.data_misses", lambda: self.stats.data_misses)
        registry.gauge(f"{prefix}.tlb_hits", lambda: self.stats.tlb_hits)
        registry.gauge(f"{prefix}.tlb_misses", lambda: self.stats.tlb_misses)
        registry.gauge(f"{prefix}.writebacks", lambda: self.stats.writebacks)
        registry.gauge(f"{prefix}.fills", lambda: self.stats.fills)
        registry.gauge(
            f"{prefix}.tlb_occupancy",
            lambda: self.occupancy_by_kind(sample_shift=3)[LineKind.TLB],
        )
        registry.gauge(
            f"{prefix}.data_ways",
            lambda: -1 if self._data_ways is None else self._data_ways,
        )

    def reset_stats(self) -> None:
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Plain-data snapshot: tags, recency stacks, partition, stats.

        The snapshot keeps the *nested* per-set layout the pre-flat-array
        format used (``way_tag[set_index][way]``), so snapshots and stores
        written before the flat-array datapath stay loadable and new
        snapshots stay byte-compatible with old readers.  Geometry
        (sets/ways/policy) is construction state and is *not* serialized —
        ``load_state`` verifies it.
        """
        ways = self.ways
        return {
            "tag_to_way": [dict(tags) for tags in self._tag_to_way],
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
            "recency": [list(state) for state in self._recency],
            "free_count": list(self._free_count),
            "data_ways": self._data_ways,
            "dip": (
                None if self.dip is None
                else {"psel": self.dip.psel, "bip_count": self.dip._bip_count}
            ),
            "last_stack_position": self.last_stack_position,
            "stats": replace(self.stats),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot onto this (same-shaped) cache."""
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
        self._free_count = list(state["free_count"])
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

"""Runtime invariant checking: the simulator audits its own structures.

A silently corrupted structure — an LRU stack that is no longer a
permutation of the ways, a partition split that no longer sums to the
cache associativity — produces plausible-but-wrong IPC numbers with no
alarm.  This module turns the structural properties the paper's
Algorithms 1-3 rely on into mechanical checks:

* **replacement-stack integrity** — True-LRU per-set state is a
  permutation of the ways; NRU reference bits can never be all-set
  (an access that sets the last clears the others); tree-PLRU has exactly ``ways - 1``
  binary bits; RRIP values stay within ``[0, MAX_RRPV]``;
* **partition conservation** (Algorithm 1) — the installed split obeys
  ``N_MIN <= N <= K - N_MIN``, the victim bounds ``Cache.fill`` reads
  are exactly that split, and the controller's last recorded decision
  matches the split the cache actually has installed;
* **MSA profiler sanity** (Eq. 1/2 inputs) — K+1 non-negative counters,
  shadow stacks of at most K distinct tags;
* **tag-store consistency** — the ``{tag: way}`` index and the per-way
  tag array are inverse maps, and the free-way mask names exactly the
  invalid ways;
* **translation coherence** — every TLB/POM-TLB entry agrees with the
  page tables it was filled from (frame and page size);
* **translation-structure geometry** — no POM-TLB set holds more than
  its associativity, each POM-TLB entry sits in the set its hash
  names, and no paging-structure cache or nested TLB holds more than
  its entry count;
* **cycle-accounting conservation** — the System's
  :class:`~repro.telemetry.accounting.CycleAccountant` per-component
  cycle charges sum *bit-exactly* to each core's clock;
* **counter monotonicity** — cumulative statistics never decrease
  between consecutive checks.

All checks are read-only.  :class:`InvariantChecker` runs the catalogue
every ``--check-invariants M`` accesses and automatically after a
checkpoint restore, raising a structured :class:`InvariantViolation`
that the experiments pool treats as non-retryable (a deterministic
corruption cannot be fixed by re-running).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

from repro.core.partitioning import N_MIN, PartitionController
from repro.errors import SimulationError
from repro.mem.cache import Cache, _INVALID, _free_mask_of
from repro.mem.dram import DramChannel
from repro.mem.mshr import MshrModel
from repro.mem.replacement import NRU, Rrip, TreePLRU, TrueLRU
from repro.tlb.tlb import Tlb

if TYPE_CHECKING:
    from repro.sim.scheduler import ContextScheduler
    from repro.sim.system import System
    from repro.tlb.pom_tlb import PomTlb
    from repro.vm.walker import PageWalker

#: Cap on POM-TLB entries verified against the page tables (and against
#: their set hash) per check — the POM-TLB can hold hundreds of
#: thousands of entries and both checks are per-entry, so a
#: deterministic prefix (lowest set indices first) bounds the cost.
#: On-chip TLBs are small and are checked in full.
POM_COHERENCE_LIMIT = 2048


class InvariantViolation(SimulationError, RuntimeError):
    """A structural invariant does not hold.

    Structured so tooling can classify it: ``component`` names the
    structure ("cache:l2-core0"), ``invariant`` the broken property
    ("lru-permutation"), ``detail`` the human-readable specifics, and
    ``context`` whatever positional data helps debugging (set index,
    way, entry key).  ``others`` carries further violations found in
    the same sweep.
    """

    def __init__(self, component: str, invariant: str, detail: str, **context):
        super().__init__(f"{component}: {invariant}: {detail}")
        self.component = component
        self.invariant = invariant
        self.detail = detail
        self.context = context
        self.others: List["InvariantViolation"] = []


# ----------------------------------------------------------------------
# Per-structure checks (generators: a sweep aggregates everything found)
# ----------------------------------------------------------------------
def check_cache(cache: Cache) -> Iterator[InvariantViolation]:
    """Tag-store bijection, free mask, recency state, partition split."""
    name = f"cache:{cache.name}"
    ways = cache.ways
    for set_index in range(cache.num_sets):
        tags = cache._tag_to_way[set_index]
        base = set_index * ways
        way_tag = cache._way_tag[base:base + ways]
        valid = [way for way in range(ways) if way_tag[way] != _INVALID]
        if len(tags) != len(valid):
            yield InvariantViolation(
                name, "tag-index-size",
                f"set {set_index}: {len(tags)} indexed tags but "
                f"{len(valid)} valid ways",
                set_index=set_index,
            )
        for tag, way in tags.items():
            if not 0 <= way < ways or way_tag[way] != tag:
                yield InvariantViolation(
                    name, "tag-index-mismatch",
                    f"set {set_index}: index maps tag {tag} to way {way} "
                    f"but the way holds "
                    f"{way_tag[way] if 0 <= way < ways else 'out-of-range'}",
                    set_index=set_index, tag=tag, way=way,
                )
        free = _free_mask_of(way_tag)
        if cache._free_mask[set_index] != free:
            yield InvariantViolation(
                name, "free-count",
                f"set {set_index}: free mask says "
                f"{cache._free_mask[set_index]:#b}, invalid ways are "
                f"{free:#b}",
                set_index=set_index,
            )
        yield from _check_recency(name, cache, set_index)
    yield from _check_partition(name, cache)
    stats = cache.stats
    if stats.hits != stats.data_hits + stats.tlb_hits:
        yield InvariantViolation(
            name, "stats-split",
            f"hits {stats.hits} != data {stats.data_hits} + tlb "
            f"{stats.tlb_hits}",
        )
    if stats.misses != stats.data_misses + stats.tlb_misses:
        yield InvariantViolation(
            name, "stats-split",
            f"misses {stats.misses} != data {stats.data_misses} + tlb "
            f"{stats.tlb_misses}",
        )


def _check_recency(
    name: str, cache: Cache, set_index: int
) -> Iterator[InvariantViolation]:
    policy = cache.policy
    state = cache._recency[set_index]
    ways = cache.ways
    if isinstance(policy, TrueLRU):
        if sorted(state) != list(range(ways)):
            yield InvariantViolation(
                name, "lru-permutation",
                f"set {set_index}: recency stack {state} is not a "
                f"permutation of 0..{ways - 1}",
                set_index=set_index, stack=list(state),
            )
    elif isinstance(policy, NRU):
        if len(state) != ways or any(bit not in (False, True) for bit in state):
            yield InvariantViolation(
                name, "nru-bits",
                f"set {set_index}: expected {ways} reference bits, got "
                f"{state}",
                set_index=set_index,
            )
        elif ways > 1 and all(state):
            # An access clears the other bits when the last one saturates,
            # so an all-set vector is unreachable in a consistent cache.
            yield InvariantViolation(
                name, "nru-saturated",
                f"set {set_index}: all {ways} reference bits set",
                set_index=set_index,
            )
    elif isinstance(policy, TreePLRU):
        if len(state) != ways - 1 or any(bit not in (0, 1) for bit in state):
            yield InvariantViolation(
                name, "plru-tree",
                f"set {set_index}: expected {ways - 1} binary tree bits, "
                f"got {state}",
                set_index=set_index,
            )
    elif isinstance(policy, Rrip):
        if len(state) != ways or any(
            not 0 <= value <= Rrip.MAX_RRPV for value in state
        ):
            yield InvariantViolation(
                name, "rrip-range",
                f"set {set_index}: RRPVs must be in [0, {Rrip.MAX_RRPV}], "
                f"got {state}",
                set_index=set_index,
            )


def _check_partition(name: str, cache: Cache) -> Iterator[InvariantViolation]:
    data_ways = cache._data_ways
    ways = cache.ways
    if data_ways is None:
        expected = ((0, ways), (0, ways))
    else:
        if not N_MIN <= data_ways <= ways - N_MIN:
            yield InvariantViolation(
                name, "partition-minimum",
                f"data_ways {data_ways} violates N_MIN={N_MIN} bounds for a "
                f"{ways}-way cache",
                data_ways=data_ways,
            )
        expected = ((0, data_ways), (data_ways, ways))
    if cache._partition_bounds != expected:
        yield InvariantViolation(
            name, "partition-bounds",
            f"fill victim bounds (data, tlb) are {cache._partition_bounds}, "
            f"data_ways {data_ways} implies {expected}",
            data_ways=data_ways,
        )


def check_tlb(tlb: Tlb) -> Iterator[InvariantViolation]:
    """Set sizing, set-index placement, page-size admissibility."""
    name = f"tlb:{tlb.name}"
    for set_index, tlb_set in enumerate(tlb._sets):
        if len(tlb_set) > tlb.ways:
            yield InvariantViolation(
                name, "set-overflow",
                f"set {set_index} holds {len(tlb_set)} entries, "
                f"associativity is {tlb.ways}",
                set_index=set_index,
            )
        for (asid, vpn, page_bits), entry in tlb_set.items():
            if vpn % tlb.num_sets != set_index:
                yield InvariantViolation(
                    name, "set-placement",
                    f"vpn {vpn:#x} indexed to set {set_index}, belongs in "
                    f"{vpn % tlb.num_sets}",
                    set_index=set_index, vpn=vpn,
                )
            if page_bits not in tlb.page_bits_supported:
                yield InvariantViolation(
                    name, "page-size",
                    f"entry for {asid} holds unsupported page size "
                    f"2**{page_bits}",
                    vpn=vpn, page_bits=page_bits,
                )
            if entry.page_bits != page_bits:
                yield InvariantViolation(
                    name, "page-size-tag",
                    f"entry tagged 2**{page_bits} stores page_bits "
                    f"{entry.page_bits}",
                    vpn=vpn,
                )


def check_pom_tlb(pom: "PomTlb") -> Iterator[InvariantViolation]:
    """Set sizing (every set) and hash placement (a bounded prefix)."""
    name = "tlb:pom"
    contents = pom._contents
    for index, pom_set in contents.items():
        if len(pom_set) > pom.entries_per_set:
            yield InvariantViolation(
                name, "pom-set-overflow",
                f"set {index} holds {len(pom_set)} entries, associativity "
                f"is {pom.entries_per_set}",
                set_index=index,
            )
    checked = 0
    for index in sorted(contents):
        if checked >= POM_COHERENCE_LIMIT:
            break
        for (asid, vpn), entry in contents[index].items():
            home = pom._set_index(asid, vpn, entry.page_bits)
            if home != index:
                yield InvariantViolation(
                    name, "pom-set-placement",
                    f"entry ({asid}, vpn={vpn:#x}, 2**{entry.page_bits}) "
                    f"sits in set {index}, belongs in {home}",
                    set_index=index, vpn=vpn,
                )
            checked += 1


def check_mmu_caches(
    core_id: int, walker: "PageWalker"
) -> Iterator[InvariantViolation]:
    """No paging-structure cache or nested TLB exceeds its entry count."""
    psc = walker.psc
    for label, cache in (
        ("pml4", psc._pml4),
        ("pdp", psc._pdp),
        ("pde", psc._pde),
        ("nested-tlb", walker.nested_tlb._cache),
    ):
        held = len(cache._store)
        if held > cache.entries:
            yield InvariantViolation(
                f"walker:core{core_id}", "mmu-cache-capacity",
                f"{label} cache holds {held} entries, capacity is "
                f"{cache.entries}",
                cache=label,
            )


def check_profiler_pair(
    label: str, controller: PartitionController
) -> Iterator[InvariantViolation]:
    """MSA counter shape, shadow-stack discipline, epoch bookkeeping."""
    name = f"controller:{label}"
    ways = controller.cache.ways
    for stream, profiler in (
        ("data", controller.profilers.data),
        ("tlb", controller.profilers.tlb),
    ):
        if len(profiler.counters) != ways + 1:
            yield InvariantViolation(
                name, "msa-counter-shape",
                f"{stream} profiler has {len(profiler.counters)} counters, "
                f"expected {ways + 1}",
                stream=stream,
            )
        if any(count < 0 for count in profiler.counters):
            yield InvariantViolation(
                name, "msa-counter-negative",
                f"{stream} profiler counters contain a negative value: "
                f"{profiler.counters}",
                stream=stream,
            )
        for set_index, stack in profiler._shadow.items():
            if len(stack) > profiler.ways or len(set(stack)) != len(stack):
                yield InvariantViolation(
                    name, "msa-shadow-stack",
                    f"{stream} shadow stack for set {set_index} has "
                    f"{len(stack)} entries ({len(set(stack))} distinct), "
                    f"limit {profiler.ways}",
                    stream=stream, set_index=set_index,
                )
    position = controller.accesses_in_epoch
    if not 0 <= position < controller.epoch_accesses:
        yield InvariantViolation(
            name, "epoch-position",
            f"accesses_in_epoch {position} outside "
            f"[0, {controller.epoch_accesses})",
        )
    if controller.timeline:
        last = controller.timeline[-1]
        if last.data_ways + last.tlb_ways != ways:
            yield InvariantViolation(
                name, "decision-sum",
                f"last decision allocates {last.data_ways} + "
                f"{last.tlb_ways} ways, associativity is {ways}",
            )
        if controller.cache.data_ways != last.data_ways:
            yield InvariantViolation(
                name, "decision-installed",
                f"last decision chose {last.data_ways} data ways, cache "
                f"has {controller.cache.data_ways} installed",
            )
    else:
        yield InvariantViolation(
            name, "decision-timeline",
            "controller has no recorded decisions (the constructor "
            "records the initial split)",
        )


def check_mshr(core_id: int, mshr: MshrModel) -> Iterator[InvariantViolation]:
    name = f"mshr:core{core_id}"
    if not 0.0 <= mshr._miss_rate <= 1.0 or math.isnan(mshr._miss_rate):
        yield InvariantViolation(
            name, "miss-rate-range",
            f"EWMA miss rate {mshr._miss_rate} outside [0, 1]",
        )
    if not 1.0 <= mshr.mlp <= mshr.mlp_cap + 1e-9:
        yield InvariantViolation(
            name, "mlp-range",
            f"achieved MLP {mshr.mlp} outside [1, {mshr.mlp_cap}]",
        )


def check_dram(channel: DramChannel) -> Iterator[InvariantViolation]:
    name = f"dram:{channel.timing.name}"
    stats = channel.stats
    if stats.accesses != stats.row_hits + stats.row_misses:
        yield InvariantViolation(
            name, "row-accounting",
            f"accesses {stats.accesses} != row_hits {stats.row_hits} + "
            f"row_misses {stats.row_misses}",
        )
    for bank in channel._open_rows:
        if not 0 <= bank < channel.timing.banks:
            yield InvariantViolation(
                name, "bank-range",
                f"open-row entry for bank {bank}, device has "
                f"{channel.timing.banks} banks",
                bank=bank,
            )


def check_scheduler(
    scheduler: "ContextScheduler",
) -> Iterator[InvariantViolation]:
    name = "scheduler"
    for core_id, contexts in enumerate(scheduler._contexts):
        active = scheduler._active[core_id]
        if not 0 <= active < len(contexts):
            yield InvariantViolation(
                name, "active-range",
                f"core {core_id} active context {active}, only "
                f"{len(contexts)} contexts exist",
                core_id=core_id,
            )
        next_switch = scheduler._next_switch[core_id]
        if not math.isfinite(next_switch) or next_switch < 0:
            yield InvariantViolation(
                name, "switch-deadline",
                f"core {core_id} next switch at {next_switch}",
                core_id=core_id,
            )


def check_translation_coherence(
    system: "System",
) -> Iterator[InvariantViolation]:
    """Every cached translation must agree with the page tables.

    A stale or fabricated TLB entry silently redirects data traffic to
    the wrong physical frames.  Mappings never change once made, so
    every fill path must install exactly what the tables hold, and any
    disagreement is a hard violation.
    """
    from repro.mem.address import PAGE_4K_BITS, RADIX_LEVEL_BITS

    def expected_frame(asid, vpn: int, page_bits: int):
        vm = system.vms[asid.vm_id]
        table = vm._guest_tables.get(asid.process_id)
        if table is None:
            return None, "no guest page table for this process"
        virtual_address = vpn << page_bits
        # ``lookup`` ignores VA bits above the top radix level, so a page
        # past the table's reach would alias onto a mapped one.
        reach_bits = PAGE_4K_BITS + RADIX_LEVEL_BITS * table.levels
        if virtual_address >> reach_bits:
            return None, (
                f"address is past the {table.levels}-level table's "
                f"2**{reach_bits}-byte reach"
            )
        guest = table.lookup(virtual_address)
        if guest is None:
            return None, "address not mapped in the guest table"
        if guest.page_bits != page_bits:
            return None, (
                f"guest table maps a 2**{guest.page_bits} page, entry "
                f"claims 2**{page_bits}"
            )
        if vm.native:
            return guest.frame_base, None
        guest_physical = guest.physical_address(virtual_address)
        host = vm.host_table.lookup(guest_physical)
        if host is None:
            return None, "guest-physical address not mapped in the EPT"
        host_physical = host.physical_address(guest_physical)
        page_mask = (1 << page_bits) - 1
        return (host_physical & ~page_mask) >> PAGE_4K_BITS, None

    def verify(name, asid, vpn, page_bits, entry):
        frame, problem = expected_frame(asid, vpn, page_bits)
        if problem is not None:
            return InvariantViolation(
                name, "translation-unbacked",
                f"entry ({asid}, vpn={vpn:#x}, 2**{page_bits}): {problem}",
                vpn=vpn, page_bits=page_bits,
            )
        if frame != entry.frame_base:
            return InvariantViolation(
                name, "translation-frame",
                f"entry ({asid}, vpn={vpn:#x}, 2**{page_bits}) holds frame "
                f"{entry.frame_base:#x}, page tables say {frame:#x}",
                vpn=vpn, page_bits=page_bits,
            )
        return None

    for core in system.cores:
        for tlb in (core.l1_tlb.tlb_4k, core.l1_tlb.tlb_2m, core.l2_tlb):
            name = f"tlb:{tlb.name}"
            for tlb_set in tlb._sets:
                for (asid, vpn, page_bits), entry in tlb_set.items():
                    violation = verify(name, asid, vpn, page_bits, entry)
                    if violation is not None:
                        yield violation
    if system.pom is not None:
        # Deterministic prefix (lowest set indices) keeps the sweep bounded.
        checked = 0
        for index in sorted(system.pom._contents):
            if checked >= POM_COHERENCE_LIMIT:
                break
            for (asid, vpn), entry in system.pom._contents[index].items():
                violation = verify(
                    "tlb:pom", asid, vpn, entry.page_bits, entry
                )
                if violation is not None:
                    yield violation
                checked += 1


# ----------------------------------------------------------------------
# Counter monotonicity
# ----------------------------------------------------------------------
def counter_snapshot(system: "System") -> Dict[str, float]:
    """Flat name -> value map of every cumulative counter in the machine."""
    snapshot: Dict[str, float] = {}

    def put(prefix: str, **values) -> None:
        for key, value in values.items():
            snapshot[f"{prefix}.{key}"] = value

    for core in system.cores:
        prefix = f"core{core.core_id}"
        stats = core.stats
        put(
            prefix,
            cycles=stats.cycles,
            instructions=stats.instructions,
            memory_accesses=stats.memory_accesses,
            l1_tlb_misses=stats.l1_tlb_misses,
            l2_tlb_misses=stats.l2_tlb_misses,
            page_walks=stats.page_walks,
            translation_stall=stats.translation_stall_cycles,
            data_stall=stats.data_stall_cycles,
        )
        for cache in (core.l1d, core.l2):
            put(
                f"{prefix}.{cache.name}",
                hits=cache.stats.hits,
                misses=cache.stats.misses,
                writebacks=cache.stats.writebacks,
                fills=cache.stats.fills,
            )
        for tlb in (core.l1_tlb.tlb_4k, core.l1_tlb.tlb_2m, core.l2_tlb):
            put(
                f"{prefix}.{tlb.name}",
                hits=tlb.stats.hits,
                misses=tlb.stats.misses,
                insertions=tlb.stats.insertions,
                evictions=tlb.stats.evictions,
            )
        put(
            f"{prefix}.walker",
            walks=core.walker.stats.walks,
            total_latency=core.walker.stats.total_latency,
            total_refs=core.walker.stats.total_refs,
        )
    put(
        "l3",
        hits=system.l3.stats.hits,
        misses=system.l3.stats.misses,
        writebacks=system.l3.stats.writebacks,
        fills=system.l3.stats.fills,
    )
    if system.pom is not None:
        put(
            "pom",
            hits=system.pom.stats.hits,
            misses=system.pom.stats.misses,
            insertions=system.pom.stats.insertions,
            second_probes=system.pom.stats.second_probes,
        )
    for label, channel in (("ddr", system.ddr), ("die_stacked", system.die_stacked)):
        put(
            f"dram.{label}",
            accesses=channel.stats.accesses,
            row_hits=channel.stats.row_hits,
            row_misses=channel.stats.row_misses,
        )
    snapshot["system.total_accesses"] = system._total_accesses
    return snapshot


def check_cycle_accounting(system: "System") -> Iterator[InvariantViolation]:
    """Per-component cycle charges sum *bit-exactly* to each core clock.

    Every increment booked by the :class:`~repro.telemetry.accounting.
    CycleAccountant` is a dyadic rational (integer latencies; base/MSHR
    charges quantized to 1/1024 cycle), so double accumulation is exact
    and the comparison below uses ``!=``, not a tolerance.  Skipped when
    the ledger is unsynced (a checkpoint restore from a snapshot that
    carries no ledger).
    """
    accountant = system.accounting
    if not accountant.synced:
        return
    totals = accountant.core_totals()
    for core in system.cores:
        charged = totals.get(core.core_id, 0.0)
        if charged != core.stats.cycles:
            yield InvariantViolation(
                f"accounting:core{core.core_id}", "component-sum",
                f"components sum to {charged!r} but the core clock is "
                f"{core.stats.cycles!r} (diff {charged - core.stats.cycles!r})",
                core=core.core_id,
                charged=charged,
                cycles=core.stats.cycles,
            )
    num_cores = len(system.cores)
    for core_id in totals:
        if not 0 <= core_id < num_cores:
            yield InvariantViolation(
                "accounting", "unknown-core",
                f"ledger holds charges for core {core_id}, system has "
                f"{num_cores} cores",
                core=core_id,
            )


def check_monotone(
    baseline: Dict[str, float], current: Dict[str, float]
) -> Iterator[InvariantViolation]:
    for key, previous in baseline.items():
        value = current.get(key)
        if value is not None and value < previous:
            yield InvariantViolation(
                "counters", "monotonicity",
                f"{key} decreased from {previous} to {value}",
                counter=key,
            )


# ----------------------------------------------------------------------
# Orchestrator
# ----------------------------------------------------------------------
class InvariantChecker:
    """Runs the full catalogue against a live system.

    A sweep gathers *all* violations, then raises the first with the
    rest attached as ``violation.others`` — one corrupted structure
    often implies several broken invariants, and seeing the set at once
    beats replaying the run per finding.

    The monotonicity baseline starts at the current counters and rolls
    forward on every clean check.  Call :meth:`reset_baseline` whenever
    counters are legitimately reset (the warmup boundary) or replaced
    wholesale (a checkpoint restore).
    """

    def __init__(
        self,
        system: "System",
        scheduler: Optional["ContextScheduler"] = None,
    ):
        self.system = system
        self.scheduler = scheduler
        self.checks_run = 0
        self.violations_found = 0
        self._baseline = counter_snapshot(system)

    def reset_baseline(self) -> None:
        self._baseline = counter_snapshot(self.system)

    def sweep(self) -> List[InvariantViolation]:
        """Run every check; returns all violations without raising."""
        system = self.system
        found: List[InvariantViolation] = []
        caches = [system.l3]
        for core in system.cores:
            caches.extend((core.l1d, core.l2))
        for cache in caches:
            found.extend(check_cache(cache))
        for core in system.cores:
            for tlb in (core.l1_tlb.tlb_4k, core.l1_tlb.tlb_2m, core.l2_tlb):
                found.extend(check_tlb(tlb))
            found.extend(check_mshr(core.core_id, core.mshr))
            found.extend(check_mmu_caches(core.core_id, core.walker))
            if core.l2_controller is not None:
                found.extend(
                    check_profiler_pair(
                        f"core{core.core_id}.l2", core.l2_controller
                    )
                )
        if system.l3_controller is not None:
            found.extend(check_profiler_pair("l3", system.l3_controller))
        found.extend(check_dram(system.ddr))
        found.extend(check_dram(system.die_stacked))
        if self.scheduler is not None:
            found.extend(check_scheduler(self.scheduler))
        if system.pom is not None:
            found.extend(check_pom_tlb(system.pom))
        found.extend(check_translation_coherence(system))
        found.extend(check_cycle_accounting(system))
        current = counter_snapshot(system)
        found.extend(check_monotone(self._baseline, current))
        if not found:
            self._baseline = current
        return found

    def check(self, executed: Optional[int] = None) -> None:
        """One audit pass; raises on the first violation (others attached)."""
        self.checks_run += 1
        found = self.sweep()
        if not found:
            return
        self.violations_found += len(found)
        first = found[0]
        first.others = found[1:]
        if executed is not None:
            first.context.setdefault("executed", executed)
        raise first

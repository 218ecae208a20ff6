"""Full-system model: cores, TLB hierarchy, caches, walkers, DRAM.

This implements the paper's Figure 4 system and Figure 6 datapath:

* per core — split L1 TLBs, unified L2 TLB, L1 data cache, private L2
  data cache (with optional CSALT partition controller), a page walker
  with PSC + nested TLB, and an MSHR overlap model;
* shared — 16-way L3 data cache (optionally partitioned), the POM-TLB in
  die-stacked DRAM, software TSBs for the TSB baseline, and the two DRAM
  channels.

The timing model is latency-composition: each memory reference accumulates
the latencies of the levels it traverses.  Translation latency beyond the
L1 TLB is charged in full (translation is a blocking, pipeline-flushing
event — paper Section 4.2), while data-miss latency is discounted by the
MSHR model's achieved memory-level parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain
from typing import Dict, List, Optional, Tuple

from repro.core.criticality import CriticalityEstimator, CriticalityInputs
from repro.core.partitioning import PartitionController, unit_weights
from repro.core.schemes import PartitionMode
from repro.mem.address import (
    Asid,
    CACHE_LINE_BYTES,
    PAGE_4K_BITS,
    PAGE_2M_BITS,
)
from repro.mem.cache import Cache, LineKind
from repro.mem.dram import DDR4_2133, DIE_STACKED, DramChannel
from repro.mem.mshr import MshrModel
from repro.sim.config import SystemConfig
from repro.sim.stats import CoreStats, OccupancySample, SimulationResult
from repro.telemetry import Telemetry
from repro.telemetry.accounting import (
    LEVEL_DRAM,
    LEVEL_L2,
    LEVEL_L3,
    CycleAccountant,
    context_names,
    quantize_cycles,
)
from repro.telemetry.events import (
    EVENT_POM_LOOKUP,
    EVENT_TLB_MISS,
    EVENT_WALK,
)
from repro.tlb.pom_tlb import PageSizePredictor, PomTlb
from repro.tlb.prefetch import SequentialTlbPrefetcher
from repro.tlb.tlb import L1TlbPair, Tlb, TlbEntry
from repro.tlb.tsb import TSB_TRAP_CYCLES, Tsb
from repro.vm.physical_memory import HostPhysicalMemory
from repro.vm.walker import PageWalker, VirtualMachine

#: Cold-start page-walk estimate used by the criticality estimator before
#: any walk has completed.
_DEFAULT_WALK_CYCLES = 500.0

#: Clears the offset within a 64-byte line: ``address & _LINE_MASK`` is
#: the line-aligned address the caches are indexed by.
_LINE_MASK = ~(CACHE_LINE_BYTES - 1)

#: The demand-data charging context (``data.l2``/``data.l3``/``data.dram``).
_DATA_NAMES = context_names("data", split=True)

#: The POM-TLB probe-and-fill charging context (``pom.l2``/``pom.l3``/
#: ``pom.dram``).
_POM_NAMES = context_names("pom", split=True)


@dataclass
class CoreState:
    """Private state of one core."""

    core_id: int
    l1_tlb: L1TlbPair
    l2_tlb: Tlb
    l1d: Cache
    l2: Cache
    walker: PageWalker
    mshr: MshrModel
    stats: CoreStats = field(default_factory=CoreStats)
    l2_controller: Optional[PartitionController] = None
    prefetcher: Optional[SequentialTlbPrefetcher] = None


class System:
    """The simulated 8-core machine, configured by :class:`SystemConfig`."""

    def __init__(
        self, config: SystemConfig, telemetry: Optional[Telemetry] = None
    ):
        self.config = config
        self.scheme = config.scheme
        #: Optional telemetry sink bundle; ``None`` keeps every tracer
        #: hook a single ``is None`` check.
        self.telemetry = telemetry
        #: The cycle-accounting ledger: the bundle's when it carries one,
        #: else the machine's own.  Reset here, so a reused Telemetry
        #: bundle starts from a clean ledger (the previous machine's
        #: charges would otherwise break the sum invariant).
        supplied = telemetry.accounting if telemetry is not None else None
        self.accounting = supplied or CycleAccountant()
        self.accounting.reset()
        self.host_memory = HostPhysicalMemory(
            num_vms=config.num_vms,
            vm_bytes=config.vm_bytes,
            pom_tlb_bytes=config.pom_tlb_bytes,
        )
        self.vms = [
            VirtualMachine(
                vm_id,
                self.host_memory,
                native=not config.virtualized,
                levels=config.page_table_levels,
            )
            for vm_id in range(config.num_vms)
        ]
        self.ddr = DramChannel(DDR4_2133)
        self.die_stacked = DramChannel(DIE_STACKED)

        dip = self.scheme.uses_dip
        self.l3 = Cache(
            "l3",
            config.l3.size_bytes,
            config.l3.ways,
            config.l3.latency,
            policy=config.replacement,
            dip=dip,
        )
        self.pom: Optional[PomTlb] = None
        if self.scheme.uses_pom_tlb:
            self.pom = PomTlb(
                base_address=self.host_memory.pom_tlb_base,
                size_bytes=config.pom_tlb_bytes,
            )
        #: Which structure backs the L2 TLB, resolved once: the POM-TLB
        #: (``self.pom``), the TSBs, or neither (walk on every miss).
        self._uses_tsb = self.scheme.uses_tsb
        self._prefetch_enabled = config.tlb_prefetch and self.pom is not None
        self._prefetched = set()
        self._tsb_predictor = PageSizePredictor()
        self._guest_tsbs: Dict[Tuple[int, int], Tsb] = {}
        self._host_tsbs: Dict[int, Tsb] = {}

        self.cores: List[CoreState] = []
        for core_id in range(config.cores):
            self.cores.append(self._build_core(core_id))
        #: One memory instruction retires 1 + nonmem_per_mem companions;
        #: the base charge is quantized to a dyadic rational so the
        #: cycle-accounting sum invariant can hold bit-exactly.
        self._instructions_per_access = 1 + config.nonmem_per_mem
        self._base_cycles = quantize_cycles(
            self._instructions_per_access * config.base_cpi
        )

        self.l3_controller = self._build_controller(self.l3, "l3")
        self._apply_static_partition()
        self.occupancy_samples: List[OccupancySample] = []
        self._total_accesses = 0
        self._last_walk_latency = 0
        # Which level served TLB-kind references (probe locality analysis).
        self.tlb_ref_levels = {"l2": 0, "l3": 0, "dram": 0}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_core(self, core_id: int) -> CoreState:
        cfg = self.config
        l1_tlb = L1TlbPair(
            entries_4k=cfg.tlb.l1_4k_entries,
            entries_2m=cfg.tlb.l1_2m_entries,
            ways=cfg.tlb.l1_ways,
            latency=cfg.tlb.l1_latency,
        )
        l2_tlb = Tlb(
            f"l2tlb-core{core_id}",
            cfg.tlb.l2_entries,
            cfg.tlb.l2_ways,
            cfg.tlb.l2_latency,
            page_bits_supported=(PAGE_4K_BITS, PAGE_2M_BITS),
        )
        l1d = Cache(
            f"l1d-core{core_id}", cfg.l1d.size_bytes, cfg.l1d.ways, cfg.l1d.latency
        )
        l2 = Cache(
            f"l2-core{core_id}",
            cfg.l2.size_bytes,
            cfg.l2.ways,
            cfg.l2.latency,
            policy=cfg.replacement,
            dip=self.scheme.uses_dip,
        )
        core = CoreState(
            core_id=core_id,
            l1_tlb=l1_tlb,
            l2_tlb=l2_tlb,
            l1d=l1d,
            l2=l2,
            walker=None,  # set below: the accessor is bound to `core`
            mshr=MshrModel(entries=cfg.mshr_entries, workload_mlp=cfg.workload_mlp),
        )
        # A partial over ``_mem_from_l2`` adds no Python frame to walk
        # memory references — the hottest call edge after the caches
        # themselves.
        core.walker = PageWalker(
            accessor=partial(self._mem_from_l2, core),
            accountant=self.accounting,
            psc_config=cfg.psc,
            levels=cfg.page_table_levels,
        )
        core.l2_controller = self._build_controller(l2, "l2", core)
        if self._prefetch_enabled:
            core.prefetcher = SequentialTlbPrefetcher()
        return core

    def _build_controller(
        self, cache: Cache, level: str, core: Optional[CoreState] = None
    ) -> Optional[PartitionController]:
        mode = self.scheme.partition_mode
        if mode not in (PartitionMode.DYNAMIC, PartitionMode.CRITICALITY):
            return None
        if mode is PartitionMode.CRITICALITY:
            estimator = CriticalityEstimator(
                cache_latency=cache.latency,
                dynamic_inputs=(
                    self._l2_criticality_inputs
                    if level == "l2"
                    else self._l3_criticality_inputs
                ),
            )
            weight_provider = estimator.weights
        else:
            weight_provider = unit_weights
        if core is not None:
            label = f"core{core.core_id}.l2"
            core_id = core.core_id
            clock = lambda _core=core: _core.stats.cycles
        else:
            label = level
            core_id = -1
            clock = self._max_cycles
        return PartitionController(
            cache,
            epoch_accesses=self.config.epoch_accesses,
            weight_provider=weight_provider,
            sample_shift=self.config.sample_shift,
            estimate_positions=self.config.estimate_positions,
            telemetry=self.telemetry,
            clock=clock,
            label=label,
            core_id=core_id,
        )

    def _max_cycles(self) -> float:
        """System-wide timestamp: the furthest-ahead core clock."""
        return max(core.stats.cycles for core in self.cores)

    def _apply_static_partition(self) -> None:
        if self.scheme.partition_mode is not PartitionMode.STATIC:
            return
        for core in self.cores:
            split = self.config.static_data_ways or core.l2.ways // 2
            core.l2.set_partition(min(split, core.l2.ways - 1))
        split = self.config.static_data_ways or self.l3.ways // 2
        self.l3.set_partition(min(split, self.l3.ways - 1))

    # ------------------------------------------------------------------
    # Criticality counter snapshots (paper Section 3.2: read from PMCs)
    # ------------------------------------------------------------------
    def _walk_mean(self) -> float:
        walks = 0
        total = 0
        for core in self.cores:
            stats = core.walker.stats
            walks += stats.walks
            total += stats.total_latency
        if not walks:
            return _DEFAULT_WALK_CYCLES
        return total / walks

    def _pom_hit_rate(self) -> float:
        if self.pom is None or not self.pom.stats.accesses:
            return 0.0
        return self.pom.stats.hit_rate

    def _l3_criticality_inputs(self) -> CriticalityInputs:
        dram = self.ddr.average_latency()
        return CriticalityInputs(
            next_data_latency=dram,
            tlb_downstream_latency=0.0,
            pom_hit_rate=self._pom_hit_rate(),
            pom_latency=self.die_stacked.average_latency(),
            walk_latency=self._walk_mean(),
        )

    def _l2_criticality_inputs(self) -> CriticalityInputs:
        stats = self.l3.stats
        data_total = stats.data_hits + stats.data_misses
        data_hit_rate = stats.data_hits / data_total if data_total else 0.5
        tlb_total = stats.tlb_hits + stats.tlb_misses
        tlb_hit_rate = stats.tlb_hits / tlb_total if tlb_total else 0.5
        dram = self.ddr.average_latency()
        l3_latency = self.l3.latency
        tlb_miss_fraction = 1.0 - tlb_hit_rate
        return CriticalityInputs(
            next_data_latency=l3_latency + (1.0 - data_hit_rate) * dram,
            tlb_downstream_latency=l3_latency,
            pom_hit_rate=self._pom_hit_rate(),
            pom_latency=tlb_miss_fraction * self.die_stacked.average_latency(),
            walk_latency=tlb_miss_fraction * self._walk_mean(),
        )

    # ------------------------------------------------------------------
    # Memory datapath
    # ------------------------------------------------------------------
    def _dram_access(self, address: int) -> int:
        if address in self.host_memory.pom_tlb_range:
            return self.die_stacked.access(address)
        return self.ddr.access(address)

    def _mem_from_l2(
        self, core: CoreState, address: int, kind: int, is_write: bool
    ) -> int:
        """A reference entering the core's L2 data cache (Figure 6 path).

        This is the hottest System method: line alignment and the
        controllers' set/tag math are inlined (set index = line number &
        set mask, tag = line number >> set bits), and ``kind`` is used as
        a plain int (``LineKind`` is an ``IntEnum``; ``TLB`` is truthy).
        """
        line = address & _LINE_MASK
        l2 = core.l2
        acct = self.accounting
        # Contextual charge at each serving level: the latency goes to
        # the component the context names for that level.  The context
        # cannot change inside one reference, so its names are read
        # once, and a suppressed (``None``) context books nothing.
        names = acct._names
        current = acct._current
        latency = l2.latency
        if names is not None:
            component = names[LEVEL_L2]
            try:
                current[component] += latency
            except KeyError:
                current[component] = latency
            acct.charged += latency
        hit = l2.lookup(line, kind, is_write)
        controller = core.l2_controller
        if controller is not None:
            line_no = line >> l2._line_shift
            set_index = line_no & l2._set_mask
            if set_index & controller.skip_mask:
                # An unsampled set only advances the epoch (``observe``'s
                # tail, inlined: most references take this branch).
                controller.total_accesses += 1
                if controller.total_accesses >= controller.epoch_end:
                    controller.repartition()
            else:
                controller.observe(
                    kind, set_index, line_no >> l2._set_bits, hit
                )
        if hit:
            if kind:
                self.tlb_ref_levels["l2"] += 1
            return latency
        l3 = self.l3
        l3_latency = l3.latency
        latency += l3_latency
        if names is not None:
            component = names[LEVEL_L3]
            try:
                current[component] += l3_latency
            except KeyError:
                current[component] = l3_latency
            acct.charged += l3_latency
        l3_hit = l3.lookup(line, kind, False)
        controller = self.l3_controller
        if controller is not None:
            line_no = line >> l3._line_shift
            set_index = line_no & l3._set_mask
            if set_index & controller.skip_mask:
                controller.total_accesses += 1
                if controller.total_accesses >= controller.epoch_end:
                    controller.repartition()
            else:
                controller.observe(
                    kind, set_index, line_no >> l3._set_bits, l3_hit
                )
        if kind:
            self.tlb_ref_levels["l3" if l3_hit else "dram"] += 1
        if not l3_hit:
            dram_latency = self._dram_access(line)
            latency += dram_latency
            if names is not None:
                component = names[LEVEL_DRAM]
                try:
                    current[component] += dram_latency
                except KeyError:
                    current[component] = dram_latency
                acct.charged += dram_latency
            # Dirty L3 victims drain to DRAM through the write buffer; no
            # latency is charged on the demand path.
            l3.fill(line, kind)
        victim = l2.fill(line, kind, is_write)
        if victim is not None:
            l3.write_back(*victim)
        return latency

    def _data_access(self, core: CoreState, address: int, is_write: bool) -> int:
        """A demand data reference from the core (L1D first)."""
        line = address & _LINE_MASK
        l1d = core.l1d
        if l1d.lookup(line, 0, is_write):
            return l1d.latency
        latency = l1d.latency + self._mem_from_l2(core, line, 0, False)
        victim = l1d.fill(line, 0, is_write)
        if victim is not None:
            # Known model deviation: when this write-back installs the line
            # in the L2, the dirty L2 victim it displaces is dropped rather
            # than forwarded to the L3 as ``_mem_from_l2`` forwards its
            # own.  Forwarding it changes results; that fix is left to a
            # model change of its own.
            core.l2.write_back(*victim)
        return latency

    # ------------------------------------------------------------------
    # Translation datapath
    # ------------------------------------------------------------------
    def _walk(self, core: CoreState, asid: Asid, virtual_address: int) -> TlbEntry:
        vm = self.vms[asid.vm_id]
        core.stats.page_walks += 1
        acct = self.accounting
        # The walker sets its own per-level charging contexts; save the
        # caller's (POM/TSB/none) and put it back afterwards (inlined
        # ``context(None)``/``restore``).
        saved = acct._names
        acct._names = None
        if vm.native:
            result = core.walker.walk_native(
                asid, vm.guest_table(asid.process_id), virtual_address
            )
        else:
            result = core.walker.walk_virtualized(asid, vm, virtual_address)
        acct._names = saved
        tel = self.telemetry
        if tel is not None and tel.tracer is not None:
            tel.tracer.emit(
                EVENT_WALK,
                core.stats.cycles,
                core.core_id,
                duration=float(result.latency),
                refs=result.memory_refs,
                virtualized=not vm.native,
            )
        self._last_walk_latency = result.latency
        return result.translation

    def _translate_via_pom(
        self, core: CoreState, asid: Asid, virtual_address: int
    ) -> Tuple[int, TlbEntry]:
        """POM-TLB path: probe (through the caches), walk on miss."""
        pom = self.pom
        acct = self.accounting
        # ``context``/``restore`` inlined, as around the data reference.
        saved = acct._names
        acct._names = _POM_NAMES
        latency = 0
        probes = 0
        entry = None
        hit_bits = None
        for page_bits in pom.lookup_order(asid):
            # Fused content-probe + set-address: one hash instead of two.
            # The POM content and the cache traffic are independent
            # structures, so probing before the memory reference is
            # result-identical to the old probe-after ordering.
            entry, set_addr = pom.probe_with_address(
                asid, virtual_address, page_bits
            )
            latency += self._mem_from_l2(core, set_addr, LineKind.TLB, False)
            probes += 1
            if entry is not None:
                hit_bits = page_bits
                break
        pom.record_outcome(asid, entry is not None, hit_bits, probes)
        tel = self.telemetry
        if tel is not None and tel.tracer is not None:
            tel.tracer.emit(
                EVENT_POM_LOOKUP,
                core.stats.cycles,
                core.core_id,
                hit=entry is not None,
                probes=probes,
                latency=latency,
            )
        if entry is not None:
            acct._names = saved
            if core.prefetcher is not None:
                self._maybe_prefetch(core, asid, virtual_address, entry.page_bits)
            return latency, entry
        entry = self._walk(core, asid, virtual_address)
        latency += self._last_walk_latency
        # The fill dirties the set line in the cache hierarchy.
        fill_addr = pom.insert(asid, virtual_address, entry)
        latency += self._mem_from_l2(core, fill_addr, LineKind.TLB, True)
        acct._names = saved
        if core.prefetcher is not None:
            self._maybe_prefetch(core, asid, virtual_address, entry.page_bits)
        return latency, entry

    def _maybe_prefetch(
        self, core: CoreState, asid: Asid, virtual_address: int, page_bits: int
    ) -> None:
        """Sequential TLB prefetch off the critical path.

        The probe's cache traffic is modeled (it can pollute), but no
        stall is charged to the demanding instruction — so the cycle
        accountant's context is suppressed for the duration.
        """
        acct = self.accounting
        saved = acct.context(None)
        try:
            self._prefetch_body(core, asid, virtual_address, page_bits)
        finally:
            acct.restore(saved)

    def _prefetch_body(
        self, core: CoreState, asid: Asid, virtual_address: int, page_bits: int
    ) -> None:
        prefetcher = core.prefetcher
        vpn = virtual_address >> page_bits
        if not prefetcher.observe_miss(asid, vpn):
            return
        target = (vpn + prefetcher.stride) << page_bits
        key = (core.core_id, asid, vpn + prefetcher.stride, page_bits)
        if core.l2_tlb.probe(asid, target) is not None:
            return
        vm = self.vms[asid.vm_id]
        if vm.guest_table(asid.process_id).lookup(target) is None:
            return  # never walk speculatively for an unmapped page
        set_addr = self.pom.set_address(asid, target, page_bits)
        self._mem_from_l2(core, set_addr, LineKind.TLB, False)
        entry = self.pom.probe(asid, target, page_bits)
        if entry is not None:
            core.l2_tlb.insert(asid, target, entry)
            self._prefetched.add(key)

    # -- TSB baseline ---------------------------------------------------
    def _guest_tsb(self, vm_id: int, process_id: int) -> Tsb:
        key = (vm_id, process_id)
        tsb = self._guest_tsbs.get(key)
        if tsb is None:
            vm = self.vms[vm_id]
            frames = (self.config.tsb_entries * 16) // 4096
            base_frame = vm._guest_allocator.alloc(contiguous=frames)
            tsb = Tsb(
                f"guest-tsb-{vm_id}.{process_id}",
                base_address=base_frame << PAGE_4K_BITS,
                num_entries=self.config.tsb_entries,
            )
            self._guest_tsbs[key] = tsb
        return tsb

    def _host_tsb(self, vm_id: int) -> Tsb:
        tsb = self._host_tsbs.get(vm_id)
        if tsb is None:
            vm = self.vms[vm_id]
            frames = (self.config.tsb_entries * 16) // 4096
            base_frame = vm._host_allocator.alloc(contiguous=frames)
            tsb = Tsb(
                f"host-tsb-{vm_id}",
                base_address=base_frame << PAGE_4K_BITS,
                num_entries=self.config.tsb_entries,
            )
            self._host_tsbs[vm_id] = tsb
        return tsb

    def _translate_via_tsb(
        self, core: CoreState, asid: Asid, virtual_address: int
    ) -> Tuple[int, TlbEntry]:
        """TSB path (Section 5.2): trap, multi-probe, walk on miss.

        Virtualized: the guest TSB (gVA -> gPA) lives in guest memory, so
        the probe's own address needs a nested translation; a hit is then
        followed by a host TSB probe (gPA -> hPA).  Native: one probe.
        """
        acct = self.accounting
        saved = acct.context("tsb", split=True)
        try:
            return self._tsb_body(core, asid, virtual_address)
        finally:
            acct.restore(saved)

    def _tsb_body(
        self, core: CoreState, asid: Asid, virtual_address: int
    ) -> Tuple[int, TlbEntry]:
        acct = self.accounting
        vm = self.vms[asid.vm_id]
        latency = TSB_TRAP_CYCLES
        acct.charge("tsb.trap", TSB_TRAP_CYCLES)
        predicted, other = (
            (PAGE_2M_BITS, PAGE_4K_BITS)
            if self._tsb_predictor.predict(asid) == PAGE_2M_BITS
            else (PAGE_4K_BITS, PAGE_2M_BITS)
        )
        if vm.native:
            tsb = self._host_tsb(asid.vm_id)
            entry = None
            for page_bits in (predicted, other):
                slot = tsb.slot_address(asid, virtual_address, page_bits)
                latency += self._mem_from_l2(core, slot, LineKind.TLB, False)
                entry = tsb.probe(asid, virtual_address, page_bits)
                if entry is not None:
                    break
            if entry is None:
                entry = self._walk(core, asid, virtual_address)
                latency += self._last_walk_latency + TSB_TRAP_CYCLES
                acct.charge("tsb.trap", TSB_TRAP_CYCLES)
                tsb.insert(asid, virtual_address, entry)
            self._tsb_predictor.update(asid, entry.page_bits)
            return latency, entry

        guest_tsb = self._guest_tsb(asid.vm_id, asid.process_id)
        guest_entry = None
        for page_bits in (predicted, other):
            slot_gpa = guest_tsb.slot_address(asid, virtual_address, page_bits)
            nested_latency, _refs, slot_hpa = core.walker.translate_guest_physical(
                vm, slot_gpa
            )
            latency += nested_latency
            latency += self._mem_from_l2(core, slot_hpa, LineKind.TLB, False)
            guest_entry = guest_tsb.probe(asid, virtual_address, page_bits)
            if guest_entry is not None:
                break
        host_entry = None
        if guest_entry is not None:
            # guest_entry.frame_base is a *guest* frame; resolve via host TSB.
            host_tsb = self._host_tsb(asid.vm_id)
            guest_physical = guest_entry.frame_base << PAGE_4K_BITS
            slot = host_tsb.slot_address(
                Asid(asid.vm_id, 0), guest_physical, guest_entry.page_bits
            )
            latency += self._mem_from_l2(core, slot, LineKind.TLB, False)
            host_entry = host_tsb.probe(
                Asid(asid.vm_id, 0), guest_physical, guest_entry.page_bits
            )
        if host_entry is None:
            entry = self._walk(core, asid, virtual_address)
            latency += self._last_walk_latency + TSB_TRAP_CYCLES
            acct.charge("tsb.trap", TSB_TRAP_CYCLES)
            guest_translation = vm.guest_table(asid.process_id).lookup(
                virtual_address
            )
            guest_tsb.insert(
                asid,
                virtual_address,
                TlbEntry(guest_translation.frame_base, guest_translation.page_bits),
            )
            self._host_tsb(asid.vm_id).insert(
                Asid(asid.vm_id, 0),
                guest_translation.frame_base << PAGE_4K_BITS,
                entry,
            )
        else:
            entry = host_entry
        self._tsb_predictor.update(asid, entry.page_bits)
        return latency, entry

    def translate_beyond_l1(
        self, core: CoreState, asid: Asid, virtual_address: int
    ) -> Tuple[int, TlbEntry]:
        """Service an L1 TLB miss; returns (stall cycles, translation)."""
        l2_tlb = core.l2_tlb
        latency = l2_tlb.latency
        acct = self.accounting
        current = acct._current
        try:
            current["tlb.l2tlb"] += latency
        except KeyError:
            current["tlb.l2tlb"] = latency
        acct.charged += latency
        entry = l2_tlb.lookup(asid, virtual_address)
        if entry is not None:
            if core.prefetcher is not None:
                key = (
                    core.core_id, asid,
                    virtual_address >> entry.page_bits, entry.page_bits,
                )
                if key in self._prefetched:
                    self._prefetched.discard(key)
                    core.prefetcher.credit_hit()
        else:
            core.stats.l2_tlb_misses += 1
            tel = self.telemetry
            # ``emit`` is a no-op without a tracer; skip the call (and its
            # kwargs build) on every L2 TLB miss of untraced runs.
            if tel is not None and tel.tracer is not None:
                tel.emit(
                    EVENT_TLB_MISS, core.stats.cycles, core.core_id, level="l2"
                )
            if self.pom is not None:
                extra, entry = self._translate_via_pom(
                    core, asid, virtual_address
                )
            elif self._uses_tsb:
                extra, entry = self._translate_via_tsb(
                    core, asid, virtual_address
                )
            else:
                entry = self._walk(core, asid, virtual_address)
                extra = self._last_walk_latency
            latency += extra
            l2_tlb.insert(asid, virtual_address, entry)
        core.l1_tlb.insert(asid, virtual_address, entry)
        return latency, entry

    # ------------------------------------------------------------------
    # Per-access execution (the CPU timing model)
    # ------------------------------------------------------------------
    def access(
        self, core_id: int, asid: Asid, virtual_address: int, is_write: bool
    ) -> None:
        """Run one memory instruction (plus its non-memory companions)."""
        core = self.cores[core_id]
        stats = core.stats
        cycles = self._base_cycles
        acct = self.accounting
        # ``begin`` guard inlined: consecutive accesses from one
        # (core, VM) — the engine's whole batch — skip the call.
        vm_id = asid.vm_id
        if core_id != acct._core_id or vm_id != acct._vm_id:
            acct.begin(core_id, vm_id)
        current = acct._current
        try:
            current["base"] += cycles
        except KeyError:
            current["base"] = cycles
        acct.charged += cycles

        entry = core.l1_tlb.lookup(asid, virtual_address)
        if entry is None:
            stats.l1_tlb_misses += 1
            mark = acct.charged
            stall, entry = self.translate_beyond_l1(core, asid, virtual_address)
            # Translation is blocking: the full latency stalls the core.
            cycles += stall
            stats.translation_stall_cycles += stall
            # Anything the translation path forgot to attribute lands in a
            # residual bucket, keeping the sum invariant structural (tests
            # assert the residual is zero).
            residual = stall - (acct.charged - mark)
            if residual:
                acct.charge("translation.other", residual)

        page_mask = (1 << entry.page_bits) - 1
        physical = (entry.frame_base << PAGE_4K_BITS) + (virtual_address & page_mask)
        mark = acct.charged
        # ``context``/``restore`` inlined around the data reference.
        saved = acct._names
        acct._names = _DATA_NAMES
        miss_latency = (
            self._data_access(core, physical, is_write) - core.l1d.latency
        )
        acct._names = saved
        # Data misses overlap through the MSHRs: only the MLP-discounted
        # stall reaches the clock.
        stall = core.mshr.observe(miss_latency)
        if stall:
            cycles += stall
            stats.data_stall_cycles += stall
        # The ledger booked the *raw* per-level latencies; the (negative)
        # credit is their exact difference from the stall.
        credit = stall - (acct.charged - mark)
        if credit:
            acct.charge("data.mlp_credit", credit)

        stats.cycles += cycles
        stats.instructions += self._instructions_per_access
        stats.memory_accesses += 1
        self._total_accesses += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Zero all counters, keeping microarchitectural state warm.

        Called at the end of the engine's warmup phase so that measured
        statistics reflect steady state rather than compulsory misses.
        """
        from repro.tlb.pom_tlb import PomTlbStats
        from repro.vm.walker import WalkerStats

        for core in self.cores:
            core.stats = CoreStats()
            core.l1_tlb.tlb_4k.reset_stats()
            core.l1_tlb.tlb_2m.reset_stats()
            core.l2_tlb.reset_stats()
            core.l1d.reset_stats()
            core.l2.reset_stats()
            core.walker.stats = WalkerStats()
        self.l3.reset_stats()
        if self.pom is not None:
            self.pom.stats = PomTlbStats()
        for tsb in chain(self._guest_tsbs.values(), self._host_tsbs.values()):
            tsb.stats = type(tsb.stats)()
        self.ddr.reset_stats()
        self.die_stacked.reset_stats()
        self.occupancy_samples.clear()
        self._total_accesses = 0
        self.tlb_ref_levels = {"l2": 0, "l3": 0, "dram": 0}
        # Warmup boundary: drop warmup-era events so the exported trace
        # covers the measured region with monotone per-core timestamps.
        tel = self.telemetry
        if tel is not None and tel.tracer is not None:
            tel.tracer.clear()
        # The cycle ledger must track the zeroed clocks exactly.
        self.accounting.reset()

    def sample_occupancy(self) -> OccupancySample:
        """Scan L2/L3 contents for the Figure 3 occupancy metric."""
        l2_fraction = sum(
            core.l2.occupancy_by_kind(sample_shift=2)[LineKind.TLB]
            for core in self.cores
        ) / len(self.cores)
        l3_fraction = self.l3.occupancy_by_kind(sample_shift=3)[LineKind.TLB]
        sample = OccupancySample(
            access_count=self._total_accesses,
            l2_tlb_fraction=l2_fraction,
            l3_tlb_fraction=l3_fraction,
        )
        self.occupancy_samples.append(sample)
        return sample

    def result(self, workload_name: str = "") -> SimulationResult:
        """Package the run's statistics.

        All per-core aggregates are computed in one pass over the cores
        rather than one ``sum(...)`` scan per statistic.
        """
        l2_misses = 0
        l2_accesses = 0
        walk_count = 0
        walk_total = 0
        instructions = 0
        translation_stall = 0
        data_stall = 0
        for core in self.cores:
            l2_stats = core.l2.stats
            l2_misses += l2_stats.misses
            l2_accesses += l2_stats.accesses
            walker_stats = core.walker.stats
            walk_count += walker_stats.walks
            walk_total += walker_stats.total_latency
            core_stats = core.stats
            instructions += core_stats.instructions
            translation_stall += core_stats.translation_stall_cycles
            data_stall += core_stats.data_stall_cycles
        l3_stats = self.l3.stats
        data_total = l3_stats.data_hits + l3_stats.data_misses
        l2_timeline = []
        if self.cores[0].l2_controller is not None:
            l2_timeline = self.cores[0].l2_controller.tlb_fraction_timeline()
        l3_timeline = []
        if self.l3_controller is not None:
            l3_timeline = self.l3_controller.tlb_fraction_timeline()
        cpi_stack = None
        if self.accounting.synced:
            cpi_stack = self.accounting.build_stack(
                scheme=self.scheme.value,
                num_cores=len(self.cores),
                instructions=instructions,
            )
        return SimulationResult(
            scheme=self.scheme.value,
            workload=workload_name,
            per_core=[core.stats for core in self.cores],
            l2_cache_misses=l2_misses,
            l2_cache_accesses=l2_accesses,
            l3_cache_misses=l3_stats.misses,
            l3_cache_accesses=l3_stats.accesses,
            l3_data_hit_rate=(
                l3_stats.data_hits / data_total if data_total else 0.0
            ),
            pom_hits=self.pom.stats.hits if self.pom else 0,
            pom_misses=self.pom.stats.misses if self.pom else 0,
            walk_mean_cycles=walk_total / walk_count if walk_count else 0.0,
            walk_count=walk_count,
            occupancy_samples=list(self.occupancy_samples),
            l2_partition_timeline=l2_timeline,
            l3_partition_timeline=l3_timeline,
            cpi_stack=cpi_stack,
            extra={
                "ddr_accesses": float(self.ddr.stats.accesses),
                "ddr_row_hit_rate": self.ddr.stats.row_hit_rate,
                "die_stacked_accesses": float(self.die_stacked.stats.accesses),
                "die_stacked_row_hit_rate": self.die_stacked.stats.row_hit_rate,
                "tlb_refs_l2": float(self.tlb_ref_levels["l2"]),
                "tlb_refs_l3": float(self.tlb_ref_levels["l3"]),
                "tlb_refs_dram": float(self.tlb_ref_levels["dram"]),
                "translation_stall": translation_stall,
                "data_stall": data_stall,
            },
        )

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Plain-data snapshot of every stateful structure in the machine.

        A view, valid until the next access: wherever a component's own
        dict or list already has the snapshot's layout, it is handed out,
        not copied (see ``docs/robustness.md``); ``load_state`` copies
        whatever it takes.  Pickle memoizes by identity, so no live
        container may appear twice in the document.

        Closures (walker accessors, controller clocks, telemetry hooks)
        are wiring, not state: a restore applies this snapshot to a
        *freshly built* System whose wiring is identical by construction.
        """
        return {
            "vms": [vm.state_dict() for vm in self.vms],
            "ddr": self.ddr.state_dict(),
            "die_stacked": self.die_stacked.state_dict(),
            "l3": self.l3.state_dict(),
            "l3_controller": (
                None if self.l3_controller is None
                else self.l3_controller.state_dict()
            ),
            "pom": None if self.pom is None else self.pom.state_dict(),
            "prefetched": sorted(self._prefetched),
            "tsb_predictor": self._tsb_predictor.state_dict(),
            "guest_tsbs": {
                key: tsb.state_dict() for key, tsb in self._guest_tsbs.items()
            },
            "host_tsbs": {
                vm_id: tsb.state_dict()
                for vm_id, tsb in self._host_tsbs.items()
            },
            "cores": [
                {
                    "stats": replace(core.stats),
                    "l1_tlb": core.l1_tlb.state_dict(),
                    "l2_tlb": core.l2_tlb.state_dict(),
                    "l1d": core.l1d.state_dict(),
                    "l2": core.l2.state_dict(),
                    "walker": core.walker.state_dict(),
                    "mshr": core.mshr.state_dict(),
                    "l2_controller": (
                        None if core.l2_controller is None
                        else core.l2_controller.state_dict()
                    ),
                    "prefetcher": (
                        None if core.prefetcher is None
                        else core.prefetcher.state_dict()
                    ),
                }
                for core in self.cores
            ],
            "occupancy_samples": [
                replace(sample) for sample in self.occupancy_samples
            ],
            "total_accesses": self._total_accesses,
            "last_walk_latency": self._last_walk_latency,
            "tlb_ref_levels": self.tlb_ref_levels,
            "accounting": self.accounting.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        if len(state["vms"]) != len(self.vms):
            raise ValueError(
                f"snapshot has {len(state['vms'])} VMs, this system has "
                f"{len(self.vms)}"
            )
        if len(state["cores"]) != len(self.cores):
            raise ValueError(
                f"snapshot has {len(state['cores'])} cores, this system "
                f"has {len(self.cores)}"
            )
        if (state["pom"] is None) != (self.pom is None):
            raise ValueError(
                "snapshot and system disagree on whether a POM-TLB exists "
                "(different schemes?)"
            )
        if (state["l3_controller"] is None) != (self.l3_controller is None):
            raise ValueError(
                "snapshot and system disagree on L3 partition control "
                "(different schemes?)"
            )
        for vm, vm_state in zip(self.vms, state["vms"]):
            vm.load_state(vm_state)
        self.ddr.load_state(state["ddr"])
        self.die_stacked.load_state(state["die_stacked"])
        self.l3.load_state(state["l3"])
        if self.l3_controller is not None:
            self.l3_controller.load_state(state["l3_controller"])
        if self.pom is not None:
            self.pom.load_state(state["pom"])
        self._prefetched = set(state["prefetched"])
        self._tsb_predictor.load_state(state["tsb_predictor"])
        # TSBs are created lazily (allocating frames as a side effect);
        # the frames are already marked used in the restored allocators,
        # so rebuild the TSB objects directly at their recorded addresses.
        self._guest_tsbs = {
            key: Tsb.from_state(tsb_state)
            for key, tsb_state in state["guest_tsbs"].items()
        }
        self._host_tsbs = {
            vm_id: Tsb.from_state(tsb_state)
            for vm_id, tsb_state in state["host_tsbs"].items()
        }
        for core, core_state in zip(self.cores, state["cores"]):
            if (core_state["l2_controller"] is None) != (
                core.l2_controller is None
            ):
                raise ValueError(
                    f"core {core.core_id}: snapshot and system disagree on "
                    "L2 partition control (different schemes?)"
                )
            if (core_state["prefetcher"] is None) != (core.prefetcher is None):
                raise ValueError(
                    f"core {core.core_id}: snapshot and system disagree on "
                    "TLB prefetching"
                )
            core.stats = replace(core_state["stats"])
            core.l1_tlb.load_state(core_state["l1_tlb"])
            core.l2_tlb.load_state(core_state["l2_tlb"])
            core.l1d.load_state(core_state["l1d"])
            core.l2.load_state(core_state["l2"])
            core.walker.load_state(core_state["walker"])
            core.mshr.load_state(core_state["mshr"])
            if core.l2_controller is not None:
                core.l2_controller.load_state(core_state["l2_controller"])
            if core.prefetcher is not None:
                core.prefetcher.load_state(core_state["prefetcher"])
        self.occupancy_samples = [
            replace(sample) for sample in state["occupancy_samples"]
        ]
        self._total_accesses = state["total_accesses"]
        self._last_walk_latency = state["last_walk_latency"]
        self.tlb_ref_levels = dict(state["tlb_ref_levels"])
        accounting_state = state.get("accounting")
        if accounting_state is not None:
            self.accounting.load_state(accounting_state)
        else:
            # The snapshot carries no ledger (it predates the ledger, or a
            # ledger-free run wrote it): charges since warmup are unknown,
            # so the sum invariant can no longer be audited.
            self.accounting.mark_unsynced()

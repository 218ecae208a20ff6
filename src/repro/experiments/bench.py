"""Micro-benchmarks: how fast is each datapath primitive on the host?

The repo's pytest "benchmarks" validate paper *numbers*; ``repro bench``
times the simulator's hot-path primitives in isolation — a cache hit
probe, a cache miss-fill (victim selection included) with clean and with
dirty victims and in one partition of a tree-PLRU cache, L1 and unified
L2 TLB probes, a POM-TLB probe, a partition-controller observation, a
first-touch page mapping, native / virtualized page walks, a DRAM access,
an MSHR observation and a Zipf draw — so a change that slows one layer
shows up as one moved number.  Each point is named
``<layer>.<operation>`` after the layer ``perf/trace.py`` books that
primitive's time to.  Inputs are fully deterministic (fixed address
strides; a seeded generator for the Zipf draws), so run-to-run variance
is host jitter only.  The document is written as
``BENCH_<timestamp>.json`` and is informational: whole-run speed is
judged by the ``perf/`` benchmark, not here.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Callable, Dict, List, Optional

SCHEMA_VERSION = 1

#: Operations per micro point.
MICRO_OPERATIONS = 20_000


def _micro_cache_lookup(operations: int) -> Callable[[], float]:
    """Hit-path probes of a warm 32 KB / 8-way cache (every probe hits)."""
    from repro.mem.address import CACHE_LINE_BYTES
    from repro.mem.cache import Cache, LineKind

    cache = Cache("micro-l2", 1 << 15, ways=8, latency=10, policy="lru")
    lines = (1 << 15) // CACHE_LINE_BYTES
    resident = [line * CACHE_LINE_BYTES for line in range(lines)]
    kind = LineKind.DATA
    for address in resident:
        cache.fill(address, kind)
    # Stride 7 is coprime with the line count: all sets visited, no
    # trivially-predictable same-set streak.
    addresses = [resident[(i * 7) % lines] for i in range(operations)]
    lookup = cache.lookup

    def timed() -> float:
        start = time.perf_counter()
        for address in addresses:
            lookup(address, kind)
        return time.perf_counter() - start

    return timed


def _micro_cache_fill(
    operations: int, dirty: bool, size: int = 1 << 15, ways: int = 8,
    policy: str = "lru", data_ways: Optional[int] = None,
) -> Callable[[], float]:
    """Miss-path (probe-miss then fill with victim selection) of a 32 KB
    / 8-way LRU cache by default: a 2x-capacity working set keeps the
    reuse distance (16 tags/set) above the associativity (8 ways), so
    steady state is ~100% fills.
    With ``dirty`` every line is filled dirty, so every victim is dirty
    and comes back for a write-back; otherwise every victim is clean.
    With ``data_ways`` the cache is split as under CSALT and its
    translation ways are filled first, with lines outside the working
    set: every data fill then picks its victim among the data ways, and
    once those are full no fill scans for a free way."""
    from repro.mem.address import CACHE_LINE_BYTES
    from repro.mem.cache import Cache, LineKind

    cache = Cache("micro-l2", size, ways=ways, latency=10, policy=policy)
    lines = size // CACHE_LINE_BYTES
    span = lines * 2
    if data_ways is not None:
        cache.set_partition(data_ways)
        sets = lines // ways
        for line in range(span, span + sets * (ways - data_ways)):
            cache.fill(line * CACHE_LINE_BYTES, LineKind.TLB)
    kind = LineKind.DATA
    addresses = [((i * 7) % span) * CACHE_LINE_BYTES
                 for i in range(operations)]
    lookup = cache.lookup
    fill = cache.fill

    def timed() -> float:
        start = time.perf_counter()
        for address in addresses:
            if not lookup(address, kind):
                fill(address, kind, dirty)
        return time.perf_counter() - start

    return timed


def _micro_tlb_lookup(operations: int) -> Callable[[], float]:
    """Hit-path probes of a full 64-entry / 4-way L1 TLB."""
    from repro.mem.address import Asid, PAGE_4K_BITS
    from repro.tlb.tlb import Tlb, TlbEntry

    tlb = Tlb("micro-l1d", entries=64, ways=4, latency=1)
    asid = Asid(vm_id=0, process_id=0)
    pages = [vpn << PAGE_4K_BITS for vpn in range(64)]
    for virtual_address in pages:
        tlb.insert(asid, virtual_address, TlbEntry(
            frame_base=virtual_address >> PAGE_4K_BITS,
            page_bits=PAGE_4K_BITS,
        ))
    addresses = [pages[(i * 7) % 64] for i in range(operations)]
    lookup = tlb.lookup

    def timed() -> float:
        start = time.perf_counter()
        for address in addresses:
            lookup(asid, address)
        return time.perf_counter() - start

    return timed


def _micro_l2_tlb_lookup(operations: int) -> Callable[[], float]:
    """Probes of a warm unified 1536-entry / 12-way L2 TLB, alternating
    a 4 KB hit and a 2 MB hit (which first misses the 4 KB set).  512
    pages of each size fill 8 of the 12 ways of every set."""
    from repro.mem.address import Asid, PAGE_2M_BITS, PAGE_4K_BITS
    from repro.tlb.tlb import Tlb, TlbEntry

    tlb = Tlb(
        "micro-l2tlb", entries=1536, ways=12, latency=17,
        page_bits_supported=(PAGE_4K_BITS, PAGE_2M_BITS),
    )
    asid = Asid(vm_id=0, process_id=0)
    # 4 KB pages in the first 2 MB region, 2 MB pages above it.
    small = [vpn << PAGE_4K_BITS for vpn in range(512)]
    huge = [(region + 1) << PAGE_2M_BITS for region in range(512)]
    for virtual_address in small:
        tlb.insert(asid, virtual_address, TlbEntry(1, PAGE_4K_BITS))
    for virtual_address in huge:
        tlb.insert(asid, virtual_address, TlbEntry(512, PAGE_2M_BITS))
    addresses = [
        (small if i % 2 == 0 else huge)[(i * 7) % 512]
        for i in range(operations)
    ]
    lookup = tlb.lookup

    def timed() -> float:
        start = time.perf_counter()
        for address in addresses:
            lookup(asid, address)
        return time.perf_counter() - start

    return timed


def _micro_pom_probe(operations: int) -> Callable[[], float]:
    """``PomTlb.probe_with_address`` on a 4 MB POM-TLB holding 4,096
    4 KB translations: three probes in four hit, the fourth asks for a
    page never inserted."""
    from repro.mem.address import Asid, PAGE_4K_BITS
    from repro.tlb.pom_tlb import PomTlb
    from repro.tlb.tlb import TlbEntry

    pom = PomTlb(size_bytes=4 * 1024 * 1024)
    asid = Asid(vm_id=0, process_id=0)
    pages = [vpn << PAGE_4K_BITS for vpn in range(4096)]
    for virtual_address in pages:
        pom.insert(asid, virtual_address, TlbEntry(1, PAGE_4K_BITS))
    absent = 1 << 32
    addresses = [
        pages[(i * 7) % 4096] + (absent if i % 4 == 3 else 0)
        for i in range(operations)
    ]
    probe = pom.probe_with_address

    def timed() -> float:
        start = time.perf_counter()
        for address in addresses:
            probe(asid, address, PAGE_4K_BITS)
        return time.perf_counter() - start

    return timed


def _micro_partition_observe(operations: int) -> Callable[[], float]:
    """Shadow-mode ``PartitionController.observe`` calls on sampled sets
    of a 64 KB / 4-way cache (every fourth set, ``sample_shift=2``),
    alternating data and TLB kinds over 12 tags per set, so the shadow
    stacks see hits at every depth and misses beyond it."""
    from repro.core.partitioning import PartitionController
    from repro.mem.cache import Cache

    cache = Cache("micro-l2", 1 << 16, ways=4, latency=12, policy="lru")
    controller = PartitionController(cache, sample_shift=2)
    sampled = list(range(0, cache.num_sets, 4))
    stream = [
        (i % 2, sampled[(i * 7) % len(sampled)], (i * 5) % 12)
        for i in range(operations)
    ]
    observe = controller.observe

    def timed() -> float:
        start = time.perf_counter()
        for kind, set_index, tag in stream:
            observe(kind, set_index, tag, False)
        return time.perf_counter() - start

    return timed


def _micro_first_touch(operations: int) -> Callable[[], float]:
    """``VirtualMachine.ensure_mapped`` of fresh 4 KB pages on a
    virtualized VM (guest and host tables both grow), 17 pages apart so
    a new leaf node is built about every 30 touches."""
    from repro.mem.address import PAGE_4K_BITS
    from repro.vm.physical_memory import HostPhysicalMemory
    from repro.vm.walker import VirtualMachine

    vm = VirtualMachine(0, HostPhysicalMemory(num_vms=1))
    vm.guest_table(0)
    addresses = [(i * 17) << PAGE_4K_BITS for i in range(operations)]
    ensure_mapped = vm.ensure_mapped

    def timed() -> float:
        start = time.perf_counter()
        for address in addresses:
            ensure_mapped(0, address)
        return time.perf_counter() - start

    return timed


def _micro_walk(operations: int, native: bool) -> Callable[[], float]:
    """Full page walks through a real radix table with a stub memory
    accessor (fixed 4-cycle reference), so only walker + PSC + table
    code is on the clock.  64 distinct 2 MB regions cycled against a
    32-entry PDE cache keep the PDE level missing while PDP/PML4 hit —
    the steady-state mix a real run sees."""
    from repro.mem.address import Asid
    from repro.telemetry.accounting import CycleAccountant
    from repro.vm.physical_memory import HostPhysicalMemory
    from repro.vm.walker import PageWalker, VirtualMachine

    host_memory = HostPhysicalMemory(num_vms=1)
    vm = VirtualMachine(0, host_memory, native=native)
    asid = Asid(vm_id=0, process_id=0)
    regions = [region << 21 for region in range(64)]
    for virtual_address in regions:
        vm.ensure_mapped(asid.process_id, virtual_address)
    walker = PageWalker(
        lambda address, kind, is_write: 4, CycleAccountant()
    )
    addresses = [regions[(i * 7) % 64] for i in range(operations)]

    if native:
        table = vm.guest_table(asid.process_id)
        walk = walker.walk_native

        def timed() -> float:
            start = time.perf_counter()
            for address in addresses:
                walk(asid, table, address)
            return time.perf_counter() - start
    else:
        walk = walker.walk_virtualized

        def timed() -> float:
            start = time.perf_counter()
            for address in addresses:
                walk(asid, vm, address)
            return time.perf_counter() - start

    return timed


def _micro_dram_access(operations: int) -> Callable[[], float]:
    """DDR4 channel accesses in rounds of three per bank: a closed row
    (the round starts from a reset channel), a row hit (another line of
    that row) and a row conflict (another row of that bank).  The reset
    is one call per round of 48 accesses."""
    from repro.mem.dram import DDR4_2133, DramChannel

    channel = DramChannel(DDR4_2133)
    banks = DDR4_2133.banks
    row_bytes = DDR4_2133.row_bytes
    round_addresses = (
        [bank * row_bytes for bank in range(banks)]
        + [bank * row_bytes + 64 for bank in range(banks)]
        + [(bank + banks) * row_bytes for bank in range(banks)]
    )
    full_rounds, extra = divmod(operations, len(round_addresses))
    rounds = [round_addresses] * full_rounds
    if extra:
        rounds.append(round_addresses[:extra])
    access = channel.access
    reset = channel.reset

    def timed() -> float:
        start = time.perf_counter()
        for batch in rounds:
            reset()
            for address in batch:
                access(address)
        return time.perf_counter() - start

    return timed


def _micro_mshr_observe(operations: int) -> Callable[[], float]:
    """MSHR observations alternating an L1D hit (nothing to stall) and a
    200-cycle miss (miss-density update plus the MLP-discounted stall)."""
    from repro.mem.mshr import MshrModel

    observe = MshrModel().observe
    latencies = [0.0 if i % 2 == 0 else 200.0 for i in range(operations)]

    def timed() -> float:
        start = time.perf_counter()
        for latency in latencies:
            observe(latency)
        return time.perf_counter() - start

    return timed


def _micro_zipf_sample(operations: int) -> Callable[[], float]:
    """Draws from a permuted Zipf(0.7) sampler over 6,553,600 ranks
    (pagerank's vertex table at quarter scale), in blocks of ``BATCH``
    as a stream generates them; one operation is one draw.  The table
    and the permutation are built before the timed region."""
    import numpy as np

    from repro.workloads.base import BATCH, zipf_page_sampler

    sample = zipf_page_sampler(np.random.default_rng(0), 6_553_600, 0.7)
    blocks = [BATCH] * (operations // BATCH)
    if operations % BATCH:
        blocks.append(operations % BATCH)

    def timed() -> float:
        start = time.perf_counter()
        for count in blocks:
            sample(count)
        return time.perf_counter() - start

    return timed


#: Ordered (component name, builder) pairs; builders do all setup outside
#: the timed region and return a zero-arg callable yielding host seconds.
MICRO_COMPONENTS: List[tuple] = [
    ("cache.l2.lookup", _micro_cache_lookup),
    ("cache.l2.fill",
     lambda operations: _micro_cache_fill(operations, False)),
    ("cache.l2.fill_dirty",
     lambda operations: _micro_cache_fill(operations, True)),
    # A 64 KB / 16-way tree-PLRU cache split 8 data / 8 translation ways.
    ("cache.l3.fill_plru_split",
     lambda operations: _micro_cache_fill(
         operations, False, size=1 << 16, ways=16, policy="plru",
         data_ways=8)),
    ("tlb.l1.lookup", _micro_tlb_lookup),
    ("tlb.l2.lookup", _micro_l2_tlb_lookup),
    ("pom.probe", _micro_pom_probe),
    ("partition.observe", _micro_partition_observe),
    ("vm.map.first_touch", _micro_first_touch),
    ("walker.native",
     lambda operations: _micro_walk(operations, native=True)),
    ("walker.virtualized",
     lambda operations: _micro_walk(operations, native=False)),
    ("dram.access", _micro_dram_access),
    # The MSHR model has no boundary of its own: its time is
    # ``system.access`` self time.
    ("system.access.mshr_observe", _micro_mshr_observe),
    ("workload.zipf_sample", _micro_zipf_sample),
]


def run_micro_bench(
    operations: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Time each datapath primitive in isolation; returns a document.

    Each entry of ``points`` reports its ``operations``,
    ``host_seconds``, ``ns_per_op`` and ``ops_per_second``.
    """
    count = operations if operations is not None else MICRO_OPERATIONS
    points: List[Dict[str, object]] = []
    for name, builder in MICRO_COMPONENTS:
        if progress is not None:
            progress(f"micro {name} x {count} ops")
        elapsed = builder(count)()
        points.append({
            "point": name,
            "operations": count,
            "host_seconds": elapsed,
            "ns_per_op": elapsed / count * 1e9 if count else 0.0,
            "ops_per_second": count / elapsed if elapsed > 0 else 0.0,
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "micro": True,
        "operations_per_point": count,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "points": points,
    }


def format_micro_bench(document: Dict[str, object]) -> str:
    """Human-readable table for one micro-benchmark document."""
    lines = [
        f"{'component':<28} {'ops':>9} {'seconds':>8} "
        f"{'ns/op':>9} {'ops/s':>12}"
    ]
    for point in document.get("points", []):
        lines.append(
            f"{point['point']:<28} {point['operations']:>9} "
            f"{point['host_seconds']:>8.3f} "
            f"{point['ns_per_op']:>9,.0f} "
            f"{point['ops_per_second']:>12,.0f}"
        )
    return "\n".join(lines)


def write_bench(
    document: Dict[str, object], out_dir: str = "."
) -> str:
    """Write ``BENCH_<timestamp>.json`` into ``out_dir``; returns path."""
    os.makedirs(out_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    path = os.path.join(out_dir, f"BENCH_{stamp}.json")
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


"""Performance benchmarking harness: how fast is the simulator itself?

The repo's pytest "benchmarks" validate paper *numbers*; this module
measures the simulator's *host throughput* so a refactor that slows the
hot path 2x is caught before it lands.  ``repro bench`` runs a fixed
matrix of (mix, scheme, replacement) points, records host wall-clock
seconds plus derived accesses/second and simulated-cycles/second for
each, and writes the document as ``BENCH_<timestamp>.json``.

Every run carries its cycle ledger (there is no ledger-free datapath),
so the benchmark times the path users actually pay for.

A current run can be compared against a committed baseline
(``benchmarks/bench_baseline.json``) with a relative tolerance: CI's
``perf-smoke`` job fails when aggregate throughput regresses by more
than 25%.  The tolerance is deliberately loose — shared CI runners
jitter — so only step-function regressions trip it.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Callable, Dict, List, Optional

from repro.budget import Budget, BudgetMonitor
from repro.core.schemes import Scheme
from repro.errors import DataError
from repro.sim.config import small_config
from repro.sim.engine import run_simulation
from repro.workloads.mixes import make_mix

SCHEMA_VERSION = 1

#: Throughput may drop this much relative to baseline before failing.
DEFAULT_TOLERANCE = 0.25

#: The quick matrix: one translation-light and one translation-heavy
#: point per scheme family, small enough for a CI smoke job.
QUICK_MATRIX: List[Dict[str, object]] = [
    {"mix": "gups", "scheme": "conventional", "replacement": "lru"},
    {"mix": "gups", "scheme": "pom-tlb", "replacement": "lru"},
    {"mix": "gups", "scheme": "csalt-cd", "replacement": "lru"},
]

#: The full matrix adds a second mix, the remaining schemes and a
#: non-default replacement policy.
FULL_MATRIX: List[Dict[str, object]] = QUICK_MATRIX + [
    {"mix": "gups", "scheme": "csalt-d", "replacement": "lru"},
    {"mix": "gups", "scheme": "tsb", "replacement": "lru"},
    {"mix": "graph500_gups", "scheme": "csalt-cd", "replacement": "lru"},
    {"mix": "graph500_gups", "scheme": "csalt-cd", "replacement": "plru"},
]

QUICK_ACCESSES = 8_000
FULL_ACCESSES = 40_000

#: Operations per micro-benchmark component (``repro bench --micro``).
MICRO_OPERATIONS = 20_000


class BenchError(DataError, RuntimeError):
    """A benchmark document could not be read or compared.

    A :class:`~repro.errors.DataError` (exit code 2); still a
    ``RuntimeError`` for pre-taxonomy callers.
    """


def _point_id(point: Dict[str, object]) -> str:
    return f"{point['mix']}/{point['scheme']}/{point['replacement']}"


def run_bench(
    quick: bool = False,
    accesses: Optional[int] = None,
    seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
    deadline: Optional[float] = None,
) -> Dict[str, object]:
    """Run the benchmark matrix and return the result document.

    ``deadline`` (wall-clock seconds) bounds the whole matrix: points
    are only started while time remains, and a deadline hit raises
    :class:`~repro.errors.BudgetExceededError` carrying the truncated
    document (``error.document``) so the CLI can still write the
    artifact before exiting 7.  Completed points are never invalidated —
    a truncated benchmark is a shorter benchmark, not a wrong one.
    """
    matrix = QUICK_MATRIX if quick else FULL_MATRIX
    total = accesses if accesses is not None else (
        QUICK_ACCESSES if quick else FULL_ACCESSES
    )
    monitor: Optional[BudgetMonitor] = None
    if deadline is not None:
        monitor = BudgetMonitor(Budget(deadline_seconds=deadline))
        monitor.start()
    points: List[Dict[str, object]] = []

    def document(truncated: bool = False) -> Dict[str, object]:
        rates = [p["accesses_per_second"] for p in points
                 if p["accesses_per_second"] > 0]
        # Harmonic mean: total work over total time, so one slow point
        # is not papered over by several fast ones.
        aggregate = (
            len(rates) / sum(1.0 / r for r in rates) if rates else 0.0
        )
        result: Dict[str, object] = {
            "schema_version": SCHEMA_VERSION,
            "quick": quick,
            "accesses_per_point": total,
            "seed": seed,
            "host": {
                "python": platform.python_version(),
                "machine": platform.machine(),
            },
            "points": points,
            "aggregate_accesses_per_second": aggregate,
        }
        if truncated:
            result["truncated"] = {
                "reason": "deadline",
                "deadline_seconds": deadline,
                "points_run": len(points),
                "points_total": len(matrix),
            }
        return result

    try:
        for index, point in enumerate(matrix):
            if monitor is not None:
                monitor.beat(index)
                if monitor.sample() is not None:
                    error = monitor.build_error(
                        f"bench stopped after {len(points)} of "
                        f"{len(matrix)} matrix point(s)"
                    )
                    error.document = document(truncated=True)
                    raise error
            if progress is not None:
                progress(f"bench {_point_id(point)} x {total} accesses")
            config = small_config(
                scheme=Scheme(point["scheme"]),
                replacement=str(point["replacement"]),
            )
            workloads = make_mix(str(point["mix"]), scale=0.25)
            result = run_simulation(
                config, workloads, total_accesses=total, seed=seed,
                workload_name=str(point["mix"]),
            )
            points.append({
                "point": _point_id(point),
                "mix": point["mix"],
                "scheme": point["scheme"],
                "replacement": point["replacement"],
                "accesses": total,
                "host_seconds": float(result.extra["host_seconds"]),
                "accesses_per_second": float(
                    result.extra["host_accesses_per_second"]
                ),
                "sim_cycles_per_second": float(
                    result.extra["host_sim_cycles_per_second"]
                ),
                "ipc": result.ipc,
            })
    finally:
        if monitor is not None:
            monitor.stop()
    return document()


# ----------------------------------------------------------------------
# Micro-benchmarks: one datapath layer at a time
# ----------------------------------------------------------------------
#
# ``run_bench`` times whole simulations, which is what users pay for but
# tells you nothing about *which* layer regressed.  The micro mode times
# each hot-path primitive in isolation — a cache hit probe, a cache
# miss-fill (victim selection included) with clean and with dirty
# victims, an L1 TLB hit probe, native / virtualized page walks, a DRAM
# access and an MSHR observation — so a change that slows one layer shows
# up as one moved number instead of a whole-matrix bisection.  Inputs are
# fully deterministic (fixed address strides, no RNG), so run-to-run
# variance is host jitter only.

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


def _micro_cache_fill(operations: int, dirty: bool) -> Callable[[], float]:
    """Miss-path (probe-miss then fill with victim selection): a
    2x-capacity working set keeps the LRU reuse distance (16 tags/set)
    above the associativity (8 ways), so steady state is ~100% fills.
    With ``dirty`` every line is filled dirty, so every victim is dirty
    and comes back for a write-back; otherwise every victim is clean."""
    from repro.mem.address import CACHE_LINE_BYTES
    from repro.mem.cache import Cache, LineKind

    cache = Cache("micro-l2", 1 << 15, ways=8, latency=10, policy="lru")
    lines = (1 << 15) // CACHE_LINE_BYTES
    span = lines * 2
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


#: Ordered (component name, builder) pairs; builders do all setup outside
#: the timed region and return a zero-arg callable yielding host seconds.
MICRO_COMPONENTS: List[tuple] = [
    ("cache.lookup", _micro_cache_lookup),
    ("cache.fill", lambda operations: _micro_cache_fill(operations, False)),
    ("cache.fill_dirty",
     lambda operations: _micro_cache_fill(operations, True)),
    ("tlb.lookup", _micro_tlb_lookup),
    ("walk.native", lambda operations: _micro_walk(operations, native=True)),
    ("walk.virtualized",
     lambda operations: _micro_walk(operations, native=False)),
    ("dram.access", _micro_dram_access),
    ("mshr.observe", _micro_mshr_observe),
]


def run_micro_bench(
    operations: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Time each datapath primitive in isolation; returns a document.

    The document shares ``schema_version`` and the ``points`` shape with
    :func:`run_bench` (so ``load_bench`` accepts it) but sets
    ``"micro": true`` and reports ``ns_per_op`` / ``ops_per_second``
    instead of simulation throughput.  Micro documents are informational:
    they are not compared against the committed baseline.
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
        f"{'component':<20} {'ops':>9} {'seconds':>8} "
        f"{'ns/op':>9} {'ops/s':>12}"
    ]
    for point in document.get("points", []):
        lines.append(
            f"{point['point']:<20} {point['operations']:>9} "
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


def load_bench(path: str) -> Dict[str, object]:
    """Load and sanity-check a benchmark document."""
    try:
        with open(path) as handle:
            document = json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read benchmark {path}: {exc}") from exc
    if not isinstance(document, dict) or "points" not in document:
        raise BenchError(f"{path} is not a benchmark document")
    if document.get("schema_version") != SCHEMA_VERSION:
        raise BenchError(
            f"{path}: schema_version "
            f"{document.get('schema_version')!r} != {SCHEMA_VERSION}"
        )
    return document


def compare_bench(
    current: Dict[str, object],
    baseline: Dict[str, object],
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[str]:
    """Regressions of ``current`` vs ``baseline`` (empty = pass).

    Throughput is compared in relative terms: the aggregate and each
    matched point must stay above ``(1 - tolerance)`` of the baseline
    rate.  Points present on only one side are reported informationally
    by the CLI but are not failures — the matrix is allowed to grow.
    """
    problems: List[str] = []
    base_aggregate = float(baseline.get("aggregate_accesses_per_second", 0.0))
    cur_aggregate = float(current.get("aggregate_accesses_per_second", 0.0))
    if base_aggregate > 0 and cur_aggregate < base_aggregate * (1 - tolerance):
        problems.append(
            f"aggregate throughput {cur_aggregate:,.0f} acc/s is "
            f"{1 - cur_aggregate / base_aggregate:.1%} below baseline "
            f"{base_aggregate:,.0f} acc/s (tolerance {tolerance:.0%})"
        )
    base_points = {p["point"]: p for p in baseline.get("points", [])}
    for point in current.get("points", []):
        base = base_points.get(point["point"])
        if base is None:
            continue
        base_rate = float(base.get("accesses_per_second", 0.0))
        cur_rate = float(point.get("accesses_per_second", 0.0))
        if base_rate > 0 and cur_rate < base_rate * (1 - tolerance):
            problems.append(
                f"{point['point']}: {cur_rate:,.0f} acc/s is "
                f"{1 - cur_rate / base_rate:.1%} below baseline "
                f"{base_rate:,.0f} acc/s"
            )
    return problems


def format_bench(document: Dict[str, object]) -> str:
    """Human-readable table for one benchmark document."""
    lines = [
        f"{'point':<28} {'accesses':>9} {'seconds':>8} "
        f"{'acc/s':>10} {'Mcyc/s':>8}"
    ]
    for point in document.get("points", []):
        lines.append(
            f"{point['point']:<28} {point['accesses']:>9} "
            f"{point['host_seconds']:>8.2f} "
            f"{point['accesses_per_second']:>10,.0f} "
            f"{point['sim_cycles_per_second'] / 1e6:>8.2f}"
        )
    lines.append(
        f"aggregate (harmonic mean)               "
        f"{document.get('aggregate_accesses_per_second', 0.0):>10,.0f} acc/s"
    )
    return "\n".join(lines)

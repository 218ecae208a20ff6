"""System configuration with the paper's Table 2 parameters as defaults.

All latencies are in CPU cycles at 4 GHz.  ``time_scale`` shrinks
wall-clock quantities (the 10 ms context-switch quantum) to keep
pure-Python runs tractable while preserving the ratios that drive the
results — see DESIGN.md Section 5.  At the default scale of 1/400, the
paper's 10 ms quantum (40 M cycles) becomes 100 K cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.core.partitioning import DEFAULT_EPOCH_ACCESSES, N_MIN
from repro.errors import ConfigError
from repro.core.schemes import PartitionMode, Scheme
from repro.mem.replacement import POLICY_BY_NAME
from repro.vm.mmu_cache import PscConfig

#: Paper platform frequency: cycles per (unscaled) millisecond.
CYCLES_PER_MS = 4_000_000


@dataclass(frozen=True)
class CacheConfig:
    size_bytes: int
    ways: int
    latency: int


@dataclass(frozen=True)
class TlbConfig:
    l1_4k_entries: int = 64
    l1_2m_entries: int = 32
    l1_ways: int = 4
    l1_latency: int = 9
    l2_entries: int = 1536
    l2_ways: int = 12
    l2_latency: int = 17


@dataclass(frozen=True)
class SystemConfig:
    """Everything a :class:`~repro.sim.system.System` needs."""

    scheme: Scheme = Scheme.CSALT_CD
    cores: int = 8
    virtualized: bool = True
    contexts_per_core: int = 2

    l1d: CacheConfig = CacheConfig(32 * 1024, 8, 4)
    l2: CacheConfig = CacheConfig(256 * 1024, 4, 12)
    l3: CacheConfig = CacheConfig(8 * 1024 * 1024, 16, 42)
    tlb: TlbConfig = TlbConfig()
    psc: PscConfig = PscConfig()

    pom_tlb_bytes: int = 16 * 1024 * 1024
    tsb_entries: int = 512 * 1024

    #: Radix page-table depth: 4 (x86-64) or 5 (Intel LA57 — the paper's
    #: "five-level page table will only strengthen the motivation").
    page_table_levels: int = 4

    #: Sequential L2-TLB prefetching (Section 6's orthogonal technique;
    #: only effective with a POM-TLB substrate to prefetch from).
    tlb_prefetch: bool = False

    #: Cache replacement: a name in ``repro.mem.replacement.POLICY_BY_NAME``.
    replacement: str = "lru"
    #: Partition profilers: shadow tags (False) or Section 3.4 estimates.
    estimate_positions: bool = False
    #: Profiler set-sampling: every 2**sample_shift-th set.
    sample_shift: int = 2
    epoch_accesses: int = DEFAULT_EPOCH_ACCESSES
    #: Fixed data-way split for Scheme.CSALT_STATIC.
    static_data_ways: Optional[int] = None

    #: Context-switch quantum in (paper) milliseconds and the scale factor
    #: applied to convert it to simulated cycles.
    switch_interval_ms: float = 10.0
    time_scale: float = 1.0 / 400.0

    #: Timing model knobs.
    base_cpi: float = 0.65
    nonmem_per_mem: int = 2
    mshr_entries: int = 10
    workload_mlp: float = 4.0

    #: Host memory reserved per VM (bounds the frame allocators; pure
    #: bookkeeping — nothing of this size is actually allocated).
    vm_bytes: int = 1 << 33

    #: Default snapshot cadence (accesses) when the engine is not given an
    #: explicit ``checkpoint_every``; ``None`` disables checkpointing.
    checkpoint_every: Optional[int] = None
    #: Default invariant-audit cadence (accesses); ``None`` disables the
    #: periodic audits (the post-restore audit always runs).
    check_invariants: Optional[int] = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Reject configurations that would fail later or mid-run.

        Every error names the offending field so campaign logs pinpoint
        the bad grid axis without a traceback spelunk.
        """
        if self.cores < 1:
            raise ConfigError(f"cores: need at least one core, got {self.cores}")
        if self.contexts_per_core < 1:
            raise ConfigError(
                f"contexts_per_core: need at least one context per core, "
                f"got {self.contexts_per_core}"
            )
        if self.time_scale <= 0:
            raise ConfigError(
                f"time_scale: must be positive, got {self.time_scale}"
            )
        if self.switch_interval_ms <= 0:
            raise ConfigError(
                f"switch_interval_ms: must be positive, got "
                f"{self.switch_interval_ms}"
            )
        if self.page_table_levels not in (4, 5):
            raise ConfigError(
                f"page_table_levels: must be 4 or 5, got "
                f"{self.page_table_levels}"
            )
        if not 0 <= self.nonmem_per_mem:
            raise ConfigError("nonmem_per_mem: cannot be negative")
        if self.base_cpi <= 0:
            raise ConfigError(f"base_cpi: must be positive, got {self.base_cpi}")
        if self.checkpoint_every is not None and self.checkpoint_every <= 0:
            raise ConfigError(
                f"checkpoint_every: interval must be positive, got "
                f"{self.checkpoint_every}"
            )
        if self.check_invariants is not None and self.check_invariants <= 0:
            raise ConfigError(
                f"check_invariants: interval must be positive, got "
                f"{self.check_invariants}"
            )
        replacement = self.replacement.lower()
        if replacement not in POLICY_BY_NAME:
            raise ConfigError(
                f"replacement: unknown policy {self.replacement!r}; expected "
                f"one of {sorted(POLICY_BY_NAME)}"
            )
        if replacement == "plru":
            for field_name, cache in (("l2", self.l2), ("l3", self.l3)):
                if cache.ways & (cache.ways - 1):
                    raise ConfigError(
                        f"{field_name}.ways: tree-PLRU needs a power-of-two "
                        f"associativity, got {cache.ways}"
                    )
        if self.scheme.partition_mode is not PartitionMode.NONE:
            # Algorithm 1 searches N in [N_MIN, K - N_MIN]: both streams
            # must be able to hold their minimum simultaneously.
            for field_name, cache in (("l2", self.l2), ("l3", self.l3)):
                if cache.ways < 2 * N_MIN:
                    raise ConfigError(
                        f"{field_name}.ways: partitioning needs at least "
                        f"{2 * N_MIN} ways (N_MIN={N_MIN} per stream), got "
                        f"{cache.ways}"
                    )
            if self.static_data_ways is not None and self.static_data_ways < N_MIN:
                raise ConfigError(
                    f"static_data_ways: must be at least N_MIN={N_MIN}, got "
                    f"{self.static_data_ways}"
                )
        for field_name, entries, ways in (
            ("tlb.l1_4k_entries", self.tlb.l1_4k_entries, self.tlb.l1_ways),
            ("tlb.l1_2m_entries", self.tlb.l1_2m_entries, self.tlb.l1_ways),
            ("tlb.l2_entries", self.tlb.l2_entries, self.tlb.l2_ways),
        ):
            if entries % ways:
                raise ConfigError(
                    f"{field_name}: {entries} entries not divisible into "
                    f"{ways} ways"
                )

    @property
    def switch_interval_cycles(self) -> int:
        return max(1, int(self.switch_interval_ms * CYCLES_PER_MS * self.time_scale))

    @property
    def num_vms(self) -> int:
        return self.contexts_per_core

    def with_scheme(self, scheme: Scheme) -> "SystemConfig":
        return replace(self, scheme=scheme)


def small_config(**overrides) -> SystemConfig:
    """A quarter-scale configuration for fast (seconds-scale) runs.

    Every capacity (caches, TLBs, POM-TLB) is the paper's Table 2 value
    divided by four, latencies and associativities unchanged; workloads
    are scaled by the same factor (``make_mix(..., scale=0.25)``), so all
    the capacity ratios that drive the results are preserved while runs
    of a few hundred thousand accesses reach steady state.  The epoch and
    the context-switch quantum shrink in proportion to run length.
    """
    defaults = dict(
        # The L1D keeps its full 32 KB: it is not a CSALT subject (no TLB
        # entries live there) and shrinking it would only inflate data
        # stalls, diluting the translation effects under study.
        l1d=CacheConfig(32 * 1024, 8, 4),
        l2=CacheConfig(64 * 1024, 4, 12),
        l3=CacheConfig(2 * 1024 * 1024, 16, 42),
        tlb=TlbConfig(
            l1_4k_entries=16,
            l1_2m_entries=8,
            l1_ways=4,
            l1_latency=9,
            l2_entries=384,
            l2_ways=12,
            l2_latency=17,
        ),
        pom_tlb_bytes=4 * 1024 * 1024,
        tsb_entries=128 * 1024,
        epoch_accesses=4_000,
        time_scale=1.0 / 192.0,
        vm_bytes=1 << 32,
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


#: The workload scale factor that pairs with :func:`small_config`.
SMALL_WORKLOAD_SCALE = 0.25

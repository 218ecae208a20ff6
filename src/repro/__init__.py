"""CSALT: Context Switch Aware Large TLB — a full-system reproduction.

Reproduces Marathe et al., *CSALT: Context Switch Aware Large TLB*
(MICRO-50, 2017): a trace-driven simulator of a virtualized 8-core memory
subsystem with a part-of-memory L3 TLB, plus the CSALT TLB-aware dynamic
cache-partitioning schemes and every baseline the paper compares against.

Quickstart::

    from repro import Scheme, small_config, run_simulation, make_mix

    config = small_config(scheme=Scheme.CSALT_CD)
    result = run_simulation(config, make_mix("gups"), total_accesses=50_000)
    print(result.ipc, result.l2_tlb_mpki)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure and table.
"""

from repro.core.partitioning import (
    PartitionController,
    best_partition,
    marginal_utility,
)
from repro.core.schemes import PartitionMode, Scheme
from repro.core.stack_distance import StackDistanceProfiler
from repro.mem.cache import Cache, LineKind
from repro.sim.config import CacheConfig, SystemConfig, TlbConfig, small_config
from repro.sim.engine import run_simulation
from repro.sim.stats import SimulationResult, geometric_mean
from repro.sim.system import System
from repro.telemetry import (
    CpiStack,
    CycleAccountant,
    EventTracer,
    Telemetry,
    TraceEvent,
)
from repro.tlb.pom_tlb import PomTlb
from repro.tlb.tlb import Tlb, TlbEntry
from repro.workloads.base import Workload
from repro.workloads.mixes import MIX_NAMES, MIXES, make_mix, make_program

__version__ = "1.0.0"

__all__ = [
    "Cache",
    "CacheConfig",
    "EventTracer",
    "LineKind",
    "Telemetry",
    "TraceEvent",
    "MIXES",
    "MIX_NAMES",
    "PartitionController",
    "PartitionMode",
    "PomTlb",
    "Scheme",
    "SimulationResult",
    "StackDistanceProfiler",
    "System",
    "SystemConfig",
    "Tlb",
    "TlbConfig",
    "TlbEntry",
    "Workload",
    "best_partition",
    "geometric_mean",
    "make_mix",
    "make_program",
    "marginal_utility",
    "run_simulation",
    "small_config",
]

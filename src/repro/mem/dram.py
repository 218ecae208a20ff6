"""Row-buffer DRAM timing models.

Two devices from the paper's Table 2:

* off-chip **DDR4-2133** (64-bit bus, 2 KB row buffer, 14-14-14) serving
  ordinary memory and page-table contents;
* **die-stacked DRAM** (128-bit bus at DDR-2 GHz, 2 KB row buffer,
  11-11-11) hosting the 16 MB POM-TLB.

The model is per-bank open-row: an access to the open row pays CAS only, a
closed-row access pays ACT (tRCD) + CAS, and a row conflict adds the
precharge (tRP).  Latencies are converted to 4 GHz CPU cycles.  Queueing
contention is not modeled (the top-level timing model is analytic, see
DESIGN.md Section 5); the row-buffer behaviour is what matters for the
POM-TLB's "slow but giant" trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict


@dataclass
class DramTiming:
    """Device timing in device-clock cycles plus geometry."""

    name: str
    bus_mhz: float
    bus_bytes: int
    row_bytes: int
    t_cas: int
    t_rcd: int
    t_rp: int
    banks: int
    cpu_mhz: float = 4000.0

    def device_to_cpu(self, device_cycles: float) -> int:
        """Convert device-clock cycles to (rounded-up) CPU cycles."""
        cpu = device_cycles * (self.cpu_mhz / self.bus_mhz)
        return int(cpu) + (cpu % 1 > 0)

    @property
    def burst_cycles(self) -> float:
        """Device cycles to move one 64-byte cache line (DDR: 2/cycle)."""
        return 64 / (self.bus_bytes * 2)


DDR4_2133 = DramTiming(
    name="ddr4-2133",
    bus_mhz=1066.0,
    bus_bytes=8,
    row_bytes=2048,
    t_cas=14,
    t_rcd=14,
    t_rp=14,
    banks=16,
)

DIE_STACKED = DramTiming(
    name="die-stacked",
    bus_mhz=1000.0,
    bus_bytes=16,
    row_bytes=2048,
    t_cas=11,
    t_rcd=11,
    t_rp=11,
    banks=32,
)


@dataclass
class DramStats:
    accesses: int = 0
    row_hits: int = 0
    row_misses: int = 0

    @property
    def row_hit_rate(self) -> float:
        return self.row_hits / self.accesses if self.accesses else 0.0


class DramChannel:
    """One DRAM channel with per-bank open-row state."""

    def __init__(self, timing: DramTiming):
        self.timing = timing
        self.stats = DramStats()
        self._open_rows: Dict[int, int] = {}
        self._row_bytes = timing.row_bytes
        self._banks = timing.banks
        # The three possible latencies, in CPU cycles, fixed by the timing.
        closed = timing.t_cas + timing.t_rcd + timing.burst_cycles
        self._row_hit_cycles = timing.device_to_cpu(
            timing.t_cas + timing.burst_cycles
        )
        self._closed_row_cycles = timing.device_to_cpu(closed)
        self._row_conflict_cycles = timing.device_to_cpu(closed + timing.t_rp)

    def access(self, address: int) -> int:
        """Return the CPU-cycle latency of reading/writing ``address``.

        An open-row hit pays CAS only, a closed row ACT + CAS, and a row
        conflict the precharge as well.
        """
        row = address // self._row_bytes
        bank = row % self._banks
        stats = self.stats
        stats.accesses += 1
        open_rows = self._open_rows
        open_row = open_rows.get(bank)
        if open_row == row:
            stats.row_hits += 1
            return self._row_hit_cycles
        stats.row_misses += 1
        open_rows[bank] = row
        if open_row is None:
            return self._closed_row_cycles
        return self._row_conflict_cycles

    def average_latency(self, row_hit_fraction: float = 0.5) -> int:
        """Expected latency for the criticality estimator (no state change)."""
        t = self.timing
        hit = t.t_cas + t.burst_cycles
        miss = t.t_rp + t.t_rcd + t.t_cas + t.burst_cycles
        expected = row_hit_fraction * hit + (1 - row_hit_fraction) * miss
        return t.device_to_cpu(expected)

    def register_metrics(self, registry, prefix: str) -> None:
        """Expose channel counters as callback gauges under ``prefix``."""
        registry.gauge(f"{prefix}.accesses", lambda: self.stats.accesses)
        registry.gauge(f"{prefix}.row_hits", lambda: self.stats.row_hits)
        registry.gauge(f"{prefix}.row_misses", lambda: self.stats.row_misses)
        registry.gauge(f"{prefix}.row_hit_rate", lambda: self.stats.row_hit_rate)

    def reset_stats(self) -> None:
        """Zero the counters without disturbing open-row state."""
        self.stats = DramStats()

    def reset(self) -> None:
        self.stats = DramStats()
        self._open_rows.clear()

    def state_dict(self) -> dict:
        return {"stats": replace(self.stats), "open_rows": dict(self._open_rows)}

    def load_state(self, state: dict) -> None:
        for bank in state["open_rows"]:
            if not 0 <= bank < self.timing.banks:
                raise ValueError(
                    f"{self.timing.name}: snapshot bank {bank} outside "
                    f"[0, {self.timing.banks})"
                )
        self.stats = replace(state["stats"])
        self._open_rows = dict(state["open_rows"])

"""Miss-status holding register (MSHR) overlap model.

The paper's key asymmetry (Section 2.2): *data* misses overlap with other
work through MSHRs, while *address-translation* misses are blocking — the
pipeline stalls until the translation resolves.  A cycle-accurate MSHR file
would require a global event queue; instead we model the first-order
effect: the effective stall charged for a data miss is its raw latency
divided by the achievable memory-level parallelism.

Achieved MLP scales with how densely misses occur: when nearly every
access misses (a gups-like stream), many are in flight together and each
contributes ``latency / cap``; when misses are rare, there is nothing to
overlap with and each costs its full latency.  We track an exponentially
weighted miss rate and interpolate between those endpoints, capping at
both the MSHR entry count and the workload's inherent MLP.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.telemetry.accounting import quantize_cycles


def _achieved_mlp(entries: int, workload_mlp: float, miss_rate: float) -> float:
    """Achieved MLP: 1 when misses are rare, the cap when every access
    misses, linear in the miss density between."""
    return 1.0 + (min(float(entries), workload_mlp) - 1.0) * miss_rate


@dataclass
class MshrModel:
    """Miss-density-driven MLP estimator bounded by MSHR capacity."""

    entries: int = 10
    workload_mlp: float = 4.0
    decay: float = 0.02
    _miss_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.entries < 1:
            raise ValueError("MSHR file needs at least one entry")
        if self.workload_mlp < 1.0:
            raise ValueError("workload MLP cannot be below 1")

    @property
    def mlp_cap(self) -> float:
        return min(float(self.entries), self.workload_mlp)

    @property
    def mlp(self) -> float:
        """Currently achieved memory-level parallelism estimate."""
        return _achieved_mlp(self.entries, self.workload_mlp, self._miss_rate)

    def observe(self, miss_latency: float) -> float:
        """Fold one data access into the miss-density estimate and return
        its effective pipeline stall.

        ``miss_latency`` is the raw latency beyond the L1D (0 on a hit,
        which stalls nothing).  A miss first raises the miss density, then
        costs ``miss_latency / mlp`` quantized to 1/1024 cycle, so the
        stall is a dyadic rational: the cycle-accounting ledger can sum
        components bit-exactly to the core clock (see
        :mod:`repro.telemetry.accounting`).  The perturbation is below
        half a quantum (< 0.0005 cycles) per miss.
        """
        miss_rate = self._miss_rate
        if miss_latency > 0:
            miss_rate += self.decay * (1.0 - miss_rate)
            self._miss_rate = miss_rate
            return quantize_cycles(
                miss_latency
                / _achieved_mlp(self.entries, self.workload_mlp, miss_rate)
            )
        self._miss_rate = miss_rate + self.decay * (0.0 - miss_rate)
        return 0.0

    def state_dict(self) -> dict:
        return {"miss_rate": self._miss_rate, "workload_mlp": self.workload_mlp}

    def load_state(self, state: dict) -> None:
        self._miss_rate = float(state["miss_rate"])
        self.workload_mlp = float(state["workload_mlp"])
